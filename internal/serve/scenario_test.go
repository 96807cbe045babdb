package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// testSpec builds a three-device spec over the given profile IDs,
// exercising windows, dilation and a count cap.
func testSpec(ids ...string) *scenario.Spec {
	s := &scenario.Spec{}
	for i, id := range ids {
		d := scenario.Device{
			Profile: id,
			Name:    fmt.Sprintf("ip%d", i),
			Window:  &scenario.Window{Base: uint64(i) << 30, Size: 1 << 30},
			Seed:    uint64(i + 1),
		}
		if i == 1 {
			d.Dilation = 2.0
		}
		if i == 2 {
			d.Count = 100
		}
		s.Devices = append(s.Devices, d)
	}
	return s
}

// offlineComposeBin is the reference for scenario streams: the same
// spec composed in-process over the given heap profiles and binary
// encoded — what `mocktails compose -format bin` emits.
func offlineComposeBin(t *testing.T, spec *scenario.Spec, views map[string]*profile.Profile) []byte {
	t.Helper()
	st, err := scenario.Compose(spec, func(id string) (profile.View, func(), error) {
		v, ok := views[id]
		if !ok {
			return nil, nil, fmt.Errorf("unknown profile %s", id)
		}
		return v, func() {}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var buf bytes.Buffer
	if _, err := trace.WriteBinaryStream(nil, &buf, st.Total(), st.Next); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func postScenario(t *testing.T, baseURL string, spec *scenario.Spec) (int, []byte, http.Header) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(baseURL+"/v1/scenarios/synth", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out, resp.Header
}

// The scenario acceptance invariant: the streamed composition is
// byte-identical to the offline composer on the same spec.
func TestScenarioStreamMatchesOfflineCompose(t *testing.T) {
	_, ts := newTestServer(t, Config{SynthWorkers: 4})
	views := map[string]*profile.Profile{}
	var ids []string
	for seed := uint64(1); seed <= 3; seed++ {
		p := testProfile(t, seed)
		meta := uploadProfile(t, ts, p)
		views[meta.ID] = p
		ids = append(ids, meta.ID)
	}
	spec := testSpec(ids...)

	want := offlineComposeBin(t, spec, views)
	status, body, hdr := postScenario(t, ts.URL, spec)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("streamed scenario differs from offline compose: %d vs %d bytes", len(body), len(want))
	}
	if got := hdr.Get("X-Mocktails-Requests"); got != "700" {
		t.Errorf("X-Mocktails-Requests = %q, want 700 (300+300+100)", got)
	}
	if got := hdr.Get("Content-Length"); got != fmt.Sprint(trace.BinaryEncodedSize(700)) {
		t.Errorf("Content-Length = %q, want %d", got, trace.BinaryEncodedSize(700))
	}

	// CSV output parses back to the same requests.
	csvSpec := *spec
	csvSpec.Output = "csv"
	status, csvBody, hdr := postScenario(t, ts.URL, &csvSpec)
	if status != http.StatusOK {
		t.Fatalf("csv status %d: %s", status, csvBody)
	}
	if ct := hdr.Get("Content-Type"); ct != "text/csv" {
		t.Errorf("csv Content-Type %q", ct)
	}
	fromCSV, err := trace.ReadCSV(bytes.NewReader(csvBody))
	if err != nil {
		t.Fatal(err)
	}
	fromBin, err := trace.ReadBinary(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if len(fromCSV) != len(fromBin) {
		t.Fatalf("csv carried %d requests, bin %d", len(fromCSV), len(fromBin))
	}

	// The endpoint registered its metrics.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, m := range []string{"serve_scenario_composed", "serve_scenario_requests_streamed", "serve_scenario_devices"} {
		if !strings.Contains(string(metrics), m) {
			t.Errorf("/metrics is missing %s", m)
		}
	}
}

// A single-device, identity-window, dilation-1 scenario must be
// byte-identical to the plain per-profile synthesis endpoint.
func TestScenarioIdentityMatchesPlainSynth(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	p := testProfile(t, 5)
	meta := uploadProfile(t, ts, p)

	spec := &scenario.Spec{Devices: []scenario.Device{{Profile: meta.ID, Seed: 42}}}
	status, composed, _ := postScenario(t, ts.URL, spec)
	if status != http.StatusOK {
		t.Fatalf("scenario status %d: %s", status, composed)
	}

	resp, err := http.Post(ts.URL+"/v1/profiles/"+meta.ID+"/synth?seed=42&format=bin", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("synth status %d", resp.StatusCode)
	}
	if !bytes.Equal(composed, plain) {
		t.Fatalf("identity scenario differs from plain synth: %d vs %d bytes", len(composed), len(plain))
	}
}

func TestScenarioStatsReport(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	p := testProfile(t, 1)
	meta := uploadProfile(t, ts, p)

	spec := testSpec(meta.ID, meta.ID, meta.ID)
	spec.Output = "stats"
	spec.XbarLatency = 10
	status, body, hdr := postScenario(t, ts.URL, spec)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type %q", ct)
	}
	var rep scenario.Report
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 700 {
		t.Fatalf("replayed %d requests, want 700", rep.Requests)
	}
	if len(rep.Devices) != 3 {
		t.Fatalf("%d device reports, want 3", len(rep.Devices))
	}
	var sum uint64
	for _, d := range rep.Devices {
		sum += d.Requests
	}
	if sum != rep.Requests {
		t.Fatalf("per-device sum %d != aggregate %d", sum, rep.Requests)
	}
	if rep.Devices[0].Name != "ip0" || rep.Devices[0].Profile != meta.ID {
		t.Errorf("device 0 labelled %q/%q", rep.Devices[0].Name, rep.Devices[0].Profile)
	}
	if rep.AvgLatency <= 0 {
		t.Error("report has no latency")
	}
}

func TestScenarioErrorStatuses(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	meta := uploadProfile(t, ts, testProfile(t, 1))

	post := func(body string) (int, string) {
		resp, err := http.Post(ts.URL+"/v1/scenarios/synth", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	// Invalid specs: 422.
	for name, body := range map[string]string{
		"not json":            `{{{`,
		"unknown field":       `{"devices": [{"profile": "` + meta.ID + `"}], "nope": 1}`,
		"no devices":          `{"devices": []}`,
		"bad id":              `{"devices": [{"profile": "zz"}]}`,
		"zero window":         `{"devices": [{"profile": "` + meta.ID + `", "window": {"base": 0, "size": 0}}]}`,
		"negative dilation":   `{"devices": [{"profile": "` + meta.ID + `", "dilation": -2}]}`,
		"oversized count":     `{"devices": [{"profile": "` + meta.ID + `", "count": 1099511627777}]}`,
		"overlapping windows": `{"devices": [{"profile": "` + meta.ID + `", "window": {"base": 0, "size": 10}}, {"profile": "` + meta.ID + `", "window": {"base": 5, "size": 10}}]}`,
		"bad output":          `{"devices": [{"profile": "` + meta.ID + `"}], "output": "yaml"}`,
	} {
		if status, b := post(body); status != http.StatusUnprocessableEntity {
			t.Errorf("%s: status %d (%s), want 422", name, status, b)
		}
	}

	// Unknown (but well-formed) profile: 404.
	ghost := strings.Repeat("0", 64)
	if status, b := post(`{"devices": [{"profile": "` + ghost + `"}]}`); status != http.StatusNotFound {
		t.Errorf("unknown profile: status %d (%s), want 404", status, b)
	}

	// Oversized spec body: 413.
	huge := `{"devices": [{"profile": "` + meta.ID + `", "name": "` + strings.Repeat("x", maxScenarioSpecBytes) + `"}]}`
	if status, _ := post(huge); status != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413", status)
	}
}

// TestScenarioClusterFetch pins the distributed acceptance criterion: a
// node composes a scenario whose member profiles it does not all hold
// locally — the missing one is fetched from a peer — and the bytes are
// identical to the offline composer and across nodes.
func TestScenarioClusterFetch(t *testing.T) {
	srvs, tss := newTestCluster(t, 2, Config{})

	// Upload each profile to a different node; replication places each
	// on its ring owner, so at least one node is missing at least one.
	p1, p2 := testProfile(t, 1), testProfile(t, 2)
	meta1 := uploadProfile(t, tss[0], p1)
	meta2 := uploadProfile(t, tss[1], p2)
	views := map[string]*profile.Profile{meta1.ID: p1, meta2.ID: p2}

	spec := &scenario.Spec{Devices: []scenario.Device{
		{Profile: meta1.ID, Name: "a", Window: &scenario.Window{Base: 0, Size: 1 << 30}, Seed: 1},
		{Profile: meta2.ID, Name: "b", Window: &scenario.Window{Base: 1 << 30, Size: 1 << 30}, Seed: 2, Dilation: 0.5},
	}}
	want := offlineComposeBin(t, spec, views)

	for i, ts := range tss {
		status, body, _ := postScenario(t, ts.URL, spec)
		if status != http.StatusOK {
			t.Fatalf("node %d: status %d: %s", i, status, body)
		}
		if !bytes.Equal(body, want) {
			t.Fatalf("node %d: composed stream differs from offline compose", i)
		}
	}

	// Fetch-on-miss admitted the missing member locally on both nodes.
	for i, s := range srvs {
		for _, id := range []string{meta1.ID, meta2.ID} {
			if _, ok := s.store.Meta(id); !ok {
				t.Errorf("node %d still missing %s after composing", i, id)
			}
		}
	}
}

// A peer-marked scenario request must see local state only (no fetch
// recursion), exactly like the single-profile endpoints: a node that
// does not hold a member profile answers 404 instead of fetching.
func TestScenarioPeerRequestSeesLocalOnly(t *testing.T) {
	// Three nodes: the upload target and the ring owner can account for
	// at most two, so at least one node is guaranteed to miss locally.
	srvs, tss := newTestCluster(t, 3, Config{})
	meta := uploadProfile(t, tss[0], testProfile(t, 1))

	spec := &scenario.Spec{Devices: []scenario.Device{{Profile: meta.ID}}}
	body, _ := json.Marshal(spec)
	sawMiss := false
	for i, ts := range tss {
		_, holds := srvs[i].store.Meta(meta.ID)
		req, err := http.NewRequest("POST", ts.URL+"/v1/scenarios/synth", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(headerPeer, "test-peer")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch {
		case holds && resp.StatusCode != http.StatusOK:
			t.Errorf("node %d holds the profile but answered %d", i, resp.StatusCode)
		case !holds && resp.StatusCode != http.StatusNotFound:
			t.Errorf("node %d is missing the profile but answered %d (peer requests must not fetch)", i, resp.StatusCode)
		case !holds:
			sawMiss = true
			if _, now := srvs[i].store.Meta(meta.ID); now {
				t.Errorf("node %d pulled the profile in for a peer-marked request", i)
			}
		}
	}
	if !sawMiss {
		t.Fatal("no node missed the profile; the cluster helper changed its replication shape")
	}
}

// A client that hangs up mid-way through a composed stream stops every
// device's synthesis: pins, shard goroutines and the active-stream
// gauge all return to their baseline once the handler has finished.
func TestScenarioClientDisconnect(t *testing.T) {
	s, ts := newTestServer(t, Config{SynthWorkers: 4})
	var ids []string
	for seed := uint64(1); seed <= 2; seed++ {
		p, err := core.Build(fmt.Sprintf("big%d", seed), testTrace(seed, 150_000), core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, uploadProfile(t, ts, p).ID)
	}
	leakcheck(t, s, ids...)
	spec := testSpec(ids...)
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/scenarios/synth", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(resp.Body, make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if got := refsOf(s, id); got != 1 {
			t.Fatalf("mid-stream refs of %s = %d, want 1", id, got)
		}
	}
	resp.Body.Close()
	waitIdle(t, s)
	if active := s.ActiveStreams(); active != 0 {
		t.Fatalf("stream did not wind down: active=%d", active)
	}
}

package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

var (
	buildOnce sync.Once
	buildDir  string
	builtBin  string // the binary, or the build output on failure
	buildErr  error
)

func TestMain(m *testing.M) {
	code := m.Run()
	stopAllDaemons()
	if buildDir != "" {
		os.RemoveAll(buildDir)
	}
	os.Exit(code)
}

// daemonBin builds mocktailsd once per test binary.
func daemonBin(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		buildDir, buildErr = os.MkdirTemp("", "perfbench-test")
		if buildErr != nil {
			return
		}
		builtBin = filepath.Join(buildDir, "mocktailsd")
		out, err := exec.Command("go", "build", "-o", builtBin, "repro/cmd/mocktailsd").CombinedOutput()
		if buildErr = err; err != nil {
			builtBin = string(out)
		}
	})
	if buildErr != nil {
		t.Fatalf("building mocktailsd: %v\n%s", buildErr, builtBin)
	}
	return builtBin
}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// TestShortRunsEmitDeclaredMetrics runs every workload briefly in both
// modes and checks that the result line carries exactly the metrics
// BENCHMARK.json declares, with their units, and that every op passed.
func TestShortRunsEmitDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("starts daemons")
	}
	bin := daemonBin(t)
	endToEnd, perLayer := declared(t)
	for _, w := range allWorkloads {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{workload: w, seed: 3, seconds: 2 * time.Second, daemon: bin, root: "..", rounds: 2, spare: 1}
			var res *result
			var err error
			want := endToEnd
			if traced {
				res, err = runTraced(cfg)
				want = perLayer
			} else {
				res, err = runEndToEnd(cfg)
			}
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			var out bytes.Buffer
			printResult(&out, res)
			checkResultLine(t, w.name, lastLine(t, out.Bytes()), want)
		}
	}
}

func lastLine(t *testing.T, out []byte) []byte {
	t.Helper()
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		last = append(last[:0], sc.Bytes()...)
	}
	return last
}

func checkResultLine(t *testing.T, name string, line []byte, want map[string]string) {
	t.Helper()
	var top map[string]json.RawMessage
	if err := json.Unmarshal(line, &top); err != nil {
		t.Fatalf("%s: last line is not JSON: %v", name, err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := top[k]; !ok {
			t.Errorf("%s: result lacks %q", name, k)
		}
	}
	if len(top) != 4 {
		t.Errorf("%s: result has %d keys, want 4", name, len(top))
	}
	var metrics map[string]map[string]any
	if err := json.Unmarshal(top["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	for n, unit := range want {
		m, ok := metrics[n]
		if !ok {
			t.Errorf("%s: metric %s missing", name, n)
			continue
		}
		if m["unit"] != unit {
			t.Errorf("%s: metric %s unit %v, want %s", name, n, m["unit"], unit)
		}
		if _, ok := m["value"].(float64); !ok || len(m) != 2 {
			t.Errorf("%s: metric %s = %v, want {value, unit}", name, n, m)
		}
	}
	for n := range metrics {
		if _, ok := want[n]; !ok {
			t.Errorf("%s: metric %s is not declared in BENCHMARK.json", name, n)
		}
	}
}

// TestInputsFollowSeed checks that a run's inputs are a function of its
// seed alone.
func TestInputsFollowSeed(t *testing.T) {
	for _, w := range allWorkloads {
		a, err := prepare(w, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := prepare(w, 7)
		if err != nil {
			t.Fatal(err)
		}
		c, err := prepare(w, 8)
		if err != nil {
			t.Fatal(err)
		}
		if a.hash != b.hash {
			t.Errorf("%s: seed 7 gave two input hashes", w.name)
		}
		if a.hash == c.hash {
			t.Errorf("%s: seeds 7 and 8 gave the same input hash", w.name)
		}
	}
}

func TestQuietestKeepsLeastStolenRoundsInOrder(t *testing.T) {
	rs := []round{{setup: 0, steal: 5}, {setup: 1, steal: 0.1}, {setup: 2, steal: 9}, {setup: 3, steal: 0.1}, {setup: 4, steal: 1}}
	got := quietest(rs, 3)
	if len(got) != 3 || got[0].setup != 1 || got[1].setup != 3 || got[2].setup != 4 {
		t.Errorf("kept %+v", got)
	}
	if len(quietest(rs, 9)) != len(rs) {
		t.Error("asking for more rounds than ran must keep them all")
	}
}

package scenario

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/profile"
	"repro/internal/stats"
	"repro/internal/synth"
	"repro/internal/trace"
)

// testTrace builds a small deterministic trace whose content varies
// with the seed.
func testTrace(seed uint64, n int) trace.Trace {
	rng := stats.NewRNG(seed)
	tr := make(trace.Trace, 0, n)
	now, addr := uint64(100), uint64(1<<20)
	for i := 0; i < n; i++ {
		now += uint64(rng.Range(1, 100))
		addr += uint64(rng.Range(-4, 8) * 64)
		op := trace.Read
		if rng.Bool(0.3) {
			op = trace.Write
		}
		tr = append(tr, trace.Request{Time: now, Addr: addr, Size: 64, Op: op})
	}
	return tr
}

func testProfile(t testing.TB, seed uint64, n int) *profile.Profile {
	t.Helper()
	p, err := core.Build(fmt.Sprintf("w%d", seed), testTrace(seed, n), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// mapResolver resolves spec IDs out of a map and counts releases so
// tests can assert the stream cleans up after itself.
type mapResolver struct {
	views    map[string]profile.View
	released int
}

func (m *mapResolver) resolve(id string) (profile.View, func(), error) {
	v, ok := m.views[id]
	if !ok {
		return nil, nil, fmt.Errorf("unknown profile %s", id)
	}
	return v, func() { m.released++ }, nil
}

// threeDeviceSpec builds a spec exercising every knob: windows,
// dilation, count caps.
func threeDeviceSpec(t testing.TB) (*Spec, *mapResolver) {
	t.Helper()
	r := &mapResolver{views: map[string]profile.View{
		hexID('a'): testProfile(t, 1, 300),
		hexID('b'): testProfile(t, 2, 300),
		hexID('c'): testProfile(t, 3, 300),
	}}
	spec := &Spec{Devices: []Device{
		{Profile: hexID('a'), Name: "cpu", Window: &Window{Base: 0, Size: 1 << 20}, Seed: 1},
		{Profile: hexID('b'), Name: "gpu", Window: &Window{Base: 1 << 20, Size: 1 << 20}, Dilation: 0.5, Seed: 2},
		{Profile: hexID('c'), Name: "dpu", Window: &Window{Base: 1 << 21, Size: 1 << 20}, Dilation: 2.0, Seed: 3, Count: 150},
	}}
	return spec, r
}

func collect(t testing.TB, s *Stream) trace.Trace {
	t.Helper()
	defer s.Close()
	tr := trace.Collect(s, 0)
	return tr
}

func TestComposeSerialVsParallelByteIdentical(t *testing.T) {
	spec, r := threeDeviceSpec(t)
	var got []trace.Trace
	for _, workers := range []int{1, 2, 8} {
		s, err := Compose(spec, r.resolve, Workers(workers))
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, collect(t, s))
	}
	if !reflect.DeepEqual(got[0], got[1]) || !reflect.DeepEqual(got[0], got[2]) {
		t.Fatal("composed stream differs across worker counts")
	}
	if len(got[0]) != 300+300+150 {
		t.Fatalf("composed %d requests, want 750", len(got[0]))
	}
	if !got[0].Sorted() {
		t.Fatal("composed stream is not time-ordered")
	}
}

// shardGoroutines counts the goroutines running a synthesis shard. A
// Synthesizer's Close returns only after each shard's run has returned,
// so the count is exact once the shards are closed.
func shardGoroutines() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "synth.(*shard).run(")
}

// TestComposeClosesShardsBeforeRelease pins the close order: a
// resolver's release, which may unmap a flat file, runs only after every
// device's synthesis shards have exited — whether the stream is
// abandoned mid-flight or drained. The drained stream, several shard
// batches long per device, must also be byte-identical at 1 and 8
// shards per device.
func TestComposeClosesShardsBeforeRelease(t *testing.T) {
	p := testProfile(t, 13, 60000)
	spec := &Spec{Devices: []Device{
		{Profile: hexID('a'), Seed: 1},
		{Profile: hexID('b'), Seed: 2, Dilation: 1.5, Window: &Window{Base: 1 << 30, Size: 1 << 24}},
	}}
	var drained []trace.Trace
	for _, workers := range []int{1, 8} {
		for _, take := range []int{100, -1} {
			released := 0
			resolve := func(id string) (profile.View, func(), error) {
				return p, func() {
					released++
					if n := shardGoroutines(); n != 0 {
						t.Errorf("workers=%d: release ran with %d shard goroutines alive", workers, n)
					}
				}, nil
			}
			s := mustCompose(t, spec, resolve, Workers(workers))
			if workers > 1 && shardGoroutines() == 0 {
				t.Fatal("no shard goroutines while composing with Workers(8)")
			}
			if take < 0 {
				drained = append(drained, trace.Collect(s, 0))
			} else if got := trace.Collect(s, take); len(got) != take {
				t.Fatalf("took %d requests, want %d", len(got), take)
			}
			s.Close()
			if released != 2 {
				t.Fatalf("released %d profiles, want 2", released)
			}
		}
	}
	if len(drained[0]) != 2*p.Requests() || !reflect.DeepEqual(drained[0], drained[1]) {
		t.Fatal("composed stream differs between 1 and 8 shards per device")
	}
}

func TestComposeHeapVsFlatByteIdentical(t *testing.T) {
	spec, r := threeDeviceSpec(t)
	heap := collect(t, mustCompose(t, spec, r.resolve))

	flatViews := map[string]profile.View{}
	for id, v := range r.views {
		buf, err := profile.MarshalFlat(v.(*profile.Profile))
		if err != nil {
			t.Fatal(err)
		}
		f, err := profile.OpenFlat(buf)
		if err != nil {
			t.Fatal(err)
		}
		flatViews[id] = f
	}
	fr := &mapResolver{views: flatViews}
	flat := collect(t, mustCompose(t, spec, fr.resolve))
	if !reflect.DeepEqual(heap, flat) {
		t.Fatal("flat-view composition differs from heap-view composition")
	}
}

func mustCompose(t testing.TB, spec *Spec, r Resolver, opts ...Option) *Stream {
	t.Helper()
	s, err := Compose(spec, r, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestComposeIdentityMatchesPlainSynth pins the acceptance criterion: a
// single-device, identity-window, dilation-1 scenario is exactly the
// profile's plain synthesis stream.
func TestComposeIdentityMatchesPlainSynth(t *testing.T) {
	p := testProfile(t, 7, 300)
	r := &mapResolver{views: map[string]profile.View{hexID('d'): p}}
	spec := &Spec{Devices: []Device{{Profile: hexID('d'), Seed: 42}}}

	composed := collect(t, mustCompose(t, spec, r.resolve, Workers(4)))
	plain := trace.Collect(synth.New(p, 42), 0)
	if !reflect.DeepEqual(composed, plain) {
		t.Fatal("identity scenario differs from plain synthesis")
	}
	if r.released != 1 {
		t.Fatalf("released %d profiles, want 1", r.released)
	}
}

func TestComposeWindowBounds(t *testing.T) {
	spec, r := threeDeviceSpec(t)
	s := mustCompose(t, spec, r.resolve)
	defer s.Close()
	for {
		req, di, ok := s.NextDev()
		if !ok {
			break
		}
		w := spec.Devices[di].Window
		if req.Addr < w.Base || req.Addr >= w.Base+w.Size {
			t.Fatalf("device %d emitted addr %#x outside window [%#x, %#x)", di, req.Addr, w.Base, w.Base+w.Size)
		}
	}
}

func TestComposeDilationStretchesTime(t *testing.T) {
	p := testProfile(t, 9, 200)
	r := &mapResolver{views: map[string]profile.View{hexID('e'): p}}
	base := &Spec{Devices: []Device{{Profile: hexID('e'), Seed: 1}}}
	dilated := &Spec{Devices: []Device{{Profile: hexID('e'), Seed: 1, Dilation: 2.0}}}

	bt := collect(t, mustCompose(t, base, r.resolve))
	dt := collect(t, mustCompose(t, dilated, r.resolve))
	if len(bt) != len(dt) {
		t.Fatalf("dilation changed request count: %d vs %d", len(bt), len(dt))
	}
	t0 := bt[0].Time
	if dt[0].Time != t0 {
		t.Fatalf("dilation moved the first timestamp: %d vs %d", dt[0].Time, t0)
	}
	for i := range bt {
		want := t0 + (bt[i].Time-t0)*2
		if dt[i].Time != want {
			t.Fatalf("request %d: dilated time %d, want %d", i, dt[i].Time, want)
		}
		if dt[i].Addr != bt[i].Addr || dt[i].Op != bt[i].Op || dt[i].Size != bt[i].Size {
			t.Fatalf("request %d: dilation changed non-time fields", i)
		}
	}
	if !dt.Sorted() {
		t.Fatal("dilated stream is not time-ordered")
	}
}

func TestComposeCountCapAndTotal(t *testing.T) {
	p := testProfile(t, 5, 300)
	r := &mapResolver{views: map[string]profile.View{hexID('f'): p}}
	spec := &Spec{Devices: []Device{{Profile: hexID('f'), Seed: 1, Count: 10}}}
	s := mustCompose(t, spec, r.resolve)
	if s.Total() != 10 {
		t.Fatalf("Total() = %d, want 10", s.Total())
	}
	tr := collect(t, s)
	if len(tr) != 10 {
		t.Fatalf("emitted %d, want 10", len(tr))
	}
	// The capped stream is a prefix of the uncapped one.
	full := collect(t, mustCompose(t, &Spec{Devices: []Device{{Profile: hexID('f'), Seed: 1}}}, r.resolve))
	if !reflect.DeepEqual(tr, full[:10]) {
		t.Fatal("capped stream is not a prefix of the full stream")
	}
	// A cap beyond the profile's request count clamps to it.
	s2 := mustCompose(t, &Spec{Devices: []Device{{Profile: hexID('f'), Seed: 1, Count: 1 << 30}}}, r.resolve)
	if s2.Total() != uint64(p.Requests()) {
		t.Fatalf("over-cap Total() = %d, want %d", s2.Total(), p.Requests())
	}
	s2.Close()
}

func TestComposeUnknownProfileFailsAndReleases(t *testing.T) {
	r := &mapResolver{views: map[string]profile.View{hexID('a'): testProfile(t, 1, 100)}}
	spec := &Spec{Devices: []Device{
		{Profile: hexID('a')},
		{Profile: hexID('0')}, // not in the resolver
	}}
	if _, err := Compose(spec, r.resolve); err == nil {
		t.Fatal("unknown profile composed")
	}
	if r.released != 1 {
		t.Fatalf("released %d pins after failure, want 1", r.released)
	}
}

func TestComposeTieBreakByDeviceIndex(t *testing.T) {
	// Two devices synthesizing the same profile with the same seed
	// produce pairwise-identical timestamps; the tie must always go to
	// the lower device index. Distinct windows make attribution visible.
	p := testProfile(t, 11, 100)
	r := &mapResolver{views: map[string]profile.View{hexID('a'): p}}
	spec := &Spec{Devices: []Device{
		{Profile: hexID('a'), Seed: 3, Window: &Window{Base: 0, Size: 1 << 30}},
		{Profile: hexID('a'), Seed: 3, Window: &Window{Base: 1 << 30, Size: 1 << 30}},
	}}
	s := mustCompose(t, spec, r.resolve)
	defer s.Close()
	last := -1
	lastTime := uint64(0)
	for {
		req, di, ok := s.NextDev()
		if !ok {
			break
		}
		if req.Time == lastTime && last == 1 && di == 0 {
			t.Fatal("tie broke toward the higher device index")
		}
		last, lastTime = di, req.Time
	}
}

func TestReplayReportsPerDevice(t *testing.T) {
	spec, r := threeDeviceSpec(t)
	spec.XbarLatency = 10
	s := mustCompose(t, spec, r.resolve)
	defer s.Close()
	rep := Replay(s, spec, dram.Default())
	if rep.Requests != 750 {
		t.Fatalf("replayed %d requests, want 750", rep.Requests)
	}
	if len(rep.Devices) != 3 {
		t.Fatalf("%d device reports, want 3", len(rep.Devices))
	}
	var sum uint64
	for i, d := range rep.Devices {
		sum += d.Requests
		if d.Name != spec.DeviceName(i) || d.Profile != spec.Devices[i].Profile {
			t.Errorf("device %d labelled %q/%q", i, d.Name, d.Profile)
		}
	}
	if sum != rep.Requests {
		t.Fatalf("per-device requests sum to %d, aggregate is %d", sum, rep.Requests)
	}
	if rep.Devices[2].Requests != 150 {
		t.Fatalf("capped device replayed %d requests, want 150", rep.Devices[2].Requests)
	}
	if rep.AvgLatency <= 0 || rep.ReadBursts == 0 {
		t.Fatalf("degenerate aggregate report: %+v", rep)
	}
}

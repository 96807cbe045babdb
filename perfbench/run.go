package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"net/http"
	"os"
	"runtime"
	"sort"
	"time"
)

// Run shape. Warm-up ops are discarded; sampled ops are SHA-256-checked
// against the offline output after the phase.
const (
	rounds      = 4
	spareRounds = 6
	warmup      = 500 * time.Millisecond
	sampleEvery = 25
	// tailQ is the fixed tail percentile of every workload: at least 10
	// samples lie beyond it in every run, and its run-to-run spread
	// stays inside its bound (p99's does not, on a shared 2-vCPU host).
	tailQ = 0.90
	// pollEvery is how many traced ops pass between /debug/requests
	// reads; well under the daemon's 256-entry trace ring.
	pollEvery = 64
)

type runConfig struct {
	workload *workload
	seed     uint64
	seconds  time.Duration
	daemon   string
	root     string
	rounds   int // rounds kept per run
	spare    int // extra rounds run, the noisiest rounds dropped
}

// phase is what one closed-loop phase measured.
type phase struct {
	lat       []int64 // client latency of every OK op, ns
	done      []int64 // phase clock at each OK op's completion, ns
	recs      []uint64
	attempted int
	ok        int
	elapsed   time.Duration // phase wall time minus client-side verification
	samples   []sample
	errs      []string
	spans     []opSpans // traced phases only
}

type sample struct {
	op  int // index into inputs.ops
	sum [32]byte
}

func (p *phase) fail(i int, err error) {
	if len(p.errs) < 5 {
		p.errs = append(p.errs, fmt.Sprintf("op %d: %v", i, err))
	}
}

// runPhase drives the closed loop for dur, starting at global op index
// first. Every response is checked; ops whose index is a multiple of
// sampleEvery have their body hashed (off the clock) for the offline
// comparison. traced phases tag each op with a request ID and read the
// daemon's span trees every pollEvery ops.
func runPhase(d *daemon, in *inputs, first int, dur time.Duration, traced bool) (*phase, int) {
	p := &phase{lat: make([]int64, 0, 1<<14)}
	hdr := http.Header{}
	var pending []pendingOp
	var paused time.Duration
	start := time.Now()
	i := first
	for ; time.Since(start)-paused < dur; i++ {
		k := i % len(in.ops)
		o := &in.ops[k]
		id := ""
		if traced {
			id = fmt.Sprintf("%032x", uint64(i)+1)
			hdr.Set("X-Request-Id", id)
		}
		sampled := i%sampleEvery == 0 && o.wantID == ""
		t0 := time.Now()
		r, err := d.post(o.path, o.ctype, o.body, hdr, sampled || o.wantID != "")
		lat := time.Since(t0)
		p.attempted++
		if err == nil {
			if o.wantID != "" {
				_, err = checkUpload(r, o.wantID)
			} else {
				err = checkStream(r, o.records)
			}
		}
		if err != nil {
			p.fail(i, err)
			continue
		}
		p.ok++
		p.lat = append(p.lat, lat.Nanoseconds())
		p.done = append(p.done, (time.Since(start) - paused).Nanoseconds())
		p.recs = append(p.recs, o.records)
		if sampled {
			v0 := time.Now()
			p.samples = append(p.samples, sample{op: k, sum: sha256.Sum256(r.body)})
			paused += time.Since(v0)
		}
		if traced {
			pending = append(pending, pendingOp{id: id, lat: lat.Nanoseconds()})
			if len(pending) >= pollEvery {
				pending = collectSpans(d, pending, p)
			}
		}
	}
	p.elapsed = time.Since(start) - paused
	if traced && len(pending) > 0 {
		// The daemon records a trace just after the last body byte
		// leaves; give the final op's trace a moment to land.
		time.Sleep(20 * time.Millisecond)
		collectSpans(d, pending, p)
	}
	return p, i
}

// verify compares every sampled body hash with the offline output of
// the same op, off the clock. A mismatch is a failed op; it is recorded
// in its phase's errors and counted in bad.
func verify(w *workload, in *inputs, phases ...*phase) (checked, bad int, err error) {
	if w.expect == nil {
		return 0, 0, nil
	}
	want := map[int][32]byte{}
	for _, p := range phases {
		for _, s := range p.samples {
			sum, ok := want[s.op]
			if !ok {
				if sum, err = w.expect(in, &in.ops[s.op]); err != nil {
					return checked, bad, err
				}
				want[s.op] = sum
			}
			checked++
			if sum != s.sum {
				bad++
				p.fail(-1, fmt.Errorf("op variant %d: served body SHA-256 %x, offline %x", s.op, s.sum, sum))
			}
		}
	}
	return checked, bad, nil
}

// coldSetup runs one cold set-up: daemon exec, /healthz OK, and every
// source uploaded through a kind=trace fit (IDs checked against the
// offline fits). It returns the running daemon and the set-up time.
func coldSetup(cfg runConfig, in *inputs, extra ...string) (*daemon, time.Duration, error) {
	t0 := time.Now()
	d, err := startDaemon(cfg.daemon, extra...)
	if err != nil {
		return nil, 0, err
	}
	for _, s := range in.sources {
		if _, err := upload(d, s); err != nil {
			d.stop()
			return nil, 0, err
		}
	}
	return d, time.Since(t0), nil
}

// round is one cold set-up and measured phase on a fresh daemon.
type round struct {
	setup float64 // s
	rss   float64 // MiB, the daemon's VmHWM
	steal float64 // % of host CPU time the hypervisor took meanwhile
	p     *phase
}

// quietest returns the n rounds the host disturbed least (lowest steal),
// in run order.
func quietest(rs []round, n int) []round {
	idx := make([]int, len(rs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return rs[idx[a]].steal < rs[idx[b]].steal })
	if n > len(idx) {
		n = len(idx)
	}
	idx = idx[:n]
	sort.Ints(idx)
	out := make([]round, n)
	for i, k := range idx {
		out[i] = rs[k]
	}
	return out
}

// runEndToEnd is the --trace 0 run. It runs cfg.rounds+cfg.spare
// rounds, each a cold set-up of a fresh daemon, a discarded warm-up and
// an equal share of the measured time, and keeps the cfg.rounds rounds
// with the least hypervisor steal. Every metric is a median over the
// kept rounds (set-up time, peak RSS), over their fixed-count op chunks
// (throughput), or a quantile of their pooled ops (latency), so neither
// a host that takes the CPU away nor an unlucky process start moves
// the result much. Correctness counts every op of every round; the
// checks and the fidelity replay run after the clock.
func runEndToEnd(cfg runConfig) (*result, error) {
	w := cfg.workload
	in, err := prepare(w, cfg.seed)
	if err != nil {
		return nil, err
	}
	total := cfg.rounds + cfg.spare
	per := cfg.seconds / time.Duration(total)
	var (
		rs   []round
		all  = &phase{}
		d    *daemon
		next int
	)
	for k := 0; k < total; k++ {
		if d != nil {
			d.stop()
		}
		runtime.GC()
		meter := startSteal()
		var dt time.Duration
		if d, dt, err = coldSetup(cfg, in); err != nil {
			return nil, err
		}
		resume := pauseGC()
		_, next = runPhase(d, in, next, warmup, false)
		var p *phase
		p, next = runPhase(d, in, next, per, false)
		resume()
		hwm, err := d.peakRSSMiB()
		if err != nil {
			return nil, err
		}
		rs = append(rs, round{setup: dt.Seconds(), rss: hwm, steal: meter.pct(), p: p})
		all.merge(p)
	}
	defer d.stop()

	kept := quietest(rs, cfg.rounds)
	var setups, rss, steals, opsRates, recRates []float64
	var lat []int64
	for _, r := range kept {
		setups = append(setups, r.setup)
		rss = append(rss, r.rss)
		o, rr := chunkRates(r.p)
		opsRates = append(opsRates, o...)
		recRates = append(recRates, rr...)
		lat = append(lat, r.p.lat...)
	}
	for _, r := range rs {
		steals = append(steals, r.steal)
	}

	checked, bad, err := verify(w, in, all)
	if err != nil {
		return nil, err
	}
	all.ok -= bad
	fid, err := fidelity(w, d)
	if err != nil {
		return nil, fmt.Errorf("fidelity: %v", err)
	}
	if len(lat) == 0 {
		return nil, fmt.Errorf("no op succeeded: %v", all.errs)
	}
	tail, beyond := percentile(lat, tailQ)

	res := &result{
		Correct:   all.ok == all.attempted,
		Attempted: all.attempted,
		Failed:    all.attempted - all.ok,
		Metrics: map[string]metric{
			"setup_s":          {median(setups), "s"},
			"ops_per_s":        {median(opsRates), "1/s"},
			"mrec_per_s":       {median(recRates) / 1e6, "Mrec/s"},
			"latency_p50_ms":   {ms(quantile(lat, 0.5)), "ms"},
			"latency_tail_ms":  {ms(tail), "ms"},
			"ok_ratio":         {float64(all.ok) / float64(all.attempted), "ratio"},
			"peak_rss_mb":      {median(rss), "MiB"},
			"fidelity_err_pct": {fid, "%"},
		},
	}
	printFingerprint(cfg, in, d, map[string]any{
		"tail_percentile":     tailQ * 100,
		"tail_samples_beyond": beyond,
		"latency_samples":     len(lat),
		"latency_p99_ms":      ms(quantile(lat, 0.99)),
		"setup_samples_s":     setups,
		"peak_rss_samples_mb": rss,
		"round_steal_pct":     steals,
		"hash_checked_ops":    checked,
		"errors":              all.errs,
	})
	if beyond < 10 {
		fmt.Fprintf(os.Stderr, "perfbench: warning: only %d samples beyond p%g\n", beyond, tailQ*100)
	}
	return res, nil
}

// merge adds q's op counts, hash samples and errors to p.
func (p *phase) merge(q *phase) {
	p.attempted += q.attempted
	p.ok += q.ok
	p.samples = append(p.samples, q.samples...)
	for _, e := range q.errs {
		if len(p.errs) < 5 {
			p.errs = append(p.errs, e)
		}
	}
}

// ms converts nanoseconds to milliseconds.
func ms(ns float64) float64 { return ns / 1e6 }

// chunksPerPhase is how many consecutive equal-count op groups each
// measured phase is cut into for the throughput metrics.
const chunksPerPhase = 4

// chunkRates cuts a phase's OK ops into equal-count consecutive groups
// and returns each group's throughput in ops/s and records/s.
func chunkRates(p *phase) (ops, recs []float64) {
	n := len(p.done)
	prev := int64(0)
	for c := 1; c <= chunksPerPhase; c++ {
		lo, hi := (c-1)*n/chunksPerPhase, c*n/chunksPerPhase
		if hi == lo {
			continue
		}
		var r uint64
		for _, x := range p.recs[lo:hi] {
			r += x
		}
		dt := float64(p.done[hi-1]-prev) / 1e9
		prev = p.done[hi-1]
		ops = append(ops, float64(hi-lo)/dt)
		recs = append(recs, float64(r)/dt)
	}
	return ops, recs
}

// quantile returns the nearest-rank q-quantile of xs (ns).
func quantile(xs []int64, q float64) float64 {
	v, _ := percentile(xs, q)
	return v
}

// percentile returns the nearest-rank q-quantile of xs and the number
// of samples strictly beyond its rank.
func percentile(xs []int64, q float64) (float64, int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	r := int(math.Ceil(q * float64(len(s))))
	if r < 1 {
		r = 1
	}
	return float64(s[r-1]), len(s) - r
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// runTraced is the --trace 1 run: one cold set-up of a -debug daemon, a
// warm-up, an untraced phase (GC deltas from /debug/vars) and a traced
// phase (span trees from /debug/requests) of half the run each, then
// the in-process layer timings on the same inputs.
func runTraced(cfg runConfig) (*result, error) {
	w := cfg.workload
	in, err := prepare(w, cfg.seed)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	d, _, err := coldSetup(cfg, in, "-debug")
	if err != nil {
		return nil, err
	}
	defer d.stop()

	steal := startSteal()
	resume := pauseGC()
	_, next := runPhase(d, in, 0, warmup, false)
	ms0, err := d.readMemStats()
	if err != nil {
		resume()
		return nil, err
	}
	plain, next := runPhase(d, in, next, cfg.seconds/2, false)
	ms1, err := d.readMemStats()
	if err != nil {
		resume()
		return nil, err
	}
	traced, _ := runPhase(d, in, next, cfg.seconds/2, true)
	resume()
	stealPct := steal.pct()

	checked, bad, verr := verify(w, in, plain, traced)
	if verr != nil {
		return nil, verr
	}
	if len(traced.spans) == 0 || plain.ok == 0 {
		return nil, fmt.Errorf("no traced op was found in /debug/requests (errors: %v %v)", plain.errs, traced.errs)
	}
	m, err := measureLayers(w, in)
	if err != nil {
		return nil, fmt.Errorf("layer timing: %v", err)
	}

	var sumLat, sumSelf, sumWire float64
	layer := map[string]float64{}
	for _, o := range traced.spans {
		sumLat += float64(o.lat)
		sumSelf += float64(o.self())
		sumWire += float64(o.lat - o.reqDur)
		for k, v := range o.layers {
			layer[k] += float64(v)
		}
	}
	n := float64(len(traced.spans))
	m["serve.limit_wait_us"] = metric{layer["serve.limit_wait"] / n / 1e3, "us"}
	m["serve.store_acquire_us"] = metric{layer["serve.store_acquire"] / n / 1e3, "us"}
	m["serve.fit_stream_ms"] = metric{layer["serve.fit_stream"] / n / 1e6, "ms"}
	m["serve.synth_stream_ms"] = metric{layer["serve.synth_stream"] / n / 1e6, "ms"}
	m["serve.handler_self_ms"] = metric{sumSelf / n / 1e6, "ms"}
	m["client.wire_ms"] = metric{sumWire / n / 1e6, "ms"}
	m["layers.unattributed_pct"] = metric{100 * sumSelf / sumLat, "%"}
	ops := float64(plain.ok)
	m["gc.cycles_per_op"] = metric{float64(ms1.NumGC-ms0.NumGC) / ops, "count"}
	m["gc.alloc_kb_per_op"] = metric{float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024 / ops, "KiB"}
	plainRate := float64(plain.ok) / plain.elapsed.Seconds()
	tracedRate := float64(traced.ok) / traced.elapsed.Seconds()
	m["trace_overhead_pct"] = metric{100 * (plainRate - tracedRate) / plainRate, "%"}

	attempted := plain.attempted + traced.attempted
	failed := attempted - plain.ok - traced.ok + bad
	printFingerprint(cfg, in, d, map[string]any{
		"traced_ops":       len(traced.spans),
		"hash_checked_ops": checked,
		"host_steal_pct":   stealPct,
		"errors":           append(plain.errs, traced.errs...),
	})
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [-out FILE] [-j N] [-bench-json FILE] [id ...]
//
// With no ids, every experiment runs in paper order. Valid ids are
// fig2 fig3 table1 table2 table3 fig6 ... fig17 (see -list).
//
// -j runs experiments concurrently over a shared, concurrency-safe
// environment; output order and content are identical for every worker
// count. -bench-json measures each experiment in isolation (forcing a
// serial run so timings and allocation counts attribute cleanly) and
// writes {name, ns_per_op, allocs} rows for tracking performance across
// revisions.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/profile"
	"repro/internal/serve"
	"repro/internal/trace"
)

// benchRow is one -bench-json record, mirroring testing.B's key metrics.
// PeakBytes is only set by the ingestion rows, where the sampled heap
// high-water mark is the tracked quantity.
type benchRow struct {
	Name      string `json:"name"`
	NsPerOp   int64  `json:"ns_per_op"`
	Allocs    uint64 `json:"allocs"`
	PeakBytes uint64 `json:"peak_bytes,omitempty"`
}

func main() {
	out := flag.String("out", "", "also write results to this file")
	list := flag.Bool("list", false, "list experiment ids and exit")
	workers := flag.Int("j", 0, "concurrent experiments (0 = MOCKTAILS_PARALLELISM or GOMAXPROCS, 1 = serial)")
	synthWorkers := flag.Int("synth-j", 1, "leaf shards per synthesis (0 = MOCKTAILS_PARALLELISM or GOMAXPROCS, 1 = serial); any value gives identical tables")
	benchJSON := flag.String("bench-json", "", "write per-experiment and synthesis {name, ns_per_op, allocs} rows to this file (forces serial runs)")
	of := obs.RegisterFlags(flag.CommandLine)
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(experiments.IDs(), " "))
		return
	}
	_, stop := of.Start("experiments")
	defer stop()

	ids := flag.Args()
	if len(ids) == 0 {
		ids = experiments.IDs()
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = io.MultiWriter(os.Stdout, f)
	}

	env := experiments.NewEnv()
	env.SynthWorkers = par.Workers(*synthWorkers)
	if *benchJSON != "" {
		runBench(env, ids, w, *benchJSON)
		return
	}

	j := par.Workers(*workers)
	if j == 1 {
		for _, id := range ids {
			start := time.Now()
			tab := env.Run(id)
			if tab == nil {
				unknown(id)
			}
			tab.Fprint(w)
			fmt.Fprintf(os.Stderr, "[%s done in %v]\n", id, time.Since(start).Round(time.Millisecond))
		}
		return
	}

	// Concurrent run: experiments share env's singleflight caches; tables
	// are committed by index so output order matches the serial path.
	start := time.Now()
	tabs := par.Map(len(ids), j, func(i int) *experiments.Table {
		return env.Run(ids[i])
	})
	for i, tab := range tabs {
		if tab == nil {
			unknown(ids[i])
		}
		tab.Fprint(w)
	}
	fmt.Fprintf(os.Stderr, "[%d experiments done in %v with %d workers]\n",
		len(ids), time.Since(start).Round(time.Millisecond), j)
}

func unknown(id string) {
	fmt.Fprintf(os.Stderr, "experiments: unknown id %q (try -list)\n", id)
	os.Exit(2)
}

// synthBench measures synthesis throughput on the two tracked profiles
// (the same cases as BenchmarkSynthesize and BENCH_synth.json) and
// returns one row per case. The flat rows synthesize from the zero-copy
// flat encoding instead of the heap profile; the output is byte-identical,
// only setup cost and allocation behaviour differ.
func synthBench(env *experiments.Env) []benchRow {
	cases := []struct {
		name, workload string
		workers        int
		flat           bool
	}{
		{"synth/small/serial", "OpenCL1", 1, false},
		{"synth/small/flat", "OpenCL1", 1, true},
		{"synth/large/serial", "Manhattan", 1, false},
		{"synth/large/flat", "Manhattan", 1, true},
		{"synth/large/j", "Manhattan", par.Default(), false},
	}
	var rows []benchRow
	var before, after runtime.MemStats
	for _, c := range cases {
		p, err := core.Build(c.workload, env.Trace(c.workload), core.DefaultConfig())
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		var v profile.View = p
		if c.flat {
			buf, err := profile.MarshalFlat(p)
			if err == nil {
				var f *profile.Flat
				if f, err = profile.OpenFlat(buf); err == nil {
					v = f
				}
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				os.Exit(1)
			}
		}
		run := func(seed uint64) {
			src := core.SynthesizeFrom(v, seed, core.SynthWorkers(c.workers))
			trace.Collect(src, 0)
		}
		run(0) // warm up
		const iters = 10
		runtime.ReadMemStats(&before)
		start := time.Now()
		for i := 0; i < iters; i++ {
			run(uint64(i))
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		rows = append(rows, benchRow{
			Name:    c.name,
			NsPerOp: elapsed.Nanoseconds() / iters,
			Allocs:  (after.Mallocs - before.Mallocs) / iters,
		})
		fmt.Fprintf(os.Stderr, "[%s done in %v]\n", c.name, (elapsed / iters).Round(time.Microsecond))
	}
	return rows
}

// profileBench measures the cost of bringing a stored profile to a
// servable state per encoding: a full gz decode versus a flat open
// (header validation plus section-table slicing, no per-leaf work).
// Rows are tracked in BENCH_profile.json.
func profileBench(env *experiments.Env) []benchRow {
	cases := []struct{ size, workload string }{
		{"small", "OpenCL1"},
		{"large", "Manhattan"},
	}
	var rows []benchRow
	var before, after runtime.MemStats
	for _, c := range cases {
		p, err := core.Build(c.workload, env.Trace(c.workload), core.DefaultConfig())
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		var gz bytes.Buffer
		if err := profile.WriteGzip(&gz, p); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		flatBuf, err := profile.MarshalFlat(p)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		variants := []struct {
			name string
			open func() error
		}{
			{"profile/" + c.size + "/decode-gz", func() error {
				_, err := profile.ReadGzip(bytes.NewReader(gz.Bytes()))
				return err
			}},
			{"profile/" + c.size + "/open-flat", func() error {
				_, err := profile.OpenFlat(flatBuf)
				return err
			}},
		}
		for _, v := range variants {
			if err := v.open(); err != nil { // warm up
				fmt.Fprintln(os.Stderr, "experiments:", err)
				os.Exit(1)
			}
			const iters = 50
			runtime.ReadMemStats(&before)
			start := time.Now()
			for i := 0; i < iters; i++ {
				v.open()
			}
			elapsed := time.Since(start)
			runtime.ReadMemStats(&after)
			rows = append(rows, benchRow{
				Name:    v.name,
				NsPerOp: elapsed.Nanoseconds() / iters,
				Allocs:  (after.Mallocs - before.Mallocs) / iters,
			})
			fmt.Fprintf(os.Stderr, "[%s done in %v]\n", v.name, (elapsed / iters).Round(time.Microsecond))
		}
	}
	return rows
}

// samplePeakHeap runs fn while polling runtime.ReadMemStats every
// millisecond and returns the peak HeapAlloc over the pre-fn baseline
// (a GC settles the heap before the baseline is taken).
func samplePeakHeap(fn func()) uint64 {
	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)
	var peak atomic.Uint64
	peak.Store(base.HeapAlloc)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		var ms runtime.MemStats
		for {
			select {
			case <-stop:
				return
			default:
			}
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > peak.Load() {
				peak.Store(ms.HeapAlloc)
			}
			time.Sleep(time.Millisecond)
		}
	}()
	fn()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > peak.Load() {
		peak.Store(ms.HeapAlloc)
	}
	close(stop)
	<-done
	return peak.Load() - base.HeapAlloc
}

// ingestBench contrasts the materialized and streaming ingestion paths
// on a long gz trace file (the HEVC1 proxy tiled 8x), reporting the
// sampled peak heap next to the usual timing columns. Both paths must
// content-address to the same profile. Rows are tracked in
// BENCH_ingest.json (where the 32x BenchmarkIngest numbers also live).
func ingestBench(env *experiments.Env) []benchRow {
	base := env.Trace("HEVC1")
	const tiles = 8
	span := base[len(base)-1].Time + 1
	big := make(trace.Trace, 0, len(base)*tiles)
	for t := 0; t < tiles; t++ {
		off := span * uint64(t)
		for _, r := range base {
			r.Time += off
			big = append(big, r)
		}
	}
	dir, err := os.MkdirTemp("", "mocktails-ingest-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "ingest.trace.gz")
	f, err := os.Create(path)
	if err == nil {
		err = trace.WriteGzip(f, big)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	big = nil

	cfg := core.CPUPortConfig()
	runs := []struct {
		name string
		fn   func() (*profile.Profile, error)
	}{
		{"ingest/materialized", func() (*profile.Profile, error) {
			f, err := os.Open(path)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			tr, err := trace.ReadGzip(f)
			if err != nil {
				return nil, err
			}
			return core.Build("ingest", tr, cfg)
		}},
		{"ingest/stream", func() (*profile.Profile, error) {
			f, err := os.Open(path)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			d, err := trace.NewDecoder(f)
			if err != nil {
				return nil, err
			}
			return core.BuildStream("ingest", d, cfg)
		}},
	}

	var rows []benchRow
	var ids []string
	var before, after runtime.MemStats
	for _, r := range runs {
		var p *profile.Profile
		var ferr error
		runtime.ReadMemStats(&before)
		start := time.Now()
		peak := samplePeakHeap(func() { p, ferr = r.fn() })
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		if ferr != nil {
			fmt.Fprintln(os.Stderr, "experiments:", ferr)
			os.Exit(1)
		}
		id, _, err := serve.ProfileID(p)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		ids = append(ids, id)
		rows = append(rows, benchRow{
			Name:      r.name,
			NsPerOp:   elapsed.Nanoseconds(),
			Allocs:    after.Mallocs - before.Mallocs,
			PeakBytes: peak,
		})
		fmt.Fprintf(os.Stderr, "[%s done in %v, peak %d B]\n", r.name, elapsed.Round(time.Millisecond), peak)
	}
	if ids[0] != ids[1] {
		fmt.Fprintf(os.Stderr, "experiments: ingest paths diverged: %s vs %s\n", ids[0], ids[1])
		os.Exit(1)
	}
	return rows
}

// runBench times each experiment serially on the shared environment and
// writes one JSON row per experiment, followed by the synthesis rows
// tracked in BENCH_synth.json (small = OpenCL1, merge-light; large =
// Manhattan, merge-heavy; serial and parallel). Serial execution keeps
// ns_per_op and the alloc delta attributable to a single exhibit; note
// that shared cache effects still make earlier exhibits pay for later
// ones, exactly as in the paper-order suite.
func runBench(env *experiments.Env, ids []string, w io.Writer, path string) {
	rows := make([]benchRow, 0, len(ids))
	var before, after runtime.MemStats
	for _, id := range ids {
		runtime.ReadMemStats(&before)
		start := time.Now()
		tab := env.Run(id)
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		if tab == nil {
			unknown(id)
		}
		tab.Fprint(w)
		rows = append(rows, benchRow{
			Name:    id,
			NsPerOp: elapsed.Nanoseconds(),
			Allocs:  after.Mallocs - before.Mallocs,
		})
		fmt.Fprintf(os.Stderr, "[%s done in %v]\n", id, elapsed.Round(time.Millisecond))
	}
	rows = append(rows, synthBench(env)...)
	rows = append(rows, profileBench(env)...)
	rows = append(rows, ingestBench(env)...)
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rows); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

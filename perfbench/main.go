// Command perfbench is the repository benchmark. It starts a real
// mocktailsd process with its default flags, drives one closed-loop
// workload (ingest, synth-wide or compose-deep) over loopback HTTP from
// this single client process, checks every response, and prints the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root through perfbench/run.sh, which
// builds both binaries first. See perfbench/README.md for the workloads,
// the metric definitions and the layer map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"sort"
	"time"
)

// deadline bounds one benchmark invocation. A run must end within
// 180 s; the watchdog fires well before, so a hung daemon still ends in
// a clean non-zero exit instead of a kill.
const deadline = 170 * time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		wname   = flag.String("workload", "", "workload: ingest, synth-wide or compose-deep")
		seed    = flag.Uint64("seed", 1, "input seed: the same seed generates the same inputs")
		seconds = flag.Float64("seconds", 10, "length of the measured phase in seconds")
		traced  = flag.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics")
		bin     = flag.String("daemon", "", "path of the mocktailsd binary to start")
		root    = flag.String("root", ".", "repository root, for the source fingerprint")
	)
	flag.Parse()
	w, ok := workloadByName(*wname)
	if !ok || *bin == "" || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: -daemon BIN --workload {%s} --seed N --seconds S --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	watchdog := time.AfterFunc(deadline, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded its deadline")
		stopAllDaemons()
		os.Exit(3)
	})
	defer watchdog.Stop()

	cfg := runConfig{
		workload: w,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		daemon:   *bin,
		root:     *root,
		rounds:   rounds,
		spare:    spareRounds,
	}
	var (
		res *result
		err error
	)
	if *traced == 1 {
		res, err = runTraced(cfg)
	} else {
		res, err = runEndToEnd(cfg)
	}
	stopAllDaemons()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	printResult(os.Stdout, res)
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d of %d ops failed the correctness check\n", w.name, res.Failed, res.Attempted)
		os.Exit(1)
	}
}

// printResult prints one human-readable line per metric, then the
// result object as the last line.
func printResult(out io.Writer, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(out, "%-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
	b, err := json.Marshal(res)
	if err != nil {
		// Only a NaN or Inf metric can fail to encode.
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	out.Write(append(b, '\n'))
}

// pauseGC turns the client's collector off for a measured phase, so
// the load generator's GC cannot land inside an op. A memory limit
// well above the phase's allocation volume keeps it a backstop rather
// than a leak. The returned function restores the defaults.
func pauseGC() func() {
	old := debug.SetGCPercent(-1)
	oldLimit := debug.SetMemoryLimit(1 << 30)
	return func() {
		debug.SetGCPercent(old)
		debug.SetMemoryLimit(oldLimit)
	}
}

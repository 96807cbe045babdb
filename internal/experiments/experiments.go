// Package experiments reproduces every table and figure of the paper's
// evaluation (§III examples, §IV validation, §V CPU comparison). Each
// RunX function regenerates the data behind one exhibit and returns it as
// printable tables; the cmd/experiments binary and the repository's
// benchmarks drive these functions.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/partition"
	"repro/internal/profile"
	"repro/internal/stm"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// Table is a printable experiment result.
type Table struct {
	ID     string // e.g. "fig6"
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	printRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	printRow(t.Header)
	for _, row := range t.Rows {
		printRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// memo is a concurrency-safe, singleflight-style cache: the first caller
// of a key computes the value while later callers of the same key block
// until it is ready, and distinct keys compute in parallel. This is what
// lets AllParallel share one Env across workers — experiments that reuse
// another exhibit's simulation wait for it instead of recomputing it.
type memo[V any] struct {
	mu sync.Mutex
	m  map[string]*memoEntry[V]
}

type memoEntry[V any] struct {
	once sync.Once
	v    V
}

// get returns the memoised value for key, computing it at most once.
// A compute that panics poisons the entry (the once is spent), matching
// the fail-fast behaviour of the serial accessors.
func (c *memo[V]) get(key string, compute func() V) V {
	c.mu.Lock()
	if c.m == nil {
		c.m = make(map[string]*memoEntry[V])
	}
	e := c.m[key]
	if e == nil {
		e = &memoEntry[V]{}
		c.m[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() { e.v = compute() })
	return e.v
}

// Env caches traces, profiles and simulation results so that running all
// the figures does not repeat work. Every method is safe for concurrent
// use: the caches are singleflight memos, so one Env can be shared by
// All and AllParallel alike. Zero value is not usable; call NewEnv.
type Env struct {
	// DRAMCfg is the Table III memory configuration.
	DRAMCfg dram.Config
	// XbarLat is the interconnect latency in cycles.
	XbarLat uint64
	// Seed seeds every synthesis.
	Seed uint64
	// IntervalCycles is the 2L-TS temporal partition length.
	IntervalCycles uint64
	// SynthWorkers is the leaf-shard count handed to every Mocktails
	// synthesis; <= 1 generates serially. Any value produces
	// identical tables, because synthesis output is bit-identical for
	// every worker count.
	SynthWorkers int

	traces memo[trace.Trace]
	base   memo[dram.Result]
	mcc    memo[dram.Result]
	stmRes memo[dram.Result]

	specTraces memo[trace.Trace]
	specDyn    memo[trace.Trace]
	spec4K     memo[trace.Trace]
	specHRD    memo[trace.Trace]
}

// NewEnv returns an environment with the paper's defaults.
func NewEnv() *Env {
	return &Env{
		DRAMCfg:        dram.Default(),
		XbarLat:        20,
		Seed:           42,
		IntervalCycles: 500000,
	}
}

// synthOpts returns the synthesis options implied by the environment.
func (e *Env) synthOpts() []core.SynthOption {
	if e.SynthWorkers <= 1 {
		return nil
	}
	return []core.SynthOption{core.SynthWorkers(e.SynthWorkers)}
}

// Trace returns (generating and caching) the named Table II proxy trace.
func (e *Env) Trace(name string) trace.Trace {
	return e.traces.get(name, func() trace.Trace {
		s, err := workloads.Find(name)
		if err != nil {
			panic(err)
		}
		return s.Gen()
	})
}

// Baseline simulates the original trace through the memory system.
func (e *Env) Baseline(name string) dram.Result {
	return e.base.get(name, func() dram.Result {
		return dram.Run(trace.NewReplayer(e.Trace(name)), e.DRAMCfg, e.XbarLat)
	})
}

// McC simulates the Mocktails 2L-TS (McC) recreation of the trace.
func (e *Env) McC(name string) dram.Result {
	return e.mcc.get(name, func() dram.Result {
		p, err := core.Build(name, e.Trace(name), partition.TwoLevelTS(e.IntervalCycles))
		if err != nil {
			panic(err)
		}
		return dram.Run(core.Synthesize(p, e.Seed, e.synthOpts()...), e.DRAMCfg, e.XbarLat)
	})
}

// STM simulates the 2L-TS (STM) baseline recreation of the trace.
func (e *Env) STM(name string) dram.Result {
	return e.stmRes.get(name, func() dram.Result {
		p, err := stm.Build(name, e.Trace(name), partition.TwoLevelTS(e.IntervalCycles))
		if err != nil {
			panic(err)
		}
		return dram.Run(stm.Synthesize(p, e.Seed), e.DRAMCfg, e.XbarLat)
	})
}

// Profile builds (uncached) the Mocktails profile of a Table II trace.
func (e *Env) Profile(name string) *profile.Profile {
	p, err := core.Build(name, e.Trace(name), partition.TwoLevelTS(e.IntervalCycles))
	if err != nil {
		panic(err)
	}
	return p
}

// f formats a float with the given decimals.
func f(v float64, dec int) string { return fmt.Sprintf("%.*f", dec, v) }

// u formats an unsigned count.
func u(v uint64) string { return fmt.Sprintf("%d", v) }

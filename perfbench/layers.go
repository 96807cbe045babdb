package main

import (
	"bytes"
	"io"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/profile"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/synth"
	"repro/internal/trace"
)

// Each in-process layer timing repeats until both bounds are met and
// reports the median repetition.
const (
	layerMinReps = 3
	layerMinTime = 250 * time.Millisecond
)

// timeIt runs f (which times its own measured section) until both
// bounds are met and returns the median section time in ns.
func timeIt(f func() time.Duration) float64 {
	var ds []float64
	start := time.Now()
	for len(ds) < layerMinReps || time.Since(start) < layerMinTime {
		ds = append(ds, float64(f().Nanoseconds()))
	}
	sort.Float64s(ds)
	return ds[len(ds)/2]
}

func since(f func()) time.Duration {
	t0 := time.Now()
	f()
	return time.Since(t0)
}

// opSources returns the sources one op of the workload touches: one
// trace per ingest op, every device of a compose op.
func opSources(w *workload, in *inputs) []source {
	if w.name == "ingest" {
		return in.sources[:1]
	}
	return in.sources
}

// opSpec is the scenario one op of the workload composes: the real mix
// for compose-deep, a single-device scenario of the workload's profile
// otherwise.
func opSpec(w *workload, in *inputs) *scenario.Spec {
	if in.spec != nil {
		return in.spec
	}
	return &scenario.Spec{Devices: []scenario.Device{{Profile: in.sources[0].id, Seed: 1}}}
}

// sliceGen replays a pre-generated leaf stream as a merge input.
type sliceGen struct {
	t trace.Trace
	i int
}

func (g *sliceGen) Pending() trace.Request { return g.t[g.i] }
func (g *sliceGen) Advance() bool          { g.i++; return g.i < len(g.t) }

func decodeAll(gz []byte) error {
	d, err := trace.NewDecoder(bytes.NewReader(gz))
	if err != nil {
		return err
	}
	var r trace.Request
	for {
		if err := d.Next(&r); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
	}
}

// measureLayers times each layer's public functions on the workload's
// own inputs, from this process. Costs are per op of the workload. The
// inputs already passed through the daemon, so an error here is a
// layer disagreeing with itself; the first one is returned.
func measureLayers(w *workload, in *inputs) (map[string]metric, error) {
	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	srcs := opSources(w, in)
	var fitRecs, outRecs float64
	for _, s := range srcs {
		fitRecs += float64(len(s.t))
		outRecs += float64(s.prof.Requests())
	}
	m := map[string]metric{}

	// Ingest path: decode, partition (no-op fit), leaf fitting, Put.
	decode := timeIt(func() time.Duration {
		return since(func() {
			for _, s := range srcs {
				keep(decodeAll(s.gz))
			}
		})
	})
	leaves := 0
	part := timeIt(func() time.Duration {
		leaves = 0
		return since(func() {
			for _, s := range srcs {
				d, err := trace.NewDecoder(bytes.NewReader(s.gz))
				if err != nil {
					keep(err)
					continue
				}
				_, n, err := partition.FitStream(nil, d, core.DefaultConfig(), 0, func(int, partition.Leaf) {})
				keep(err)
				leaves += n
			}
		})
	})
	// The streaming build overlaps fitting with decoding on the worker
	// pool, so fitting is timed serially on the materialised trace
	// instead: a one-worker profile.Build minus partition.Split.
	split := timeIt(func() time.Duration {
		return since(func() {
			for _, s := range srcs {
				_, err := partition.Split(s.t, core.DefaultConfig())
				keep(err)
			}
		})
	})
	build := timeIt(func() time.Duration {
		return since(func() {
			for _, s := range srcs {
				_, err := profile.Build(s.name, s.t, core.DefaultConfig(), profile.Workers(1))
				keep(err)
			}
		})
	})
	put := timeIt(func() time.Duration {
		st := serve.NewStore(0, -1)
		return since(func() {
			for _, s := range srcs {
				_, _, err := st.Put(s.prof)
				keep(err)
			}
		})
	})
	var chains, models int
	for _, s := range srcs {
		ps := s.prof.Stats()
		chains += ps.Chains
		models += ps.Chains + ps.Constants
	}
	m["trace.decode_ns_per_rec"] = metric{decode / fitRecs, "ns/rec"}
	m["partition.ns_per_rec"] = metric{(part - decode) / fitRecs, "ns/rec"}
	m["partition.leaves_per_op"] = metric{float64(leaves), "count"}
	m["profile.fit_ns_per_rec"] = metric{(build - split) / fitRecs, "ns/rec"}
	m["profile.markov_ratio"] = metric{float64(chains) / float64(models), "ratio"}
	m["serve.store_put_us"] = metric{put / 1e3, "us"}

	// Read path: init, per-leaf sampling, the wide merge, encode.
	eager0, leaves0 := obs.Default.Counter("synth.eager_leaves").Value(), obs.Default.Counter("synth.leaves").Value()
	initNs := timeIt(func() time.Duration {
		var total time.Duration
		for _, s := range srcs {
			var sy *synth.Synthesizer
			total += since(func() { sy = synth.NewFrom(s.prof, 1) })
			sy.Close()
		}
		return total
	})
	eager := obs.Default.Counter("synth.eager_leaves").Value() - eager0
	synthLeaves := obs.Default.Counter("synth.leaves").Value() - leaves0
	var streams [][]trace.Trace
	sample := timeIt(func() time.Duration {
		streams = streams[:0]
		return since(func() {
			for _, s := range srcs {
				streams = append(streams, synth.LeafStreams(s.prof, 1))
			}
		})
	})
	merge := timeIt(func() time.Duration {
		var total time.Duration
		for _, ls := range streams {
			gens := make([]synth.Gen, 0, len(ls))
			for _, t := range ls {
				if len(t) > 0 {
					gens = append(gens, &sliceGen{t: t})
				}
			}
			total += since(func() {
				mg := synth.NewMerger(gens)
				for {
					if _, ok := mg.Next(); !ok {
						break
					}
				}
			})
		}
		return total
	})
	m["synth.init_ms"] = metric{initNs / 1e6, "ms"}
	m["synth.eager_leaf_ratio"] = metric{float64(eager) / float64(synthLeaves), "ratio"}
	m["synth.sample_ns_per_rec"] = metric{sample / outRecs, "ns/rec"}
	m["synth.merge_ns_per_rec"] = metric{merge / outRecs, "ns/rec"}

	// Scenario layer: compose, then drain the merged device stream.
	spec := opSpec(w, in)
	var out trace.Trace
	compose := timeIt(func() time.Duration {
		var st *scenario.Stream
		var err error
		d := since(func() { st, err = scenario.Compose(spec, resolver(in.sources)) })
		keep(err)
		if st != nil {
			st.Close()
		}
		return d
	})
	var drainRecs float64
	drain := timeIt(func() time.Duration {
		st, err := scenario.Compose(spec, resolver(in.sources))
		if err != nil {
			keep(err)
			return 0
		}
		defer st.Close()
		out = make(trace.Trace, 0, st.Total())
		drainRecs = float64(st.Total())
		return since(func() {
			for {
				r, ok := st.Next()
				if !ok {
					break
				}
				out = append(out, r)
			}
		})
	})
	encode := timeIt(func() time.Duration {
		return since(func() {
			i := 0
			trace.WriteBinaryStream(nil, io.Discard, uint64(len(out)), func() (trace.Request, bool) {
				i++
				return out[i-1], true
			})
		})
	})
	m["scenario.compose_ms"] = metric{compose / 1e6, "ms"}
	m["scenario.drain_ns_per_rec"] = metric{drain / drainRecs, "ns/rec"}
	m["trace.encode_ns_per_rec"] = metric{encode / float64(len(out)), "ns/rec"}

	// Resident form: opening the flat encoding of the op's profiles.
	flats := make([][]byte, len(srcs))
	for i, s := range srcs {
		b, err := profile.MarshalFlat(s.prof)
		keep(err)
		flats[i] = b
	}
	open := timeIt(func() time.Duration {
		return since(func() {
			for _, b := range flats {
				_, err := profile.OpenFlat(b)
				keep(err)
			}
		})
	})
	m["profile.open_flat_us"] = metric{open / 1e3, "us"}
	return m, firstErr
}

// Package synth implements Mocktails' synthesis step (§III-C). Every leaf
// of the statistical profile is an independent request generator; a
// priority queue ordered by timestamp merges their partial orders into the
// total order injected into the simulator. Addresses that stray outside a
// leaf's memory region are wrapped (modulo) back inside, and simulator
// backpressure is fed back by delaying all not-yet-emitted requests.
package synth

import (
	"context"
	"sync"

	"repro/internal/markov"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Synthesis metrics. The per-request hot path (Advance, Next) only
// bumps plain struct-local fields; those locals are flushed into these
// atomic counters once per leaf (on exhaustion) or once per stream (on
// drain/Close), so instrumentation costs the merge loop nothing
// measurable and never changes the generated bytes.
var (
	mLeaves      = obs.NewCounter("synth.leaves")
	mEagerLeaves = obs.NewCounter("synth.eager_leaves")
	mChunks      = obs.NewCounter("synth.chunks")
	mRequests    = obs.NewCounter("synth.requests")
	mWrapped     = obs.NewCounter("synth.addresses_wrapped")
	mDelayCalls  = obs.NewCounter("synth.backpressure_calls")
	mDelayCycles = obs.NewCounter("synth.backpressure_cycles")
	mShards      = obs.NewGauge("synth.shards")
)

// DefaultBatch is the default number of requests each leaf pre-generates
// per chunk in batched synthesis. Large enough to amortise the per-chunk
// bookkeeping, small enough that per-leaf buffering stays a few KiB.
const DefaultBatch = 256

// Option configures a Synthesizer.
type Option func(*config)

type config struct {
	workers int
	batch   int
	ctx     context.Context
}

// Workers sets the number of leaf shards, each generated and merged on
// its own goroutine (see shard.go). Values <= 1 synthesize on the
// consuming goroutine; any value produces a bit-identical stream.
func Workers(n int) Option { return func(c *config) { c.workers = n } }

// Batch sets the per-leaf chunk size (<= 0 selects DefaultBatch); a
// shard hands its output over in batches of shardBatchChunks chunks.
// Any batch size produces a bit-identical stream.
func Batch(n int) Option { return func(c *config) { c.batch = n } }

// Context attaches a context to New for observability: the setup span
// (synth.init) nests below the span carried by ctx (see internal/obs).
// The generated stream is identical with or without it.
func Context(ctx context.Context) Option { return func(c *config) { c.ctx = ctx } }

// Synthesizer generates a request stream from a profile. It implements
// trace.Source, so it can drive the simulators exactly like a trace
// replayer. A Synthesizer is single-use; a sharded one (Workers > 1)
// that is abandoned before exhaustion must be released with Close.
type Synthesizer struct {
	m *batchMerger
	// done stops the shard goroutines and wg joins them; done is nil
	// when the leaves are merged on the caller's goroutine.
	done chan struct{}
	wg   sync.WaitGroup
}

// New returns a Synthesizer for the profile, seeded deterministically:
// the same profile and seed always produce the same stream, for any
// Workers and Batch options.
func New(p *profile.Profile, seed uint64, opts ...Option) *Synthesizer {
	return NewFrom(p, seed, opts...)
}

// NewFrom returns a Synthesizer for any profile representation — a heap
// *profile.Profile (offline fits and decoded gzip files) or a zero-copy
// *profile.Flat view (flat files, and every profile mocktailsd holds).
// The emitted stream depends only on the profile contents and the seed,
// never on the representation: synthesizing from a flat view is
// byte-identical to synthesizing from the decoded heap profile.
func NewFrom(v profile.View, seed uint64, opts ...Option) *Synthesizer {
	cfg := config{workers: 1, batch: DefaultBatch}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.batch <= 0 {
		cfg.batch = DefaultBatch
	}
	_, sp := obs.Start(cfg.ctx, "synth.init")
	// Seeds are drawn serially (the draw order is part of the stream);
	// everything downstream of a seed is leaf-local, so shards can build
	// and merge their leaf ranges independently.
	seeds := LeafSeeds(v, seed)
	bounds, leaves, eager := shardBounds(v, cfg.workers, cfg.batch)
	s := &Synthesizer{}
	if len(bounds) == 2 {
		s.m = newLeafMerger(v, seeds, 0, len(seeds), cfg.batch, nil)
	} else {
		s.startShards(v, seeds, bounds, cfg.batch)
	}
	s.m.counted = true
	mLeaves.Add(uint64(leaves))
	mEagerLeaves.Add(uint64(eager))
	mShards.Set(float64(len(bounds) - 1))
	sp.SetCount("leaves", int64(leaves))
	sp.SetCount("eager_leaves", int64(eager))
	sp.End()
	return s
}

// newLeafMerger builds the streams of leaves [lo, hi) and the serial
// merger over them, or returns nil if done is closed first.
//
// All eager leaves (full output fits one batch) share one request
// arena, carved into per-leaf regions in leaf (and therefore roughly
// time) order, so the merge walks memory nearly sequentially. The
// Markov generators' mutable state (remaining-count and Fenwick
// scratch) is carved the same way from two shared slabs, so a leaf
// range costs a fixed handful of allocations regardless of its size.
func newLeafMerger(v profile.View, seeds []uint64, lo, hi, batch int, done <-chan struct{}) *batchMerger {
	reqs, n32, n64 := 0, 0, 0
	var scratch profile.Leaf
	for i := lo; i < hi; i++ {
		if c := int(v.LeafCount(i)); c > 0 {
			if c <= batch {
				reqs += c
			}
			a, b := profile.LeafArena(v.LeafView(i, &scratch))
			n32, n64 = n32+a, n64+b
		}
	}
	arena := make([]trace.Request, reqs)
	ar := markov.Arena{U32: make([]uint32, n32), U64: make([]uint64, n64)}
	all := make([]chunkStream, hi-lo)
	streams := make([]*chunkStream, 0, hi-lo)
	for i := lo; i < hi; i++ {
		if (i-lo)%256 == 0 {
			select {
			case <-done:
				return nil
			default:
			}
		}
		c := int(v.LeafCount(i))
		if c == 0 {
			continue
		}
		// One scratch Leaf serves every leaf: leafGen keeps only the
		// scalars and slice views it needs, so the scratch escapes once
		// per range, not once per leaf.
		l, st := v.LeafView(i, &scratch), &all[i-lo]
		if c <= batch {
			// Eager: a stack-local generator fills the leaf's whole
			// output into its region of the shared arena.
			var g leafGen
			g.init(l, seeds[i], &ar)
			st.cur, arena = arena[:g.fill(arena[:c])], arena[c:]
		} else {
			st.gen = new(leafGen)
			st.gen.init(l, seeds[i], &ar)
			st.slab = make([]trace.Request, batch)
			st.cur = st.slab[:st.gen.fill(st.slab)]
		}
		streams = append(streams, st)
	}
	return newBatchMerger(streams)
}

// Next returns the globally next request.
func (s *Synthesizer) Next() (trace.Request, bool) { return s.m.Next() }

// Delay adds backpressure delay to all not-yet-emitted requests.
func (s *Synthesizer) Delay(cycles uint64) { s.m.Delay(cycles) }

// Close releases a Synthesizer that may have been abandoned before
// exhaustion. It returns only after every shard goroutine has exited,
// so the caller may release or unmap the profile right after. It is
// safe to call more than once; the caller must have stopped calling
// Next.
func (s *Synthesizer) Close() {
	s.m.finish()
	if s.done != nil {
		close(s.done)
		s.wg.Wait()
		s.done = nil
	}
}

// leafGen lazily generates the requests of one leaf. pending always holds
// the request that has been generated but not yet emitted. The feature
// generators are self-contained values — a synthesis of an
// interval-partitioned profile creates four per leaf, tens of thousands
// in total, and heap-allocating each dominated setup cost. A leafGen for
// a leaf that fits one batch never needs to outlive construction, so it
// can live entirely on a worker's stack. It holds no pointer to the
// Leaf it was initialised from — only the scalars it needs and the
// generators' slice views — so the Leaf may be a stack-transient view
// materialised from a flat profile buffer.
type leafGen struct {
	count     uint32
	lo, hi    uint64
	dt        markov.Generator
	stride    markov.Generator
	op        markov.Generator
	size      markov.Generator
	emitted   uint32
	pending   trace.Request
	exhausted bool
	// wrapped counts addresses WrapAddr folded back into [Lo, Hi);
	// generator-local, flushed to the synth.addresses_wrapped counter
	// when fill drains the leaf.
	wrapped uint64
}

// newLeafGen returns a generator for the leaf, or nil for an empty leaf.
// seed is the value the synthesis RNG drew for this leaf: reseeding with
// it is identical to handing the leaf a Fork of the synthesis RNG.
func newLeafGen(l *profile.Leaf, seed uint64) *leafGen {
	g := &leafGen{}
	if !g.init(l, seed, nil) {
		return nil
	}
	return g
}

// init prepares g in place, returning false for an empty leaf. The four
// feature RNG streams are reseeded in the same order the previous
// implementation forked them, so every generated stream is unchanged.
// ar, when non-nil, provides the generators' mutable scratch (carved by
// NewFrom from two shared slabs); nil makes each generator allocate its
// own, which is what the conformance helpers in leaves.go use.
func (g *leafGen) init(l *profile.Leaf, seed uint64, ar *markov.Arena) bool {
	if l.Count == 0 {
		return false
	}
	g.count, g.lo, g.hi = l.Count, l.Lo, l.Hi
	var r, fork stats.RNG
	r.Reseed(seed)
	fork.Reseed(r.Uint64())
	g.dt.InitArena(&l.DeltaTime, &fork, ar)
	fork.Reseed(r.Uint64())
	g.stride.InitArena(&l.Stride, &fork, ar)
	fork.Reseed(r.Uint64())
	g.op.InitArena(&l.Op, &fork, ar)
	fork.Reseed(r.Uint64())
	g.size.InitArena(&l.Size, &fork, ar)
	g.pending = trace.Request{
		Time: l.StartTime,
		Addr: l.StartAddr,
		Op:   OpFromValue(g.op.Next()),
		Size: SizeFromValue(g.size.Next()),
	}
	g.emitted = 1
	return true
}

// Pending returns the generated-but-unemitted request.
func (g *leafGen) Pending() trace.Request { return g.pending }

// Advance generates the leaf's next request; it returns false when the
// leaf has produced all Count requests.
func (g *leafGen) Advance() bool {
	if g.emitted >= g.count {
		return false
	}
	g.emitted++
	dt := g.dt.Next()
	if dt < 0 {
		dt = 0
	}
	strided := int64(g.pending.Addr) + g.stride.Next()
	addr := WrapAddr(strided, g.lo, g.hi)
	if addr != uint64(strided) {
		g.wrapped++
	}
	g.pending = trace.Request{
		Time: g.pending.Time + uint64(dt),
		Addr: addr,
		Op:   OpFromValue(g.op.Next()),
		Size: SizeFromValue(g.size.Next()),
	}
	return true
}

// fill copies up to len(buf) not-yet-emitted requests into buf and
// returns how many it wrote, generating as it goes. A short (or zero)
// count means the leaf is exhausted. Emitting through fill and through
// Pending/Advance produce the same sequence; a leaf must use one or the
// other, not both.
func (g *leafGen) fill(buf []trace.Request) int {
	if g.exhausted {
		return 0
	}
	n := 0
	for {
		buf[n] = g.pending
		n++
		if !g.Advance() {
			g.exhausted = true
			mWrapped.Add(g.wrapped)
			g.wrapped = 0
			break
		}
		if n == len(buf) {
			break
		}
	}
	mChunks.Inc()
	return n
}

// WrapAddr folds an address back into the [lo, hi) region, preserving
// spatial locality as described in §III-C ("we modulo the address back
// into the range"). addr is the signed result of adding a stride to a
// previous in-region address; the span and the reduction are computed in
// uint64 so regions anywhere in the 64-bit address space — including
// ones straddling or above 1<<63, where the former int64 span
// overflowed — wrap correctly.
func WrapAddr(addr int64, lo, hi uint64) uint64 {
	if hi <= lo {
		return lo
	}
	span := hi - lo
	ra := umod(addr, span)
	rl := lo % span
	if ra >= rl {
		return lo + (ra - rl)
	}
	return lo + span - (rl - ra)
}

// umod returns the mathematical (always non-negative) a mod m for a
// signed a and an unsigned m.
func umod(a int64, m uint64) uint64 {
	if a >= 0 {
		return uint64(a) % m
	}
	// Negate via two's complement so MinInt64 is handled exactly.
	r := (-uint64(a)) % m
	if r == 0 {
		return 0
	}
	return m - r
}

// OpFromValue converts a modelled feature value back to an operation.
func OpFromValue(v int64) trace.Op {
	if v == int64(trace.Write) {
		return trace.Write
	}
	return trace.Read
}

// SizeFromValue converts a modelled feature value back to a request size,
// clamped to a sane range.
func SizeFromValue(v int64) uint32 {
	if v < 1 {
		return 1
	}
	if v > 1<<20 {
		return 1 << 20
	}
	return uint32(v)
}

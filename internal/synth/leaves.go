package synth

import (
	"repro/internal/markov"
	"repro/internal/profile"
	"repro/internal/stats"
	"repro/internal/trace"
)

// This file exposes the per-leaf view of a synthesis run. The merged
// stream returned by Synthesizer interleaves every leaf's partial order;
// conformance checking (package conform) needs the un-merged partial
// orders and the raw feature draws to assert the paper's per-leaf
// guarantees — request counts, address ranges, and strict-convergence
// multiset equality (§III-C). The functions here replicate New's seed
// derivation exactly, so LeafStream(p, seed, i) is precisely the
// subsequence of New(p, seed)'s output contributed by p.Leaves[i].

// LeafSeeds returns the per-leaf RNG seeds a Synthesizer constructed
// with the same profile and seed hands to each leaf generator. The
// draw order is part of the deterministic stream contract: seed i
// drives leaf i.
func LeafSeeds(v profile.View, seed uint64) []uint64 {
	rng := stats.NewRNG(seed)
	seeds := make([]uint64, v.NumLeaves())
	for i := range seeds {
		seeds[i] = rng.Uint64()
	}
	return seeds
}

// LeafStream regenerates the partial stream of one leaf: the exact
// requests leaf i contributes to New(p, seed)'s merged output, in
// generation order. An empty (Count == 0) leaf yields nil.
func LeafStream(l *profile.Leaf, seed uint64) trace.Trace {
	g := newLeafGen(l, seed)
	if g == nil {
		return nil
	}
	t := make(trace.Trace, 0, l.Count)
	t = append(t, g.Pending())
	for g.Advance() {
		t = append(t, g.Pending())
	}
	return t
}

// LeafStreams regenerates every leaf's partial stream for the given
// profile and synthesis seed. Concatenating the streams gives the same
// multiset of requests as draining New(p, seed); merging them by
// timestamp gives the same total order.
func LeafStreams(p *profile.Profile, seed uint64) []trace.Trace {
	seeds := LeafSeeds(p, seed)
	out := make([]trace.Trace, len(p.Leaves))
	for i := range p.Leaves {
		out[i] = LeafStream(&p.Leaves[i], seeds[i])
	}
	return out
}

// LeafFeatures holds the raw feature values a leaf's four McC
// generators produced during synthesis, before the request assembly
// transforms them (delta-time clamping at zero, address wrapping into
// [Lo, Hi)). Strict convergence is a property of these raw draws:
// generating exactly the training length reproduces the training
// multiset of each feature.
type LeafFeatures struct {
	// DeltaTimes and Strides hold Count-1 values each (the gaps
	// between consecutive requests); Ops and Sizes hold Count values.
	DeltaTimes []int64
	Strides    []int64
	Ops        []int64
	Sizes      []int64
}

// Features regenerates the raw feature draws of one leaf under the
// given per-leaf seed (see LeafSeeds). The four feature generators are
// reseeded in the same order leafGen forks them, so the values are
// bit-identical to the draws a synthesis run consumed.
func Features(l *profile.Leaf, seed uint64) LeafFeatures {
	var f LeafFeatures
	if l.Count == 0 {
		return f
	}
	n := int(l.Count)
	var r, fork stats.RNG
	r.Reseed(seed)
	var dt, stride, op, size markov.Generator
	fork.Reseed(r.Uint64())
	dt.Init(&l.DeltaTime, &fork)
	fork.Reseed(r.Uint64())
	stride.Init(&l.Stride, &fork)
	fork.Reseed(r.Uint64())
	op.Init(&l.Op, &fork)
	fork.Reseed(r.Uint64())
	size.Init(&l.Size, &fork)

	f.DeltaTimes = make([]int64, 0, n-1)
	f.Strides = make([]int64, 0, n-1)
	f.Ops = make([]int64, 0, n)
	f.Sizes = make([]int64, 0, n)
	// The first request draws only op and size (its time and address
	// come from the leaf's StartTime/StartAddr bookkeeping); each of
	// the remaining n-1 requests draws all four features.
	f.Ops = append(f.Ops, op.Next())
	f.Sizes = append(f.Sizes, size.Next())
	for i := 1; i < n; i++ {
		f.DeltaTimes = append(f.DeltaTimes, dt.Next())
		f.Strides = append(f.Strides, stride.Next())
		f.Ops = append(f.Ops, op.Next())
		f.Sizes = append(f.Sizes, size.Next())
	}
	return f
}

package synth

import (
	"repro/internal/profile"
	"repro/internal/trace"
)

// Sharded synthesis: each of Workers contiguous leaf ranges is built
// and drained through its own serial batchMerger on its own goroutine,
// and the consumer merges the shard outputs with one more batchMerger.
// Both levels break ties toward the lower index, so (time, shard, leaf)
// order is (time, leaf) order, the same for any shard count.
const (
	shardRing        = 3  // batch buffers per shard: filling, queued, consumed
	shardBatchChunks = 8  // batch size in leaf chunks (2048 requests by default)
	leafCost         = 16 // a leaf's set-up cost in requests, for balancing
)

// shard is one leaf range merged on its own goroutine: full carries its
// sorted output batches to the consumer, free carries spent buffers
// back (see chunkStream.refill). Both hold shardRing buffers, all there
// are, so a send on either never blocks.
type shard struct {
	full, free chan []trace.Request
}

// shardBounds cuts the leaves into at most w contiguous ranges of about
// equal cost (request count plus leafCost per non-empty leaf) and
// returns the range boundaries. A cut falls before the leaf whose
// midpoint crosses the next equal share, and no range is without
// requests. It also counts the non-empty and the eager leaves.
func shardBounds(v profile.View, w, batch int) (bounds []int, leaves, eager int) {
	nl := v.NumLeaves()
	cost := make([]int, nl)
	total := 0
	for i := range cost {
		if c := int(v.LeafCount(i)); c > 0 {
			cost[i] = c + leafCost
			total += cost[i]
			leaves++
			if c <= batch {
				eager++
			}
		}
	}
	bounds = []int{0}
	for i, cum, last := 0, 0, 0; i < nl && len(bounds) < w; i++ {
		if cost[i] > 0 && cum > last && (2*cum+cost[i])*w >= 2*len(bounds)*total {
			bounds, last = append(bounds, i), cum
		}
		cum += cost[i]
	}
	return append(bounds, nl), leaves, eager
}

// startShards runs one goroutine per leaf range and makes s.m the merge
// of their outputs, primed with each shard's first batch.
func (s *Synthesizer) startShards(v profile.View, seeds []uint64, bounds []int, batch int) {
	done := make(chan struct{})
	s.done = done
	streams := make([]*chunkStream, len(bounds)-1)
	for k := range streams {
		sh := &shard{make(chan []trace.Request, shardRing), make(chan []trace.Request, shardRing)}
		streams[k] = &chunkStream{feed: sh}
		s.wg.Add(1)
		go func(lo, hi int) {
			defer s.wg.Done()
			sh.run(v, seeds, lo, hi, batch, done)
		}(bounds[k], bounds[k+1])
	}
	for _, st := range streams {
		st.cur = <-st.feed.full
	}
	s.m = newBatchMerger(streams)
}

// run builds the shard's leaf streams and drains them into batches
// until the range is exhausted or done is closed.
func (sh *shard) run(v profile.View, seeds []uint64, lo, hi, batch int, done <-chan struct{}) {
	defer close(sh.full)
	m := newLeafMerger(v, seeds, lo, hi, batch, done)
	if m == nil {
		return
	}
	size := shardBatchChunks * batch
	for made := 0; m.live > 0; made++ {
		var buf []trace.Request
		if made < shardRing {
			buf = make([]trace.Request, size)
		} else {
			select {
			case buf = <-sh.free:
				buf = buf[:size]
			case <-done:
				return
			}
		}
		n := 0
		for ; n < size && m.live > 0; n++ {
			buf[n], _ = m.Next()
		}
		select {
		case sh.full <- buf[:n]:
		case <-done:
			return
		}
	}
}

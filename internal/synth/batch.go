package synth

import (
	"repro/internal/kmerge"
	"repro/internal/trace"
)

// chunkStream is one time-sorted input of a batchMerger, consumed as a
// flat slice cur of pre-generated requests instead of a virtual
// Pending/Advance call per request. It is either one leaf's requests
// (refilled from gen in place) or one shard's merged output (refilled
// from feed, see shard.go).
type chunkStream struct {
	// gen is nil for eager leaves: a leaf whose full output fits one
	// batch is generated at construction time by a stack-local
	// generator and only its requests are retained. Most leaves of
	// interval-partitioned profiles are eager, which keeps the surviving
	// per-synthesis state at one exact-sized request slab per leaf.
	gen *leafGen
	// feed is the shard whose batches this stream replays; nil for a
	// leaf stream.
	feed *shard

	cur []trace.Request
	pos int

	// slab is the chunk buffer a non-eager leaf refills in place.
	slab []trace.Request
}

// refill replaces the spent cur with the stream's next chunk, returning
// false when the stream is exhausted.
func (s *chunkStream) refill() bool {
	switch {
	case s.feed != nil:
		// Hand the spent batch back for reuse and take the shard's next
		// one, nil once the shard is drained.
		s.feed.free <- s.cur
		s.cur = <-s.feed.full
	case s.gen == nil || s.gen.exhausted:
		return false
	default:
		s.cur = s.slab[:s.gen.fill(s.slab)]
	}
	s.pos = 0
	return len(s.cur) > 0
}

// batchMerger merges chunk streams, ordered by leaf index or by leaf
// range, with a loser tree: ties go to the lower stream index.
type batchMerger struct {
	streams []*chunkStream
	lt      *kmerge.Tree
	shift   uint64
	live    int

	// pops, delayCalls and delayCycles are merge-loop-local stats
	// (single consumer goroutine, no atomics). counted marks the merger
	// whose stats reach the registry — the one the Synthesizer's caller
	// drains, not a shard's inner merger — and is cleared by the one
	// flush in finish.
	pops        uint64
	delayCalls  uint64
	delayCycles uint64
	counted     bool
}

// newBatchMerger merges streams that each start with a non-empty chunk.
func newBatchMerger(streams []*chunkStream) *batchMerger {
	times := make([]uint64, len(streams))
	for i, s := range streams {
		times[i] = s.cur[0].Time
	}
	lt := kmerge.New(times, make([]bool, len(streams)))
	return &batchMerger{streams: streams, lt: lt, live: len(streams)}
}

// Next returns the globally next request.
func (m *batchMerger) Next() (trace.Request, bool) {
	w, ok := m.lt.Winner()
	if !ok {
		return trace.Request{}, false
	}
	s := m.streams[w]
	req := s.cur[s.pos]
	req.Time += m.shift
	s.pos++
	m.pops++
	if s.pos < len(s.cur) {
		m.lt.Advance(w, s.cur[s.pos].Time)
	} else if s.refill() {
		m.lt.Advance(w, s.cur[0].Time)
	} else {
		m.lt.Eliminate(w)
		m.live--
		if m.live == 0 {
			m.finish()
		}
	}
	return req, true
}

// Delay adds backpressure delay to all not-yet-emitted requests.
func (m *batchMerger) Delay(cycles uint64) {
	m.shift += cycles
	m.delayCalls++
	m.delayCycles += cycles
}

// finish flushes the merge-loop stats of a counted merger to the
// registry, once: when the last stream drains, or from Close for an
// abandoned synthesizer.
func (m *batchMerger) finish() {
	if !m.counted {
		return
	}
	m.counted = false
	mRequests.Add(m.pops)
	mDelayCalls.Add(m.delayCalls)
	mDelayCycles.Add(m.delayCycles)
}

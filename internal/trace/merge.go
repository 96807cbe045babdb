package trace

import "repro/internal/kmerge"

// Merge combines several Sources into one, interleaving their requests in
// timestamp order. Backpressure delay is propagated to every underlying
// source. It is the building block for SoC-style simulations where
// multiple (possibly synthetic) IP blocks inject into one memory system.
//
// Ties are deterministic: requests that share a timestamp are emitted in
// ascending source index — the position of the source in the variadic
// argument list, counting nil and already-exhausted sources. The order of
// a merged stream is therefore a pure function of the sources' contents
// and their positions, stable across refactors of the merge internals.
func Merge(sources ...Source) Source {
	m := &mergeSource{srcs: sources, pending: make([]Request, len(sources))}
	times := make([]uint64, len(sources))
	done := make([]bool, len(sources))
	for i, s := range sources {
		// A nil or empty source keeps its position as an exhausted
		// player, so it never shifts the tie-break of later sources.
		req, ok := Request{}, false
		if s != nil {
			req, ok = s.Next()
		}
		m.pending[i], times[i], done[i] = req, req.Time, !ok
	}
	m.lt = kmerge.New(times, done)
	return m
}

// mergeSource runs the sources as the players of one kmerge tree:
// player i is sources[i], whose next request waits in pending[i].
type mergeSource struct {
	lt      *kmerge.Tree
	srcs    []Source
	pending []Request
	shift   uint64
}

func (m *mergeSource) Next() (Request, bool) {
	w, ok := m.lt.Winner()
	if !ok {
		return Request{}, false
	}
	req := m.pending[w]
	req.Time += m.shift
	if next, ok := m.srcs[w].Next(); ok {
		m.pending[w] = next
		m.lt.Advance(w, next.Time)
	} else {
		m.lt.Eliminate(w)
	}
	return req, true
}

// Delay shifts every not-yet-emitted request, both those buffered in the
// merge and those the underlying sources will produce later. The shift
// is kept here rather than pushed into the sources so no request is
// shifted twice.
func (m *mergeSource) Delay(cycles uint64) { m.shift += cycles }

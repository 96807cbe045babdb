package synth

import (
	"repro/internal/kmerge"
	"repro/internal/trace"
)

// Gen is a per-partition request generator: Pending returns the request
// that has been generated but not yet emitted, and Advance generates the
// next one, returning false when the partition is exhausted. Both the
// Mocktails and the STM baseline leaf generators implement Gen, sharing
// the same tournament-merge injection process (Fig. 5).
type Gen interface {
	Pending() trace.Request
	Advance() bool
}

// Merger merges the partial orders of many generators into a total order
// by timestamp, implementing trace.Source including backpressure delay.
// Ties go to the generator that comes first (kmerge's tie-break).
type Merger struct {
	lt    *kmerge.Tree
	gens  []Gen
	shift uint64
}

// NewMerger builds a merger over the given generators; nil entries are
// skipped.
func NewMerger(gens []Gen) *Merger {
	m := &Merger{}
	for _, g := range gens {
		if g != nil {
			m.gens = append(m.gens, g)
		}
	}
	times := make([]uint64, len(m.gens))
	for i, g := range m.gens {
		times[i] = g.Pending().Time
	}
	m.lt = kmerge.New(times, make([]bool, len(m.gens)))
	return m
}

// Next returns the globally next request.
func (m *Merger) Next() (trace.Request, bool) {
	req, _, ok := m.NextIndexed()
	return req, ok
}

// NextIndexed returns the globally next request together with the index
// of the generator that produced it — the generator's position among
// the non-nil entries passed to NewMerger, in order. Scenario
// composition uses it to attribute each merged request back to its
// device without wrapping every generator.
func (m *Merger) NextIndexed() (trace.Request, int, bool) {
	w, ok := m.lt.Winner()
	if !ok {
		return trace.Request{}, -1, false
	}
	g := m.gens[w]
	req := g.Pending()
	req.Time += m.shift
	if g.Advance() {
		m.lt.Advance(w, g.Pending().Time)
	} else {
		m.lt.Eliminate(w)
	}
	return req, w, true
}

// Delay adds backpressure delay to all not-yet-emitted requests.
func (m *Merger) Delay(cycles uint64) { m.shift += cycles }

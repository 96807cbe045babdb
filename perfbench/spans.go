package main

import (
	"fmt"
	"sort"
)

// reqTrace mirrors one entry of the daemon's GET /debug/requests: the
// request span and its child layer spans, offsets relative to the
// request start.
type reqTrace struct {
	TraceID string `json:"trace_id"`
	Name    string `json:"name"`
	Status  int    `json:"status"`
	DurNs   int64  `json:"dur_ns"`
	Spans   []struct {
		Name    string `json:"name"`
		StartNs int64  `json:"start_ns"`
		DurNs   int64  `json:"dur_ns"`
	} `json:"spans"`
}

// pendingOp is a traced op whose span tree has not been read yet.
type pendingOp struct {
	id  string
	lat int64
}

// opSpans is one traced op: its client latency, its request span, and
// its layer spans summed by layer name.
type opSpans struct {
	lat    int64
	reqDur int64
	layers map[string]int64
}

// self is the request span's time not covered by any layer span: the
// handler's own, unattributed work.
func (o opSpans) self() int64 {
	s := o.reqDur
	for _, d := range o.layers {
		s -= d
	}
	return s
}

// spanLayer maps daemon span names to the benchmark's layer metrics.
// Both stream spans are the synthesis stream; the scenario one carries
// the device merge as well.
var spanLayer = map[string]string{
	"limit.wait":      "serve.limit_wait",
	"store.acquire":   "serve.store_acquire",
	"fit.stream":      "serve.fit_stream",
	"synth.stream":    "serve.synth_stream",
	"scenario.stream": "serve.synth_stream",
}

// reconcile checks that every layer span nests inside the request span
// and that the layer spans do not overlap, so layers plus the
// unattributed remainder add up to the request span exactly. It
// returns the op's layer breakdown.
func reconcile(t *reqTrace, lat int64) (opSpans, error) {
	o := opSpans{lat: lat, reqDur: t.DurNs, layers: map[string]int64{}}
	spans := append(t.Spans[:0:0], t.Spans...)
	sort.Slice(spans, func(i, j int) bool { return spans[i].StartNs < spans[j].StartNs })
	end := int64(0)
	for _, s := range spans {
		if s.StartNs < 0 || s.DurNs < 0 || s.StartNs+s.DurNs > t.DurNs {
			return o, fmt.Errorf("span %s [%d,+%d] outside request span of %d ns", s.Name, s.StartNs, s.DurNs, t.DurNs)
		}
		if s.StartNs < end {
			return o, fmt.Errorf("span %s starts at %d, inside the previous span ending at %d", s.Name, s.StartNs, end)
		}
		end = s.StartNs + s.DurNs
		name, ok := spanLayer[s.Name]
		if !ok {
			name = "serve.other"
		}
		o.layers[name] += s.DurNs
	}
	if o.self() < 0 {
		return o, fmt.Errorf("layer spans exceed the request span")
	}
	return o, nil
}

// collectSpans reads the daemon's recent request traces and attaches
// each pending op's span tree. Ops not found yet stay pending.
func collectSpans(d *daemon, pending []pendingOp, p *phase) []pendingOp {
	var v struct {
		Requests []reqTrace `json:"requests"`
	}
	if err := d.getJSON("/debug/requests?n=256", &v); err != nil {
		p.fail(-1, fmt.Errorf("reading /debug/requests: %v", err))
		return pending
	}
	byID := make(map[string]*reqTrace, len(v.Requests))
	for i := range v.Requests {
		byID[v.Requests[i].TraceID] = &v.Requests[i]
	}
	left := pending[:0]
	for _, op := range pending {
		t, ok := byID[op.id]
		if !ok {
			left = append(left, op)
			continue
		}
		o, err := reconcile(t, op.lat)
		if err != nil {
			p.fail(-1, fmt.Errorf("request %s: %v", op.id, err))
			continue
		}
		p.spans = append(p.spans, o)
	}
	return left
}

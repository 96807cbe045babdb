package main

import (
	"encoding/json"
	"testing"
	"time"
)

func traceOf(t *testing.T, js string) *reqTrace {
	t.Helper()
	var rt reqTrace
	if err := json.Unmarshal([]byte(js), &rt); err != nil {
		t.Fatal(err)
	}
	return &rt
}

func TestReconcileRejectsBadSpans(t *testing.T) {
	for _, js := range []string{
		// A child running past the request span.
		`{"dur_ns": 100, "spans": [{"name": "synth.stream", "start_ns": 50, "dur_ns": 60}]}`,
		// Two overlapping children.
		`{"dur_ns": 100, "spans": [{"name": "limit.wait", "start_ns": 0, "dur_ns": 30}, {"name": "synth.stream", "start_ns": 20, "dur_ns": 10}]}`,
		// A negative offset.
		`{"dur_ns": 100, "spans": [{"name": "store.acquire", "start_ns": -1, "dur_ns": 10}]}`,
	} {
		if _, err := reconcile(traceOf(t, js), 200); err == nil {
			t.Errorf("reconcile accepted %s", js)
		}
	}
	o, err := reconcile(traceOf(t, `{"dur_ns": 100, "spans": [
		{"name": "synth.stream", "start_ns": 40, "dur_ns": 50},
		{"name": "limit.wait", "start_ns": 0, "dur_ns": 5},
		{"name": "store.acquire", "start_ns": 5, "dur_ns": 5}]}`), 130)
	if err != nil {
		t.Fatal(err)
	}
	if o.self() != 40 || o.layers["serve.synth_stream"] != 50 || o.lat-o.reqDur != 30 {
		t.Errorf("breakdown %+v self %d", o, o.self())
	}
}

// TestTracedOpsReconcile drives every workload against a real daemon
// and checks each traced op: its layer spans nest in its request span
// without overlap, and layers plus the unattributed remainder add up to
// the request span. (The request span may outlast the client latency:
// it closes after the handler's deferred cleanup, which runs once the
// last byte is already on its way.)
func TestTracedOpsReconcile(t *testing.T) {
	if testing.Short() {
		t.Skip("starts daemons")
	}
	bin := daemonBin(t)
	for _, w := range allWorkloads {
		in, err := prepare(w, 5)
		if err != nil {
			t.Fatal(err)
		}
		d, _, err := coldSetup(runConfig{daemon: bin}, in)
		if err != nil {
			t.Fatal(err)
		}
		p, _ := runPhase(d, in, 0, time.Second, true)
		d.stop()
		if len(p.errs) > 0 {
			t.Fatalf("%s: %v", w.name, p.errs)
		}
		if p.ok == 0 || len(p.spans) != p.ok {
			t.Fatalf("%s: %d ok ops, %d with span trees", w.name, p.ok, len(p.spans))
		}
		for _, o := range p.spans {
			sum := o.self()
			for _, v := range o.layers {
				sum += v
			}
			if sum != o.reqDur || o.self() < 0 {
				t.Errorf("%s: layers %v + self %d != request span %d", w.name, o.layers, o.self(), o.reqDur)
			}
		}
	}
}

func TestChunkRates(t *testing.T) {
	p := &phase{
		done: []int64{1e9, 2e9, 3e9, 4e9, 5e9, 6e9, 7e9, 8e9},
		recs: []uint64{10, 10, 10, 10, 10, 10, 10, 10},
	}
	ops, recs := chunkRates(p)
	if len(ops) != chunksPerPhase {
		t.Fatalf("%d chunks", len(ops))
	}
	for i := range ops {
		if ops[i] != 1 || recs[i] != 10 {
			t.Errorf("chunk %d: %v ops/s, %v rec/s", i, ops[i], recs[i])
		}
	}
}

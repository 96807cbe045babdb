package serve

import (
	"context"
	"errors"
	"io"
	"net/http"
	"strconv"

	"repro/internal/dram"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// Scenario endpoint metrics (see docs/METRICS.md).
var (
	mScenarioComposed = obs.NewCounter("serve.scenario.composed")
	mScenarioDevices  = obs.NewCounter("serve.scenario.devices")
	mScenarioStreamed = obs.NewCounter("serve.scenario.requests_streamed")
	mScenarioBytes    = obs.NewHistogram("serve.scenario.stream_bytes", obs.ScaleBytes)
	mScenarioCanceled = obs.NewCounter("serve.scenario.canceled")
	mScenarioReplays  = obs.NewCounter("serve.scenario.replays")
)

// maxScenarioSpecBytes caps a scenario spec body. Specs are small JSON
// documents; a megabyte is two orders of magnitude above the largest
// valid spec (MaxDevices fully-specified devices).
const maxScenarioSpecBytes = 1 << 20

// handleScenario serves POST /v1/scenarios/synth: a scenario spec in
// the body names stored profiles, and the response streams the
// composed trace (bin or csv) or returns a replayed contention report
// (stats). Member profiles missing locally are cluster-fetched exactly
// like single-profile synthesis, so any node can serve any mix. The
// composed bytes are a pure function of the spec and the profile
// contents — identical across nodes, worker counts and warm or cold
// residency, and identical to `mocktails compose` offline.
func (s *Server) handleScenario(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxScenarioSpecBytes))
	if err != nil {
		var maxBytesErr *http.MaxBytesError
		if errors.As(err, &maxBytesErr) {
			writeError(w, http.StatusRequestEntityTooLarge,
				"spec exceeds the %d-byte body limit", maxScenarioSpecBytes)
			return
		}
		writeError(w, http.StatusBadRequest, "reading spec: %v", err)
		return
	}
	spec, err := scenario.Parse(body)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}

	// Pin every member profile up front (deduped: a profile reused by
	// several devices is pinned once). acquireOrFetch pulls local misses
	// from the cluster and writes the 404/507 itself on failure.
	pins := map[string]*Pin{}
	defer func() {
		for _, pin := range pins {
			pin.Release()
		}
	}()
	for i := range spec.Devices {
		id := spec.Devices[i].Profile
		if _, ok := pins[id]; ok {
			continue
		}
		pin, ok := s.acquireOrFetch(w, r, id)
		if !ok {
			return
		}
		pins[id] = pin
	}

	mActiveStreams.Set(float64(s.active.Add(1)))
	defer func() { mActiveStreams.Set(float64(s.active.Add(-1))) }()

	ctx := r.Context()
	st, err := scenario.Compose(spec,
		func(id string) (profile.View, func(), error) {
			return pins[id].Flat(), func() {}, nil
		},
		scenario.Workers(s.synthWorkers()), scenario.Context(ctx))
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	defer st.Close()
	mScenarioComposed.Inc()
	mScenarioDevices.Add(uint64(len(spec.Devices)))

	if spec.Output == "stats" {
		endReplay := obs.RequestFromContext(ctx).StartSpan("scenario.replay")
		rep := scenario.Replay(st, spec, dram.Default())
		endReplay()
		mScenarioReplays.Inc()
		sp := obs.SpanFromContext(ctx)
		sp.SetCount("requests", int64(rep.Requests))
		writeJSON(w, http.StatusOK, rep)
		return
	}

	total := st.Total()
	w.Header().Set("X-Mocktails-Requests", strconv.FormatUint(total, 10))
	var written int64
	var werr error
	endStream := obs.RequestFromContext(ctx).StartSpan("scenario.stream")
	switch spec.Output {
	case "csv":
		w.Header().Set("Content-Type", "text/csv")
		written, werr = trace.WriteCSVStream(ctx, newFlushWriter(w), st.Next)
	default: // "" or "bin"
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", strconv.FormatInt(trace.BinaryEncodedSize(total), 10))
		written, werr = trace.WriteBinaryStream(ctx, newFlushWriter(w), total, st.Next)
	}
	endStream()
	mScenarioBytes.Observe(written)
	sp := obs.SpanFromContext(ctx)
	sp.SetCount("requests", int64(total))
	sp.SetCount("bytes", written)
	switch {
	case werr == nil:
		mScenarioStreamed.Add(total)
	case errors.Is(werr, context.Canceled) || errors.Is(werr, context.DeadlineExceeded):
		mScenarioCanceled.Inc()
		obs.FromContext(ctx).Debug("scenario stream canceled", "bytes", written)
	default:
		// Mid-stream failure after the headers went out: abort the
		// connection rather than delivering a truncated body that looks
		// complete.
		obs.FromContext(ctx).Debug("scenario stream aborted", "bytes", written, "err", werr)
		panic(http.ErrAbortHandler)
	}
}

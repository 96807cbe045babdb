package scenario

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/profile"
	"repro/internal/synth"
	"repro/internal/trace"
)

// Composition metrics, shared by the daemon endpoint and the offline CLI.
var (
	mComposed = obs.NewCounter("scenario.composed")
	mDevices  = obs.NewCounter("scenario.devices")
	mRequests = obs.NewCounter("scenario.requests")
)

// Resolver opens the profile with the given content address and returns
// a synthesis view plus a release function. The serve store resolves to
// a pinned (possibly mmap-ed flat) entry; the CLI resolves to files in a
// directory. The release function is called exactly once, when the
// composed stream is closed.
type Resolver func(id string) (profile.View, func(), error)

// Option configures a composition.
type Option func(*config)

type config struct {
	workers int
	ctx     context.Context
}

// Workers sets the parallelism of device synthesis: devices are
// constructed concurrently and each device is synthesized in that many
// leaf shards (synth.Workers). Any value produces a bit-identical
// stream.
func Workers(n int) Option { return func(c *config) { c.workers = n } }

// Context attaches a context for observability spans. The composed
// stream is identical with or without it.
func Context(ctx context.Context) Option { return func(c *config) { c.ctx = ctx } }

// Stream is a composed scenario: a totally-ordered merge of the
// devices' transformed synthetic streams. It implements trace.Source;
// NextDev additionally reports which device produced each request, for
// per-device replay attribution. Close stops any synthesis shards and
// releases the underlying profiles; a Stream must be closed even when
// drained.
type Stream struct {
	m      *synth.Merger
	devIdx []int // merger generator index -> spec device index
	total  uint64
	closed bool
	mu     sync.Mutex
	closes []func()
}

// Total returns the exact number of requests the stream will emit,
// known up front so binary output can be streamed with a precomputed
// Content-Length.
func (s *Stream) Total() uint64 { return s.total }

// Next returns the globally next request.
func (s *Stream) Next() (trace.Request, bool) {
	r, _, ok := s.NextDev()
	return r, ok
}

// NextDev returns the globally next request and the index (into the
// spec's Devices) of the device that produced it.
func (s *Stream) NextDev() (trace.Request, int, bool) {
	r, gi, ok := s.m.NextIndexed()
	if !ok {
		return trace.Request{}, -1, false
	}
	return r, s.devIdx[gi], true
}

// Delay adds backpressure delay to all not-yet-emitted requests.
func (s *Stream) Delay(cycles uint64) { s.m.Delay(cycles) }

// Close stops the devices' synthesis shards and then releases the
// profiles: closes run in reverse order of registration, like defers, so
// no shard can still read a profile that its release unmaps. It is safe
// to call more than once.
func (s *Stream) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	for i := len(s.closes) - 1; i >= 0; i-- {
		s.closes[i]()
	}
	s.closes = nil
}

// deviceGen adapts one device's synthesizer to synth.Gen, applying the
// device transforms — request cap, time dilation, window remap — before
// the merge sees the request. Dilation scales the offset from the
// device's first timestamp (t' = t0 + (t-t0)·f) and is monotone for any
// valid factor, so each device's stream stays sorted and the merge's
// total order is preserved.
type deviceGen struct {
	src       *synth.Synthesizer
	pending   trace.Request
	remaining uint64 // requests still to emit, including pending
	window    *Window
	dilation  float64
	dilate    bool
	t0        uint64
}

// init pulls the first request and prepares the transform state. It
// returns false when the device emits nothing.
func (g *deviceGen) init(d *Device, src *synth.Synthesizer, count uint64) bool {
	if count == 0 {
		return false
	}
	r, ok := src.Next()
	if !ok {
		return false
	}
	g.src = src
	g.remaining = count
	g.window = d.Window
	g.dilation = d.dilation()
	g.dilate = g.dilation != 1
	g.t0 = r.Time
	g.pending = g.transform(r)
	return true
}

func (g *deviceGen) transform(r trace.Request) trace.Request {
	if g.dilate {
		r.Time = g.t0 + uint64(float64(r.Time-g.t0)*g.dilation)
	}
	r.Addr = g.window.Remap(r.Addr)
	return r
}

// Pending returns the transformed generated-but-unemitted request.
func (g *deviceGen) Pending() trace.Request { return g.pending }

// Advance moves to the device's next request, returning false when the
// cap or the profile is exhausted.
func (g *deviceGen) Advance() bool {
	if g.remaining <= 1 {
		g.remaining = 0
		return false
	}
	r, ok := g.src.Next()
	if !ok {
		g.remaining = 0
		return false
	}
	g.remaining--
	g.pending = g.transform(r)
	return true
}

// Compose opens every device's profile through the resolver,
// synthesizes the devices concurrently, and returns the merged stream.
// The result is a pure function of the spec and the profile contents:
// the same spec produces byte-identical output for any worker count and
// whether the profiles resolve to heap or flat (mmap) representations.
// Requests sharing a timestamp are emitted in ascending device index
// (the spec's Devices order), inheriting trace.Merge's documented
// tie-break.
//
// A single-device spec with no window, dilation 1 and no count cap
// composes to exactly the device profile's plain synthesis stream.
func Compose(spec *Spec, resolve Resolver, opts ...Option) (*Stream, error) {
	cfg := config{workers: 1}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.workers < 1 {
		cfg.workers = 1
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	ctx, sp := obs.Start(cfg.ctx, "scenario.compose")
	defer sp.End()

	st := &Stream{}
	// Resolve serially: resolvers may fetch over the network or touch an
	// LRU, and a deterministic resolve order keeps failure modes (which
	// missing profile is reported) stable too.
	views := make([]profile.View, len(spec.Devices))
	for i := range spec.Devices {
		v, release, err := resolve(spec.Devices[i].Profile)
		if err != nil {
			st.Close()
			return nil, fmt.Errorf("scenario: device %d (%s): %w", i, spec.Devices[i].Profile, err)
		}
		views[i] = v
		st.closes = append(st.closes, release)
	}

	// Synthesize the devices concurrently. par.ForEach commits by index,
	// so construction order cannot leak into the output.
	srcs := make([]*synth.Synthesizer, len(spec.Devices))
	counts := make([]uint64, len(spec.Devices))
	par.ForEach(len(spec.Devices), cfg.workers, func(i int) {
		d := &spec.Devices[i]
		counts[i] = uint64(views[i].Requests())
		if d.Count > 0 && d.Count < counts[i] {
			counts[i] = d.Count
		}
		srcs[i] = synth.NewFrom(views[i], d.Seed, synth.Workers(cfg.workers), synth.Context(ctx))
	})
	for _, s := range srcs {
		st.closes = append(st.closes, s.Close)
	}

	gens := make([]synth.Gen, 0, len(spec.Devices))
	for i := range spec.Devices {
		g := &deviceGen{}
		if !g.init(&spec.Devices[i], srcs[i], counts[i]) {
			continue
		}
		gens = append(gens, g)
		st.devIdx = append(st.devIdx, i)
		st.total += counts[i]
	}
	st.m = synth.NewMerger(gens)

	mComposed.Inc()
	mDevices.Add(uint64(len(spec.Devices)))
	mRequests.Add(st.total)
	sp.SetCount("devices", int64(len(spec.Devices)))
	sp.SetCount("requests", int64(st.total))
	return st, nil
}

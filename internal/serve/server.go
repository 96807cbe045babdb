package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/synth"
	"repro/internal/trace"
)

// Request-path metrics. Per-endpoint request/error counters are created
// in NewServer ("serve.<endpoint>.requests/.errors"); per-endpoint
// latency histograms come from the request spans
// ("stage.serve.<endpoint>.ns").
var (
	mThrottled     = obs.NewCounter("serve.throttled")
	mActiveStreams = obs.NewGauge("serve.active_streams")
	mSynthStreamed = obs.NewCounter("serve.synth.requests_streamed")
	mSynthBytes    = obs.NewHistogram("serve.synth.stream_bytes", obs.ScaleBytes)
	mSynthCanceled = obs.NewCounter("serve.synth.canceled")
	mFitsServed    = obs.NewCounter("serve.fit.traces_fitted")
)

// Config tunes a Server. The zero value selects the documented
// defaults; a negative limit means unlimited.
type Config struct {
	// Shards is the profile-store shard count (0 = DefaultShards).
	Shards int
	// StoreBudget bounds the store's resident canonical-encoded profile
	// bytes (0 = DefaultStoreBudget, < 0 = unlimited).
	StoreBudget int64
	// MaxStreams caps concurrent synthesis streams (0 = 128).
	MaxStreams int
	// MaxFits caps concurrent in-process fits — each fit saturates the
	// worker pool, so a small cap protects latency (0 = 4).
	MaxFits int
	// MaxInflight caps total in-flight requests (0 = 512).
	MaxInflight int
	// MaxUploadBytes caps an upload's body size (0 = 1 GiB).
	MaxUploadBytes int64
	// MaxTraceBytes caps the in-memory footprint of one fitted trace,
	// in trace.RequestMemBytes units per decoded record — the memory a
	// materialised build would need (0 = unlimited). Unlike
	// MaxUploadBytes it is enforced on decoded records, so it bounds
	// compressed (gz) and chunked uploads whose wire size says nothing
	// about their decoded size. Exceeding it returns 413.
	MaxTraceBytes int64
	// FitTimeout bounds one in-process fit (0 = 2 minutes, < 0 = none).
	FitTimeout time.Duration
	// FitWorkers is the worker count handed to profile fitting
	// (0 = the MOCKTAILS_PARALLELISM / GOMAXPROCS default).
	FitWorkers int
	// SynthWorkers is the leaf-shard count per synthesis stream, each
	// shard generated on its own goroutine (<= 0 = auto: GOMAXPROCS
	// divided by the streams active when the request starts, at least
	// 1; output is bit-identical for any value).
	SynthWorkers int
	// DiskDir, when non-empty, enables the store's disk tier: uploads
	// are written through as flat files, RAM eviction demotes instead
	// of discarding, and cold requests are served by memory-mapping the
	// flat file — so the servable profile set is bounded by DiskBudget
	// rather than StoreBudget.
	DiskDir string
	// DiskBudget bounds the disk tier's bytes (0 = unlimited).
	DiskBudget int64
	// Debug mounts the obs debug surface (net/http/pprof + expvar)
	// under /debug/ on the server's own mux, reusing the one handler
	// instead of opening a second listener.
	Debug bool
	// Cluster, when its Advertise field is set, joins the server to a
	// consistent-hash cluster of peers at construction. Leave zero for
	// a single node; tests that only learn their listen address after
	// starting can join later with JoinCluster.
	Cluster ClusterConfig
	// AccessLog, when non-nil, receives the per-request access-log
	// lines instead of the process logger (tests inject per-node
	// buffers). The obs -access-log flag gates emission either way.
	AccessLog *slog.Logger
	// TraceRing caps the ring buffer of recently completed request
	// traces served by GET /debug/requests (0 = 256).
	TraceRing int
}

// DefaultStoreBudget is the default profile-store byte budget (256 MiB
// of canonical profile encoding).
const DefaultStoreBudget = 256 << 20

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = DefaultShards
	}
	if c.StoreBudget == 0 {
		c.StoreBudget = DefaultStoreBudget
	}
	if c.MaxStreams == 0 {
		c.MaxStreams = 128
	}
	if c.MaxFits == 0 {
		c.MaxFits = 4
	}
	if c.MaxInflight == 0 {
		c.MaxInflight = 512
	}
	if c.MaxUploadBytes == 0 {
		c.MaxUploadBytes = 1 << 30
	}
	if c.FitTimeout == 0 {
		c.FitTimeout = 2 * time.Minute
	}
	return c
}

// Server is the mocktailsd HTTP API: a profile store fed by uploads
// (pre-fit profiles, or traces fitted in-process) and a streaming
// synthesis endpoint. Build one with NewServer and mount Handler.
type Server struct {
	cfg   Config
	store *Store
	mux   *http.ServeMux

	global  *limiter
	fits    *limiter
	streams *limiter

	// traces keeps the most recent completed request traces for
	// GET /debug/requests. One ring per node, so cross-node trace
	// continuity is observable per node.
	traces *obs.TraceRing

	// cluster is nil for a single node. It is installed atomically so
	// JoinCluster may run after the listener is already serving.
	cluster atomic.Pointer[cluster]

	active atomic.Int64

	// inflight counts requests until their last deferred step; idle is
	// closed whenever it is 0.
	idleMu   sync.Mutex
	inflight int
	idle     chan struct{}
}

// NewServer returns a Server with the given configuration. The error
// is always nil unless a disk tier is configured and its directory
// cannot be created or indexed.
func NewServer(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	store, err := NewTieredStore(StoreConfig{
		Shards:     cfg.Shards,
		Budget:     cfg.StoreBudget,
		DiskDir:    cfg.DiskDir,
		DiskBudget: cfg.DiskBudget,
	})
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		store:   store,
		mux:     http.NewServeMux(),
		global:  newLimiter(cfg.MaxInflight),
		fits:    newLimiter(cfg.MaxFits),
		streams: newLimiter(cfg.MaxStreams),
		traces:  obs.NewTraceRing(cfg.TraceRing),
		idle:    make(chan struct{}),
	}
	close(s.idle)
	s.mux.HandleFunc("GET /healthz", s.endpoint("health", nil, s.handleHealth))
	s.mux.HandleFunc("GET /metrics", s.endpoint("metrics", nil, s.handleMetrics))
	s.mux.HandleFunc("GET /debug/requests", s.endpoint("debug_requests", nil, s.handleDebugRequests))
	s.mux.HandleFunc("GET /v1/profiles", s.endpoint("list", nil, s.handleList))
	s.mux.HandleFunc("POST /v1/profiles", s.endpoint("upload", s.fits, s.handleUpload))
	s.mux.HandleFunc("GET /v1/profiles/{id}", s.endpoint("get", nil, s.handleGet))
	s.mux.HandleFunc("POST /v1/profiles/{id}/synth", s.endpoint("synth", s.streams, s.handleSynth))
	s.mux.HandleFunc("POST /v1/scenarios/synth", s.endpoint("scenario", s.streams, s.handleScenario))
	s.mux.HandleFunc("GET /v1/cluster/healthz", s.endpoint("cluster_health", nil, s.handleClusterHealth))
	s.mux.HandleFunc("POST /v1/cluster/replicate", s.endpoint("replicate", nil, s.handleReplicate))
	if cfg.Debug {
		s.mux.Handle("/debug/", obs.DebugHandler())
	}
	if cfg.Cluster.Advertise != "" {
		if err := s.JoinCluster(cfg.Cluster); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// JoinCluster joins the server to the given cluster, replacing any
// previous membership. It may be called while the server is already
// handling requests: until the join, requests get single-node
// semantics.
func (s *Server) JoinCluster(cfg ClusterConfig) error {
	c, err := newCluster(cfg)
	if err != nil {
		return err
	}
	s.cluster.Store(c)
	obs.Logger().Info("joined cluster", "self", c.self, "members", c.ring.Members())
	return nil
}

// isPeer reports whether r is an intra-cluster request. Peer requests
// are answered from local state only — never forwarded, fetched for,
// or re-replicated — which makes routing loops structurally
// impossible.
func isPeer(r *http.Request) bool { return r.Header.Get(headerPeer) != "" }

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Store returns the server's profile store.
func (s *Server) Store() *Store { return s.store }

// Traces returns the node's ring buffer of completed request traces.
func (s *Server) Traces() *obs.TraceRing { return s.traces }

// ActiveStreams returns the number of synthesis streams in flight.
func (s *Server) ActiveStreams() int64 { return s.active.Load() }

// synthWorkers returns the shard count for a stream that has just
// joined the active ones: the configured count, or by default an equal
// share of the cores among the active streams.
func (s *Server) synthWorkers() int {
	if s.cfg.SynthWorkers > 0 {
		return s.cfg.SynthWorkers
	}
	return max(1, runtime.GOMAXPROCS(0)/int(s.active.Load()))
}

// Idle returns a channel closed once every request the server started
// has fully finished: handler, pin releases, trace ring and access log.
// A client can hold a whole response before then, so a check of pins
// or traces after a response waits here first.
func (s *Server) Idle() <-chan struct{} {
	s.idleMu.Lock()
	defer s.idleMu.Unlock()
	return s.idle
}

// track adds delta to the requests in flight, closing idle when the
// count drops to 0 and renewing it when a request starts on an idle
// server.
func (s *Server) track(delta int) {
	s.idleMu.Lock()
	defer s.idleMu.Unlock()
	if s.inflight += delta; s.inflight == 0 {
		close(s.idle)
	} else if s.inflight == 1 && delta > 0 {
		s.idle = make(chan struct{})
	}
}

// statusWriter records the status code and body bytes a handler wrote,
// for the per-endpoint error counters and the access log, and forwards
// Flush so streaming handlers keep working through the wrapper.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Request-tracing headers. An incoming traceparent wins; a bare
// 32-hex X-Request-Id supplies just the trace ID; otherwise the
// middleware assigns a fresh trace. Every response echoes the trace ID
// as X-Request-Id so callers can correlate without parsing traceparent.
const (
	headerTraceparent = "traceparent"
	headerRequestID   = "X-Request-Id"
)

// startTrace opens the request trace for r from its tracing headers.
func (s *Server) startTrace(r *http.Request, name string) (context.Context, *obs.ReqTrace) {
	parent, ok := obs.ParseTraceparent(r.Header.Get(headerTraceparent))
	if !ok {
		if id, idOK := obs.ParseTraceID(r.Header.Get(headerRequestID)); idOK {
			parent = obs.SpanContext{TraceID: id}
		}
	}
	ctx, rt := obs.StartRequest(r.Context(), "serve."+name, parent)
	rt.SetHTTP(r.Method, r.URL.Path, isPeer(r))
	return ctx, rt
}

// finishTrace seals the request trace, records it in the node's ring
// buffer, and emits the access-log line (method, route, status, bytes,
// duration, trace ID, peer flag) when access logging is enabled.
func (s *Server) finishTrace(rt *obs.ReqTrace, sw *statusWriter) {
	done := rt.Finish(sw.status, sw.bytes)
	if done == nil {
		return
	}
	s.traces.Put(done)
	if !obs.AccessLogEnabled() {
		return
	}
	log := s.cfg.AccessLog
	if log == nil {
		log = obs.Logger()
	}
	log.Info("http",
		"method", done.Method, "path", done.Route, "route", done.Name,
		"status", done.Status, "bytes", done.Bytes,
		"dur_ms", float64(done.DurNs)/1e6,
		"trace", done.TraceID, "peer", done.Peer)
}

// endpoint wraps a handler with the production plumbing every route
// shares: the request trace (extracted from traceparent/X-Request-Id
// or assigned, recorded in the trace ring and the access log — 429s
// included), the global and per-endpoint in-flight limits (429 +
// Retry-After when exhausted), a request span feeding the per-endpoint
// latency histogram, and request/error counters.
func (s *Server) endpoint(name string, lim *limiter, h http.HandlerFunc) http.HandlerFunc {
	reqs := obs.NewCounter("serve." + name + ".requests")
	errs := obs.NewCounter("serve." + name + ".errors")
	return func(w http.ResponseWriter, r *http.Request) {
		s.track(1)
		defer s.track(-1)
		ctx, rt := s.startTrace(r, name)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		w.Header().Set(headerRequestID, rt.TraceID().String())
		// The trace outlives everything else in the request, including
		// an aborted stream's panic: deferred early so it runs late.
		defer s.finishTrace(rt, sw)
		endWait := rt.StartSpan("limit.wait")
		if !s.global.tryAcquire() {
			endWait()
			throttle(sw)
			return
		}
		defer s.global.release()
		if !lim.tryAcquire() {
			endWait()
			throttle(sw)
			return
		}
		defer lim.release()
		endWait()
		reqs.Inc()
		ctx, sp := obs.Start(ctx, "serve."+name)
		defer sp.End()
		h(sw, r.WithContext(ctx))
		if sw.status >= 400 {
			errs.Inc()
		}
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	diskBytes, diskFiles := s.store.DiskStats()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"profiles":       s.store.Len(),
		"store_bytes":    s.store.Bytes(),
		"disk_bytes":     diskBytes,
		"disk_files":     diskFiles,
		"active_streams": s.active.Load(),
	})
}

// handleMetrics serves the process metrics registry in Prometheus text
// exposition format (v0.0.4): every counter, gauge and histogram in
// obs.Default, including all serve.* and stage.* series.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", obs.PromContentType)
	obs.Default.WritePrometheus(w)
}

// handleDebugRequests returns the node's most recent completed request
// traces (?n=, default 32), newest first — including the spans and
// trace IDs of peer hops, so one distributed request can be followed
// node by node.
func (s *Server) handleDebugRequests(w http.ResponseWriter, r *http.Request) {
	n := 32
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 1 {
			writeError(w, http.StatusBadRequest, "bad n %q", q)
			return
		}
		n = v
	}
	if n > s.traces.Cap() {
		n = s.traces.Cap()
	}
	writeJSON(w, http.StatusOK, map[string]any{"requests": s.traces.Recent(n)})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"profiles": s.store.List()})
}

// uploadResponse is the body of a successful POST /v1/profiles.
type uploadResponse struct {
	Meta
	Deduped bool `json:"deduped"`
}

// errTraceTooLarge aborts a streaming fit whose decoded trace exceeds
// Config.MaxTraceBytes. It surfaces to the client as 413.
var errTraceTooLarge = errors.New("serve: decoded trace exceeds the configured size limit")

// cappedReader enforces MaxTraceBytes in decoded-record units while the
// fit is consuming the upload. It reads first and checks after, so the
// record that crosses the cap is never silently dropped — the whole fit
// aborts with errTraceTooLarge instead.
type cappedReader struct {
	r   trace.Reader
	n   uint64
	max uint64
}

func (c *cappedReader) Next(req *trace.Request) error {
	if err := c.r.Next(req); err != nil {
		return err
	}
	c.n++
	if c.n*trace.RequestMemBytes > c.max {
		return errTraceTooLarge
	}
	return nil
}

func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	opts, err := ParseUploadOptions(r.URL.Query())
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes)
	var p *profile.Profile
	var f *profile.Flat
	var id string
	switch opts.Kind {
	case KindProfile:
		// The profile encoding is sniffed, not configured: peers and
		// `mocktails profile -format flat` send the flat wire format,
		// the CLI uploads gzip canonical, and both land here.
		br := bufio.NewReader(body)
		if hdr, _ := br.Peek(8); profile.SniffFlat(hdr) {
			data, rerr := io.ReadAll(br)
			var maxBytesErr *http.MaxBytesError
			if errors.As(rerr, &maxBytesErr) {
				writeError(w, http.StatusRequestEntityTooLarge,
					"upload exceeds the %d-byte body limit", s.cfg.MaxUploadBytes)
				return
			}
			if rerr != nil {
				writeError(w, http.StatusBadRequest, "reading profile: %v", rerr)
				return
			}
			if f, id, err = openAddressedFlat(data); err != nil {
				writeError(w, http.StatusBadRequest, "decoding flat profile: %v", err)
				return
			}
		} else if p, err = profile.ReadGzip(br); err != nil {
			writeError(w, http.StatusBadRequest, "decoding profile: %v", err)
			return
		}
	case KindTrace:
		// The body streams straight through the incremental decoder into
		// partitioning and fitting: the fit starts as the first records
		// arrive (chunked uploads fit while the client is still sending)
		// and peak memory is the fit frontier, never the trace. The
		// decoder sniffs raw binary, CSV and gzip bodies by magic.
		d, derr := trace.NewDecoder(body)
		if derr != nil {
			writeError(w, http.StatusBadRequest, "decoding trace: %v", derr)
			return
		}
		var rd trace.Reader = d
		if s.cfg.MaxTraceBytes > 0 {
			rd = &cappedReader{r: d, max: uint64(s.cfg.MaxTraceBytes)}
		}
		// Fit in-process under the request context plus the fit
		// timeout: a disconnected or timed-out client stops dispatching
		// leaf fits instead of burning the worker pool.
		fitCtx := r.Context()
		if s.cfg.FitTimeout > 0 {
			var cancel context.CancelFunc
			fitCtx, cancel = context.WithTimeout(fitCtx, s.cfg.FitTimeout)
			defer cancel()
		}
		endFit := obs.RequestFromContext(r.Context()).StartSpan("fit.stream")
		p, err = core.BuildStream(opts.Name, rd, opts.Partition, core.Workers(s.cfg.FitWorkers), core.BuildContext(fitCtx))
		endFit()
		var maxBytesErr *http.MaxBytesError
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			writeError(w, http.StatusServiceUnavailable, "fit exceeded the %s timeout", s.cfg.FitTimeout)
			return
		case errors.Is(err, context.Canceled):
			// The client went away; the status is for the log only.
			writeError(w, http.StatusBadRequest, "fit canceled")
			return
		case errors.Is(err, errTraceTooLarge):
			writeError(w, http.StatusRequestEntityTooLarge,
				"trace exceeds the configured decoded-size limit of %d bytes", s.cfg.MaxTraceBytes)
			return
		case errors.As(err, &maxBytesErr):
			writeError(w, http.StatusRequestEntityTooLarge,
				"upload exceeds the %d-byte body limit", s.cfg.MaxUploadBytes)
			return
		case err != nil:
			writeError(w, http.StatusBadRequest, "fitting trace: %v", err)
			return
		}
		if d.Records() == 0 {
			// The sniffing decoder treats an empty body as an empty CSV
			// stream; a fit of nothing is a client error, not a profile.
			writeError(w, http.StatusBadRequest, "decoding trace: empty trace")
			return
		}
		mFitsServed.Inc()
	}
	var pin *Pin
	var added bool
	if p != nil {
		pin, added, err = s.store.putPinned(p)
	} else {
		pin, added, err = s.store.insert(id, f)
	}
	if !s.admitted(w, err) {
		return
	}
	defer pin.Release()
	meta := pin.Meta()
	// A newly-admitted profile is pushed to its ring owner before the
	// response is written, so by the time the uploader learns the ID,
	// any node in the cluster can already resolve it at its canonical
	// location. Peer-marked uploads never re-replicate.
	if added {
		if c := s.cluster.Load(); c != nil && !isPeer(r) {
			endRepl := obs.RequestFromContext(r.Context()).StartSpan("cluster.replicate")
			c.replicate(r.Context(), meta.ID, pin.Flat().Bytes())
			endRepl()
		}
	}
	status := http.StatusCreated
	if !added {
		status = http.StatusOK
	}
	obs.FromContext(r.Context()).Debug("profile stored",
		"id", meta.ID, "name", meta.Name, "leaves", meta.Leaves, "deduped", !added)
	writeJSON(w, status, uploadResponse{Meta: meta, Deduped: !added})
}

// admitted reports whether a store admission succeeded, answering 507
// (store full) or 500 when it did not.
func (s *Server) admitted(w http.ResponseWriter, err error) bool {
	switch {
	case err == nil:
		return true
	case errors.Is(err, ErrStoreFull):
		writeError(w, http.StatusInsufficientStorage, "%v", err)
	default:
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
	return false
}

// Download media types. Flat downloads are the resident bytes
// (docs/FORMAT.md); gz downloads derive from them the canonical varint
// encoding wrapped in gzip, the portable interchange format.
const (
	contentTypeFlat = "application/x-mocktails-flat-profile"
	contentTypeGz   = "application/gzip"
)

// acquireOrFetch pins profile id, pulling it from the cluster on a
// local miss (fetch-on-miss: the flat bytes are downloaded from the
// peer preference sequence, verified against the content address, and
// admitted into the local store, so subsequent requests for the same
// profile are local). On failure it writes the error response — 404
// when no reachable node holds the profile, 507 when the local store
// cannot admit it — and returns ok=false. Peer-marked requests never
// fetch: they see local state only.
func (s *Server) acquireOrFetch(w http.ResponseWriter, r *http.Request, id string) (*Pin, bool) {
	rt := obs.RequestFromContext(r.Context())
	endAcquire := rt.StartSpan("store.acquire")
	pin, ok := s.store.Acquire(id)
	endAcquire()
	if ok {
		return pin, true
	}
	c := s.cluster.Load()
	if c == nil || isPeer(r) {
		writeError(w, http.StatusNotFound, "no profile %q", id)
		return nil, false
	}
	endFetch := rt.StartSpan("cluster.fetch")
	f := c.fetch(r.Context(), id, s.cfg.MaxUploadBytes)
	endFetch()
	if f == nil {
		writeError(w, http.StatusNotFound, "no profile %q in the cluster", id)
		return nil, false
	}
	pin, _, err := s.store.insert(id, f)
	if !s.admitted(w, err) {
		return nil, false
	}
	return pin, true
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if dl := r.URL.Query().Get("download"); dl != "" {
		pin, ok := s.acquireOrFetch(w, r, id)
		if !ok {
			return
		}
		defer pin.Release()
		// download=gz derives the gzip canonical encoding from the
		// resident bytes; any other value sends those bytes as they are.
		f := pin.Flat()
		w.Header().Set("X-Mocktails-Profile", id)
		var err error
		if dl == "gz" {
			w.Header().Set("Content-Type", contentTypeGz)
			w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", id+".profile.gz"))
			err = f.WriteGzip(w)
		} else {
			w.Header().Set("Content-Type", contentTypeFlat)
			w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", id+flatExt))
			w.Header().Set("Content-Length", strconv.Itoa(len(f.Bytes())))
			_, err = w.Write(f.Bytes())
		}
		if err != nil {
			obs.FromContext(r.Context()).Debug("profile download aborted", "id", id, "err", err)
		}
		return
	}
	meta, ok := s.store.Meta(id)
	if !ok {
		// Metadata reads are forwarded rather than fetched: answering
		// "does this profile exist" must not pull megabytes of profile
		// into the local store.
		if c := s.cluster.Load(); c != nil && !isPeer(r) {
			body, status, reachable := c.forwardMeta(r.Context(), id)
			switch {
			case reachable && status == http.StatusOK:
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusOK)
				w.Write(body)
			case reachable:
				writeError(w, http.StatusNotFound, "no profile %q in the cluster", id)
			default:
				writeError(w, http.StatusBadGateway, "no cluster peer reachable for profile %q", id)
			}
			return
		}
		writeError(w, http.StatusNotFound, "no profile %q", id)
		return
	}
	writeJSON(w, http.StatusOK, meta)
}

// handleReplicate admits a profile pushed by a cluster peer: one
// replication frame carrying the claimed content address and the flat
// profile bytes. The address is recomputed from the verified payload
// and must match — a peer cannot plant bytes under a foreign ID.
func (s *Server) handleReplicate(w http.ResponseWriter, r *http.Request) {
	if s.cluster.Load() == nil {
		writeError(w, http.StatusServiceUnavailable, "node is not clustered")
		return
	}
	// The frame wraps the payload in a fixed-size header plus the id
	// and checksum; 1 KiB of slack over the upload cap covers it.
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes+1024)
	id, payload, err := decodeFrame(body, s.cfg.MaxUploadBytes)
	if err != nil {
		var maxBytesErr *http.MaxBytesError
		if errors.As(err, &maxBytesErr) {
			writeError(w, http.StatusRequestEntityTooLarge,
				"frame exceeds the %d-byte body limit", s.cfg.MaxUploadBytes)
			return
		}
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	f, err := decodeVerifiedProfile(id, payload)
	if err != nil {
		writeError(w, http.StatusBadRequest, "replicated profile rejected: %v", err)
		return
	}
	pin, added, err := s.store.insert(id, f)
	if !s.admitted(w, err) {
		return
	}
	pin.Release()
	meta := pin.Meta()
	mClusterReplReceived.Inc()
	status := http.StatusCreated
	if !added {
		status = http.StatusOK
	}
	obs.FromContext(r.Context()).Debug("profile replicated in",
		"id", meta.ID, "from", r.Header.Get(headerPeer), "deduped", !added)
	writeJSON(w, status, uploadResponse{Meta: meta, Deduped: !added})
}

// handleClusterHealth reports the node's view of the cluster: its ring
// identity, the membership, and a live probe of every peer. A
// non-clustered node answers with mode "single" so the endpoint is
// uniformly scrapeable.
func (s *Server) handleClusterHealth(w http.ResponseWriter, r *http.Request) {
	c := s.cluster.Load()
	if c == nil {
		writeJSON(w, http.StatusOK, map[string]any{
			"mode":     "single",
			"profiles": s.store.Len(),
		})
		return
	}
	peers := c.probePeers(r.Context())
	allOK := true
	for _, p := range peers {
		if !p.OK {
			allOK = false
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"mode":     "cluster",
		"self":     c.self,
		"members":  c.ring.Members(),
		"peers":    peers,
		"peers_ok": allOK,
		"profiles": s.store.Len(),
	})
}

// flushWriter flushes the HTTP response after every write reaching it,
// so a synthesis stream is delivered in bounded chunks (the streaming
// encoders buffer 32 KiB internally) instead of accumulating
// server-side.
type flushWriter struct {
	w http.ResponseWriter
	f http.Flusher
}

func newFlushWriter(w http.ResponseWriter) *flushWriter {
	f, _ := w.(http.Flusher)
	return &flushWriter{w: w, f: f}
}

func (fw *flushWriter) Write(p []byte) (int, error) {
	n, err := fw.w.Write(p)
	if fw.f != nil {
		fw.f.Flush()
	}
	return n, err
}

func (s *Server) handleSynth(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	opts, err := ParseSynthOptions(r.URL.Query())
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	pin, ok := s.acquireOrFetch(w, r, id)
	if !ok {
		return
	}
	defer pin.Release()
	count := pin.Meta().Requests
	if opts.N > 0 && opts.N < count {
		count = opts.N
	}

	mActiveStreams.Set(float64(s.active.Add(1)))
	defer func() { mActiveStreams.Set(float64(s.active.Add(-1))) }()

	ctx := r.Context()
	src := synth.NewFrom(pin.Flat(), opts.Seed, synth.Workers(s.synthWorkers()), synth.Context(ctx))
	defer src.Close()

	w.Header().Set("X-Mocktails-Profile", id)
	w.Header().Set("X-Mocktails-Requests", strconv.FormatUint(count, 10))
	var written int64
	var werr error
	endStream := obs.RequestFromContext(ctx).StartSpan("synth.stream")
	switch opts.Format {
	case FormatBin:
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", strconv.FormatInt(trace.BinaryEncodedSize(count), 10))
		written, werr = trace.WriteBinaryStream(ctx, newFlushWriter(w), count, trace.Limit(src, count))
	case FormatCSV:
		w.Header().Set("Content-Type", "text/csv")
		written, werr = trace.WriteCSVStream(ctx, newFlushWriter(w), trace.Limit(src, count))
	}
	endStream()
	mSynthBytes.Observe(written)
	sp := obs.SpanFromContext(ctx)
	sp.SetCount("requests", int64(count))
	sp.SetCount("bytes", written)
	switch {
	case werr == nil:
		mSynthStreamed.Add(count)
	case errors.Is(werr, context.Canceled) || errors.Is(werr, context.DeadlineExceeded):
		mSynthCanceled.Inc()
		obs.FromContext(ctx).Debug("synth stream canceled", "id", id, "bytes", written)
	default:
		// The response has already started, so a status can't express
		// the failure; abort the connection instead of sending a
		// well-terminated truncated body the client would mistake for a
		// complete stream.
		obs.FromContext(ctx).Debug("synth stream aborted", "id", id, "bytes", written, "err", werr)
		panic(http.ErrAbortHandler)
	}
}

package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/profile"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/trace"
	"repro/internal/validate"
	"repro/internal/workloads"
)

// Inputs sizes. Each workload uses one generator class at one size and
// varies only the seed, so every op of a run costs the same.
const (
	ingestPool   = 8  // distinct HEVC traces, cycled in order
	ingestFrames = 6  // frames per HEVC trace (~23.6k requests)
	seedVariants = 64 // distinct synthesis seeds per synth/compose run
	manhattan    = 0.70
	xbarLatency  = 20 // crossbar latency of the fidelity replays
	// fidelitySeed fixes the inputs and synthesis seed of the fidelity
	// check, so fidelity_err_pct moves only when output bytes change.
	fidelitySeed = 0
)

// source is one trace the workload uploads through a kind=trace fit,
// with the offline fit the correctness checks compare against.
type source struct {
	name string
	t    trace.Trace
	gz   []byte
	prof *profile.Profile
	id   string
}

// op is one request of the closed loop. Op i of a run sends
// ops[i % len(ops)].
type op struct {
	path    string
	ctype   string
	body    []byte
	records uint64 // requests fitted (ingest) or synthesized
	wantID  string // ingest: content address of the offline fit
	seed    uint64 // synth-wide: synthesis seed
	variant int    // synth/compose: index of the seed variant
}

// inputs is everything a run sends, generated before any clock starts.
type inputs struct {
	sources []source
	ops     []op
	spec    *scenario.Spec // compose-deep base spec
	hash    [32]byte       // digest of every byte the run sends
}

// workload describes one benchmark workload.
type workload struct {
	name string
	// traces returns the workload's source traces for a seed.
	traces func(base uint64) []namedTrace
	// ops builds the op pool from the uploaded sources.
	ops func(base uint64, srcs []source) ([]op, *scenario.Spec, error)
	// expect returns the SHA-256 of the offline output of op o, for
	// the synthesis workloads.
	expect func(in *inputs, o *op) ([32]byte, error)
	// fidelity returns the request whose output is replayed against
	// the original trace(s), and that reference replay source.
	fidelity func(in *inputs) (op, trace.Source)
}

type namedTrace struct {
	name string
	t    trace.Trace
}

var allWorkloads = []*workload{
	{
		name: "ingest",
		traces: func(base uint64) []namedTrace {
			out := make([]namedTrace, ingestPool)
			for k := range out {
				out[k] = namedTrace{"hevc", workloads.HEVC(base+uint64(k), ingestFrames)}
			}
			return out
		},
		ops: func(base uint64, srcs []source) ([]op, *scenario.Spec, error) {
			ops := make([]op, len(srcs))
			for k, s := range srcs {
				ops[k] = op{
					path:    "/v1/profiles?kind=trace&name=" + s.name,
					ctype:   "application/gzip",
					body:    s.gz,
					records: uint64(len(s.t)),
					wantID:  s.id,
				}
			}
			return ops, nil, nil
		},
		fidelity: func(in *inputs) (op, trace.Source) {
			s := in.sources[0]
			return synthOp(s, fidelitySeed+1, 0), trace.NewReplayer(s.t)
		},
	},
	{
		name: "synth-wide",
		traces: func(base uint64) []namedTrace {
			return []namedTrace{{"manhattan", workloads.GPUGraphics(base, manhattan)}}
		},
		ops: func(base uint64, srcs []source) ([]op, *scenario.Spec, error) {
			ops := make([]op, seedVariants)
			for j := range ops {
				ops[j] = synthOp(srcs[0], base+uint64(j), j)
			}
			return ops, nil, nil
		},
		expect: func(in *inputs, o *op) ([32]byte, error) {
			s := in.sources[0]
			n := uint64(s.prof.Requests())
			return hashBinary(n, trace.Limit(core.SynthesizeFrom(s.prof, o.seed), n))
		},
		fidelity: func(in *inputs) (op, trace.Source) {
			s := in.sources[0]
			return synthOp(s, fidelitySeed+1, 0), trace.NewReplayer(s.t)
		},
	},
	{
		name: "compose-deep",
		traces: func(base uint64) []namedTrace {
			return []namedTrace{
				{"opencl", workloads.OpenCL(base + 1)},
				{"multi-layer", workloads.MultiLayer(base + 2)},
				{"cpu-v", workloads.CPUInteract(base+3, 'V')},
			}
		},
		ops: composeOps,
		expect: func(in *inputs, o *op) ([32]byte, error) {
			st, err := scenario.Compose(in.spec.WithSeedOffset(uint64(o.variant)), resolver(in.sources))
			if err != nil {
				return [32]byte{}, err
			}
			defer st.Close()
			return hashBinary(st.Total(), st.Next)
		},
		fidelity: func(in *inputs) (op, trace.Source) {
			srcs := make([]trace.Source, len(in.sources))
			for i, s := range in.sources {
				srcs[i] = trace.NewReplayer(transform(s.t, &in.spec.Devices[i]))
			}
			return in.ops[0], trace.Merge(srcs...)
		},
	},
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

func workloadNames() string {
	names := make([]string, len(allWorkloads))
	for i, w := range allWorkloads {
		names[i] = w.name
	}
	return strings.Join(names, ",")
}

// seedBase maps the benchmark seed to the generator seed range of a
// run, keeping the ranges of neighbouring seeds disjoint.
func seedBase(seed uint64) uint64 { return seed*1000 + 1 }

func synthOp(s source, seed uint64, variant int) op {
	return op{
		path:    fmt.Sprintf("/v1/profiles/%s/synth?seed=%d&format=bin", s.id, seed),
		ctype:   "application/octet-stream",
		records: uint64(s.prof.Requests()),
		seed:    seed,
		variant: variant,
	}
}

// composeSpec mixes the three devices with disjoint 1 GiB windows and
// the DPU at half rate (dilation 2).
func composeSpec(base uint64, srcs []source) *scenario.Spec {
	spec := &scenario.Spec{}
	for i, s := range srcs {
		d := scenario.Device{
			Profile: s.id,
			Name:    s.name,
			Seed:    base + uint64(i)*seedVariants,
			Window:  &scenario.Window{Base: uint64(i) << 30, Size: 1 << 30},
		}
		if s.name == "multi-layer" {
			d.Dilation = 2
		}
		spec.Devices = append(spec.Devices, d)
	}
	return spec
}

func composeOps(base uint64, srcs []source) ([]op, *scenario.Spec, error) {
	spec := composeSpec(base, srcs)
	if err := spec.Validate(); err != nil {
		return nil, nil, err
	}
	st, err := scenario.Compose(spec, resolver(srcs))
	if err != nil {
		return nil, nil, err
	}
	total := st.Total()
	st.Close()
	ops := make([]op, seedVariants)
	for j := range ops {
		body, err := json.Marshal(spec.WithSeedOffset(uint64(j)))
		if err != nil {
			return nil, nil, err
		}
		ops[j] = op{path: "/v1/scenarios/synth", ctype: "application/json", body: body, records: total, variant: j}
	}
	return ops, spec, nil
}

func resolver(srcs []source) scenario.Resolver {
	return func(id string) (profile.View, func(), error) {
		for _, s := range srcs {
			if s.id == id {
				return s.prof, func() {}, nil
			}
		}
		return nil, nil, fmt.Errorf("no profile %s", id)
	}
}

// transform applies a device's dilation and window to an original
// trace, the way the scenario composer transforms its synthetic stream.
func transform(t trace.Trace, d *scenario.Device) trace.Trace {
	out := t.Clone()
	f := d.Dilation
	if f == 0 {
		f = 1
	}
	if len(out) == 0 {
		return out
	}
	t0 := out[0].Time
	for i := range out {
		if f != 1 {
			out[i].Time = t0 + uint64(float64(out[i].Time-t0)*f)
		}
		out[i].Addr = d.Window.Remap(out[i].Addr)
	}
	return out
}

// hashBinary returns the SHA-256 of the binary trace encoding of the
// first n requests pulled from next — what the daemon streams.
func hashBinary(n uint64, next func() (trace.Request, bool)) ([32]byte, error) {
	h := sha256.New()
	if _, err := trace.WriteBinaryStream(nil, h, n, next); err != nil {
		return [32]byte{}, err
	}
	var sum [32]byte
	h.Sum(sum[:0])
	return sum, nil
}

// prepare generates a run's inputs from its seed and fits every source
// offline, so the correctness checks have their reference IDs.
func prepare(w *workload, seed uint64) (*inputs, error) {
	base := seedBase(seed)
	in := &inputs{}
	for _, nt := range w.traces(base) {
		var gz bytes.Buffer
		if err := trace.WriteGzip(&gz, nt.t); err != nil {
			return nil, err
		}
		d, err := trace.NewDecoder(bytes.NewReader(gz.Bytes()))
		if err != nil {
			return nil, err
		}
		p, err := core.BuildStream(nt.name, d, core.DefaultConfig())
		if err != nil {
			return nil, err
		}
		id, _, err := serve.ProfileID(p)
		if err != nil {
			return nil, err
		}
		in.sources = append(in.sources, source{name: nt.name, t: nt.t, gz: gz.Bytes(), prof: p, id: id})
	}
	ops, spec, err := w.ops(base, in.sources)
	if err != nil {
		return nil, err
	}
	in.ops, in.spec = ops, spec
	h := sha256.New()
	for _, s := range in.sources {
		h.Write(s.gz)
	}
	for _, o := range ops {
		io.WriteString(h, o.path)
		h.Write(o.body)
	}
	h.Sum(in.hash[:0])
	return in, nil
}

// upload fits one source in the daemon through a kind=trace upload and
// checks the returned ID against the offline fit (when known).
func upload(d *daemon, s source) (string, error) {
	r, err := d.post("/v1/profiles?kind=trace&name="+s.name, "application/gzip", s.gz, nil, true)
	if err != nil {
		return "", err
	}
	return checkUpload(r, s.id)
}

// checkUpload validates an upload response (body kept): 201 or 200, and
// the returned ID equal to want when want is known.
func checkUpload(r reply, want string) (string, error) {
	if r.StatusCode != http.StatusCreated && r.StatusCode != http.StatusOK {
		return "", fmt.Errorf("upload: status %d: %s", r.StatusCode, bytes.TrimSpace(r.body))
	}
	var meta struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(r.body, &meta); err != nil {
		return "", fmt.Errorf("upload: %v", err)
	}
	if want != "" && meta.ID != want {
		return "", fmt.Errorf("upload: id %s, offline fit gives %s", meta.ID, want)
	}
	return meta.ID, nil
}

// The binary trace wire format: a 16-byte header (u32 magic, u32
// version, u64 record count) and one 21-byte record per request (u64
// time, u64 address, u32 size, u8 op), little-endian.
const (
	streamHeaderBytes = 16
	streamRecordBytes = 21
)

// checkStream validates a binary synthesis response: status 200, the
// announced request count, Content-Length equal to the header plus one
// record per announced request, a body of exactly that length, and a
// header that carries the codec's magic and the same count.
func checkStream(r reply, want uint64) error {
	if r.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", r.StatusCode, bytes.TrimSpace(r.body))
	}
	n, err := strconv.ParseUint(r.Header.Get("X-Mocktails-Requests"), 10, 64)
	if err != nil || n != want {
		return fmt.Errorf("X-Mocktails-Requests %q, want %d", r.Header.Get("X-Mocktails-Requests"), want)
	}
	size := int64(streamHeaderBytes + streamRecordBytes*n)
	if r.ContentLength != size || r.n != size {
		return fmt.Errorf("Content-Length %d, body %d bytes, want %d+%d*%d = %d",
			r.ContentLength, r.n, streamHeaderBytes, streamRecordBytes, n, size)
	}
	h := r.body
	if !bytes.Equal(h[:8], streamMagic[:8]) || binary.LittleEndian.Uint64(h[8:16]) != n {
		return fmt.Errorf("stream header % x does not announce %d records", h[:16], n)
	}
	return nil
}

// streamMagic is the binary trace header (magic and version) as the
// codec writes it.
var streamMagic = func() []byte {
	var b bytes.Buffer
	trace.WriteBinaryStream(nil, &b, 0, nil)
	return b.Bytes()
}()

// fidelity uploads the fixed-seed inputs to the daemon, fetches the
// workload's output for them, and returns the mean percent error
// between dram.Default() replays of that output and of the original.
func fidelity(w *workload, d *daemon) (float64, error) {
	in, err := prepare(w, fidelitySeed)
	if err != nil {
		return 0, err
	}
	for _, s := range in.sources {
		if _, err := upload(d, s); err != nil {
			return 0, err
		}
	}
	o, ref := w.fidelity(in)
	r, err := d.post(o.path, o.ctype, o.body, nil, true)
	if err != nil {
		return 0, err
	}
	if err := checkStream(r, o.records); err != nil {
		return 0, err
	}
	dec, err := trace.NewDecoder(bytes.NewReader(r.body))
	if err != nil {
		return 0, err
	}
	got, err := dec.ReadAll()
	if err != nil {
		return 0, err
	}
	cfg := dram.Default()
	c := validate.Compare(dram.Run(ref, cfg, xbarLatency), dram.Run(trace.NewReplayer(got), cfg, xbarLatency))
	return c.MeanError(), nil
}

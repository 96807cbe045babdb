package serve

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
)

// Main is the mocktailsd entry point, shared by the standalone binary
// and the `mocktails serve` alias. prog names the flag set in usage
// output. It blocks until the listener fails or a SIGINT/SIGTERM
// triggers a graceful drain.
func Main(prog string, args []string) {
	fs := flag.NewFlagSet(prog, flag.ExitOnError)
	addr := fs.String("addr", "localhost:8677", "listen address")
	shards := fs.Int("shards", DefaultShards, "profile store shard count")
	budget := fs.String("store-budget", "256MiB", "profile store byte budget (e.g. 64MiB, 1GiB; 0 = unlimited)")
	diskDir := fs.String("disk-dir", "", "disk-tier directory for flat profile files (empty = RAM-only store)")
	diskBudget := fs.String("disk-budget", "0", "disk-tier byte budget (0 = unlimited); only meaningful with -disk-dir")
	maxStreams := fs.Int("max-streams", 128, "max concurrent synthesis streams (0 = default, -1 = unlimited)")
	maxFits := fs.Int("max-fits", 4, "max concurrent in-process fits (0 = default, -1 = unlimited)")
	maxInflight := fs.Int("max-inflight", 512, "max total in-flight requests (0 = default, -1 = unlimited)")
	maxUpload := fs.String("max-upload", "1GiB", "max upload body size")
	maxTrace := fs.String("max-trace-bytes", "0", "max decoded in-memory size of one uploaded trace (0 = unlimited); exceeding returns 413")
	fitTimeout := fs.Duration("fit-timeout", 2*time.Minute, "timeout for one in-process fit")
	drain := fs.Duration("drain", 15*time.Second, "graceful-drain window after SIGTERM before in-flight streams are cut")
	fitWorkers := fs.Int("j", 0, "fit workers per upload (0 = MOCKTAILS_PARALLELISM or GOMAXPROCS)")
	synthWorkers := fs.Int("synth-j", 0, "leaf shards per synthesis stream (0 = GOMAXPROCS / active streams); any value streams identical bytes")
	debug := fs.Bool("debug", false, "serve net/http/pprof and expvar metrics under /debug/ on the main listener")
	traceRing := fs.Int("trace-ring", 0, "recent request traces kept for GET /debug/requests (0 = 256)")
	peers := fs.String("peers", "", "comma-separated base URLs of the other cluster members (e.g. http://h1:8677,http://h2:8677); empty = single node")
	advertise := fs.String("advertise", "", "base URL peers use to reach this node (default: http://<addr>); only meaningful with -peers")
	of := obs.RegisterFlags(fs)
	fs.Parse(args)

	budgetBytes, err := ParseBytes(*budget)
	if err != nil {
		obs.Fatal(fmt.Errorf("-store-budget: %w", err))
	}
	uploadBytes, err := ParseBytes(*maxUpload)
	if err != nil {
		obs.Fatal(fmt.Errorf("-max-upload: %w", err))
	}
	traceBytes, err := ParseBytes(*maxTrace)
	if err != nil {
		obs.Fatal(fmt.Errorf("-max-trace-bytes: %w", err))
	}
	diskBudgetBytes, err := ParseBytes(*diskBudget)
	if err != nil {
		obs.Fatal(fmt.Errorf("-disk-budget: %w", err))
	}
	if budgetBytes == 0 {
		budgetBytes = -1 // daemon flag semantics: 0 = unlimited
	}

	ctx, stop := of.Start(strings.ReplaceAll(prog, " ", "."))
	defer stop()

	var clusterCfg ClusterConfig
	if *peers != "" {
		adv := *advertise
		if adv == "" {
			adv = "http://" + *addr
		}
		var peerList []string
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peerList = append(peerList, strings.TrimRight(p, "/"))
			}
		}
		clusterCfg = ClusterConfig{Advertise: strings.TrimRight(adv, "/"), Peers: peerList}
	}

	srvr, err := NewServer(Config{
		Shards:         *shards,
		StoreBudget:    budgetBytes,
		MaxStreams:     *maxStreams,
		MaxFits:        *maxFits,
		MaxInflight:    *maxInflight,
		MaxUploadBytes: uploadBytes,
		MaxTraceBytes:  traceBytes,
		FitTimeout:     *fitTimeout,
		FitWorkers:     *fitWorkers,
		SynthWorkers:   *synthWorkers,
		Debug:          *debug,
		DiskDir:        *diskDir,
		DiskBudget:     diskBudgetBytes,
		Cluster:        clusterCfg,
		TraceRing:      *traceRing,
	})
	if err != nil {
		obs.Fatal(err)
	}

	httpSrv := &http.Server{
		Handler:           srvr.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		// Requests inherit the daemon's root span context, so request
		// spans nest under the daemon span in -v output.
		BaseContext: func(net.Listener) context.Context { return ctx },
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		obs.Fatal(err)
	}
	obs.Logger().Info("mocktailsd listening", "addr", ln.Addr().String(),
		"store_budget", budgetBytes, "shards", *shards, "max_streams", *maxStreams,
		"disk_dir", *diskDir, "disk_budget", diskBudgetBytes)

	sigCtx, cancelSig := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer cancelSig()
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			obs.Fatal(err)
		}
	case <-sigCtx.Done():
		// Graceful drain: stop accepting, give in-flight requests the
		// drain window, then cut the stragglers so shutdown is bounded
		// even with multi-GB streams in flight.
		obs.Logger().Info("draining", "active_streams", srvr.ActiveStreams(), "window", *drain)
		dctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := httpSrv.Shutdown(dctx); err != nil {
			obs.Logger().Warn("drain window expired, closing remaining connections", "err", err)
			httpSrv.Close()
		}
		<-serveErr
		obs.Logger().Info("drained", "active_streams", srvr.ActiveStreams())
	}
}

// ParseBytes parses a human-readable byte size: a plain integer, or an
// integer with a K/M/G/KiB/MiB/GiB/KB/MB/GB suffix (all binary, 1024
// based).
func ParseBytes(s string) (int64, error) {
	t := strings.TrimSpace(s)
	mult := int64(1)
	upper := strings.ToUpper(t)
	for _, suf := range []struct {
		name string
		mult int64
	}{
		{"KIB", 1 << 10}, {"MIB", 1 << 20}, {"GIB", 1 << 30},
		{"KB", 1 << 10}, {"MB", 1 << 20}, {"GB", 1 << 30},
		{"K", 1 << 10}, {"M", 1 << 20}, {"G", 1 << 30},
	} {
		if strings.HasSuffix(upper, suf.name) {
			mult = suf.mult
			t = strings.TrimSpace(t[:len(t)-len(suf.name)])
			break
		}
	}
	n, err := strconv.ParseInt(t, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad byte size %q", s)
	}
	if n < 0 {
		return 0, fmt.Errorf("negative byte size %q", s)
	}
	return n * mult, nil
}

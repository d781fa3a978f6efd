// Command idldp-server runs a TCP aggregation server: it accepts
// perturbed reports (or pre-summed batches) from idldp-client processes,
// aggregates them, and on SIGINT/SIGTERM prints the calibrated frequency
// estimates for the toy health-survey configuration.
//
// With -checkpoint-dir the server is durable: it resumes from the newest
// checkpoint in the directory (bit-identical counts — nothing is lost on
// restart), persists a new frame every -checkpoint-interval, and writes a
// final frame on shutdown. A fleet of such servers can be merged exactly
// with idldp-merge.
//
// With -stream the server additionally serves the HTTP API on the given
// address with live estimates enabled: GET /v1/estimates/stream is a
// Server-Sent Events feed publishing calibrated estimates every
// -stream-interval, and GET /v1/estimates?window=k answers over the last
// k intervals of the -window-interval sliding window. The ingestion
// runtime is shared — reports arriving over framed TCP show up on the HTTP
// stream within one interval. Estimates reads are served from a
// generation-stamped cache refreshed once per interval (every SSE
// client ships the same pre-marshaled payload), so dashboard read
// traffic never recalibrates or contends with ingest; GET /v1/readstats
// reports the cache and broadcast counters.
//
// With -announce the server joins a fleet by pushing instead of being
// polled: it registers with the merger's framed TCP control plane at the
// given target (tcp://host:port; any other scheme fails at startup),
// heartbeats, and pushes varpack-packed snapshot deltas every
// -stream-interval — reconnecting with a full resync after any failure
// or restart. -fleet-token authenticates every control-plane message
// (and gates this server's snapshot frames); -node-name sets the
// fleet-wide identity.
//
// With -history-dir (alongside -stream) the read path is time-travel
// capable: every closed stream interval and a telemetry snapshot per
// interval are appended to a CRC-framed segment log, the sliding window
// is replayed bit-exactly from the log on restart, and the HTTP API
// answers GET /v1/estimates?at=<seq|time> and ?from=..&to=.. with the
// byte-identical payloads the live endpoint served at those
// generations (410 Gone past the -history-keep retention horizon).
// GET /v1/metrics/history replays the telemetry journal with counters
// healed monotone across restarts.
//
// With -adaptive-batch min,max the ingestion frame size follows the
// observed arrival rate between the two bounds, shedding load once
// saturated at max.
//
// Shutdown is a graceful drain: on SIGINT/SIGTERM the server first flips
// readiness off (GET /v1/readyz answers 503) and refuses new external
// reports — HTTP ingest returns 429 + Retry-After, acked framed TCP frames
// get shed acks — while every listener keeps answering for -drain-grace
// so load balancers and retrying clients observe the pushback instead of
// a connection reset. It then flushes the batcher pools, writes the
// final checkpoint frame, pushes the final resync upstream (when
// announcing), and exits. GET /v1/healthz stays 200 throughout the
// drain: the process is alive, just not accepting work.
//
// Usage:
//
//	idldp-server [-addr 127.0.0.1:7070] [-duration 30s] [-shards 0] [-batch-size 256]
//	             [-adaptive-batch MIN,MAX] [-drain-grace 500ms]
//	             [-checkpoint-dir DIR] [-checkpoint-interval 10s]
//	             [-stream 127.0.0.1:8080] [-stream-interval 1s] [-window 60]
//	             [-history-dir DIR] [-history-keep 8] [-history-seg 512]
//	             [-announce tcp://HOST:PORT] [-fleet-token TOKEN] [-node-name NAME]
//	             [-log-level info] [-log-json] [-pprof 127.0.0.1:6060]
//
// The -stream HTTP listener additionally serves GET /metrics: the full
// telemetry plane (ingest counters, per-stage latency histograms, flow
// control, read cache, announcer) as Prometheus text, plus the SLO
// engine's burn-rate gauges; GET /v1/slo answers the multi-window
// burn-rate report as JSON (-slo-windows, -slo-interval). When
// announcing, each heartbeat carries a packed telemetry snapshot so the
// merger can serve fleet-federated series. Structured logs
// go to stderr (-log-level, -log-json); -pprof serves net/http/pprof on
// a dedicated listener, never the ingest one.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"idldp/internal/budget"
	"idldp/internal/core"
	"idldp/internal/history"
	"idldp/internal/httpapi"
	"idldp/internal/registry"
	"idldp/internal/server"
	"idldp/internal/slo"
	"idldp/internal/telemetry"
	"idldp/internal/transport"
)

// config carries every flag into run, so tests drive the full daemon
// lifecycle without positional-argument fragility.
type config struct {
	addr           string
	duration       time.Duration
	shards         int
	batchSize      int
	adaptive       string
	ckptDir        string
	ckptInterval   time.Duration
	streamAddr     string
	streamInterval time.Duration
	window         int
	historyDir     string
	historyKeep    int
	historySeg     int
	announceTarget string
	fleetToken     string
	nodeName       string
	drainGrace     time.Duration
	logLevel       string
	logJSON        bool
	pprofAddr      string
	sloWindows     string
	sloInterval    time.Duration
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", "127.0.0.1:7070", "listen address")
	flag.DurationVar(&cfg.duration, "duration", 0, "stop after this long (0 = until signal)")
	flag.IntVar(&cfg.shards, "shards", 0, "ingestion shard workers (0 = GOMAXPROCS)")
	flag.IntVar(&cfg.batchSize, "batch-size", 0, "reports per ingestion frame (0 = runtime default)")
	flag.StringVar(&cfg.adaptive, "adaptive-batch", "", "MIN,MAX: size frames by arrival rate within these bounds (empty = fixed)")
	flag.StringVar(&cfg.ckptDir, "checkpoint-dir", "", "durable checkpoint directory (empty = no durability)")
	flag.DurationVar(&cfg.ckptInterval, "checkpoint-interval", 10*time.Second, "time between periodic checkpoints")
	flag.StringVar(&cfg.streamAddr, "stream", "", "HTTP listen address for live estimates + SSE + /metrics (empty = no HTTP API)")
	flag.DurationVar(&cfg.streamInterval, "stream-interval", time.Second, "time between published estimate intervals")
	flag.IntVar(&cfg.window, "window", 60, "sliding-window capacity in stream intervals")
	flag.StringVar(&cfg.historyDir, "history-dir", "", "time-travel history log directory: persists closed intervals + telemetry snapshots, enables /v1/estimates?at/from/to (requires -stream)")
	flag.IntVar(&cfg.historyKeep, "history-keep", 0, "history segments to retain (0 = default)")
	flag.IntVar(&cfg.historySeg, "history-seg", 0, "records per history segment before rotation (0 = default)")
	flag.StringVar(&cfg.announceTarget, "announce", "", "merger control-plane target to push to (tcp://host:port)")
	flag.StringVar(&cfg.fleetToken, "fleet-token", "", "shared fleet token: signs announcements and gates snapshot frames")
	flag.StringVar(&cfg.nodeName, "node-name", "", "fleet-wide node identity (default: the listen address)")
	flag.DurationVar(&cfg.drainGrace, "drain-grace", 500*time.Millisecond, "how long to keep answering (with 429/shed pushback) after readiness flips off on shutdown")
	flag.StringVar(&cfg.logLevel, "log-level", "info", "structured log level: debug, info, warn, error")
	flag.BoolVar(&cfg.logJSON, "log-json", false, "emit structured logs as JSON instead of text")
	flag.StringVar(&cfg.pprofAddr, "pprof", "", "serve net/http/pprof on this address (empty = off; never mounted on the ingest listener)")
	flag.StringVar(&cfg.sloWindows, "slo-windows", "5m,1h,6h", "burn-rate windows FAST,MID,SLOW for the SLO engine")
	flag.DurationVar(&cfg.sloInterval, "slo-interval", 10*time.Second, "SLO sampling cadence")
	flag.Parse()
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "idldp-server:", err)
		os.Exit(1)
	}
}

// servePprof mounts the pprof surface on its own listener — a dedicated
// mux, never the ingest or API listener, so profiling exposure is an
// explicit operator decision.
func servePprof(addr string, logger *slog.Logger) (func(), error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	go func() { _ = http.Serve(lis, mux) }()
	logger.Info("pprof enabled", "addr", lis.Addr().String())
	return func() { _ = lis.Close() }, nil
}

// parseAdaptive parses the "MIN,MAX" bounds flag.
func parseAdaptive(spec string) (min, max int, err error) {
	parts := strings.SplitN(spec, ",", 2)
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("-adaptive-batch wants MIN,MAX, got %q", spec)
	}
	if min, err = strconv.Atoi(strings.TrimSpace(parts[0])); err != nil {
		return 0, 0, fmt.Errorf("-adaptive-batch: %w", err)
	}
	if max, err = strconv.Atoi(strings.TrimSpace(parts[1])); err != nil {
		return 0, 0, fmt.Errorf("-adaptive-batch: %w", err)
	}
	if min <= 0 || max < min {
		return 0, 0, fmt.Errorf("-adaptive-batch: bounds %d,%d must satisfy 0 < MIN <= MAX", min, max)
	}
	return min, max, nil
}

func run(cfg config) error {
	// Catch SIGINT/SIGTERM before the first listener starts: once
	// /v1/readyz answers 200 an orchestrator may signal at any moment,
	// and a signal with no handler installed kills the process instead
	// of draining it.
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(stop)
	logger := telemetry.NewLogger(os.Stderr, cfg.logLevel, cfg.logJSON, "idldp-server", cfg.nodeName)
	tel := telemetry.NewRegistry("idldp")
	tel.RegisterBuildInfo(time.Now())
	engine, err := core.New(core.Config{Budgets: budget.ToyExample(), Seed: 1})
	if err != nil {
		return err
	}
	var auth *registry.Authenticator
	if cfg.fleetToken != "" {
		if auth, err = registry.NewAuthenticator(cfg.fleetToken); err != nil {
			return err
		}
	}
	var dial func(context.Context) (registry.Conn, error)
	if cfg.announceTarget != "" {
		if dial, err = transport.DialControlPlane(cfg.announceTarget); err != nil {
			return err
		}
	}
	opts := []server.Option{server.WithShards(cfg.shards), server.WithBatchSize(cfg.batchSize), server.WithTelemetry(tel)}
	if cfg.adaptive != "" {
		min, max, err := parseAdaptive(cfg.adaptive)
		if err != nil {
			return err
		}
		opts = append(opts, server.WithAdaptiveBatch(min, max))
	}
	if cfg.streamAddr != "" || cfg.announceTarget != "" {
		// Announcing rides the same delta stream the SSE feed uses.
		opts = append(opts, server.WithStream(cfg.streamInterval))
	}
	var hist *history.Store
	if cfg.historyDir != "" {
		if cfg.streamAddr == "" {
			return fmt.Errorf("-history-dir requires -stream: the history log rides the HTTP stream consumer")
		}
		hist, err = history.Open(cfg.historyDir, engine.M(),
			history.Config{KeepSegments: cfg.historyKeep, SegmentRecords: cfg.historySeg})
		if err != nil {
			return err
		}
		defer hist.Close()
		// Resume the publisher from the log's newest state so generations
		// never regress across a restart and the first resync any consumer
		// sees folds into an empty implied delta.
		opts = append(opts, server.WithStreamResume(hist.State()))
	}
	var sink *server.Server
	var restored int64
	if cfg.ckptDir != "" {
		opts = append(opts, server.WithCheckpoint(cfg.ckptDir, cfg.ckptInterval))
		sink, restored, err = server.Restore(engine.M(), opts...)
	} else {
		sink, err = server.New(engine.M(), opts...)
	}
	if err != nil {
		return err
	}
	if cfg.pprofAddr != "" {
		stopPprof, err := servePprof(cfg.pprofAddr, logger)
		if err != nil {
			sink.Close()
			return err
		}
		defer stopPprof()
	}
	// The SLO engine watches the stage histograms and shed counters the
	// runtime already maintains; its burn-rate gauges land on the same
	// /metrics the histograms do.
	sloWin, err := slo.ParseWindows(cfg.sloWindows)
	if err != nil {
		sink.Close()
		return err
	}
	sloEng, err := slo.New([]slo.Objective{
		{
			Name:        "ingest-latency",
			Description: "99% of ingest frames wait under 100ms for a shard slot",
			Kind:        slo.Latency, Target: 0.99,
			Hist:      tel.Histogram("ingest_queue_wait", "Time an ingest frame waits for a shard queue slot (backpressure)."),
			Threshold: 100 * time.Millisecond,
		},
		{
			Name:        "ingest-availability",
			Description: "99.9% of offered reports accepted (not shed, not 429)",
			Kind:        slo.Availability, Target: 0.999,
			Good: func() int64 { return sink.Stats().Reports },
			Bad: func() int64 {
				st := sink.Stats()
				return st.ShedReports + st.ShedRejectReports
			},
		},
	}, slo.Config{Interval: cfg.sloInterval, Windows: sloWin})
	if err != nil {
		sink.Close()
		return err
	}
	defer sloEng.Close()
	sloEng.RegisterMetrics(tel)
	var serveOpts []transport.ServeOption
	if auth != nil {
		serveOpts = append(serveOpts, transport.WithSnapshotAuth(auth))
	}
	srv, err := transport.ServeSink(cfg.addr, sink, serveOpts...)
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Printf("aggregating %d-bit reports on %s (toy health survey, eps = ln4/ln6)\n",
		engine.M(), srv.Addr())
	logger.Info("listening", "addr", srv.Addr(), "bits", engine.M(), "shards", cfg.shards)
	if cfg.ckptDir != "" {
		fmt.Printf("durable: checkpointing to %s every %v (restored %d reports)\n",
			cfg.ckptDir, cfg.ckptInterval, restored)
		logger.Info("durable", "dir", cfg.ckptDir, "interval", cfg.ckptInterval, "restored", restored)
	}
	var handler *httpapi.Handler
	if cfg.streamAddr != "" {
		// The HTTP handler rides the same ingestion runtime.
		h, err := httpapi.NewSinkStreaming(sink, engine.EstimateSingle,
			httpapi.StreamConfig{Interval: cfg.streamInterval, Window: cfg.window, History: hist})
		if err != nil {
			return err
		}
		if hist != nil {
			_, _, lastSeq := hist.State()
			fmt.Printf("history: interval + telemetry log in %s (resumed at generation %d, time travel at /v1/estimates?at and /v1/metrics/history)\n",
				cfg.historyDir, lastSeq)
			logger.Info("history", "dir", cfg.historyDir, "generation", lastSeq)
		}
		h.SetTelemetry(tel)
		h.SetSLO(sloEng.Handler())
		handler = h
		lis, err := net.Listen("tcp", cfg.streamAddr)
		if err != nil {
			return err
		}
		defer lis.Close()
		go func() { _ = http.Serve(lis, h) }()
		fmt.Printf("streaming: HTTP API + SSE on http://%s (interval %v, window %d intervals, cached reads at /v1/estimates)\n",
			lis.Addr(), cfg.streamInterval, cfg.window)
		logger.Info("http api", "addr", lis.Addr().String(), "metrics", "/metrics")
	}
	var announcer *registry.Announcer
	if cfg.announceTarget != "" {
		name := cfg.nodeName
		if name == "" {
			name = srv.Addr()
		}
		announcer, err = registry.Announce(registry.AnnounceConfig{
			Name: name, Bits: engine.M(), Kind: "node", Auth: auth,
			Dial: dial, Subscribe: sink.Subscribe,
			Telemetry:         tel,
			SnapshotTelemetry: tel.Snapshot,
			OnError:           func(err error) { logger.Warn("announce", "err", err) },
		})
		if err != nil {
			return err
		}
		fmt.Printf("announcing to %s as %q (push registration + delta streaming)\n", cfg.announceTarget, name)
		logger.Info("announcing", "target", cfg.announceTarget, "name", name)
	}

	if cfg.duration > 0 {
		select {
		case <-stop:
		case <-time.After(cfg.duration):
		}
	} else {
		<-stop
	}

	// Graceful drain, phase 1: flip readiness off and refuse new external
	// reports BEFORE any listener stops. /v1/readyz answers 503, HTTP
	// ingest answers 429 + Retry-After, acked framed TCP frames get shed
	// acks — but every socket still answers, so load balancers and
	// retrying clients observe pushback instead of connection resets.
	// Internal flushes (batcher pools, the final checkpoint) still land.
	sink.BeginDrain()
	fmt.Println("draining: readiness off, refusing new reports (429 / shed acks)")
	logger.Info("draining", "grace", cfg.drainGrace, "trace", sink.LastTrace())
	if cfg.drainGrace > 0 {
		time.Sleep(cfg.drainGrace)
	}

	// Phase 2: flush, checkpoint, resync, exit.
	if handler != nil {
		// Flush the HTTP handler's pooled batchers (and drain the shared
		// runtime) before the final read, so reports POSTed over HTTP but
		// not yet framed make it into the printed estimates and the final
		// checkpoint. Close is idempotent across the handler and the
		// transport below.
		_ = handler.Close()
	}
	if announcer == nil {
		// Nothing to drain; the transport's deferred Close handles the rest.
	} else {
		// Close the runtime now (handler.Close above already did when
		// streaming over HTTP) so the final resync reaches the stream,
		// then let the announcer deliver it before exiting.
		_ = sink.Close()
		select {
		case <-announcer.Done():
		case <-time.After(10 * time.Second):
			fmt.Fprintln(os.Stderr, "announce: merger unreachable, final state not delivered")
		}
		announcer.Close()
		st := announcer.Stats()
		fmt.Printf("announce: %d registrations, %d pushes (%d resyncs), %d bytes pushed, %d failures\n",
			st.Registers, st.Pushes, st.Resyncs, st.BytesPushed, st.Failures)
		logger.Info("announce done", "pushes", st.Pushes, "resyncs", st.Resyncs, "failures", st.Failures)
	}
	counts, n := srv.Snapshot()
	if n == 0 {
		fmt.Println("no reports received")
		return nil
	}
	st := srv.Stats()
	fmt.Printf("runtime: %d reports in %d frames over %d shards (%d checkpoints, %.0f reports/s EWMA)\n",
		st.Reports, st.Frames, st.Shards, st.Checkpoints, st.ArrivalRate)
	if st.ShedReports > 0 {
		fmt.Printf("runtime: shed %d reports in %d frames under saturation\n", st.ShedReports, st.ShedFrames)
	}
	est, err := engine.EstimateSingle(counts, int(n))
	if err != nil {
		return err
	}
	fmt.Printf("collected %d reports; estimated frequencies:\n", n)
	names := []string{"HIV", "flu", "headache", "stomachache", "toothache"}
	for i, e := range est {
		fmt.Printf("  %-12s %8.0f\n", names[i], math.Max(e, 0))
	}
	return nil
}

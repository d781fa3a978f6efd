// Command idldp-merge is the fleet merger. It builds one exact global
// aggregate in a registry of members (internal/registry) that join two
// ways over framed TCP, mixable in one process:
//
//   - Polling (-nodes): fetch snapshot frames from idldp-server
//     processes on an interval. The merger announces each fetched
//     snapshot to its own registry on the node's behalf, so a polled
//     node is a member of kind "poll", named by its spec. With
//     -fleet-token every snapshot request is HMAC-signed for nodes that
//     gate their snapshot frames.
//   - Push registration (-listen): let nodes announce themselves —
//     register, heartbeat, push varpack-packed snapshot deltas — instead
//     of being listed statically.
//
// Either way a member that goes silent for -heartbeat × -evict-missed
// (a polled node: no successful fetch) is evicted: its last counts keep
// contributing and it rejoins with a full resync. Polled and pushed
// members alike appear in GET /v1/fleet, as idldp_fleet_member_up on
// /metrics and in the final report, and -merger-dir checkpoints every
// member's state so a restarted merger resumes exactly. The HTTP
// listener (-listen-http) serves operators and dashboards, never peers:
// GET /v1/fleet, the merged live read surface — GET /v1/estimates
// (cached, one calibration per poll no matter how many dashboards ask),
// the shared-payload SSE feed at /v1/estimates/stream, and
// /v1/readstats — plus the probes: GET /v1/healthz (process liveness,
// always 200) and GET /v1/readyz (503 until the first merge lands, and
// again once shutdown begins).
//
// With -history-dir (alongside -listen-http) the merged stream is
// time-travel capable: every merged interval and a telemetry snapshot
// are spilled to a durable segment log, the live window replays from it
// on restart, and the HTTP surface answers GET /v1/estimates?at/from/to
// and GET /v1/metrics/history over the merged fleet stream — 410 Gone
// past the retention horizon.
//
// Shutdown is a graceful drain: on SIGINT/SIGTERM readiness flips off
// first, then the fleet closes, the final merged resync is pushed to
// -upstream, and the merger checkpoints and exits.
//
// Per-bit counts are order-independent integer sums, so the merged
// estimates are bit-for-bit identical to a single collector that
// ingested every report — scaling out, and stacking mergers into tiers,
// costs nothing statistically. With -upstream the merger announces its
// own merged stream to a higher-tier merger exactly as if it were a
// node; tiers compose indefinitely.
//
// With -stream every poll's merged delta is printed live as it is
// published (a node restarting without its checkpoint shows up as a
// "resync" frame rather than corrupting the feed); with -window k the
// final report additionally answers over the last k polls — "what
// happened recently" instead of all-time.
//
// Usage:
//
//	idldp-merge -nodes tcp://127.0.0.1:7070,tcp://127.0.0.1:7071 [-once]
//	            [-interval 2s] [-duration 0] [-stream] [-window 0]
//	idldp-merge -listen 127.0.0.1:7090 [-listen-http 127.0.0.1:8090]
//	            [-fleet-token TOKEN] [-heartbeat 5s] [-evict-missed 3]
//	            [-merger-dir DIR] [-upstream tcp://HOST:PORT] [-name NAME]
//	            [-history-dir DIR] [-history-keep 8] [-history-seg 512]
//	            [-log-level info] [-log-json] [-pprof 127.0.0.1:6061]
//
// The -listen-http listener additionally serves GET /metrics: fleet
// membership gauges, push counters, failed polls, delta/poll byte
// accounting, checkpoint and calibration latency histograms as
// Prometheus text —
// plus the fleet-federated telemetry plane. Every member heartbeat
// carries a packed telemetry snapshot (MAC-covered); the merger folds
// them exactly and exposes idldp_fleet_* series aggregated, per tier,
// and per member, alongside idldp_fleet_member_up / heartbeat-age
// liveness gauges. GET /v1/slo answers the multi-window burn-rate SLO
// report (-slo-windows, -slo-interval); the burn gauges ride /metrics.
// With -upstream the heartbeats this merger sends fold its own
// telemetry with its members' — tiers federate indefinitely.
// Structured logs go to stderr (-log-level, -log-json); -pprof serves
// net/http/pprof on a dedicated listener, never the control plane.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"idldp/internal/budget"
	"idldp/internal/core"
	"idldp/internal/fleet"
	"idldp/internal/history"
	"idldp/internal/httpapi"
	"idldp/internal/registry"
	"idldp/internal/slo"
	"idldp/internal/stream"
	"idldp/internal/telemetry"
	"idldp/internal/transport"
)

// config carries every flag; run is the testable entry point.
type config struct {
	nodes     string
	interval  time.Duration
	duration  time.Duration
	once      bool
	streamOut bool
	window    int

	listen             string
	listenHTTP         string
	fleetToken         string
	heartbeat          time.Duration
	evictMissed        int
	mergerDir          string
	mergerCkptInterval time.Duration
	upstream           string
	name               string
	historyDir         string
	historyKeep        int
	historySeg         int

	logLevel    string
	logJSON     bool
	pprofAddr   string
	sloWindows  string
	sloInterval time.Duration
}

func main() {
	var cfg config
	flag.StringVar(&cfg.nodes, "nodes", "", "comma-separated node specs to poll (tcp://host:port)")
	flag.DurationVar(&cfg.interval, "interval", 2*time.Second, "poll/publish interval")
	flag.BoolVar(&cfg.once, "once", false, "poll every node once, print the merged state, and exit")
	flag.DurationVar(&cfg.duration, "duration", 0, "stop after this long (0 = until signal)")
	flag.BoolVar(&cfg.streamOut, "stream", false, "print each merged update as it is published")
	flag.IntVar(&cfg.window, "window", 0, "also report estimates over the last k polls (0 = all-time only)")
	flag.StringVar(&cfg.listen, "listen", "", "framed TCP control-plane listen address for push-registered nodes (empty = polling only)")
	flag.StringVar(&cfg.listenHTTP, "listen-http", "", "HTTP listen address for /v1/fleet, live estimates, probes and /metrics; peers never use it (empty = none)")
	flag.StringVar(&cfg.fleetToken, "fleet-token", "", "shared fleet token authenticating registrations, pushes and snapshot reads")
	flag.DurationVar(&cfg.heartbeat, "heartbeat", registry.DefaultHeartbeatEvery, "heartbeat cadence advertised to registering nodes")
	flag.IntVar(&cfg.evictMissed, "evict-missed", registry.DefaultMissedHeartbeats, "heartbeat intervals without a push, heartbeat or successful poll before a member is evicted")
	flag.StringVar(&cfg.mergerDir, "merger-dir", "", "checkpoint directory for merger state (restart resumes exactly)")
	flag.DurationVar(&cfg.mergerCkptInterval, "merger-checkpoint-interval", 10*time.Second, "time between merger-state checkpoints")
	flag.StringVar(&cfg.upstream, "upstream", "", "higher-tier merger to announce this merger's stream to (tcp://host:port)")
	flag.StringVar(&cfg.name, "name", "", "this merger's fleet-wide identity for -upstream (default: -listen address)")
	flag.StringVar(&cfg.historyDir, "history-dir", "", "time-travel history log for the merged stream: enables /v1/estimates?at/from/to and /v1/metrics/history (requires -listen-http)")
	flag.IntVar(&cfg.historyKeep, "history-keep", 0, "history segments to retain (0 = default)")
	flag.IntVar(&cfg.historySeg, "history-seg", 0, "records per history segment before rotation (0 = default)")
	flag.StringVar(&cfg.logLevel, "log-level", "info", "structured log level: debug, info, warn, error")
	flag.BoolVar(&cfg.logJSON, "log-json", false, "emit structured logs as JSON instead of text")
	flag.StringVar(&cfg.pprofAddr, "pprof", "", "serve net/http/pprof on this address (empty = off; never mounted on the control-plane listeners)")
	flag.StringVar(&cfg.sloWindows, "slo-windows", "5m,1h,6h", "burn-rate windows FAST,MID,SLOW for the SLO engine")
	flag.DurationVar(&cfg.sloInterval, "slo-interval", 10*time.Second, "SLO sampling cadence")
	flag.Parse()
	if err := run(os.Stdout, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "idldp-merge:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, cfg config) error {
	if cfg.nodes == "" && cfg.listen == "" {
		return fmt.Errorf("need -nodes to poll, or -listen to accept push registrations (-listen-http serves reads only)")
	}
	if cfg.window < 0 {
		return fmt.Errorf("-window must be non-negative")
	}
	// A long-running merger catches SIGINT/SIGTERM before its first
	// listener starts: once /v1/readyz answers 200 an orchestrator may
	// signal at any moment, and a signal with no handler installed kills
	// the process instead of draining it. -once keeps the default
	// disposition, so an interrupt still ends a poll that hangs.
	stop := make(chan os.Signal, 1)
	if !cfg.once {
		signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
		defer signal.Stop(stop)
	}
	logger := telemetry.NewLogger(os.Stderr, cfg.logLevel, cfg.logJSON, "idldp-merge", cfg.name)
	tel := telemetry.NewRegistry("idldp")
	tel.RegisterBuildInfo(time.Now())
	var auth *registry.Authenticator
	if cfg.fleetToken != "" {
		var err error
		if auth, err = registry.NewAuthenticator(cfg.fleetToken); err != nil {
			return err
		}
	}
	engine, err := core.New(core.Config{Budgets: budget.ToyExample(), Seed: 1})
	if err != nil {
		return err
	}
	var dialUp func(context.Context) (registry.Conn, error)
	if cfg.upstream != "" {
		if dialUp, err = transport.DialControlPlane(cfg.upstream); err != nil {
			return err
		}
	}
	if cfg.pprofAddr != "" {
		stopPprof, err := servePprof(cfg.pprofAddr, logger)
		if err != nil {
			return err
		}
		defer stopPprof()
	}

	// The registry holds every member, polled or push-registered. The
	// HTTP listener is bound here but served after the fleet exists, so
	// the same port can mount the merged live-estimates surface.
	ropts := []registry.Option{registry.WithHeartbeat(cfg.heartbeat, cfg.evictMissed),
		registry.WithTelemetry(tel), registry.WithAuth(auth)}
	var reg *registry.Registry
	if cfg.mergerDir != "" {
		var restored int
		if reg, restored, err = registry.Restore(engine.M(),
			append(ropts, registry.WithCheckpoint(cfg.mergerDir, cfg.mergerCkptInterval))...); err != nil {
			return err
		}
		fmt.Fprintf(w, "merger state: restored %d members from %s\n", restored, cfg.mergerDir)
	} else if reg, err = registry.New(engine.M(), ropts...); err != nil {
		return err
	}
	defer reg.Close()
	if cfg.listen != "" {
		rs, err := transport.ServeRegistry(cfg.listen, reg)
		if err != nil {
			return err
		}
		defer rs.Close()
		fmt.Fprintf(w, "control plane: accepting push registrations on tcp://%s\n", rs.Addr())
	}
	var httpLis net.Listener
	if cfg.listenHTTP != "" {
		if httpLis, err = net.Listen("tcp", cfg.listenHTTP); err != nil {
			return err
		}
		defer httpLis.Close()
	}

	var specs []string
	if cfg.nodes != "" {
		specs = strings.Split(cfg.nodes, ",")
	}
	var hist *history.Store
	if cfg.historyDir != "" {
		if cfg.listenHTTP == "" {
			return fmt.Errorf("-history-dir requires -listen-http: the history log rides the merged live surface")
		}
		if hist, err = history.Open(cfg.historyDir, engine.M(),
			history.Config{KeepSegments: cfg.historyKeep, SegmentRecords: cfg.historySeg}); err != nil {
			return err
		}
		defer hist.Close()
	}
	// The merged stream's numbering continues past the log, so durable
	// generations never regress across a merger restart.
	var startSeq uint64
	if hist != nil {
		startSeq = hist.LastSeq()
	}
	f, err := fleet.New(reg, auth, specs, startSeq, tel)
	if err != nil {
		return err
	}
	logger.Info("merger up", "bits", engine.M(), "poll_sources", len(specs),
		"listen", cfg.listen, "listen_http", cfg.listenHTTP)

	// The merger's own SLO catalog: checkpoint write latency, and
	// control-plane availability (accepted pushes vs rejected messages).
	// Both read counters the registry already keeps.
	sloWin, err := slo.ParseWindows(cfg.sloWindows)
	if err != nil {
		return err
	}
	sloEng, err := slo.New([]slo.Objective{
		{
			Name:        "merge-checkpoint-latency",
			Description: "99% of merger checkpoint passes complete under 250ms",
			Kind:        slo.Latency, Target: 0.99,
			Hist:      tel.Histogram("fleet_checkpoint_write", "Latency of one registry checkpoint pass over all dirty members."),
			Threshold: 250 * time.Millisecond,
		},
		{
			Name:        "control-plane-availability",
			Description: "99.9% of control-plane messages accepted (not rejected)",
			Kind:        slo.Availability, Target: 0.999,
			Good: func() (n int64) {
				for _, m := range reg.Status() {
					n += m.Pushes
				}
				return n
			},
			Bad: func() (n int64) {
				for _, m := range reg.Status() {
					n += m.Rejects
				}
				return n
			},
		},
	}, slo.Config{Interval: cfg.sloInterval, Windows: sloWin})
	if err != nil {
		return err
	}
	defer sloEng.Close()
	sloEng.RegisterMetrics(tel)

	// draining flips one-way when shutdown starts; /v1/readyz turns 503
	// before any listener stops answering.
	var draining atomic.Bool

	// HTTP surface: the merged live-estimates read path (cached — any
	// number of fleet dashboards cost one calibration per poll), the
	// probes, /metrics, /v1/slo and the operator's GET /v1/fleet.
	if httpLis != nil {
		liveSub, err := f.Subscribe(64)
		if err != nil {
			return err
		}
		live, err := httpapi.NewLiveWithHistory(liveSub, engine.M(), engine.EstimateSingle, cfg.window, hist)
		if err != nil {
			return err
		}
		defer live.Close()
		mux := http.NewServeMux()
		mux.Handle("/v1/estimates", live)
		mux.Handle("/v1/estimates/stream", live)
		mux.Handle("/v1/readstats", live)
		mux.Handle("/v1/metrics/history", live)
		if hist != nil {
			fmt.Fprintf(w, "history: merged-stream interval + telemetry log in %s (resumed at generation %d)\n",
				cfg.historyDir, hist.LastSeq())
			logger.Info("history", "dir", cfg.historyDir, "generation", hist.LastSeq())
		}
		health := httpapi.NewHealth(func() (bool, string) {
			switch {
			case draining.Load():
				return false, "draining"
			case !f.Ready():
				return false, "no-merge-yet"
			}
			return true, ""
		})
		mux.Handle("/v1/healthz", health)
		mux.Handle("/v1/readyz", health)
		live.SetTelemetry(tel)
		// One scrape surface: the merger's own series, the fleet-federated
		// fold of every member's heartbeat snapshot, and the membership
		// liveness gauges.
		mux.Handle("GET /metrics", telemetry.HandlerFor(tel, reg.Federation(), reg))
		mux.Handle("GET /v1/slo", sloEng.Handler())
		mux.Handle("/v1/fleet", httpapi.NewRegistry(reg))
		go func() { _ = http.Serve(httpLis, mux) }()
		fmt.Fprintf(w, "http: fleet status at /v1/fleet, live estimates at /v1/estimates on http://%s\n", httpLis.Addr())
	}

	// The merged delta stream drives -stream output, -window bookkeeping,
	// and the -upstream announcer.
	var win *stream.Window
	var consumer sync.WaitGroup
	if cfg.streamOut || cfg.window > 0 {
		if cfg.window > 0 {
			if win, err = stream.NewWindow(engine.M(), cfg.window); err != nil {
				return err
			}
		}
		sub, err := f.Subscribe(64)
		if err != nil {
			return err
		}
		consumer.Add(1)
		go func() {
			defer consumer.Done()
			for d := range sub.C() {
				if win != nil {
					_ = win.Push(d)
				}
				if cfg.streamOut {
					kind := "delta"
					if d.Resync {
						kind = "resync"
					}
					fmt.Fprintf(w, "stream: seq=%d %s n=%d (+%d)\n", d.Seq, kind, d.N, d.DN)
				}
			}
		}()
	}
	var up *registry.Announcer
	if cfg.upstream != "" {
		name := cfg.name
		if name == "" && cfg.listen != "" {
			name = cfg.listen
		}
		if name == "" {
			name = "merger"
		}
		if up, err = registry.Announce(registry.AnnounceConfig{
			Name: name, Bits: engine.M(), Kind: "merger", Auth: auth,
			Dial: dialUp, Subscribe: f.Subscribe,
			Telemetry: tel,
			// A mid-tier merger's heartbeat telemetry is its own snapshot
			// folded with its members' — the parent sees the whole subtree.
			SnapshotTelemetry: func() *telemetry.Snapshot {
				s := tel.Snapshot()
				s.Merge(reg.Federation().Merged())
				return s
			},
			OnError: func(err error) { logger.Warn("upstream", "err", err) },
		}); err != nil {
			return err
		}
		fmt.Fprintf(w, "announcing merged stream to %s as %q\n", cfg.upstream, name)
		logger.Info("announcing upstream", "target", cfg.upstream, "name", name)
	}

	finish := func() {
		draining.Store(true) // readyz answers 503 from here on
		logger.Info("draining", "trace", reg.LastTrace())
		f.Close() // ends the consumer goroutine and the upstream stream
		if up != nil {
			select {
			case <-up.Done():
			case <-time.After(10 * time.Second):
				fmt.Fprintln(os.Stderr, "upstream: unreachable, final state not delivered")
			}
			up.Close()
			st := up.Stats()
			fmt.Fprintf(w, "upstream: %d registrations, %d pushes (%d resyncs), %d bytes pushed\n",
				st.Registers, st.Pushes, st.Resyncs, st.BytesPushed)
		}
		consumer.Wait()
		printState(w, reg, engine)
		printWindow(w, win, engine, cfg.window)
	}

	ctx := context.Background()
	if cfg.once {
		pollErr := f.Poll(ctx)
		if pollErr != nil {
			fmt.Fprintln(os.Stderr, "poll:", pollErr)
		}
		finish()
		if _, n := reg.Counts(); n == 0 && pollErr != nil {
			// Nothing merged and at least one node failed: exit nonzero so
			// scripts don't mistake a dead fleet for an empty one.
			return fmt.Errorf("no node reachable: %w", pollErr)
		}
		return nil
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	if cfg.duration > 0 {
		go func() {
			select {
			case <-time.After(cfg.duration):
				cancel()
			case <-runCtx.Done():
			}
		}()
	}
	go func() {
		select {
		case <-stop:
			// Flip readiness off before the poll loop unwinds so probes see
			// the drain while the HTTP listener is still answering.
			draining.Store(true)
			cancel()
		case <-runCtx.Done():
		}
	}()
	f.Run(runCtx, cfg.interval, func(err error) { fmt.Fprintln(os.Stderr, "poll:", err) })
	finish()
	return nil
}

// servePprof mounts the pprof surface on its own listener — a dedicated
// mux, never the control-plane or read listeners, so profiling exposure
// is an explicit operator decision.
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

// printState renders the per-member liveness table (polled nodes under
// their spec, push-registered members under push://name), the merged
// total, the control-plane bandwidth accounting, and the calibrated
// fleet-wide estimates.
func printState(w io.Writer, reg *registry.Registry, engine *core.Engine) {
	members := reg.Status()
	var deltaBytes, pollBytes int64
	fmt.Fprintf(w, "%-28s %10s %8s %8s %8s  %s\n", "node", "n", "polls", "fails", "resets", "state")
	for _, m := range members {
		name, state := m.Name, "ok"
		if !strings.Contains(name, "://") { // a polled member's name is its spec, scheme included
			name = "push://" + name
		}
		if m.Kind != fleet.Kind {
			deltaBytes += m.DeltaBytes
			pollBytes += m.PollEquivBytes
		}
		switch {
		case m.Pushes == 0 && m.N == 0:
			state = "never-seen"
		case m.Evicted:
			state = "stale"
		}
		fmt.Fprintf(w, "%-28s %10d %8d %8d %8d  %s\n", name, m.N, m.Pushes, m.Rejects, m.Resets, state)
	}
	counts, n := reg.Counts()
	fmt.Fprintf(w, "merged n=%d across %d nodes\n", n, len(members))
	if deltaBytes > 0 {
		fmt.Fprintf(w, "delta-push: received %d bytes; full-snapshot polling equivalent %d bytes (%.1fx)\n",
			deltaBytes, pollBytes, float64(pollBytes)/float64(deltaBytes))
	}
	if n == 0 {
		return
	}
	est, err := engine.EstimateSingle(counts, int(n))
	if err != nil {
		fmt.Fprintln(w, "estimate:", err)
		return
	}
	fmt.Fprintln(w, "fleet-wide estimated frequencies:")
	printEstimates(w, est)
}

// printWindow renders the sliding-window view when -window is set.
func printWindow(w io.Writer, win *stream.Window, engine *core.Engine, window int) {
	if win == nil {
		return
	}
	counts, n := win.Counts()
	fmt.Fprintf(w, "windowed (last %d polls): n=%d\n", window, n)
	if n <= 0 {
		// n < 0 happens transiently when a node reset's negative implied
		// interval is still inside the window; estimates are undefined
		// until it ages out.
		return
	}
	est, err := engine.EstimateSingle(counts, int(n))
	if err != nil {
		fmt.Fprintln(w, "estimate:", err)
		return
	}
	printEstimates(w, est)
}

func printEstimates(w io.Writer, est []float64) {
	names := []string{"HIV", "flu", "headache", "stomachache", "toothache"}
	for i, e := range est {
		fmt.Fprintf(w, "  %-12s %8.0f\n", names[i], math.Max(e, 0))
	}
}

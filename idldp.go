// Package idldp is a from-scratch Go implementation of Input-Discriminative
// Local Differential Privacy (Gu, Li, Xiong, Cao — "Providing
// Input-Discriminative Protection for Local Differential Privacy",
// ICDE 2020): the ID-LDP / MinID-LDP privacy notions, the IDUE mechanism
// for single-item frequency estimation, and the IDUE-PS mechanism for
// item-set data via the Padding-and-Sampling protocol.
//
// The package is a thin facade over the internal subsystems. Typical use:
//
//	levels := idldp.Levels{Eps: []float64{math.Log(4), math.Log(6)}, Prop: []float64{0.2, 0.8}}
//	client, err := idldp.NewClient(idldp.Config{DomainSize: 100, Levels: levels, Seed: 1})
//	// user side
//	report := client.ReportItem(42, userSeed)
//	// server side
//	server := client.NewServer()
//	server.Collect(report)
//	estimates, err := server.Estimates()
//
// Baseline LDP mechanisms (RAPPOR, OUE, GRR), privacy accounting, leakage
// bounds, dataset generators and the experiment harness that regenerates
// every table and figure of the paper live under internal/ and are
// exercised by cmd/idldp-bench and the examples.
//
// # Sharded ingestion
//
// NewServer defaults to a plain in-process accumulator, but production
// collection — millions of reporting users — runs on the sharded
// ingestion runtime of internal/server, enabled with options:
//
//	server := client.NewServer(idldp.WithShards(0), idldp.WithBatchSize(512))
//	defer server.Close()
//
// WithShards(n) starts n shard workers (0 means GOMAXPROCS), each owning
// a private aggregator fed over buffered channels with backpressure, so
// ingestion takes no lock on the hot path; reports are framed into
// per-bit count batches of WithBatchSize reports before they hit a shard
// queue. Estimates stays consistent while ingestion continues by merging
// per-shard snapshots, and is bit-for-bit identical to the single
// accumulator on the same reports because per-bit counts are
// order-independent integer sums. The framed TCP transport
// (internal/transport), which also carries every conversation between
// fleet peers, and the HTTP/JSON API for clients (internal/httpapi) feed
// the same runtime. A sharded Server must be Closed to stop its workers.
//
// # Streaming estimates
//
// With WithStream the server additionally publishes one sparse delta of
// its aggregate state per interval, and Server.Stream returns a live
// subscription maintaining calibrated estimates incrementally — exactly
// (bit for bit) what Estimates would return at the same state, at
// O(changed bits) per interval — plus sliding/tumbling-window views and
// live heavy-hitter tracking:
//
//	server := client.NewServer(idldp.WithShards(0), idldp.WithStream(time.Second))
//	st, _ := server.Stream(idldp.StreamConfig{Window: 60, HeavyHitterThreshold: 1000})
//	for {
//		up, err := st.Next(ctx) // blocks for the next interval
//		...
//	}
package idldp

import (
	"crypto/rand"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"idldp/internal/bitvec"
	"idldp/internal/budget"
	"idldp/internal/core"
	"idldp/internal/history"
	"idldp/internal/httpapi"
	"idldp/internal/opt"
	"idldp/internal/registry"
	"idldp/internal/rng"
	"idldp/internal/server"
	"idldp/internal/transport"
)

// Model selects the optimization program used to pick the perturbation
// probabilities (§V-D of the paper).
type Model = opt.Model

// The three optimization models: Opt0 is the non-convex worst-case
// program (best utility), Opt1 and Opt2 the convex RAPPOR- and
// OUE-structured relaxations (cheaper, near-optimal).
const (
	Opt0 = opt.Opt0
	Opt1 = opt.Opt1
	Opt2 = opt.Opt2
)

// Levels describes the privacy levels: Eps[i] is the budget of level i
// (smaller = more protection) and Prop[i] the fraction of the domain
// assigned to it.
type Levels struct {
	Eps  []float64
	Prop []float64
}

// Config configures a Client.
type Config struct {
	// DomainSize is the number of distinct items m.
	DomainSize int
	// Levels declares the privacy levels. Items are assigned randomly by
	// proportion, seeded by Seed, unless LevelOf is set.
	Levels Levels
	// LevelOf optionally pins each item to a level explicitly
	// (len == DomainSize); Prop is then ignored.
	LevelOf []int
	// Notion selects the ID-LDP instantiation: "min" (default), "avg",
	// or "max".
	Notion string
	// Model selects the optimization program (default Opt0).
	Model Model
	// PaddingLength enables item-set reports via Padding-and-Sampling
	// with the given ℓ. Zero means single-item reports only.
	PaddingLength int
	// Seed drives level assignment. The solve that follows is
	// deterministic for every model and does not use it.
	Seed uint64
}

// Client is the user-side half of the protocol: it perturbs raw inputs
// into reports that are safe to upload.
type Client struct {
	engine *core.Engine
}

// NewClient validates the configuration, solves the perturbation
// probabilities, and verifies the resulting mechanism satisfies the
// configured notion.
func NewClient(cfg Config) (*Client, error) {
	if cfg.DomainSize <= 0 {
		return nil, fmt.Errorf("idldp: DomainSize must be positive, got %d", cfg.DomainSize)
	}
	var asgn *budget.Assignment
	var err error
	if cfg.LevelOf != nil {
		if len(cfg.LevelOf) != cfg.DomainSize {
			return nil, fmt.Errorf("idldp: LevelOf has %d entries for domain %d", len(cfg.LevelOf), cfg.DomainSize)
		}
		asgn, err = budget.FromLevels(cfg.LevelOf, cfg.Levels.Eps)
	} else {
		spec := budget.Spec{Eps: cfg.Levels.Eps, Prop: cfg.Levels.Prop}
		asgn, err = budget.Assign(cfg.DomainSize, spec, rng.New(cfg.Seed))
	}
	if err != nil {
		return nil, fmt.Errorf("idldp: %w", err)
	}
	n, err := core.NotionByName(cfg.Notion)
	if err != nil {
		return nil, fmt.Errorf("idldp: %w", err)
	}
	engine, err := core.New(core.Config{
		Budgets:       asgn,
		Notion:        n,
		Model:         cfg.Model,
		PaddingLength: cfg.PaddingLength,
		Seed:          cfg.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("idldp: %w", err)
	}
	return &Client{engine: engine}, nil
}

// SaveParams serializes the client's solved mechanism definition as JSON.
// Deployments distribute this file so every device and the server share
// byte-identical parameters instead of re-solving (the opt0 program is
// randomized).
func (c *Client) SaveParams(w io.Writer) error {
	return c.engine.Save().WriteJSON(w)
}

// NewClientFromParams rebuilds a client from parameters written by
// SaveParams, re-verifying the privacy constraints on load.
func NewClientFromParams(r io.Reader) (*Client, error) {
	sp, err := core.ReadSavedParams(r)
	if err != nil {
		return nil, fmt.Errorf("idldp: %w", err)
	}
	engine, err := core.NewFromSaved(sp)
	if err != nil {
		return nil, fmt.Errorf("idldp: %w", err)
	}
	return &Client{engine: engine}, nil
}

// Report is one perturbed upload: the packed bits of the unary-encoded,
// randomized response.
type Report struct {
	Words []uint64
	Bits  int
}

// ReportItem perturbs a single-item input (Algorithm 1). seed derives the
// user's private randomness; distinct users must use distinct seeds.
func (c *Client) ReportItem(item int, seed uint64) Report {
	v := c.engine.PerturbItem(item, rng.New(seed))
	return Report{Words: v.Words(), Bits: v.Len()}
}

// ReportSet perturbs an item-set input (Algorithm 3). The client must
// have been configured with a positive PaddingLength.
func (c *Client) ReportSet(set []int, seed uint64) Report {
	v := c.engine.PerturbSet(set, rng.New(seed))
	return Report{Words: v.Words(), Bits: v.Len()}
}

// DomainSize returns m.
func (c *Client) DomainSize() int { return c.engine.M() }

// RealizedLDPBudget returns the plain-LDP budget the mechanism provides
// (bounded by Lemma 1: min{max E, 2 min E}).
func (c *Client) RealizedLDPBudget() float64 { return c.engine.RealizedLDPBudget() }

// SetBudget returns the Eq. (17) combined budget of an item-set.
func (c *Client) SetBudget(set []int) float64 { return c.engine.SetBudget(set) }

// Engine exposes the underlying engine for advanced use (benchmarks,
// experiment harness).
func (c *Client) Engine() *core.Engine { return c.engine }

// ServerOption tunes a Server returned by NewServer.
type ServerOption func(*serverOptions)

type serverOptions struct {
	sharded        bool
	shards         int
	batchSize      int
	adaptMin       int
	adaptMax       int
	ckptDir        string
	ckptInterval   time.Duration
	streaming      bool
	streamInterval time.Duration
	historyDir     string
	announceTarget string
	announceToken  string
	announceName   string
}

// WithShards runs the server on the sharded ingestion runtime with n
// shard workers (n <= 0 selects GOMAXPROCS). A sharded Server must be
// Closed.
func WithShards(n int) ServerOption {
	return func(o *serverOptions) {
		o.sharded = true
		o.shards = n
	}
}

// WithBatchSize sets how many reports the sharded runtime accumulates
// into one per-bit count frame before it is shipped to a shard worker
// (k <= 0 selects the runtime default). It implies WithShards(0) unless
// WithShards is also given.
func WithBatchSize(k int) ServerOption {
	return func(o *serverOptions) {
		o.sharded = true
		o.batchSize = k
	}
}

// WithCheckpoint makes the server durable: it resumes from the newest
// checkpoint in dir (bit-identical counts — a restart loses nothing
// checkpointed), persists a new frame every interval (interval <= 0
// selects the runtime default) and a final frame on Close. It implies
// WithShards(0) unless WithShards is also given. Use RestoreServer to
// observe how many reports were resumed and any restore error; NewServer
// panics on one.
func WithCheckpoint(dir string, interval time.Duration) ServerOption {
	return func(o *serverOptions) {
		o.sharded = true
		o.ckptDir = dir
		o.ckptInterval = interval
	}
}

// WithStream makes the server publish interval deltas of its aggregate
// state: every interval (<= 0 selects the runtime default of one
// second) the sparse difference since the previous interval is fanned
// out to Stream subscribers, which maintain calibrated estimates
// incrementally — bit-for-bit equal to Estimates at the same state, at
// O(changed bits) per interval. It implies WithShards(0) unless
// WithShards is also given. See Server.Stream.
//
// Reports still sitting in Collect's producer-side batch are visible to
// the stream once the batch fills (every WithBatchSize reports) or a
// read (Estimates, N) forces a flush — size the batch against the
// publish interval for a low-latency dashboard.
func WithStream(interval time.Duration) ServerOption {
	return func(o *serverOptions) {
		o.sharded = true
		o.streaming = true
		o.streamInterval = interval
	}
}

// WithHistory keeps a durable, retention-managed log of the server's
// closed stream intervals under dir, giving LiveHandler a time-travel
// surface: GET /v1/estimates?at=g answers exactly as the live endpoint
// did at generation g, ?from&to sums a past span, and
// /v1/metrics/history replays journaled telemetry. On restart the
// publisher resumes from the logged state, so generations never regress
// and the recovered window is bit-identical to one that never stopped.
// It implies WithStream with the runtime default interval unless
// WithStream is also given.
//
// The log rides the LiveHandler consumer — intervals are journaled
// while a LiveHandler is attached, mirroring how the daemons gate
// -history-dir on their live HTTP surface. Close the Server to flush
// and close the log.
func WithHistory(dir string) ServerOption {
	return func(o *serverOptions) {
		o.sharded = true
		o.streaming = true
		o.historyDir = dir
	}
}

// WithAdaptiveBatch sizes ingestion frames from the observed arrival
// rate instead of a fixed batch size, clamped to [min, max], shedding
// load once saturated at max (see server.WithAdaptiveBatch). It implies
// WithShards(0) unless WithShards is also given.
func WithAdaptiveBatch(min, max int) ServerOption {
	return func(o *serverOptions) {
		o.sharded = true
		o.adaptMin, o.adaptMax = min, max
	}
}

// WithAnnounce joins the fleet control plane: the server registers
// itself with the merger at target ("tcp://host:port"; any other scheme
// fails construction), heartbeats, and pushes its snapshot deltas —
// authenticated with the fleet token when one is given. name is the
// node's fleet-wide identity ("" derives one: stable from the
// WithCheckpoint directory for durable nodes — a restart must reclaim
// its member slot, not double-count its restored state under a fresh
// one — and random for ephemeral nodes; names are member slots at the
// merger, so they must never be shared between live nodes). It
// implies WithShards(0) and WithStream with the runtime default
// interval unless those options are also given. Close drains the
// announcer so the merger ends with the node's final state.
func WithAnnounce(target, token, name string) ServerOption {
	return func(o *serverOptions) {
		o.sharded = true
		o.streaming = true
		o.announceTarget = target
		o.announceToken = token
		o.announceName = name
	}
}

// NewServer returns the server-side half sharing this client's solved
// parameters. With no options it is a plain single-goroutine accumulator;
// with WithShards or WithBatchSize it runs on the sharded ingestion
// runtime (see the package comment) and must be Closed.
func (c *Client) NewServer(opts ...ServerOption) *Server {
	s, _, err := c.newServer(opts)
	if err != nil {
		// Only reachable with WithCheckpoint (an unusable or corrupt
		// directory) or a WithAnnounce target of another scheme: plain
		// construction cannot fail since bits is positive by
		// construction. RestoreServer surfaces the error.
		panic("idldp: " + err.Error())
	}
	return s
}

// RestoreServer is NewServer for durable deployments: it requires
// WithCheckpoint among opts, resumes from the newest checkpoint in its
// directory, and returns how many reports the restored state already
// summarizes (0 for a fresh campaign). Estimates after a restore are
// bit-for-bit identical to a server that was never interrupted.
func (c *Client) RestoreServer(opts ...ServerOption) (*Server, int64, error) {
	var o serverOptions
	for _, opt := range opts {
		opt(&o)
	}
	if o.ckptDir == "" {
		return nil, 0, fmt.Errorf("idldp: RestoreServer requires WithCheckpoint")
	}
	return c.newServer(opts)
}

func (c *Client) newServer(opts []ServerOption) (*Server, int64, error) {
	e := c.engine
	bits := e.M()
	if e.PaddingLength() > 0 {
		bits += e.PaddingLength()
	}
	var o serverOptions
	for _, opt := range opts {
		opt(&o)
	}
	s := &Server{engine: e, bits: bits}
	if o.sharded {
		ropts := []server.Option{server.WithShards(o.shards), server.WithBatchSize(o.batchSize)}
		if o.streaming {
			ropts = append(ropts, server.WithStream(o.streamInterval))
		}
		if o.adaptMax > 0 || o.adaptMin > 0 {
			ropts = append(ropts, server.WithAdaptiveBatch(o.adaptMin, o.adaptMax))
		}
		if o.historyDir != "" {
			hist, err := history.Open(o.historyDir, bits, history.Config{})
			if err != nil {
				return nil, 0, fmt.Errorf("idldp: %w", err)
			}
			s.history = hist
			// Resume numbering and state from the log so generations
			// never regress across restarts and the first interval's
			// delta is diffed against the logged cumulative state.
			ropts = append(ropts, server.WithStreamResume(hist.State()))
		}
		var rt *server.Server
		var restored int64
		var err error
		if o.ckptDir != "" {
			ropts = append(ropts, server.WithCheckpoint(o.ckptDir, o.ckptInterval))
			rt, restored, err = server.Restore(bits, ropts...)
		} else {
			rt, err = server.New(bits, ropts...)
		}
		if err != nil {
			if s.history != nil {
				s.history.Close()
			}
			return nil, 0, fmt.Errorf("idldp: %w", err)
		}
		s.runtime = rt
		s.batcher = rt.NewBatcher()
		if o.announceTarget != "" {
			ann, err := announce(rt, bits, o)
			if err != nil {
				rt.Close()
				return nil, 0, fmt.Errorf("idldp: %w", err)
			}
			s.announcer = ann
		}
		return s, restored, nil
	}
	s.counts = make([]int64, bits)
	return s, 0, nil
}

// announce starts the control-plane loop for a WithAnnounce server.
func announce(rt *server.Server, bits int, o serverOptions) (*registry.Announcer, error) {
	dial, err := transport.DialControlPlane(o.announceTarget)
	if err != nil {
		return nil, err
	}
	var auth *registry.Authenticator
	if o.announceToken != "" {
		if auth, err = registry.NewAuthenticator(o.announceToken); err != nil {
			return nil, err
		}
	}
	name := o.announceName
	if name == "" {
		// A name identifies one member: re-registering it replaces the
		// session and resyncs replace its counts wholesale. Deriving the
		// default from the target alone would make every default-named
		// node collide on one member slot, so it must be unique — and for
		// a durable node it must also be *stable across restarts*, or a
		// restored collector would announce its checkpointed counts under
		// a fresh name while the old member's identical counts kept
		// contributing, double-counting the whole restored state. The
		// checkpoint directory is exactly as stable and exclusive as the
		// state itself, so derive the name from it; ephemeral nodes
		// restart from zero and get a random one.
		if o.ckptDir != "" {
			host, err := os.Hostname()
			if err != nil {
				host = "host"
			}
			// Canonicalize: the same directory must derive the same name
			// however it was spelled, and different directories must never
			// collide on an equal relative spelling.
			dir, err := filepath.Abs(o.ckptDir)
			if err != nil {
				dir = filepath.Clean(o.ckptDir)
			}
			name = fmt.Sprintf("node@%s:%s", host, dir)
		} else {
			var salt [6]byte
			if _, err := rand.Read(salt[:]); err != nil {
				return nil, fmt.Errorf("deriving node name: %w", err)
			}
			name = fmt.Sprintf("node-%x", salt)
		}
	}
	return registry.Announce(registry.AnnounceConfig{
		Name: name, Bits: bits, Kind: "node", Auth: auth,
		Dial: dial, Subscribe: rt.Subscribe,
	})
}

// Server aggregates reports and produces calibrated frequency estimates.
// A Server is safe for concurrent use, but Collect serializes callers —
// high-throughput concurrent producers should each hold their own
// Runtime().NewBatcher() or report through internal/transport /
// internal/httpapi. In sharded mode aggregation runs on the shard
// workers and Estimates may be called while collection continues; after
// Close, Estimates and N keep answering from the drained final state.
type Server struct {
	engine *core.Engine
	bits   int

	mu sync.Mutex

	// Plain mode: accumulate inline.
	counts []int64
	n      int

	// Sharded mode: feed the runtime through a batcher. announcer is
	// non-nil with WithAnnounce, history with WithHistory.
	runtime   *server.Server
	batcher   *server.Batcher
	announcer *registry.Announcer
	history   *history.Store
	closed    bool
}

// Collect accumulates one report. The words are read in place — no
// allocation per report.
func (s *Server) Collect(r Report) error {
	if r.Bits != s.bits {
		return fmt.Errorf("idldp: report has %d bits, server expects %d", r.Bits, s.bits)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		// The batcher would silently buffer the report; the closed runtime
		// is only noticed at the next flush. Reject up front instead.
		return fmt.Errorf("idldp: %w", server.ErrClosed)
	}
	if s.runtime != nil {
		if err := s.batcher.AddWords(r.Words, r.Bits); err != nil {
			return fmt.Errorf("idldp: %w", err)
		}
		return nil
	}
	if err := bitvec.AccumulateWordsInto(r.Words, r.Bits, s.counts); err != nil {
		return fmt.Errorf("idldp: %w", err)
	}
	s.n++
	return nil
}

// snapshot returns the current counts and user total, flushing the
// pending batch first in sharded mode. After Close the runtime answers
// from its drained final state. The returned slice is the caller's.
func (s *Server) snapshot() ([]int64, int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.runtime == nil {
		return append([]int64(nil), s.counts...), s.n, nil
	}
	if !s.closed {
		if err := s.batcher.Flush(); err != nil {
			return nil, 0, fmt.Errorf("idldp: %w", err)
		}
	}
	counts, n := s.runtime.Snapshot()
	return counts, int(n), nil
}

// N returns the number of reports collected.
func (s *Server) N() int {
	_, n, err := s.snapshot()
	if err != nil {
		return 0
	}
	return n
}

// Shards returns the shard worker count, or 0 for a plain server.
func (s *Server) Shards() int {
	if s.runtime == nil {
		return 0
	}
	return s.runtime.Shards()
}

// Runtime exposes the sharded ingestion runtime so concurrent producers
// can feed it directly (each with its own Batcher). It returns nil for a
// plain server.
func (s *Server) Runtime() *server.Server { return s.runtime }

// Checkpoint flushes pending reports and writes one durable frame
// immediately, independent of the periodic interval — e.g. right before
// a planned handover. It errors unless the server was built with
// WithCheckpoint.
func (s *Server) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.runtime == nil {
		return fmt.Errorf("idldp: Checkpoint requires a WithCheckpoint server")
	}
	if !s.closed {
		if err := s.batcher.Flush(); err != nil {
			return fmt.Errorf("idldp: %w", err)
		}
	}
	if _, err := s.runtime.CheckpointNow(); err != nil {
		return fmt.Errorf("idldp: %w", err)
	}
	return nil
}

// ServerStats mirrors the sharded runtime's metrics (see
// internal/server.Stats) for monitoring: ingest counters, per-shard
// queue depths, and checkpoint activity.
type ServerStats struct {
	Shards         int
	BatchSize      int
	Reports        int64
	Frames         int64
	QueueDepth     []int
	Uptime         time.Duration
	Checkpoints    int64
	LastCheckpoint time.Time
	// ArrivalRate is the EWMA of the report arrival rate (reports/sec).
	ArrivalRate float64
	// StreamSubscribers counts live Stream subscriptions.
	StreamSubscribers int
}

// Stats returns runtime metrics. For a plain (unsharded) server only
// Reports is populated.
func (s *Server) Stats() ServerStats {
	if s.runtime == nil {
		s.mu.Lock()
		defer s.mu.Unlock()
		return ServerStats{Reports: int64(s.n)}
	}
	st := s.runtime.Stats()
	return ServerStats{
		Shards:            st.Shards,
		BatchSize:         st.BatchSize,
		Reports:           st.Reports,
		Frames:            st.Frames,
		QueueDepth:        st.QueueDepth,
		Uptime:            st.Uptime,
		Checkpoints:       st.Checkpoints,
		LastCheckpoint:    st.LastCheckpoint,
		ArrivalRate:       st.ArrivalRate,
		StreamSubscribers: st.StreamSubscribers,
	}
}

// Close stops the shard workers of a sharded server after flushing the
// pending batch; the runtime keeps serving its drained state to
// Estimates and N. A WithAnnounce server first lets its announcer drain
// (bounded), so the merger ends with the node's final state. It is a
// no-op for a plain server.
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.runtime == nil || s.closed {
		return nil
	}
	s.closed = true
	if err := s.batcher.Flush(); err != nil {
		return err
	}
	err := s.runtime.Close()
	if s.announcer != nil {
		// The runtime close published a final resync and ended the
		// stream; give the announcer a bounded window to deliver it (it
		// may be mid-backoff against an unreachable merger).
		select {
		case <-s.announcer.Done():
		case <-time.After(5 * time.Second):
		}
		s.announcer.Close()
	}
	if s.history != nil {
		// The runtime close ended the stream, so no further intervals
		// can reach the log; an in-flight spill racing this close is
		// refused by the store, never torn.
		if cerr := s.history.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Estimates returns the unbiased frequency estimates ĉ_i for all m items
// (Eq. 8; scaled by ℓ in item-set mode). In sharded mode the estimates
// are consistent with every report collected so far and identical,
// bit for bit, to what a plain server would produce from the same
// reports.
func (s *Server) Estimates() ([]float64, error) {
	counts, n, err := s.snapshot()
	if err != nil {
		return nil, err
	}
	if s.engine.PaddingLength() > 0 {
		return s.engine.EstimateSet(counts, n)
	}
	return s.engine.EstimateSingle(counts, n)
}

// LiveHandler returns a read-only HTTP surface over the server's delta
// stream: GET /v1/estimates (with ?window=k), the shared-payload SSE
// feed at /v1/estimates/stream, and /v1/readstats. Estimates are
// calibrated once per published interval and served from a
// generation-stamped cache, so any number of dashboard readers cost one
// calibration per interval; staleness is bounded by the stream
// interval. window is the sliding-window capacity in intervals (<= 0
// selects the default of 60).
//
// With WithHistory the handler additionally journals every closed
// interval, replays the logged tail into its window at construction (a
// restarted server recovers the ring bit-exactly) and answers the
// time-travel queries GET /v1/estimates?at / ?from&to and
// GET /v1/metrics/history from the log.
//
// Requires a sharded runtime with streaming enabled (WithStream). The
// returned handler also implements io.Closer; closing it detaches from
// the stream and hangs up connected SSE clients (the history log stays
// open — it belongs to the Server and closes with it).
func (s *Server) LiveHandler(window int) (http.Handler, error) {
	s.mu.Lock()
	rt, closed := s.runtime, s.closed
	s.mu.Unlock()
	if rt == nil {
		return nil, fmt.Errorf("idldp: live handler needs a streaming runtime (WithStream)")
	}
	if closed {
		return nil, fmt.Errorf("idldp: %w", server.ErrClosed)
	}
	sub, err := rt.Subscribe(16)
	if err != nil {
		return nil, fmt.Errorf("idldp: %w", err)
	}
	est := func(counts []int64, n int) ([]float64, error) {
		if s.engine.PaddingLength() > 0 {
			return s.engine.EstimateSet(counts, n)
		}
		return s.engine.EstimateSingle(counts, n)
	}
	lh, err := httpapi.NewLiveWithHistory(sub, s.bits, est, window, s.history)
	if err != nil {
		sub.Close()
		return nil, fmt.Errorf("idldp: %w", err)
	}
	return lh, nil
}

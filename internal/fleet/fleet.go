// Package fleet is the collector-of-collectors: it polls snapshot
// frames from several idldp-server processes — over the framed TCP
// transport or the HTTP/JSON API — and merges them into one global
// aggregate. Because ID-LDP per-bit counts are order-independent integer
// sums and every node's snapshot is cumulative, the merge is *exact*:
// fleet-wide estimates are bit-for-bit identical to a single collector
// that ingested every report, with zero statistical cost. This is the
// step from one-machine sharding (internal/server) to a horizontally
// scaled deployment.
//
// Each node is a Source; TCPSource speaks the transport snapshot frame,
// HTTPSource polls GET /v1/snapshot. Poll fetches all nodes concurrently
// and keeps, per node, the newest snapshot plus liveness bookkeeping
// (last success, consecutive failures, restart detection). A node that
// stops answering goes Stale but its last snapshot keeps contributing to
// the merge — counts are cumulative, so stale data is merely old, never
// wrong.
package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"idldp/internal/readcache"
	"idldp/internal/registry"
	"idldp/internal/stream"
	"idldp/internal/telemetry"
	"idldp/internal/transport"
	"idldp/internal/varpack"
)

// Defaults for New options.
const (
	DefaultPollTimeout = 5 * time.Second
	DefaultStaleAfter  = 15 * time.Second
)

// Snapshot is one node's cumulative aggregate state.
type Snapshot struct {
	Bits   int
	Counts []int64
	N      int64
}

// Source fetches snapshots from one collector node.
type Source interface {
	// Name identifies the node in Status and error messages.
	Name() string
	// Fetch returns the node's current cumulative snapshot.
	Fetch(ctx context.Context) (Snapshot, error)
}

// TCPSource polls a framed TCP aggregation server (internal/transport) with
// a snapshot-request frame per fetch.
type TCPSource struct {
	addr string
	auth *registry.Authenticator
}

// NewTCPSource returns a source for a transport server at addr.
func NewTCPSource(addr string) *TCPSource { return &TCPSource{addr: addr} }

// WithAuth makes every fetch sign its snapshot request with the fleet
// token — what a transport.WithSnapshotAuth node demands.
func (s *TCPSource) WithAuth(a *registry.Authenticator) *TCPSource {
	s.auth = a
	return s
}

// Name implements Source.
func (s *TCPSource) Name() string { return "tcp://" + s.addr }

// Fetch implements Source. Each fetch dials a fresh connection so a node
// restart never wedges the poller on a dead stream.
func (s *TCPSource) Fetch(ctx context.Context) (Snapshot, error) {
	c, err := transport.Dial(ctx, s.addr)
	if err != nil {
		return Snapshot{}, err
	}
	defer c.Close()
	if deadline, ok := ctx.Deadline(); ok {
		if err := c.SetDeadline(deadline); err != nil {
			return Snapshot{}, err
		}
	}
	c.SetAuth(s.auth)
	counts, n, bits, err := c.Snapshot()
	if err != nil {
		return Snapshot{}, err
	}
	return Snapshot{Bits: bits, Counts: counts, N: n}, nil
}

// HTTPSource polls GET {base}/v1/snapshot on an httpapi node.
type HTTPSource struct {
	base   string
	client *http.Client
	auth   *registry.Authenticator
}

// NewHTTPSource returns a source for an httpapi handler served at base,
// e.g. "http://10.0.0.7:8080".
func NewHTTPSource(base string) *HTTPSource {
	return &HTTPSource{base: strings.TrimRight(base, "/"), client: &http.Client{}}
}

// WithAuth makes every fetch carry the snapshot-auth headers — what a
// RequireSnapshotAuth node demands.
func (s *HTTPSource) WithAuth(a *registry.Authenticator) *HTTPSource {
	s.auth = a
	return s
}

// Name implements Source.
func (s *HTTPSource) Name() string { return s.base }

// Fetch implements Source. It asks for the varpack-packed payload
// (?format=packed) and falls back to the plain counts array, which is
// what an older node ignoring the query parameter returns.
func (s *HTTPSource) Fetch(ctx context.Context) (Snapshot, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/v1/snapshot?format=packed", nil)
	if err != nil {
		return Snapshot{}, err
	}
	registry.SignSnapshotHTTP(req, s.auth, "", time.Now())
	resp, err := s.client.Do(req)
	if err != nil {
		return Snapshot{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return Snapshot{}, fmt.Errorf("snapshot endpoint returned %s", resp.Status)
	}
	var body struct {
		Packed []byte  `json:"packed"`
		Counts []int64 `json:"counts"`
		N      int64   `json:"n"`
		Bits   int     `json:"bits"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return Snapshot{}, err
	}
	if len(body.Packed) > 0 {
		counts, err := varpack.Unpack(body.Packed)
		if err != nil {
			return Snapshot{}, err
		}
		body.Counts = counts
	}
	if body.Counts == nil {
		body.Counts = make([]int64, body.Bits)
	}
	return Snapshot{Bits: body.Bits, Counts: body.Counts, N: body.N}, nil
}

// ParseSource maps a node spec to a Source: "http://…" and "https://…"
// become HTTPSources, "tcp://host:port" and bare "host:port" become
// TCPSources.
func ParseSource(spec string) (Source, error) {
	return ParseSourceAuth(spec, nil)
}

// ParseSourceAuth is ParseSource for token-authenticated fleets: the
// returned source signs every snapshot request (a nil authenticator
// keeps them plain).
func ParseSourceAuth(spec string, a *registry.Authenticator) (Source, error) {
	switch {
	case strings.HasPrefix(spec, "http://"), strings.HasPrefix(spec, "https://"):
		return NewHTTPSource(spec).WithAuth(a), nil
	case strings.HasPrefix(spec, "tcp://"):
		return NewTCPSource(strings.TrimPrefix(spec, "tcp://")).WithAuth(a), nil
	case strings.Contains(spec, "://"):
		return nil, fmt.Errorf("fleet: unsupported scheme in %q", spec)
	case spec == "":
		return nil, fmt.Errorf("fleet: empty node spec")
	default:
		return NewTCPSource(spec).WithAuth(a), nil
	}
}

// node is the per-source poll state.
type node struct {
	src         Source
	have        bool
	last        Snapshot
	lastSuccess time.Time
	lastErr     error
	polls       int64
	failures    int64
	resets      int64
}

// Estimator calibrates merged counts, e.g. core.Engine.EstimateSingle.
type Estimator func(counts []int64, n int) ([]float64, error)

// Option tunes a Fleet.
type Option func(*Fleet)

// WithPollTimeout bounds each node fetch (default DefaultPollTimeout).
func WithPollTimeout(d time.Duration) Option { return func(f *Fleet) { f.pollTimeout = d } }

// WithStaleAfter sets how long after its last successful poll a node is
// reported Stale (default DefaultStaleAfter).
func WithStaleAfter(d time.Duration) Option { return func(f *Fleet) { f.staleAfter = d } }

// WithRegistry attaches a fleet control plane (internal/registry):
// push-registered members join the merge and the status view alongside
// the polled sources — dynamic membership instead of (or mixed with)
// the static node list. The fleet does not own the registry.
func WithRegistry(reg *registry.Registry) Option { return func(f *Fleet) { f.reg = reg } }

// WithStreamStartSeq resumes the merged delta stream's generation
// numbering after seq — the restart hook for mergers that persist
// interval history by generation (internal/history). The merged state
// itself is re-seeded by the first Resync; only the numbering needs to
// survive, so a durable log never observes its generations regress.
func WithStreamStartSeq(seq uint64) Option { return func(f *Fleet) { f.startSeq = seq } }

// Fleet merges snapshots from a set of collector nodes. All methods are
// safe for concurrent use.
type Fleet struct {
	bits        int
	pollTimeout time.Duration
	staleAfter  time.Duration
	reg         *registry.Registry

	mu    sync.Mutex
	nodes []*node
	// gen counts completed Polls — the merge generation. Estimates
	// results are stamped with it and memoized until the next Poll.
	gen   uint64
	cache *readcache.Cache
	// Streaming (nil until the first Subscribe): each Poll publishes the
	// merged state as a delta; node resets force a full resync frame.
	pub          *stream.Publisher
	startSeq     uint64
	needResync   bool
	closedStream bool
}

// New returns a fleet merger for m-bit domains over the given sources.
// An empty source list is allowed when WithRegistry supplies the
// membership instead.
func New(bits int, sources []Source, opts ...Option) (*Fleet, error) {
	if bits <= 0 {
		return nil, fmt.Errorf("fleet: report length %d must be positive", bits)
	}
	f := &Fleet{bits: bits, pollTimeout: DefaultPollTimeout, staleAfter: DefaultStaleAfter, cache: readcache.New()}
	for _, src := range sources {
		f.nodes = append(f.nodes, &node{src: src})
	}
	for _, opt := range opts {
		opt(f)
	}
	if len(sources) == 0 && f.reg == nil {
		return nil, fmt.Errorf("fleet: no sources")
	}
	if f.reg != nil && f.reg.Bits() != bits {
		return nil, fmt.Errorf("fleet: registry has %d bits, fleet has %d", f.reg.Bits(), bits)
	}
	return f, nil
}

// Bits returns the domain size m.
func (f *Fleet) Bits() int { return f.bits }

// Federation returns the attached registry's telemetry federation (the
// fold of member snapshots carried on heartbeats), or nil for a
// poll-only fleet. Poll-mode nodes are scraped directly by Prometheus;
// only push-registered members federate telemetry through heartbeats.
func (f *Fleet) Federation() *telemetry.Federation {
	if f.reg == nil {
		return nil
	}
	return f.reg.Federation()
}

// Poll fetches every node once, concurrently, each fetch bounded by the
// poll timeout. Nodes that fail keep their previous snapshot; the joined
// error reports every failure but never hides the successes — except
// *transient* failures (refused or timed-out dials, dropped
// connections) on nodes that have answered before: a node mid-restart
// is an expected fleet condition, reported through Status as a failure
// count and eventual staleness rather than as a poll error that would
// alarm Estimates callers.
func (f *Fleet) Poll(ctx context.Context) error {
	f.mu.Lock()
	nodes := append([]*node(nil), f.nodes...)
	f.mu.Unlock()
	errs := make([]error, len(nodes))
	var wg sync.WaitGroup
	for i, nd := range nodes {
		wg.Add(1)
		go func(i int, nd *node) {
			defer wg.Done()
			cctx, cancel := context.WithTimeout(ctx, f.pollTimeout)
			defer cancel()
			snap, err := nd.src.Fetch(cctx)
			if err == nil && snap.Bits != f.bits {
				err = fmt.Errorf("node has %d bits, fleet has %d", snap.Bits, f.bits)
			}
			if err == nil && len(snap.Counts) != f.bits {
				err = fmt.Errorf("snapshot has %d counts for %d bits", len(snap.Counts), snap.Bits)
			}
			f.mu.Lock()
			defer f.mu.Unlock()
			nd.polls++
			if err != nil {
				nd.failures++
				nd.lastErr = err
				if !(nd.have && transientErr(err)) {
					errs[i] = fmt.Errorf("fleet: node %s: %w", nd.src.Name(), err)
				}
				return
			}
			if nd.have && snap.N < nd.last.N {
				// A cumulative count never decreases; a drop means the node
				// restarted without restoring its checkpoint. Adopt the
				// node's authoritative state but surface the reset — and
				// force the next stream publish to be a full resync: the
				// merged counts just went backwards, which no delta frame
				// can represent (it would be negative).
				nd.resets++
				f.needResync = true
			}
			nd.last = snap
			nd.have = true
			nd.lastSuccess = time.Now()
			nd.lastErr = nil
		}(i, nd)
	}
	wg.Wait()
	f.mu.Lock()
	f.gen++
	f.mu.Unlock()
	f.publish()
	return errors.Join(errs...)
}

// Ready reports whether the merger has merged state to serve: at
// least one Poll has completed and the merged stream has not been
// closed. It is the readiness signal idldp-merge's readyz endpoint
// surfaces — false before the first poll lands and false again once
// shutdown begins (Close), so load balancers route around a merger
// that cannot answer yet or is about to exit.
func (f *Fleet) Ready() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.gen > 0 && !f.closedStream
}

// RegisterMetrics exposes the polling merger on reg as scrape-time
// views: source count, merge generation, and fetch outcome counters.
// Nil reg is a no-op. Registry-attached fleets get the push-side
// metrics from registry.WithTelemetry on the same telemetry registry.
func (f *Fleet) RegisterMetrics(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	sum := func(pick func(*node) int64) func() int64 {
		return func() int64 {
			f.mu.Lock()
			defer f.mu.Unlock()
			var t int64
			for _, nd := range f.nodes {
				t += pick(nd)
			}
			return t
		}
	}
	reg.GaugeFunc("poll_nodes", "Configured poll sources.", func() float64 {
		f.mu.Lock()
		defer f.mu.Unlock()
		return float64(len(f.nodes))
	})
	reg.GaugeFunc("poll_generation", "Completed poll rounds (the merge generation).", func() float64 {
		return float64(f.Generation())
	})
	reg.CounterFunc("poll_fetches", "Node snapshot fetch attempts.", sum(func(nd *node) int64 { return nd.polls }))
	reg.CounterFunc("poll_failures", "Failed node fetches.", sum(func(nd *node) int64 { return nd.failures }))
	reg.CounterFunc("poll_node_resets", "Cumulative-count regressions observed on restarted nodes.", sum(func(nd *node) int64 { return nd.resets }))
}

// Generation returns how many Polls have completed — the merge
// generation Estimates results are stamped with. Push-registered
// members that deliver deltas between polls become visible to cached
// estimates at the next Poll; staleness is bounded by the poll
// interval, exactly like the node snapshots themselves.
func (f *Fleet) Generation() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.gen
}

// transientErr classifies fetch failures a restarting node produces:
// network-level errors (refused, reset, dropped mid-stream) and
// timeouts. Protocol-level failures (bits mismatch, auth refusal,
// malformed payloads) stay loud.
func transientErr(err error) bool {
	var netErr net.Error
	return errors.As(err, &netErr) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, io.EOF) ||
		errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, net.ErrClosed)
}

// publish ships the post-poll merged state to stream subscribers, as a
// sparse delta normally and as a full resync after a node reset. The
// publisher's own diffing would also detect the regression, but a reset
// that happens to keep every merged count non-decreasing (another node
// grew past the loss) would otherwise smear the restarted node's
// re-ingested reports into a delta that double-counts them against n;
// the explicit resync keeps the frame semantics honest.
func (f *Fleet) publish() {
	f.mu.Lock()
	pub := f.pub
	resync := f.needResync
	f.needResync = false
	f.mu.Unlock()
	if pub == nil {
		return
	}
	counts, n := f.Counts()
	if resync {
		_ = pub.Resync(counts, n)
		return
	}
	_ = pub.Publish(counts, n)
}

// Subscribe registers a consumer of the merged delta stream: every Poll
// publishes one frame (sparse delta, or full resync after a node
// reset). The first frame delivered is a resync with the current merged
// state. Subscriptions follow the drop-and-resync contract of
// internal/stream and never block polling.
func (f *Fleet) Subscribe(buf int) (*stream.Sub, error) {
	// Merged state first (Counts takes f.mu): if this Subscribe creates
	// the publisher, it is seeded with the current state so the initial
	// resync is not a spurious zero frame mid-campaign.
	counts, n := f.Counts()
	f.mu.Lock()
	if f.closedStream {
		f.mu.Unlock()
		return nil, fmt.Errorf("fleet: stream closed")
	}
	created := false
	if f.pub == nil {
		pub, err := stream.NewPublisher(f.bits, stream.WithResume(nil, 0, f.startSeq))
		if err != nil {
			f.mu.Unlock()
			return nil, fmt.Errorf("fleet: %w", err)
		}
		f.pub = pub
		created = true
	}
	pub := f.pub
	f.mu.Unlock()
	if created {
		_ = pub.Resync(counts, n)
	}
	sub, err := pub.Subscribe(buf)
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	return sub, nil
}

// Close shuts the merged delta stream down, closing every subscriber
// channel. Polling itself needs no teardown.
func (f *Fleet) Close() {
	f.mu.Lock()
	pub := f.pub
	f.closedStream = true
	f.mu.Unlock()
	if pub != nil {
		pub.Close()
	}
}

// Counts returns the fleet-wide merged per-bit counts and user count:
// the sum of every polled node's newest snapshot plus every
// push-registered member's accumulated state. Once the fleet quiesces,
// the result is bit-for-bit what a single collector ingesting all
// reports would hold.
func (f *Fleet) Counts() (counts []int64, n int64) {
	counts = make([]int64, f.bits)
	f.mu.Lock()
	for _, nd := range f.nodes {
		if !nd.have {
			continue
		}
		for i, c := range nd.last.Counts {
			counts[i] += c
		}
		n += nd.last.N
	}
	f.mu.Unlock()
	if f.reg != nil {
		rc, rn := f.reg.Counts()
		for i, c := range rc {
			counts[i] += c
		}
		n += rn
	}
	return counts, n
}

// Estimates calibrates the merged counts with est, memoized per merge
// generation: dashboards polling a merger between fleet polls share one
// calibration instead of recomputing identical results. The returned
// slice is shared with later callers of the same generation — treat it
// as read-only. The memo assumes one estimator per fleet (the
// deployment shape); alternating estimators within a generation would
// serve the first one's result.
func (f *Fleet) Estimates(est Estimator) ([]float64, error) {
	gen := f.Generation()
	if v, ok := f.cache.Get(gen, readcache.Key{Kind: readcache.Cumulative}); ok {
		return v.Estimates, nil
	}
	counts, n := f.Counts()
	if n == 0 {
		return nil, fmt.Errorf("fleet: no reports merged yet")
	}
	out, err := est(counts, int(n))
	if err != nil {
		return nil, err
	}
	f.cache.Put(readcache.Key{Kind: readcache.Cumulative}, readcache.Value{Gen: gen, N: n, Estimates: out})
	return out, nil
}

// NodeStatus is one node's liveness view.
type NodeStatus struct {
	// Name is the source's identifier.
	Name string
	// Have reports whether any snapshot has ever been fetched.
	Have bool
	// N is the newest snapshot's user count.
	N int64
	// LastSuccess is when the newest snapshot was fetched (zero if never).
	LastSuccess time.Time
	// LastErr is the most recent fetch error, cleared on success.
	LastErr string
	// Polls and Failures count fetch attempts and failed attempts.
	Polls, Failures int64
	// Resets counts observed cumulative-count regressions — node restarts
	// without checkpoint restore.
	Resets int64
	// Stale is set when the node has no successful poll within the
	// staleness window.
	Stale bool
}

// Status returns the per-node liveness view: polled sources in source
// order, then push-registered members (names prefixed "push://", pushes
// counted as polls, rejects as failures, re-registrations as resets,
// eviction as staleness).
func (f *Fleet) Status() []NodeStatus {
	now := time.Now()
	f.mu.Lock()
	out := make([]NodeStatus, len(f.nodes), len(f.nodes)+4)
	for i, nd := range f.nodes {
		st := NodeStatus{
			Name:        nd.src.Name(),
			Have:        nd.have,
			N:           nd.last.N,
			LastSuccess: nd.lastSuccess,
			Polls:       nd.polls,
			Failures:    nd.failures,
			Resets:      nd.resets,
			Stale:       !nd.have || now.Sub(nd.lastSuccess) > f.staleAfter,
		}
		if nd.lastErr != nil {
			st.LastErr = nd.lastErr.Error()
		}
		out[i] = st
	}
	f.mu.Unlock()
	if f.reg != nil {
		for _, m := range f.reg.Status() {
			resets := m.Registrations - 1
			if resets < 0 {
				resets = 0
			}
			out = append(out, NodeStatus{
				Name:        "push://" + m.Name,
				Have:        m.Pushes > 0 || m.N > 0,
				N:           m.N,
				LastSuccess: m.LastSeen,
				Polls:       m.Pushes,
				Failures:    m.Rejects,
				Resets:      resets,
				Stale:       m.Evicted,
			})
		}
	}
	return out
}

// Run polls every interval until ctx is done (an immediate first poll,
// then the ticker). Poll errors are delivered to onErr when non-nil and
// otherwise dropped — transient node failures are expected in a fleet.
func (f *Fleet) Run(ctx context.Context, interval time.Duration, onErr func(error)) {
	report := func(err error) {
		if err != nil && onErr != nil {
			onErr(err)
		}
	}
	report(f.Poll(ctx))
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			report(f.Poll(ctx))
		}
	}
}

// Package fleet is the merger's polling half. For every statically
// listed node it fetches the cumulative snapshot over the framed TCP
// transport (transport.FetchSnapshot, which refuses a reply larger than
// a genuine snapshot of the merger's domain before decoding it) and then
// acts as that node's announcer against the merger's own registry
// (internal/registry): register under the node spec with kind "poll",
// then one signed full-state resync push per successful fetch. Merged
// counts, liveness, resync validation, restart detection, status,
// metrics and checkpoints are the registry's, shared with
// push-registered members: a node that stops answering is evicted after
// the heartbeat window while its last counts keep contributing
// (cumulative counts go stale, never wrong). What remains here is the
// concurrent poll round with its transient-error policy, and the tick
// that coalesces the registry's merged counts into one delta stream: a
// frame per interval, not per push.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"idldp/internal/registry"
	"idldp/internal/stream"
	"idldp/internal/telemetry"
	"idldp/internal/transport"
	"idldp/internal/varpack"
)

// Kind is the registry member kind polled nodes are registered under.
const Kind = "poll"

// pollTimeout bounds each node fetch.
const pollTimeout = 5 * time.Second

// node is one polled node and its announcer state; only its own fetch
// goroutine touches it, one poll round at a time.
type node struct {
	name string // the spec, normalized: the registry member name
	// fetch returns the node's current cumulative per-bit counts and
	// report count, refusing a node whose domain size is not bits.
	fetch        func(ctx context.Context, bits int) (counts []int64, n int64, err error)
	session, seq uint64 // registry session (0 until a fetch succeeds) and its push sequence
}

// parse maps a node spec, "tcp://host:port" or bare "host:port", to its
// member name and fetcher.
func parse(spec string, a *registry.Authenticator) (*node, error) {
	addr, tcp := strings.CutPrefix(spec, "tcp://")
	switch {
	case spec == "":
		return nil, fmt.Errorf("fleet: empty node spec")
	case !tcp && strings.Contains(spec, "://"):
		return nil, fmt.Errorf("fleet: unsupported scheme in %q", spec)
	}
	return &node{name: "tcp://" + addr, fetch: func(ctx context.Context, bits int) ([]int64, int64, error) {
		return transport.FetchSnapshot(ctx, addr, a, bits)
	}}, nil
}

// Fleet polls its nodes into a registry and publishes the registry's
// merged state — polled and push-registered members alike — as one
// delta stream. All methods are safe for concurrent use.
type Fleet struct {
	reg      *registry.Registry
	auth     *registry.Authenticator
	nodes    []*node
	pub      *stream.Publisher
	failures *telemetry.Counter // failed fetches: what the registry cannot see

	mu     sync.Mutex // serializes poll rounds
	resets int64      // summed member resets at the last tick (no member of a new or restored registry has any)
	polled atomic.Bool
}

// New returns a poller of the node specs feeding reg, signing snapshot
// requests, registrations and pushes as auth (reg's own authenticator;
// nil for an open fleet). With no specs the fleet is only the tick over
// push-registered members. The merged stream starts from reg's current
// counts (a restored registry is served before the first poll lands)
// and numbers its frames after startSeq, so a history log never sees
// generations regress. A non-nil tel gets the failed-fetch counter.
func New(reg *registry.Registry, auth *registry.Authenticator, specs []string, startSeq uint64, tel *telemetry.Registry) (*Fleet, error) {
	counts, n := reg.Counts()
	pub, err := stream.NewPublisher(reg.Bits(), stream.WithResume(counts, n, startSeq))
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	f := &Fleet{reg: reg, auth: auth, pub: pub,
		failures: tel.Counter("poll_failures", "Node fetches that failed or whose snapshot the registry refused.")}
	for _, spec := range specs {
		nd, err := parse(strings.TrimSpace(spec), auth)
		if err != nil {
			return nil, err
		}
		f.nodes = append(f.nodes, nd)
	}
	return f, nil
}

// Poll fetches every node once, concurrently, pushes each snapshot into
// the registry, and publishes one merged frame. The joined error reports
// every failure except *transient* ones on nodes that have answered
// before: a node mid-restart is an expected fleet condition, visible as
// a failed fetch and eventual eviction rather than as a poll error.
func (f *Fleet) Poll(ctx context.Context) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	errs := make([]error, len(f.nodes))
	var wg sync.WaitGroup
	for i, nd := range f.nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cctx, cancel := context.WithTimeout(ctx, pollTimeout)
			defer cancel()
			counts, n, err := nd.fetch(cctx, f.reg.Bits())
			if err == nil {
				err = f.push(nd, counts, n)
			}
			if err == nil {
				return
			}
			f.failures.Inc()
			if nd.session == 0 || !transientErr(err) {
				errs[i] = fmt.Errorf("fleet: node %s: %w", nd.name, err)
			}
		}()
	}
	wg.Wait()
	f.polled.Store(true)
	f.tick()
	return errors.Join(errs...)
}

// push delivers a fetched snapshot as the node's announcer would: a
// full-state resync on the node's session, registering first when there
// is none and once more when the registry evicted it meanwhile. The
// registry validates the frame (length, 0 <= count <= n) before applying.
func (f *Fleet) push(nd *node, counts []int64, n int64) error {
	for retried := false; ; retried = true {
		if nd.session == 0 {
			req := registry.RegisterRequest{Name: nd.name, Bits: f.reg.Bits(), Kind: Kind}
			req.SignRegister(f.auth, time.Now())
			grant, err := f.reg.Register(req)
			if err != nil {
				return err
			}
			nd.session, nd.seq = grant.Session, 0
		}
		nd.seq++
		p := registry.Push{Name: nd.name, Session: nd.session,
			Frame: registry.PushFrame{Seq: nd.seq, Resync: true, Packed: varpack.Pack(counts), N: n}}
		p.SignPush(f.auth, time.Now())
		err := f.reg.Push(p)
		if retried || !errors.Is(err, registry.ErrBadSession) {
			return err
		}
		nd.session = 0
	}
}

// transientErr classifies the fetch failures a restarting node produces:
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

// tick publishes the registry's merged state under the last pushed
// trace (so traces keep climbing tiers): a sparse delta, or a full
// resync when the summed member resets moved — some member restarted
// without its checkpoint. The publisher catches a regression by itself,
// but a reset that another member's growth hides would smear the
// restarted node's re-ingested reports into a delta that double-counts
// them against n.
func (f *Fleet) tick() {
	var resets int64
	for _, m := range f.reg.Status() {
		resets += m.Resets
	}
	counts, n := f.reg.Counts()
	f.pub.SetTrace(f.reg.LastTrace())
	if resets != f.resets {
		f.resets = resets
		_ = f.pub.Resync(counts, n) // fails only once Close has run
		return
	}
	_ = f.pub.Publish(counts, n) // likewise
}

// Ready reports whether a poll round has completed: the merged stream
// has state to serve.
func (f *Fleet) Ready() bool { return f.polled.Load() }

// Subscribe registers a consumer of the merged delta stream
// (internal/stream); its first frame is a resync as of the last tick.
func (f *Fleet) Subscribe(buf int) (*stream.Sub, error) { return f.pub.Subscribe(buf) }

// Close shuts the merged stream down, closing every subscriber channel.
func (f *Fleet) Close() { f.pub.Close() }

// Run polls immediately and then every interval until ctx is done,
// handing poll errors to onErr.
func (f *Fleet) Run(ctx context.Context, interval time.Duration, onErr func(error)) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		if err := f.Poll(ctx); err != nil {
			onErr(err)
		}
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
	}
}

// The Announcer is the node-side half of the control plane: it dials a
// merger, registers, heartbeats, and pushes the node's snapshot-delta
// stream — reconnecting with exponential backoff and opening every
// reconnected session with a full resync, so the merger's view of this
// node is correct after any crash, restart, or network partition
// without any coordination.
//
// The announcer holds ONE stream subscription for its whole life and
// keeps consuming it even while disconnected, mirroring every frame
// into a local cumulative accumulator. That accumulator — not the
// subscription — is what each new session resyncs from, which is what
// makes the tail exact: frames published during an outage (including
// the source's final close-time resync) are folded into the
// accumulator and delivered by the next session's opening resync, even
// if the source stream has ended by then.
package registry

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"idldp/internal/flow"
	"idldp/internal/stream"
	"idldp/internal/telemetry"
	"idldp/internal/varpack"
)

// Conn is one connection to a merger's control plane, implemented by
// transport.RegistryConn: framed TCP is the one carrier between peers.
type Conn interface {
	Register(ctx context.Context, req RegisterRequest) (RegisterReply, error)
	Heartbeat(ctx context.Context, hb Heartbeat) error
	Push(ctx context.Context, p Push) error
	Close() error
}

// Announcer defaults.
const (
	DefaultBackoff    = 250 * time.Millisecond
	DefaultMaxBackoff = 5 * time.Second
	DefaultOpTimeout  = 5 * time.Second
)

// AnnounceConfig configures an Announcer.
type AnnounceConfig struct {
	// Name is this node's fleet-wide identity; Bits its domain size;
	// Kind informational ("node", "merger").
	Name string
	Bits int
	Kind string
	// Auth signs every message (nil joins an open fleet).
	Auth *Authenticator
	// Dial opens a fresh connection to the merger; called once per
	// session, again after every failure.
	Dial func(ctx context.Context) (Conn, error)
	// Subscribe opens the delta-stream subscription over the node's
	// aggregate state (server.Subscribe, fleet.Subscribe or
	// Registry.Subscribe — the last is what stacks mergers into tiers).
	// It is called once, at Announce time.
	Subscribe func(buf int) (*stream.Sub, error)
	// Backoff is the initial reconnect backoff window, doubling to
	// MaxBackoff (non-positive selects the defaults). The actual delay
	// is drawn with full jitter — uniform in [0, window) — so a fleet
	// of announcers cut off by one merger restart reconnects spread
	// across the window instead of in lockstep (see internal/flow).
	Backoff, MaxBackoff time.Duration
	// BackoffSeed seeds the jitter stream; 0 derives a per-announcer
	// seed from the name and start time. Fix it for reproducible
	// reconnect schedules in tests.
	BackoffSeed uint64
	// OpTimeout bounds each register/heartbeat/push round trip.
	OpTimeout time.Duration
	// OnError observes connection-level failures (may be nil).
	OnError func(error)
	// Telemetry, when non-nil, registers a delta-push round-trip-time
	// histogram (one observation per accepted push, including signing
	// and the wire round trip).
	Telemetry *telemetry.Registry
	// SnapshotTelemetry, when non-nil, is called before each heartbeat
	// and its packed result rides the heartbeat under the MAC, so the
	// upstream merger can federate this process's metrics into its
	// fleet-wide /metrics. A leaf passes its registry's Snapshot method;
	// a mid-tier merger passes a closure folding its own snapshot with
	// its Federation().Merged(), which is how telemetry composes up
	// tiers. Must be safe to call from the announcer goroutine.
	SnapshotTelemetry func() *telemetry.Snapshot
}

// AnnounceStats is a point-in-time view of an announcer's activity.
type AnnounceStats struct {
	// Registers counts successful registrations (1 + reconnects).
	Registers int64
	// Pushes counts accepted frames; Resyncs how many were full-state.
	Pushes, Resyncs int64
	// Failures counts failed dials, registrations, heartbeats or pushes.
	Failures int64
	// BytesPushed sums the pushed frame payloads — compare with the
	// merger's PollEquivBytes to see the delta-push bandwidth win.
	BytesPushed int64
}

// Announcer runs the announce/heartbeat/push loop until Close or until
// the subscribed stream ends and its final state has been delivered.
type Announcer struct {
	cfg    AnnounceConfig
	cancel context.CancelFunc
	done   chan struct{}

	registers atomic.Int64
	pushes    atomic.Int64
	resyncs   atomic.Int64
	failures  atomic.Int64
	bytes     atomic.Int64

	hPushRTT *telemetry.Histogram

	// Stream state, touched only by the run goroutine: the lifetime
	// subscription, the cumulative state of every frame consumed from
	// it, the representative trace of the last traced frame, and whether
	// the stream has ended.
	sub       *stream.Sub
	acc       *stream.Accumulator
	lastTrace string
	haveState bool
	srcClosed bool

	mu      sync.Mutex
	lastErr error
}

// Announce validates cfg and starts the loop.
func Announce(cfg AnnounceConfig) (*Announcer, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("registry: announcer needs a name")
	}
	if cfg.Bits <= 0 {
		return nil, fmt.Errorf("registry: report length %d must be positive", cfg.Bits)
	}
	if cfg.Dial == nil || cfg.Subscribe == nil {
		return nil, fmt.Errorf("registry: announcer needs Dial and Subscribe")
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = DefaultBackoff
	}
	if cfg.MaxBackoff < cfg.Backoff {
		cfg.MaxBackoff = DefaultMaxBackoff
	}
	if cfg.OpTimeout <= 0 {
		cfg.OpTimeout = DefaultOpTimeout
	}
	// Subscribe before the loop starts so nothing published after
	// Announce returns can be missed. The subscription lives as long as
	// the announcer: frames that arrive while disconnected are folded
	// into the accumulator during backoff (drainFor), and drop-and-
	// resync heals any overflow in between.
	sub, err := cfg.Subscribe(16)
	if err != nil {
		return nil, fmt.Errorf("registry: subscribe: %w", err)
	}
	acc, err := stream.NewAccumulator(cfg.Bits)
	if err != nil {
		sub.Close()
		return nil, fmt.Errorf("registry: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	a := &Announcer{cfg: cfg, cancel: cancel, done: make(chan struct{}), sub: sub, acc: acc}
	a.hPushRTT = cfg.Telemetry.Histogram("delta_push_rtt", "Round-trip time of one delta/resync push to the upstream merger.")
	go a.run(ctx)
	return a, nil
}

// Done is closed when the loop has exited — after Close, or on its own
// once the subscribed stream has ended and its final state was
// delivered.
func (a *Announcer) Done() <-chan struct{} { return a.done }

// Close stops the loop and waits for it to exit.
func (a *Announcer) Close() {
	a.cancel()
	<-a.done
}

// Stats returns the activity counters.
func (a *Announcer) Stats() AnnounceStats {
	return AnnounceStats{
		Registers:   a.registers.Load(),
		Pushes:      a.pushes.Load(),
		Resyncs:     a.resyncs.Load(),
		Failures:    a.failures.Load(),
		BytesPushed: a.bytes.Load(),
	}
}

// LastErr returns the most recent connection-level failure, if any.
func (a *Announcer) LastErr() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.lastErr
}

func (a *Announcer) fail(err error) {
	a.failures.Add(1)
	a.mu.Lock()
	a.lastErr = err
	a.mu.Unlock()
	if a.cfg.OnError != nil {
		a.cfg.OnError(err)
	}
}

// consume folds one frame into the local cumulative state.
func (a *Announcer) consume(d stream.Delta) {
	_ = a.acc.Apply(d) // out-of-sync heals at the next resync frame
	if d.Trace != "" {
		a.lastTrace = d.Trace
	}
	a.haveState = true
}

func (a *Announcer) run(ctx context.Context) {
	defer close(a.done)
	defer a.sub.Close()
	// Full-jitter reconnect: the window doubles per consecutive failed
	// session (resetting on a clean one) and the delay is drawn
	// uniformly inside it, de-correlating announcers that all lost the
	// same merger at the same instant.
	policy := flow.Policy{Base: a.cfg.Backoff, Max: a.cfg.MaxBackoff, Attempts: 1}
	seed := a.cfg.BackoffSeed
	if seed == 0 {
		for i := 0; i < len(a.cfg.Name); i++ {
			seed = seed*1099511628211 + uint64(a.cfg.Name[i])
		}
		seed ^= uint64(time.Now().UnixNano())
	}
	jitter := flow.NewRand(seed)
	attempt := 0
	for {
		if ctx.Err() != nil {
			return
		}
		clean, finished := a.session(ctx)
		if finished {
			return
		}
		if clean {
			attempt = 0
		}
		if !a.drainFor(ctx, policy.Delay(jitter, attempt)) {
			return
		}
		attempt++
	}
}

// drainFor waits out one backoff period while keeping the subscription
// drained, so the accumulator stays current through the outage. It
// returns false when the context ends.
func (a *Announcer) drainFor(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return false
		case <-t.C:
			return true
		case fr, ok := <-a.sub.C():
			if !ok {
				// Stream over; the next session delivers the accumulated
				// final state (the backoff still paces the reconnect).
				a.srcClosed = true
				select {
				case <-ctx.Done():
					return false
				case <-t.C:
					return true
				}
			}
			a.consume(fr)
		}
	}
}

// session runs one dial→register→resync→push lifetime. clean reports
// whether at least one frame was accepted (resetting backoff); finished
// that the loop should stop (context cancelled, or the stream has ended
// and its final state was delivered).
func (a *Announcer) session(ctx context.Context) (clean, finished bool) {
	conn, err := a.cfg.Dial(ctx)
	if err != nil {
		a.fail(fmt.Errorf("registry: dial: %w", err))
		return false, ctx.Err() != nil
	}
	defer conn.Close()

	req := RegisterRequest{Name: a.cfg.Name, Bits: a.cfg.Bits, Kind: a.cfg.Kind}
	req.SignRegister(a.cfg.Auth, time.Now())
	var reply RegisterReply
	err = a.op(ctx, func(octx context.Context) error {
		var rerr error
		reply, rerr = conn.Register(octx, req)
		return rerr
	})
	if err == nil && reply.Bits != 0 && reply.Bits != a.cfg.Bits {
		err = fmt.Errorf("merger has %d bits, node has %d", reply.Bits, a.cfg.Bits)
	}
	if err != nil {
		a.fail(fmt.Errorf("registry: register: %w", err))
		return false, ctx.Err() != nil
	}
	a.registers.Add(1)

	// Sequence numbers are session-local: the registry only requires
	// them to increase strictly within one session.
	var outSeq uint64
	push := func(f PushFrame) error {
		outSeq++
		f.Seq = outSeq
		p := Push{Name: a.cfg.Name, Session: reply.Session, Frame: f}
		start := time.Now()
		p.SignPush(a.cfg.Auth, start)
		if err := a.op(ctx, func(octx context.Context) error { return conn.Push(octx, p) }); err != nil {
			return err
		}
		a.hPushRTT.ObserveSince(start)
		a.pushes.Add(1)
		a.bytes.Add(int64(len(f.Packed)))
		if f.Resync {
			a.resyncs.Add(1)
		}
		return nil
	}

	// Open with a full resync of everything consumed so far: it both
	// satisfies the new session's resync-first requirement and delivers
	// whatever the previous session or an outage lost.
	if a.haveState {
		counts, n := a.acc.Counts()
		if err := push(PushFrame{Resync: true, Packed: varpack.Pack(counts), N: n, Trace: a.lastTrace}); err != nil {
			a.fail(fmt.Errorf("registry: resync: %w", err))
			return false, ctx.Err() != nil
		}
		clean = true
	}
	if a.srcClosed {
		return clean, true // stream over and its final state delivered
	}

	hbEvery := reply.HeartbeatEvery
	if hbEvery <= 0 {
		hbEvery = DefaultHeartbeatEvery
	}
	// Heartbeat at half the advertised cadence so one lost beat never
	// looks like a missed interval.
	hb := time.NewTicker(hbEvery / 2)
	defer hb.Stop()

	for {
		select {
		case <-ctx.Done():
			return clean, true
		case <-hb.C:
			b := Heartbeat{Name: a.cfg.Name, Session: reply.Session}
			if a.cfg.SnapshotTelemetry != nil {
				if s := a.cfg.SnapshotTelemetry(); s != nil {
					b.Telemetry = s.Pack()
				}
			}
			b.SignHeartbeat(a.cfg.Auth, time.Now())
			if err := a.op(ctx, func(octx context.Context) error { return conn.Heartbeat(octx, b) }); err != nil {
				a.fail(fmt.Errorf("registry: heartbeat: %w", err))
				return clean, ctx.Err() != nil
			}
		case d, ok := <-a.sub.C():
			if !ok {
				// Everything consumed was already pushed (in this loop or
				// by the opening resync): the campaign is over.
				a.srcClosed = true
				return clean, true
			}
			if d.Empty() {
				continue
			}
			a.consume(d)
			frame, err := frameFromDelta(d)
			if err != nil {
				a.fail(err)
				continue // unrepresentable frame; the next resync covers it
			}
			if err := push(frame); err != nil {
				a.fail(fmt.Errorf("registry: push: %w", err))
				return clean, ctx.Err() != nil
			}
			clean = true
		}
	}
}

// op runs one bounded round trip.
func (a *Announcer) op(ctx context.Context, f func(context.Context) error) error {
	octx, cancel := context.WithTimeout(ctx, a.cfg.OpTimeout)
	defer cancel()
	return f(octx)
}

// frameFromDelta converts one stream frame to the wire form: resyncs
// carry the full packed counts, deltas the gap-encoded sparse pairs.
// The representative trace rides along. The caller assigns the
// session-local sequence number.
func frameFromDelta(d stream.Delta) (PushFrame, error) {
	if d.Resync {
		return PushFrame{Resync: true, Packed: varpack.Pack(d.Counts), N: d.N, Trace: d.Trace}, nil
	}
	packed, err := varpack.PackDelta(d.Bits, d.Inc)
	if err != nil {
		return PushFrame{}, fmt.Errorf("registry: frame seq %d: %w", d.Seq, err)
	}
	return PushFrame{Packed: packed, DN: d.DN, N: d.N, Trace: d.Trace}, nil
}

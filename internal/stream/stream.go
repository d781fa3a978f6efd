// Package stream is the streaming analytics subsystem: it turns the
// exact, order-independent snapshots of the collection runtime into a
// live feed of interval deltas, and maintains continuously-updating
// calibrated estimates on top of them — incremental recalibration
// (Updater), sliding and tumbling windows (Window), and live
// heavy-hitter tracking (Tracker).
//
// The substrate is the same invariant the sharded runtime, checkpoints
// and the fleet merger are built on: ID-LDP per-bit counts are integer
// sums, so the difference between two cumulative snapshots is itself an
// exact description of everything that happened in between. A Publisher
// diffs consecutive snapshots into sparse Delta frames and fans them out
// to subscribers; because the Eq. 8 calibration is affine in (counts, n),
// a consumer can maintain estimates from those deltas in O(changed bits)
// per interval instead of recomputing O(m) state from scratch — and the
// result is not an approximation: the Updater's estimates agree bit for
// bit with estimate.Calibrate on the corresponding snapshot, which a
// built-in audit asserts periodically.
//
// Slow consumers never block the producer and never silently diverge:
// sends are non-blocking, and a subscriber that overflows its buffer is
// marked lagged and handed a full resync frame (the cumulative counts)
// as soon as its channel has room — drop-and-resync, the streaming
// analogue of the fleet's "stale data is merely old, never wrong".
package stream

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Delta is one interval frame on the stream: the sparse difference
// between two consecutive cumulative snapshots, or a full resync.
// Frames are shared between subscribers and must be treated as
// read-only.
type Delta struct {
	// Seq numbers published frames; it increases by one per frame.
	Seq uint64
	// Time is when the frame was published.
	Time time.Time

	// Bits lists the indices whose counts changed this interval and Inc
	// the per-index increments; both are nil on a pure resync frame.
	Bits []int
	Inc  []int64
	// DN is the report-count increment of the interval.
	DN int64

	// N is the cumulative report count after applying this frame —
	// always set, so consumers can cross-check that they have not missed
	// a frame without waiting for an audit.
	N int64
	// Resync marks a full-state frame: Counts/N replace the consumer's
	// accumulated state instead of incrementing it. Published to new and
	// lagged subscribers, and by the fleet when a node reset makes an
	// incremental diff unrepresentable (it would be negative).
	Resync bool
	// Audit marks a frame that additionally carries the authoritative
	// cumulative Counts so consumers can verify their accumulated state
	// bit for bit (see Updater).
	Audit bool
	// Counts is the full cumulative state, set on Resync and Audit
	// frames. Read-only, like the rest of the frame.
	Counts []int64

	// Trace is the representative trace ID of the interval: the latest
	// trace context the producer absorbed before publishing this frame
	// (see internal/telemetry). Empty when the producer saw no traced
	// ingest. Consumers propagate it on whatever they publish next, so
	// one batch's ID is followable across merger tiers.
	Trace string
}

// Empty reports whether the frame carries no change and no state —
// nothing for a consumer to do.
func (d Delta) Empty() bool {
	return !d.Resync && !d.Audit && len(d.Bits) == 0 && d.DN == 0
}

// DefaultAuditEvery is how many delta frames separate two audit frames
// when the publisher is not configured otherwise.
const DefaultAuditEvery = 64

// PubOption tunes a Publisher.
type PubOption func(*Publisher)

// WithAuditEvery makes every k-th published frame carry the full
// cumulative counts for consumer-side verification (k <= 0 disables
// audit frames; the default is DefaultAuditEvery).
func WithAuditEvery(k int) PubOption { return func(p *Publisher) { p.auditEvery = k } }

// WithResume seeds the publisher with a prior cumulative state and
// sequence number instead of the all-zero origin — the restart hook
// for producers whose consumers persist history keyed by generation
// (internal/history). The first frame any subscriber sees is then a
// resync of the resumed state at seq+1, and subsequent deltas continue
// the old numbering, so a durable log never observes its generations
// regress. counts may be nil to resume only the numbering (the merged
// fleet stream, whose state is re-seeded by its first Resync); a
// non-nil counts is copied and must match the publisher's bit length.
func WithResume(counts []int64, n int64, seq uint64) PubOption {
	return func(p *Publisher) {
		if counts != nil {
			p.resumeCounts = append([]int64(nil), counts...)
			p.resumeN = n
		}
		p.seq = seq
	}
}

// Publisher diffs consecutive cumulative snapshots into Delta frames and
// fans them out. All methods are safe for concurrent use; Publish calls
// are serialized internally, and the sequence of frames any single
// subscriber observes is consistent (deltas in order, interleaved with
// resyncs that supersede whatever preceded them).
type Publisher struct {
	bits       int
	auditEvery int

	mu        sync.Mutex
	closed    bool
	seq       uint64
	sinceA    int // frames since the last audit frame
	prev      []int64
	prevN     int64
	lastTrace string // representative trace stamped onto outbound frames
	subs      map[*Sub]struct{}

	// Resume seed (WithResume), validated and applied by NewPublisher.
	resumeCounts []int64
	resumeN      int64
}

// NewPublisher returns a publisher for m-bit cumulative snapshots,
// starting from the all-zero state.
func NewPublisher(bits int, opts ...PubOption) (*Publisher, error) {
	if bits <= 0 {
		return nil, fmt.Errorf("stream: report length %d must be positive", bits)
	}
	p := &Publisher{
		bits:       bits,
		auditEvery: DefaultAuditEvery,
		prev:       make([]int64, bits),
		subs:       make(map[*Sub]struct{}),
	}
	for _, opt := range opts {
		opt(p)
	}
	if p.resumeCounts != nil {
		if len(p.resumeCounts) != bits {
			return nil, fmt.Errorf("stream: resume state has %d counts, publisher wants %d", len(p.resumeCounts), bits)
		}
		p.prev, p.prevN = p.resumeCounts, p.resumeN
		p.resumeCounts = nil
	}
	return p, nil
}

// Bits returns the domain size m.
func (p *Publisher) Bits() int { return p.bits }

// Sub is one subscription: read frames from C, Close to unsubscribe.
type Sub struct {
	pub    *Publisher
	ch     chan Delta
	lagged bool
	closed bool
}

// C is the frame channel. It is closed when the subscription or the
// publisher is closed; a consumer that sees it closed should stop.
func (s *Sub) C() <-chan Delta { return s.ch }

// Close unsubscribes and closes the channel. Safe to call twice.
func (s *Sub) Close() {
	s.pub.mu.Lock()
	defer s.pub.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	delete(s.pub.subs, s)
	close(s.ch)
}

// Subscribe registers a consumer with the given channel buffer (values
// < 1 are raised to 1 — the buffer must hold at least the initial
// frame). The first frame delivered is a resync carrying the current
// cumulative state, so a consumer joining mid-campaign starts exact.
func (p *Publisher) Subscribe(buf int) (*Sub, error) {
	if buf < 1 {
		buf = 1
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, errors.New("stream: publisher closed")
	}
	s := &Sub{pub: p, ch: make(chan Delta, buf)}
	p.subs[s] = struct{}{}
	p.seq++
	s.ch <- p.resyncFrameLocked()
	return s, nil
}

// resyncFrameLocked builds a resync frame from the current cumulative
// state. prev is replaced wholesale on each publish, never mutated in
// place, so sharing the slice with consumers is safe.
func (p *Publisher) resyncFrameLocked() Delta {
	return Delta{Seq: p.seq, Time: time.Now(), Resync: true, Counts: p.prev, N: p.prevN, Trace: p.lastTrace}
}

// Publish diffs the cumulative snapshot (counts, n) against the previous
// one and fans the sparse delta out to subscribers. The publisher takes
// ownership of counts; callers must pass a fresh slice (Server.Snapshot
// and Registry.Counts already do). An interval with no change publishes
// nothing to healthy subscribers but still retries resyncs for lagged
// ones. A cumulative regression (counts or n going backwards) cannot be
// represented as a delta and is published as a resync instead — the
// fleet hits this when a node restarts without restoring its checkpoint.
func (p *Publisher) Publish(counts []int64, n int64) error {
	return p.PublishT(counts, n, "")
}

// PublishT is Publish carrying the producer's representative trace
// context: the latest trace ID absorbed since the previous interval
// (empty keeps the prior one — an untraced interval never erases the
// context a consumer is following). The trace rides every outbound
// frame, including resyncs.
func (p *Publisher) PublishT(counts []int64, n int64, trace string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return errors.New("stream: publisher closed")
	}
	if trace != "" {
		p.lastTrace = trace
	}
	if len(counts) != p.bits {
		return fmt.Errorf("stream: snapshot has %d counts, publisher wants %d", len(counts), p.bits)
	}
	var bits []int
	var inc []int64
	regressed := n < p.prevN
	for i, c := range counts {
		if c != p.prev[i] {
			if c < p.prev[i] {
				regressed = true
				break
			}
			bits = append(bits, i)
			inc = append(inc, c-p.prev[i])
		}
	}
	if regressed {
		p.prev, p.prevN = counts, n
		p.publishResyncLocked()
		return nil
	}
	dn := n - p.prevN
	if len(bits) == 0 && dn == 0 {
		// Nothing happened this interval; just retry lagged resyncs.
		p.serviceLaggedLocked()
		return nil
	}
	p.prev, p.prevN = counts, n
	p.seq++
	d := Delta{Seq: p.seq, Time: time.Now(), Bits: bits, Inc: inc, DN: dn, N: n, Trace: p.lastTrace}
	p.sinceA++
	if p.auditEvery > 0 && p.sinceA >= p.auditEvery {
		p.sinceA = 0
		d.Audit = true
		d.Counts = p.prev
	}
	p.fanOutLocked(d)
	return nil
}

// SetTrace records the representative trace context to stamp onto
// subsequent frames without publishing anything — producers that go
// straight to a final Resync (the server's drain path) use it so the
// last trace they absorbed still reaches consumers.
func (p *Publisher) SetTrace(trace string) {
	if trace == "" {
		return
	}
	p.mu.Lock()
	p.lastTrace = trace
	p.mu.Unlock()
}

// Resync force-publishes the full cumulative state to every subscriber,
// superseding whatever deltas they have or have missed. The publisher
// takes ownership of counts.
func (p *Publisher) Resync(counts []int64, n int64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return errors.New("stream: publisher closed")
	}
	if len(counts) != p.bits {
		return fmt.Errorf("stream: snapshot has %d counts, publisher wants %d", len(counts), p.bits)
	}
	p.prev, p.prevN = counts, n
	p.publishResyncLocked()
	return nil
}

func (p *Publisher) publishResyncLocked() {
	p.seq++
	p.sinceA = 0
	d := p.resyncFrameLocked()
	for s := range p.subs {
		select {
		case s.ch <- d:
			s.lagged = false
		default:
			s.lagged = true
		}
	}
}

// fanOutLocked delivers one delta frame: non-blocking sends, and lagged
// subscribers get a resync attempt instead of the delta (a delta applied
// on top of a gap would be wrong; a resync is always safe).
func (p *Publisher) fanOutLocked(d Delta) {
	var resync Delta
	for s := range p.subs {
		if s.lagged {
			if resync.Counts == nil {
				resync = p.resyncFrameLocked()
			}
			select {
			case s.ch <- resync:
				s.lagged = false
			default:
			}
			continue
		}
		select {
		case s.ch <- d:
		default:
			s.lagged = true
		}
	}
}

// ServiceLagged retries resync delivery for lagged subscribers without
// publishing anything new — producers call it on intervals they skip
// (nothing changed), so a subscriber that overflowed during a burst is
// healed as soon as it drains, not only at the next burst.
func (p *Publisher) ServiceLagged() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.serviceLaggedLocked()
}

// serviceLaggedLocked retries resync delivery for lagged subscribers.
func (p *Publisher) serviceLaggedLocked() {
	var resync Delta
	for s := range p.subs {
		if !s.lagged {
			continue
		}
		if resync.Counts == nil {
			resync = p.resyncFrameLocked()
		}
		select {
		case s.ch <- resync:
			s.lagged = false
		default:
		}
	}
}

// Subscribers returns the current subscriber count.
func (p *Publisher) Subscribers() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.subs)
}

// State returns the cumulative snapshot the publisher last diffed
// against (a copy) — what a new subscriber's initial resync would carry.
func (p *Publisher) State() (counts []int64, n int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]int64(nil), p.prev...), p.prevN
}

// Close closes every subscriber channel; further Publish and Subscribe
// calls error. Producers that want draining consumers to end on the
// authoritative final state publish a Resync of it first (the server
// does, after its shard drain).
func (p *Publisher) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.closed = true
	for s := range p.subs {
		s.closed = true
		close(s.ch)
	}
	p.subs = map[*Sub]struct{}{}
}

// Accumulator rebuilds the cumulative state from a frame sequence — the
// integer half of an Updater, reused by Window for its own bookkeeping
// and by consumers (the HTTP API) that calibrate through an opaque
// estimator instead of raw (a, b) parameters. Not safe for concurrent
// use; callers wrap it in their own lock.
type Accumulator struct {
	counts []int64
	n      int64
}

// NewAccumulator returns an all-zero accumulator for m bits.
func NewAccumulator(bits int) (*Accumulator, error) {
	if bits <= 0 {
		return nil, fmt.Errorf("stream: report length %d must be positive", bits)
	}
	return &Accumulator{counts: make([]int64, bits)}, nil
}

// ErrOutOfSync is returned when a frame's cumulative N (or audit counts)
// disagrees with the accumulated state — the consumer missed a frame
// without an intervening resync, or the producer is broken. The consumer
// should keep applying frames; the next resync heals it.
var ErrOutOfSync = errors.New("stream: accumulated state disagrees with frame")

// Apply folds one frame in: O(changed bits) for a delta, O(m) for a
// resync. It returns ErrOutOfSync (after applying what it can) when the
// frame's cumulative N contradicts the accumulated state.
func (a *Accumulator) Apply(d Delta) error {
	if d.Resync {
		if len(d.Counts) != len(a.counts) {
			return fmt.Errorf("stream: resync has %d counts, accumulator holds %d", len(d.Counts), len(a.counts))
		}
		copy(a.counts, d.Counts)
		a.n = d.N
		return nil
	}
	if len(d.Bits) != len(d.Inc) {
		return fmt.Errorf("stream: frame has %d bit indices for %d increments", len(d.Bits), len(d.Inc))
	}
	for j, i := range d.Bits {
		if i < 0 || i >= len(a.counts) {
			return fmt.Errorf("stream: frame touches bit %d of %d", i, len(a.counts))
		}
		a.counts[i] += d.Inc[j]
	}
	a.n += d.DN
	if a.n != d.N {
		return ErrOutOfSync
	}
	if d.Audit {
		for i, c := range d.Counts {
			if a.counts[i] != c {
				return ErrOutOfSync
			}
		}
	}
	return nil
}

// Counts returns a copy of the accumulated cumulative counts and n.
func (a *Accumulator) Counts() ([]int64, int64) {
	return append([]int64(nil), a.counts...), a.n
}

// N returns the accumulated cumulative report count.
func (a *Accumulator) N() int64 { return a.n }

// raw exposes the backing slice to sibling types (Updater, Window) that
// guard it with their own locks.
func (a *Accumulator) raw() []int64 { return a.counts }

// Package registry is the fleet control plane and the merger's one
// membership model: collector nodes announce themselves to a merger —
// register, heartbeat, push interval deltas — instead of the merger
// polling a static node list. Per-bit counts are order-independent
// integer sums, so a merger that accumulates each node's pushed
// cumulative state holds exactly what polling the same nodes would have
// fetched, while steady-state bandwidth drops from a full snapshot per
// node per interval to O(changed bits) per interval (sparse varpack
// deltas, see internal/varpack.PackDelta). A statically listed node is
// the same kind of member: internal/fleet fetches its snapshot and
// announces it here on the node's behalf (kind "poll", a full resync per
// fetch), so liveness, validation, restart detection, status, metrics
// and checkpoints exist once.
//
// The protocol is deliberately small:
//
//	Register  — node presents its name, domain size and an HMAC over
//	            both; the registry replies with a session ID and the
//	            heartbeat cadence. Re-registering replaces the session.
//	Heartbeat — keeps the session alive. A member that misses enough
//	            heartbeats is evicted: its last counts keep contributing
//	            to the merge (stale data is merely old, never wrong) but
//	            its session dies, so the node must re-register — and the
//	            first push of any new session must be a full resync.
//	Push      — one stream frame: a sparse delta of the node's
//	            cumulative counts, or a full resync. Pushes carry a
//	            per-session monotone sequence number, so a replayed or
//	            reordered frame is rejected instead of double-counted.
//
// Resync-on-register is what makes the merge exact across every failure
// mode: a node that restarts (with or without its checkpoint), a merger
// that restarts, or a connection that drops all funnel into "new
// session, full cumulative resync first", after which deltas resume.
// The Announcer (announce.go) is the node-side loop implementing that
// contract on top of a Conn (framed TCP, internal/transport).
//
// Mergers compose into tiers: a Registry exposes its merged state as a
// delta stream (Subscribe), which an Announcer can push to a higher-tier
// registry exactly as if the merger were a node. WithCheckpoint persists
// every member's cumulative state through internal/checkpoint so a
// restarted mid-tier merger resumes with the counts it had — members it
// never hears from again still contribute, and members that reconnect
// resync on top.
package registry

import (
	"bufio"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"idldp/internal/checkpoint"
	"idldp/internal/stream"
	"idldp/internal/telemetry"
	"idldp/internal/varpack"
)

// Control-plane errors. Conn implementations ship them as strings; Errs
// reconstructs the sentinel so announcers can react by kind.
var (
	// ErrAuth rejects a message whose MAC or timestamp fails verification.
	ErrAuth = errors.New("registry: authentication failed")
	// ErrBadSession rejects a message whose session is unknown, replaced
	// by a newer registration, or evicted — the sender must re-register.
	ErrBadSession = errors.New("registry: unknown or expired session")
	// ErrResyncRequired rejects a delta push on a session that has not
	// resynced yet — the first push of a session must carry full state.
	ErrResyncRequired = errors.New("registry: full resync required before deltas")
	// ErrReplay rejects a push whose sequence number does not advance.
	ErrReplay = errors.New("registry: push sequence did not advance")
)

// Errs maps a wire error string back to its sentinel (wrapped, with
// the server's diagnostic suffix preserved), so errors.Is works across
// a Conn boundary and logs keep the detail.
func Errs(msg string) error {
	for _, sentinel := range []error{ErrAuth, ErrBadSession, ErrResyncRequired, ErrReplay} {
		if strings.HasPrefix(msg, sentinel.Error()) {
			return fmt.Errorf("%w%s", sentinel, strings.TrimPrefix(msg, sentinel.Error()))
		}
	}
	return errors.New(msg)
}

// Defaults for New options.
const (
	// DefaultHeartbeatEvery is the cadence the registry advertises to
	// registering nodes.
	DefaultHeartbeatEvery = 5 * time.Second
	// DefaultMissedHeartbeats is how many heartbeat intervals may elapse
	// without any authenticated message before a member is evicted.
	DefaultMissedHeartbeats = 3
)

// RegisterRequest announces a node to the registry.
type RegisterRequest struct {
	// Name identifies the member; re-registering the same name replaces
	// its session.
	Name string
	// Bits is the node's domain size; it must match the registry's.
	Bits int
	// Kind is informational ("node", "merger", "poll", ...), shown in Status.
	Kind string
	// TimeNano and MAC are the auth envelope (see Authenticator).
	TimeNano int64
	MAC      []byte
}

// SignRegister fills the request's auth envelope.
func (r *RegisterRequest) SignRegister(a *Authenticator, now time.Time) {
	r.TimeNano = now.UnixNano()
	r.MAC = a.Sign(KindRegister, r.Name, 0, r.TimeNano, registerPayload(r.Bits, r.Kind))
}

func registerPayload(bits int, kind string) []byte {
	b := binary.AppendUvarint(nil, uint64(bits))
	return append(b, kind...)
}

// RegisterReply is the registry's answer to a successful registration.
type RegisterReply struct {
	// Session authenticates every subsequent heartbeat and push.
	Session uint64
	// HeartbeatEvery is the cadence the node must heartbeat at.
	HeartbeatEvery time.Duration
	// Bits echoes the registry's domain size.
	Bits int
}

// Heartbeat keeps a session alive. It optionally carries a packed
// telemetry snapshot (telemetry.Snapshot.Pack) so the merger can
// federate the member's metrics; the snapshot bytes ride under the MAC
// like every other payload, so a torn or tampered snapshot rejects
// wholesale instead of partially applying.
type Heartbeat struct {
	Name      string
	Session   uint64
	TimeNano  int64
	MAC       []byte
	Telemetry []byte
}

// SignHeartbeat fills the heartbeat's auth envelope, covering the
// telemetry snapshot bytes.
func (h *Heartbeat) SignHeartbeat(a *Authenticator, now time.Time) {
	h.TimeNano = now.UnixNano()
	h.MAC = a.Sign(KindHeartbeat, h.Name, h.Session, h.TimeNano, h.Telemetry)
}

// PushFrame is one node→merger stream frame: a sparse delta of the
// node's cumulative counts, or a full resync.
type PushFrame struct {
	// Seq must increase strictly within a session (replay guard). The
	// announcer uses the stream.Delta sequence, which already does.
	Seq uint64
	// Resync marks a full-state frame: Packed is then a varpack count
	// vector replacing the member's state. Otherwise Packed is a
	// varpack sparse delta (PackDelta) incrementing it.
	Resync bool
	Packed []byte
	// DN is the interval's report increment (deltas only); N the node's
	// cumulative report count after this frame (always set).
	DN int64
	N  int64
	// Trace is the representative trace ID of the interval this frame
	// summarizes (the last report batch folded into it), carried uphill
	// so a trace minted at a node is observable at the top-tier merger.
	// Empty when the sender has absorbed no traced work yet.
	Trace string
}

// macPayload canonicalizes the frame fields under the MAC. The trace is
// length-prefixed so the encoding stays injective.
func (f *PushFrame) macPayload() []byte {
	b := make([]byte, 0, len(f.Packed)+len(f.Trace)+5*binary.MaxVarintLen64+1)
	b = binary.AppendUvarint(b, f.Seq)
	if f.Resync {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = binary.AppendVarint(b, f.DN)
	b = binary.AppendVarint(b, f.N)
	b = binary.AppendUvarint(b, uint64(len(f.Trace)))
	b = append(b, f.Trace...)
	return append(b, f.Packed...)
}

// Push is one authenticated delta-push message.
type Push struct {
	Name     string
	Session  uint64
	TimeNano int64
	MAC      []byte
	Frame    PushFrame
}

// SignPush fills the push's auth envelope.
func (p *Push) SignPush(a *Authenticator, now time.Time) {
	p.TimeNano = now.UnixNano()
	p.MAC = a.Sign(KindDelta, p.Name, p.Session, p.TimeNano, p.Frame.macPayload())
}

// member is one registered (or restored) node's state.
type member struct {
	name string
	kind string

	session    uint64 // 0 = no live session (restored or never registered)
	lastSeq    uint64
	needResync bool

	counts []int64
	n      int64

	registeredAt time.Time
	lastSeen     time.Time

	registrations int64
	pushes        int64
	resyncs       int64
	resets        int64
	rejects       int64

	// lastTrace is the representative trace carried on the member's most
	// recent accepted push (empty until a traced frame arrives).
	lastTrace string

	// Bandwidth accounting: bytes actually pushed vs what full-snapshot
	// polling at the same cadence would have transferred. packedSize is
	// the current varpack.PackedSize of counts, maintained incrementally
	// (O(changed bits) per delta) so each push adds it in O(1).
	deltaBytes     int64
	pollEquivBytes int64
	packedSize     int

	dirty bool // has state not yet checkpointed
	store *checkpoint.Store
}

// Option tunes a Registry.
type Option func(*Registry)

// WithAuth requires every control-plane message to carry a valid HMAC
// for the fleet token.
func WithAuth(a *Authenticator) Option { return func(r *Registry) { r.auth = a } }

// WithHeartbeat sets the advertised heartbeat cadence and how many
// missed intervals evict a member (non-positive values keep defaults).
func WithHeartbeat(every time.Duration, missed int) Option {
	return func(r *Registry) {
		if every > 0 {
			r.heartbeatEvery = every
		}
		if missed > 0 {
			r.missed = missed
		}
	}
}

// WithCheckpoint persists every member's cumulative state under dir
// (one checkpoint store per member), every interval (<= 0 selects the
// server default) and on Close. Restore resumes from it.
func WithCheckpoint(dir string, interval time.Duration) Option {
	return func(r *Registry) {
		r.ckptDir = dir
		r.ckptInterval = interval
	}
}

// WithTelemetry registers the registry's fleet metrics — membership
// gauges, control-plane event counters, delta/poll byte accounting and
// a checkpoint-write latency histogram — on reg. All views read live
// state at scrape time; nil reg is a no-op.
func WithTelemetry(reg *telemetry.Registry) Option {
	return func(r *Registry) { r.tel = reg }
}

// Registry is the merger-side control plane. All methods are safe for
// concurrent use.
type Registry struct {
	bits           int
	auth           *Authenticator
	heartbeatEvery time.Duration
	missed         int
	ckptDir        string
	ckptInterval   time.Duration
	now            func() time.Time // test hook

	tel   *telemetry.Registry
	fed   *telemetry.Federation
	hCkpt *telemetry.Histogram
	// trace is the representative trace across all members: the trace of
	// the most recently accepted traced push, readable without r.mu.
	trace telemetry.TraceNote

	mu      sync.Mutex
	closed  bool
	members map[string]*member
	// merged is the running sum of every member's counts, maintained
	// incrementally by applyLocked — O(changed bits) per delta push, so
	// neither Counts nor the publish path ever re-sums the membership.
	merged  []int64
	mergedN int64
	pub     *stream.Publisher
	pubBad  bool // stream closed

	ckptStop chan struct{}
	ckptDone chan struct{}
	ckptOnce sync.Once
	// ckptRun serializes whole CheckpointNow invocations: the periodic
	// loop and an operator's on-demand save must not race on creating a
	// member's store or interleave duplicate frames.
	ckptRun sync.Mutex
}

// New returns a registry for m-bit domains.
func New(bits int, opts ...Option) (*Registry, error) {
	if bits <= 0 {
		return nil, fmt.Errorf("registry: report length %d must be positive", bits)
	}
	r := &Registry{
		bits:           bits,
		heartbeatEvery: DefaultHeartbeatEvery,
		missed:         DefaultMissedHeartbeats,
		now:            time.Now,
		members:        make(map[string]*member),
		merged:         make([]int64, bits),
	}
	for _, opt := range opts {
		opt(r)
	}
	ns := "idldp"
	if r.tel != nil {
		ns = r.tel.Namespace()
	}
	r.fed = telemetry.NewFederation(ns)
	if r.tel != nil {
		r.registerMetrics(r.tel)
	}
	if r.ckptDir != "" {
		if err := os.MkdirAll(r.ckptDir, 0o755); err != nil {
			return nil, fmt.Errorf("registry: %w", err)
		}
		interval := r.ckptInterval
		if interval <= 0 {
			interval = time.Minute
		}
		r.ckptStop, r.ckptDone = make(chan struct{}), make(chan struct{})
		go r.checkpointLoop(interval)
	}
	return r, nil
}

// Restore builds a registry that resumes from the member states
// checkpointed under the WithCheckpoint directory, returning how many
// members were restored. Restored members have no live session and are
// reported evicted until they re-register; their counts contribute to
// the merge immediately, so a restarted mid-tier merger answers with
// the state it had, not zeros.
func Restore(bits int, opts ...Option) (*Registry, int, error) {
	r, err := New(bits, opts...)
	if err != nil {
		return nil, 0, err
	}
	if r.ckptDir == "" {
		r.Close()
		return nil, 0, fmt.Errorf("registry: Restore requires WithCheckpoint")
	}
	entries, err := os.ReadDir(r.ckptDir)
	if err != nil {
		r.Close()
		return nil, 0, fmt.Errorf("registry: %w", err)
	}
	restored := 0
	for _, e := range entries {
		if !e.IsDir() || !strings.HasPrefix(e.Name(), memberDirPrefix) {
			continue
		}
		nameBytes, err := hex.DecodeString(strings.TrimPrefix(e.Name(), memberDirPrefix))
		if err != nil {
			continue // foreign directory
		}
		snap, ok, err := checkpoint.Latest(filepath.Join(r.ckptDir, e.Name()))
		if err != nil || !ok {
			continue // no valid frame; the member will resync when it returns
		}
		if snap.Bits != bits {
			r.Close()
			return nil, 0, fmt.Errorf("registry: member %q checkpoint has %d bits, registry has %d",
				string(nameBytes), snap.Bits, bits)
		}
		r.members[string(nameBytes)] = &member{
			name:       string(nameBytes),
			counts:     snap.Counts,
			n:          snap.N,
			needResync: true,
			packedSize: varpack.PackedSize(snap.Counts),
		}
		for i, c := range snap.Counts {
			r.merged[i] += c
		}
		r.mergedN += snap.N
		restored++
	}
	return r, restored, nil
}

const memberDirPrefix = "member-"

// registerMetrics exposes the fleet view on tel. Gauges and counters
// are scrape-time closures over the live membership — the registry
// keeps exactly one copy of each statistic.
func (r *Registry) registerMetrics(tel *telemetry.Registry) {
	r.hCkpt = tel.Histogram("fleet_checkpoint_write", "Latency of one registry checkpoint pass over all dirty members.")
	sum := func(pick func(*member) int64) func() int64 {
		return func() int64 {
			r.mu.Lock()
			defer r.mu.Unlock()
			var t int64
			for _, m := range r.members {
				t += pick(m)
			}
			return t
		}
	}
	tel.GaugeFunc("fleet_members", "Members known to the registry (live or evicted).", func() float64 {
		r.mu.Lock()
		defer r.mu.Unlock()
		return float64(len(r.members))
	})
	tel.GaugeFunc("fleet_members_live", "Members holding a live, unevicted session.", func() float64 {
		now := r.now()
		r.mu.Lock()
		defer r.mu.Unlock()
		live := 0
		for _, m := range r.members {
			if !r.evictedLocked(m, now) {
				live++
			}
		}
		return float64(live)
	})
	tel.GaugeFunc("fleet_merged_reports", "Merged cumulative report count across all members.", func() float64 {
		r.mu.Lock()
		defer r.mu.Unlock()
		return float64(r.mergedN)
	})
	tel.CounterFunc("fleet_registrations", "Accepted member registrations.", sum(func(m *member) int64 { return m.registrations }))
	tel.CounterFunc("fleet_pushes", "Accepted delta/resync pushes.", sum(func(m *member) int64 { return m.pushes }))
	tel.CounterFunc("fleet_resyncs", "Accepted full-state resync frames.", sum(func(m *member) int64 { return m.resyncs }))
	tel.CounterFunc("fleet_rejects", "Rejected control-plane messages (bad session, replay, malformed frame).", sum(func(m *member) int64 { return m.rejects }))
	tel.CounterFunc("fleet_delta_bytes", "Payload bytes actually pushed by members.", sum(func(m *member) int64 { return m.deltaBytes }))
	tel.CounterFunc("fleet_poll_equiv_bytes", "Payload bytes full-snapshot polling would have transferred.", sum(func(m *member) int64 { return m.pollEquivBytes }))
}

// Federation returns the fold of member telemetry snapshots carried on
// heartbeats. Compose it into the merger's /metrics handler with
// telemetry.HandlerFor to expose fleet-wide series.
func (r *Registry) Federation() *telemetry.Federation { return r.fed }

// WriteProm renders per-member liveness as exposition text —
// <ns>_fleet_member_up{node,tier} (1 while the session is live, 0 once
// evicted or never registered) and
// <ns>_fleet_member_heartbeat_age_seconds — so member staleness is
// scrapeable, not just visible in /v1/fleet JSON. Registry implements
// telemetry.PromWriter; mount it alongside the process registry and
// the Federation via telemetry.HandlerFor.
func (r *Registry) WriteProm(w io.Writer) error {
	if r == nil {
		return nil
	}
	ns := "idldp"
	if r.tel != nil {
		ns = r.tel.Namespace()
	}
	type row struct {
		node, kind string
		up         int
		age        float64
	}
	now := r.now()
	r.mu.Lock()
	rows := make([]row, 0, len(r.members))
	for name, m := range r.members {
		up := 0
		if !r.evictedLocked(m, now) {
			up = 1
		}
		age := math.Inf(1) // never heartbeated (restored member)
		if !m.lastSeen.IsZero() {
			age = now.Sub(m.lastSeen).Seconds()
		}
		rows = append(rows, row{node: name, kind: m.kind, up: up, age: age})
	}
	r.mu.Unlock()
	sort.Slice(rows, func(i, j int) bool { return rows[i].node < rows[j].node })

	bw := bufio.NewWriter(w)
	upName := ns + "_fleet_member_up"
	fmt.Fprintf(bw, "# HELP %s 1 while the member holds a live, unevicted session.\n", upName)
	fmt.Fprintf(bw, "# TYPE %s gauge\n", upName)
	for _, x := range rows {
		fmt.Fprintf(bw, "%s{node=\"%s\",tier=\"%s\"} %d\n", upName,
			telemetry.EscapeLabelValue(x.node), telemetry.EscapeLabelValue(x.kind), x.up)
	}
	ageName := ns + "_fleet_member_heartbeat_age_seconds"
	fmt.Fprintf(bw, "# HELP %s seconds since the member's last accepted heartbeat or push (+Inf before the first).\n", ageName)
	fmt.Fprintf(bw, "# TYPE %s gauge\n", ageName)
	for _, x := range rows {
		v := "+Inf"
		if !math.IsInf(x.age, 1) {
			v = strconv.FormatFloat(x.age, 'g', -1, 64)
		}
		fmt.Fprintf(bw, "%s{node=\"%s\",tier=\"%s\"} %s\n", ageName,
			telemetry.EscapeLabelValue(x.node), telemetry.EscapeLabelValue(x.kind), v)
	}
	return bw.Flush()
}

// LastTrace returns the representative trace ID of the most recently
// accepted traced push, or "" if none arrived yet. This is the top-tier
// observability hook: a trace minted at a leaf node surfaces here after
// riding ingest → fold → delta push → (tiers of) merge.
func (r *Registry) LastTrace() string { return r.trace.Last() }

// Bits returns the domain size m.
func (r *Registry) Bits() int { return r.bits }

// evictAfter is the liveness window: missed heartbeats × cadence.
func (r *Registry) evictAfter() time.Duration {
	return time.Duration(r.missed) * r.heartbeatEvery
}

// evictedLocked reports whether m's session has lapsed.
func (r *Registry) evictedLocked(m *member, now time.Time) bool {
	return m.session == 0 || now.Sub(m.lastSeen) > r.evictAfter()
}

// newSession draws a random non-zero session ID.
func newSession() uint64 {
	var b [8]byte
	for {
		if _, err := rand.Read(b[:]); err != nil {
			panic("registry: " + err.Error()) // kernel RNG never fails
		}
		if s := binary.LittleEndian.Uint64(b[:]); s != 0 {
			return s
		}
	}
}

// Register admits (or re-admits) a node. The new session invalidates
// any previous one for the same name, and the first push of the new
// session must be a full resync.
func (r *Registry) Register(req RegisterRequest) (RegisterReply, error) {
	if req.Name == "" {
		return RegisterReply{}, fmt.Errorf("registry: empty member name")
	}
	now := r.now()
	if err := r.auth.Verify(req.MAC, KindRegister, req.Name, 0, req.TimeNano,
		registerPayload(req.Bits, req.Kind), now); err != nil {
		return RegisterReply{}, err
	}
	if req.Bits != r.bits {
		return RegisterReply{}, fmt.Errorf("registry: member has %d bits, registry has %d", req.Bits, r.bits)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return RegisterReply{}, fmt.Errorf("registry: closed")
	}
	m := r.members[req.Name]
	if m == nil {
		counts := make([]int64, r.bits)
		m = &member{name: req.Name, counts: counts, packedSize: varpack.PackedSize(counts)}
		r.members[req.Name] = m
	}
	m.kind = req.Kind
	m.session = newSession()
	m.lastSeq = 0
	m.needResync = true
	m.registeredAt = now
	m.lastSeen = now
	m.registrations++
	return RegisterReply{Session: m.session, HeartbeatEvery: r.heartbeatEvery, Bits: r.bits}, nil
}

// authMember verifies hb-style credentials and returns the live member.
func (r *Registry) authMemberLocked(name string, session uint64, now time.Time) (*member, error) {
	m := r.members[name]
	if m == nil {
		return nil, fmt.Errorf("%w: unknown member %q", ErrBadSession, name)
	}
	if m.session != session || r.evictedLocked(m, now) {
		m.rejects++
		return nil, fmt.Errorf("%w: member %q must re-register", ErrBadSession, name)
	}
	return m, nil
}

// HandleHeartbeat refreshes a session's liveness and folds any
// attached telemetry snapshot into the federation.
func (r *Registry) HandleHeartbeat(hb Heartbeat) error {
	now := r.now()
	if err := r.auth.Verify(hb.MAC, KindHeartbeat, hb.Name, hb.Session, hb.TimeNano, hb.Telemetry, now); err != nil {
		return err
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return fmt.Errorf("registry: closed")
	}
	m, err := r.authMemberLocked(hb.Name, hb.Session, now)
	if err != nil {
		r.mu.Unlock()
		return err
	}
	m.lastSeen = now
	kind := m.kind
	if len(hb.Telemetry) == 0 {
		r.mu.Unlock()
		return nil
	}
	snap, err := telemetry.UnpackSnapshot(hb.Telemetry)
	if err != nil {
		// The heartbeat itself was authentic, so liveness stands; a
		// malformed snapshot (version skew) is counted, not fatal.
		m.rejects++
		r.mu.Unlock()
		return nil
	}
	r.mu.Unlock()
	// Federation has its own lock; fold outside r.mu so a slow merge
	// never stalls the control plane.
	r.fed.Update(hb.Name, kind, hb.TimeNano, snap)
	return nil
}

// Push applies one stream frame to the sender's cumulative state and
// publishes the new merged state to Subscribe-rs. The whole frame is
// validated before any state changes, so a rejected push leaves the
// member exactly as it was.
func (r *Registry) Push(p Push) error {
	now := r.now()
	if err := r.auth.Verify(p.MAC, KindDelta, p.Name, p.Session, p.TimeNano, p.Frame.macPayload(), now); err != nil {
		return err
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return fmt.Errorf("registry: closed")
	}
	m, err := r.authMemberLocked(p.Name, p.Session, now)
	if err != nil {
		r.mu.Unlock()
		return err
	}
	if err := r.applyLocked(m, &p.Frame); err != nil {
		m.rejects++
		r.mu.Unlock()
		return err
	}
	m.lastSeen = now
	m.lastSeq = p.Frame.Seq
	m.pushes++
	m.dirty = true
	m.deltaBytes += int64(len(p.Frame.Packed))
	m.pollEquivBytes += int64(m.packedSize)
	if p.Frame.Trace != "" {
		m.lastTrace = p.Frame.Trace
	}
	if r.pub != nil {
		// Published under r.mu so frames leave in state order; the
		// publisher handles a regression (a member resyncing lower after a
		// checkpointless restart) by emitting a resync frame itself. The
		// pushed trace rides the republished frame so it keeps climbing
		// tiers.
		merged, n := r.mergedLocked()
		_ = r.pub.PublishT(merged, n, p.Frame.Trace)
	}
	r.mu.Unlock()
	r.trace.Note(p.Frame.Trace)
	return nil
}

// applyLocked folds one validated frame into m.
func (r *Registry) applyLocked(m *member, f *PushFrame) error {
	if f.Seq <= m.lastSeq {
		return fmt.Errorf("%w: seq %d after %d", ErrReplay, f.Seq, m.lastSeq)
	}
	if f.Resync {
		counts, err := varpack.Unpack(f.Packed)
		if err != nil {
			return fmt.Errorf("registry: resync payload: %w", err)
		}
		if len(counts) != r.bits {
			return fmt.Errorf("registry: resync has %d counts for %d bits", len(counts), r.bits)
		}
		if f.N < 0 {
			return fmt.Errorf("registry: negative resync n %d", f.N)
		}
		for i, c := range counts {
			if c < 0 || c > f.N {
				return fmt.Errorf("registry: resync bit %d count %d outside [0,%d]", i, c, f.N)
			}
		}
		for i, c := range counts {
			r.merged[i] += c - m.counts[i]
		}
		r.mergedN += f.N - m.n
		if f.N < m.n {
			m.resets++
		}
		copy(m.counts, counts)
		m.n = f.N
		m.packedSize = varpack.PackedSize(m.counts) // O(m), but resyncs are rare
		m.needResync = false
		m.resyncs++
		return nil
	}
	if m.needResync {
		return ErrResyncRequired
	}
	bits, inc, err := varpack.UnpackDelta(f.Packed)
	if err != nil {
		return fmt.Errorf("registry: delta payload: %w", err)
	}
	if f.N != m.n+f.DN {
		return fmt.Errorf("registry: delta n %d does not extend member n %d by %d", f.N, m.n, f.DN)
	}
	for j, i := range bits {
		if i >= r.bits {
			return fmt.Errorf("registry: delta touches bit %d of %d", i, r.bits)
		}
		if inc[j] < 0 {
			return fmt.Errorf("registry: negative delta increment %d at bit %d", inc[j], i)
		}
	}
	for j, i := range bits {
		old := m.counts[i]
		m.counts[i] = old + inc[j]
		m.packedSize += varpack.ValueSize(old+inc[j]) - varpack.ValueSize(old)
		r.merged[i] += inc[j]
	}
	m.n = f.N
	r.mergedN += f.DN
	return nil
}

// mergedLocked copies the running merged state (the publisher takes
// ownership of what it is handed, so a fresh slice is required anyway).
func (r *Registry) mergedLocked() (counts []int64, n int64) {
	return append([]int64(nil), r.merged...), r.mergedN
}

// Counts returns the merged per-member cumulative counts and user
// total — exactly what polling the same nodes would have summed.
func (r *Registry) Counts() (counts []int64, n int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.mergedLocked()
}

// Subscribe registers a consumer of the merged delta stream: every
// accepted push publishes one frame. The first frame delivered is a
// resync with the current merged state. This is also the upstream hook:
// an Announcer fed from here pushes this merger's state to a
// higher-tier registry, tier by tier.
func (r *Registry) Subscribe(buf int) (*stream.Sub, error) {
	r.mu.Lock()
	if r.closed || r.pubBad {
		r.mu.Unlock()
		return nil, fmt.Errorf("registry: closed")
	}
	if r.pub == nil {
		pub, err := stream.NewPublisher(r.bits)
		if err != nil {
			r.mu.Unlock()
			return nil, fmt.Errorf("registry: %w", err)
		}
		counts, n := r.mergedLocked()
		r.pub = pub
		_ = pub.Resync(counts, n)
	}
	pub := r.pub
	r.mu.Unlock()
	sub, err := pub.Subscribe(buf)
	if err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	return sub, nil
}

// VerifySnapshot authenticates a snapshot read: callers serving the
// merged state to pollers gate it on the same fleet token.
func (r *Registry) VerifySnapshot(node string, ts int64, mac []byte) error {
	return r.auth.Verify(mac, KindSnapshot, node, 0, ts, nil, r.now())
}

// MemberStatus is one member's liveness and bandwidth view.
type MemberStatus struct {
	// Name and Kind echo the registration.
	Name, Kind string
	// N is the member's cumulative report count.
	N int64
	// Registered is true while the member holds a live session.
	Registered bool
	// Evicted is true when the member has missed enough heartbeats (or
	// was restored from a checkpoint and has not re-registered). Its
	// counts still contribute to the merge.
	Evicted bool
	// NeedResync is true until the session's first full-state push.
	NeedResync bool
	// LastSeen is the last authenticated message's arrival time.
	LastSeen time.Time
	// Registrations, Pushes, Resyncs, Rejects count control-plane events.
	Registrations, Pushes, Resyncs, Rejects int64
	// Resets counts resyncs that lowered N: the member restarted without
	// its checkpoint, and the merged counts went backwards with it.
	Resets int64
	// DeltaBytes is what the member actually pushed; PollEquivBytes what
	// full-snapshot polling at the same cadence would have transferred.
	DeltaBytes, PollEquivBytes int64
	// LastTrace is the representative trace on the member's most recent
	// accepted push ("" until one arrives).
	LastTrace string
}

// Status returns the per-member view, sorted by name.
func (r *Registry) Status() []MemberStatus {
	now := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]MemberStatus, 0, len(r.members))
	for _, m := range r.members {
		out = append(out, MemberStatus{
			Name:           m.name,
			Kind:           m.kind,
			N:              m.n,
			Registered:     m.session != 0,
			Evicted:        r.evictedLocked(m, now),
			NeedResync:     m.needResync,
			LastSeen:       m.lastSeen,
			Registrations:  m.registrations,
			Pushes:         m.pushes,
			Resyncs:        m.resyncs,
			Rejects:        m.rejects,
			Resets:         m.resets,
			DeltaBytes:     m.deltaBytes,
			PollEquivBytes: m.pollEquivBytes,
			LastTrace:      m.lastTrace,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// checkpointLoop drives the periodic member-state saves.
func (r *Registry) checkpointLoop(interval time.Duration) {
	defer close(r.ckptDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			_ = r.CheckpointNow()
		case <-r.ckptStop:
			return
		}
	}
}

// CheckpointNow persists every member whose state changed since its
// last save. Failures are joined but do not stop other members' saves.
// Invocations are serialized (the periodic loop and on-demand calls
// never interleave).
func (r *Registry) CheckpointNow() error {
	if r.ckptDir == "" {
		return fmt.Errorf("registry: no checkpoint directory configured")
	}
	r.ckptRun.Lock()
	defer r.ckptRun.Unlock()
	if r.hCkpt != nil {
		defer r.hCkpt.ObserveSince(time.Now())
	}
	r.mu.Lock()
	type save struct {
		m      *member
		store  *checkpoint.Store
		counts []int64
		n      int64
	}
	var pending []save
	for _, m := range r.members {
		if !m.dirty {
			continue
		}
		m.dirty = false
		pending = append(pending, save{m: m, store: m.store, counts: append([]int64(nil), m.counts...), n: m.n})
	}
	r.mu.Unlock()
	var errs []error
	for _, s := range pending {
		st := s.store
		if st == nil {
			var err error
			st, err = checkpoint.NewStore(filepath.Join(r.ckptDir, memberDirPrefix+hex.EncodeToString([]byte(s.m.name))), 0)
			if err != nil {
				errs = append(errs, err)
				r.mu.Lock()
				s.m.dirty = true // retry at the next tick
				r.mu.Unlock()
				continue
			}
			r.mu.Lock()
			s.m.store = st
			r.mu.Unlock()
		}
		if _, err := st.Save(s.counts, s.n); err != nil {
			errs = append(errs, err)
			r.mu.Lock()
			s.m.dirty = true
			r.mu.Unlock()
		}
	}
	return errors.Join(errs...)
}

// Close stops the checkpoint loop, writes a final checkpoint, and
// closes the merged delta stream.
func (r *Registry) Close() error {
	if r.ckptStop != nil {
		r.ckptOnce.Do(func() {
			close(r.ckptStop)
			<-r.ckptDone
		})
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	pub := r.pub
	r.pubBad = true
	r.mu.Unlock()
	if pub != nil {
		pub.Close()
	}
	if r.ckptDir != "" {
		return r.CheckpointNow()
	}
	return nil
}

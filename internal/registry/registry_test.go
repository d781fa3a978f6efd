package registry

import (
	"errors"
	"sync"
	"testing"
	"time"

	"idldp/internal/varpack"
)

// clock is a controllable time source for eviction tests.
type clock struct {
	mu sync.Mutex
	t  time.Time
}

func newClock() *clock { return &clock{t: time.Unix(1_700_000_000, 0)} }

func (c *clock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *clock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func mustAuth(t *testing.T, token string) *Authenticator {
	t.Helper()
	a, err := NewAuthenticator(token)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// register is the signed-register helper all tests share.
func register(t *testing.T, r *Registry, a *Authenticator, name string, now time.Time) RegisterReply {
	t.Helper()
	req := RegisterRequest{Name: name, Bits: r.Bits(), Kind: "node"}
	req.SignRegister(a, now)
	reply, err := r.Register(req)
	if err != nil {
		t.Fatalf("register %s: %v", name, err)
	}
	return reply
}

// pushResync ships a signed full-state frame.
func pushResync(t *testing.T, r *Registry, a *Authenticator, name string, session, seq uint64,
	counts []int64, n int64, now time.Time) error {
	t.Helper()
	p := Push{Name: name, Session: session,
		Frame: PushFrame{Seq: seq, Resync: true, Packed: varpack.Pack(counts), N: n}}
	p.SignPush(a, now)
	return r.Push(p)
}

// pushDelta ships a signed sparse-delta frame.
func pushDelta(t *testing.T, r *Registry, a *Authenticator, name string, session, seq uint64,
	bits []int, inc []int64, dn, n int64, now time.Time) error {
	t.Helper()
	packed, err := varpack.PackDelta(bits, inc)
	if err != nil {
		t.Fatal(err)
	}
	p := Push{Name: name, Session: session, Frame: PushFrame{Seq: seq, Packed: packed, DN: dn, N: n}}
	p.SignPush(a, now)
	return r.Push(p)
}

func TestRegisterPushMerge(t *testing.T) {
	auth := mustAuth(t, "sekrit")
	r, err := New(4, WithAuth(auth))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	now := time.Now()

	ra := register(t, r, auth, "a", now)
	rb := register(t, r, auth, "b", now)
	if ra.Session == 0 || rb.Session == 0 || ra.Session == rb.Session {
		t.Fatalf("bad sessions: %d %d", ra.Session, rb.Session)
	}

	if err := pushResync(t, r, auth, "a", ra.Session, 1, []int64{1, 0, 2, 0}, 3, now); err != nil {
		t.Fatal(err)
	}
	if err := pushResync(t, r, auth, "b", rb.Session, 1, []int64{0, 4, 0, 1}, 5, now); err != nil {
		t.Fatal(err)
	}
	if err := pushDelta(t, r, auth, "a", ra.Session, 2, []int{0, 3}, []int64{2, 2}, 4, 7, now); err != nil {
		t.Fatal(err)
	}
	counts, n := r.Counts()
	want := []int64{3, 4, 2, 3}
	if n != 12 {
		t.Fatalf("merged n = %d, want 12", n)
	}
	for i, c := range want {
		if counts[i] != c {
			t.Fatalf("merged counts = %v, want %v", counts, want)
		}
	}
}

func TestAuthRejection(t *testing.T) {
	auth := mustAuth(t, "sekrit")
	wrong := mustAuth(t, "not-the-token")
	r, err := New(4, WithAuth(auth))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	now := time.Now()

	// Missing MAC.
	if _, err := r.Register(RegisterRequest{Name: "x", Bits: 4, TimeNano: now.UnixNano()}); !errors.Is(err, ErrAuth) {
		t.Fatalf("unsigned register: %v", err)
	}
	// Wrong token.
	req := RegisterRequest{Name: "x", Bits: 4}
	req.SignRegister(wrong, now)
	if _, err := r.Register(req); !errors.Is(err, ErrAuth) {
		t.Fatalf("wrong-token register: %v", err)
	}
	// Stale timestamp.
	req = RegisterRequest{Name: "x", Bits: 4}
	req.SignRegister(auth, now.Add(-MaxClockSkew-time.Minute))
	if _, err := r.Register(req); !errors.Is(err, ErrAuth) {
		t.Fatalf("stale register: %v", err)
	}
	// MAC must cover the payload: tamper with bits after signing.
	req = RegisterRequest{Name: "x", Bits: 4}
	req.SignRegister(auth, now)
	req.Kind = "merger"
	if _, err := r.Register(req); !errors.Is(err, ErrAuth) {
		t.Fatalf("tampered register: %v", err)
	}

	// A real session, then unauthenticated traffic on it.
	reply := register(t, r, auth, "x", now)
	hb := Heartbeat{Name: "x", Session: reply.Session, TimeNano: now.UnixNano()}
	if err := r.HandleHeartbeat(hb); !errors.Is(err, ErrAuth) {
		t.Fatalf("unsigned heartbeat: %v", err)
	}
	p := Push{Name: "x", Session: reply.Session, TimeNano: now.UnixNano(),
		Frame: PushFrame{Seq: 1, Resync: true, Packed: varpack.Pack(make([]int64, 4))}}
	if err := r.Push(p); !errors.Is(err, ErrAuth) {
		t.Fatalf("unsigned push: %v", err)
	}
	// Tampering with a signed push's counts must break the MAC.
	p = Push{Name: "x", Session: reply.Session,
		Frame: PushFrame{Seq: 1, Resync: true, Packed: varpack.Pack([]int64{1, 1, 1, 1}), N: 4}}
	p.SignPush(auth, now)
	p.Frame.N = 400
	if err := r.Push(p); !errors.Is(err, ErrAuth) {
		t.Fatalf("tampered push: %v", err)
	}
	if _, n := r.Counts(); n != 0 {
		t.Fatalf("rejected traffic changed state: n=%d", n)
	}
}

func TestDeltaBeforeResyncRejected(t *testing.T) {
	auth := mustAuth(t, "k")
	r, err := New(2, WithAuth(auth))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	now := time.Now()
	reply := register(t, r, auth, "a", now)
	if err := pushDelta(t, r, auth, "a", reply.Session, 1, []int{0}, []int64{1}, 1, 1, now); !errors.Is(err, ErrResyncRequired) {
		t.Fatalf("delta before resync: %v", err)
	}
	// After the resync, deltas flow.
	if err := pushResync(t, r, auth, "a", reply.Session, 2, []int64{0, 0}, 0, now); err != nil {
		t.Fatal(err)
	}
	if err := pushDelta(t, r, auth, "a", reply.Session, 3, []int{0}, []int64{1}, 1, 1, now); err != nil {
		t.Fatal(err)
	}
}

func TestReplayAndStaleSessionRejected(t *testing.T) {
	auth := mustAuth(t, "k")
	r, err := New(2, WithAuth(auth))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	now := time.Now()
	first := register(t, r, auth, "a", now)
	if err := pushResync(t, r, auth, "a", first.Session, 5, []int64{1, 1}, 2, now); err != nil {
		t.Fatal(err)
	}
	// Same seq again: replay.
	if err := pushResync(t, r, auth, "a", first.Session, 5, []int64{1, 1}, 2, now); !errors.Is(err, ErrReplay) {
		t.Fatalf("replayed push: %v", err)
	}
	// Re-register invalidates the old session...
	second := register(t, r, auth, "a", now)
	if err := pushResync(t, r, auth, "a", first.Session, 6, []int64{9, 9}, 18, now); !errors.Is(err, ErrBadSession) {
		t.Fatalf("old-session push: %v", err)
	}
	// ...and resets the seq horizon for the new one.
	if err := pushResync(t, r, auth, "a", second.Session, 1, []int64{2, 2}, 4, now); err != nil {
		t.Fatal(err)
	}
	if _, n := r.Counts(); n != 4 {
		t.Fatalf("n = %d, want the re-registered resync's 4", n)
	}
}

func TestEvictionAndReRegisterResync(t *testing.T) {
	auth := mustAuth(t, "k")
	clk := newClock()
	r, err := New(2, WithAuth(auth), WithHeartbeat(time.Second, 3))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.now = clk.now

	reply := register(t, r, auth, "a", clk.now())
	if err := pushResync(t, r, auth, "a", reply.Session, 1, []int64{3, 4}, 7, clk.now()); err != nil {
		t.Fatal(err)
	}
	// Heartbeats keep it alive across the window.
	clk.advance(2 * time.Second)
	hb := Heartbeat{Name: "a", Session: reply.Session}
	hb.SignHeartbeat(auth, clk.now())
	if err := r.HandleHeartbeat(hb); err != nil {
		t.Fatal(err)
	}
	if st := r.Status()[0]; st.Evicted {
		t.Fatal("heartbeating member reported evicted")
	}

	// Miss 3 heartbeat intervals: evicted, session dead — but the counts
	// keep contributing (stale data is merely old, never wrong).
	clk.advance(4 * time.Second)
	st := r.Status()[0]
	if !st.Evicted || !st.Registered {
		t.Fatalf("after missed heartbeats: %+v", st)
	}
	if _, n := r.Counts(); n != 7 {
		t.Fatalf("evicted member's counts dropped: n=%d", n)
	}
	hb = Heartbeat{Name: "a", Session: reply.Session}
	hb.SignHeartbeat(auth, clk.now())
	if err := r.HandleHeartbeat(hb); !errors.Is(err, ErrBadSession) {
		t.Fatalf("evicted heartbeat: %v", err)
	}
	if err := pushDelta(t, r, auth, "a", reply.Session, 2, []int{0}, []int64{1}, 1, 8, clk.now()); !errors.Is(err, ErrBadSession) {
		t.Fatalf("evicted push: %v", err)
	}

	// Re-register: new session must resync first, then the merge reflects
	// the node's authoritative cumulative state.
	again := register(t, r, auth, "a", clk.now())
	if again.Session == reply.Session {
		t.Fatal("re-register reused the dead session")
	}
	if err := pushDelta(t, r, auth, "a", again.Session, 1, []int{0}, []int64{1}, 1, 8, clk.now()); !errors.Is(err, ErrResyncRequired) {
		t.Fatalf("delta on fresh session: %v", err)
	}
	if err := pushResync(t, r, auth, "a", again.Session, 1, []int64{4, 4}, 8, clk.now()); err != nil {
		t.Fatal(err)
	}
	st = r.Status()[0]
	if st.Evicted || st.NeedResync || st.N != 8 || st.Registrations != 2 {
		t.Fatalf("after re-register resync: %+v", st)
	}
}

func TestCheckpointRestoreExact(t *testing.T) {
	auth := mustAuth(t, "k")
	dir := t.TempDir()
	r, err := New(3, WithAuth(auth), WithCheckpoint(dir, time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	ra := register(t, r, auth, "node-a", now)
	rb := register(t, r, auth, "node-b", now)
	if err := pushResync(t, r, auth, "node-a", ra.Session, 1, []int64{5, 0, 2}, 7, now); err != nil {
		t.Fatal(err)
	}
	if err := pushResync(t, r, auth, "node-b", rb.Session, 1, []int64{1, 1, 1}, 3, now); err != nil {
		t.Fatal(err)
	}
	wantCounts, wantN := r.Counts()
	if err := r.Close(); err != nil { // final checkpoint
		t.Fatal(err)
	}

	restored, nMembers, err := Restore(3, WithAuth(auth), WithCheckpoint(dir, time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if nMembers != 2 {
		t.Fatalf("restored %d members, want 2", nMembers)
	}
	gotCounts, gotN := restored.Counts()
	if gotN != wantN {
		t.Fatalf("restored n = %d, want %d", gotN, wantN)
	}
	for i := range wantCounts {
		if gotCounts[i] != wantCounts[i] {
			t.Fatalf("restored counts = %v, want %v", gotCounts, wantCounts)
		}
	}
	// Restored members are evicted-until-re-register and must resync.
	for _, st := range restored.Status() {
		if !st.Evicted || !st.NeedResync || st.Registered {
			t.Fatalf("restored member: %+v", st)
		}
	}
	// A returning node re-registers and resyncs on top of restored state.
	again := register(t, restored, auth, "node-a", time.Now())
	if err := pushResync(t, restored, auth, "node-a", again.Session, 1, []int64{6, 0, 2}, 8, time.Now()); err != nil {
		t.Fatal(err)
	}
	if _, n := restored.Counts(); n != 11 {
		t.Fatalf("post-restore merge n = %d, want 11", n)
	}
}

func TestSubscribePublishesMergedDeltas(t *testing.T) {
	auth := mustAuth(t, "k")
	r, err := New(2, WithAuth(auth))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	now := time.Now()
	reply := register(t, r, auth, "a", now)
	if err := pushResync(t, r, auth, "a", reply.Session, 1, []int64{1, 0}, 1, now); err != nil {
		t.Fatal(err)
	}
	sub, err := r.Subscribe(8)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	first := <-sub.C()
	if !first.Resync || first.N != 1 {
		t.Fatalf("initial frame: %+v", first)
	}
	if err := pushDelta(t, r, auth, "a", reply.Session, 2, []int{1}, []int64{3}, 3, 4, now); err != nil {
		t.Fatal(err)
	}
	d := <-sub.C()
	if d.Resync || d.N != 4 || d.DN != 3 {
		t.Fatalf("merged delta: %+v", d)
	}
}

func TestOpenFleetWithoutAuth(t *testing.T) {
	r, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	reply, err := r.Register(RegisterRequest{Name: "a", Bits: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := pushResync(t, r, nil, "a", reply.Session, 1, []int64{1, 1}, 2, time.Now()); err != nil {
		t.Fatal(err)
	}
	if _, n := r.Counts(); n != 2 {
		t.Fatalf("n = %d, want 2", n)
	}
}

func TestBitsMismatchRejected(t *testing.T) {
	auth := mustAuth(t, "k")
	r, err := New(4, WithAuth(auth))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	req := RegisterRequest{Name: "a", Bits: 8}
	req.SignRegister(auth, time.Now())
	if _, err := r.Register(req); err == nil {
		t.Fatal("bits mismatch accepted")
	}
}

// TestTraceTamperRejected: the trace ID is MAC-covered on push frames —
// an attacker who flips the trace on a validly signed frame (to forge
// attribution or poison the propagated trace) must be rejected, and a
// frame signed WITH a trace must not verify with the trace stripped.
func TestTraceTamperRejected(t *testing.T) {
	auth := mustAuth(t, "k")
	r, err := New(2, WithAuth(auth))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	now := time.Now()
	reply := register(t, r, auth, "a", now)

	p := Push{Name: "a", Session: reply.Session,
		Frame: PushFrame{Seq: 1, Resync: true, Packed: varpack.Pack([]int64{1, 1}), N: 2, Trace: "aaaaaaaaaaaaaaaa"}}
	p.SignPush(auth, now)
	tampered := p
	tampered.Frame.Trace = "bbbbbbbbbbbbbbbb"
	if err := r.Push(tampered); !errors.Is(err, ErrAuth) {
		t.Fatalf("tampered trace accepted: %v", err)
	}
	stripped := p
	stripped.Frame.Trace = ""
	if err := r.Push(stripped); !errors.Is(err, ErrAuth) {
		t.Fatalf("stripped trace accepted: %v", err)
	}
	if err := r.Push(p); err != nil {
		t.Fatalf("untampered frame rejected: %v", err)
	}
	if got := r.Status()[0].LastTrace; got != "aaaaaaaaaaaaaaaa" {
		t.Fatalf("member last trace = %q", got)
	}
}

// TestResetsCountResyncsThatLowerN: a resync that lowers a member's
// cumulative n means the member restarted without its checkpoint — for a
// pushed and a polled member alike. Growing or equal resyncs, rejected
// frames and re-registrations are not resets.
func TestResetsCountResyncsThatLowerN(t *testing.T) {
	r, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	now := time.Now()
	s := register(t, r, nil, "a", now).Session
	for seq, n := range []int64{5, 5, 9, 2, 3} {
		if err := pushResync(t, r, nil, "a", s, uint64(seq+1), []int64{n, 0}, n, now); err != nil {
			t.Fatal(err)
		}
	}
	if err := pushResync(t, r, nil, "a", s, 9, []int64{4, 0}, 1, now); err == nil {
		t.Fatal("count above n accepted")
	}
	s = register(t, r, nil, "a", now).Session
	if err := pushResync(t, r, nil, "a", s, 1, []int64{3, 0}, 3, now); err != nil {
		t.Fatal(err)
	}
	if st := r.Status()[0]; st.Resets != 1 || st.Resyncs != 6 || st.N != 3 {
		t.Fatalf("status %+v, want exactly the 9 -> 2 resync counted as a reset", st)
	}
}

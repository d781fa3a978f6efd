package fleet

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"idldp/internal/agg"
	"idldp/internal/bitvec"
	"idldp/internal/budget"
	"idldp/internal/core"
	"idldp/internal/registry"
	"idldp/internal/rng"
	"idldp/internal/server"
	"idldp/internal/stream"
	"idldp/internal/telemetry"
	"idldp/internal/transport"
	"idldp/internal/varpack"
)

// newFleet builds an open-fleet registry for bits (plus opts) and a
// poller over nodes feeding it.
func newFleet(t *testing.T, bits int, nodes []*node, opts ...registry.Option) (*Fleet, *registry.Registry) {
	t.Helper()
	reg, err := registry.New(bits, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg.Close() })
	return pollerOf(t, reg, nil, 0, nodes), reg
}

// pollerOf is New over ready-made nodes: real ones from mustParse,
// scripted ones from static, script or a literal.
func pollerOf(t *testing.T, reg *registry.Registry, auth *registry.Authenticator, startSeq uint64, nodes []*node) *Fleet {
	t.Helper()
	f, err := New(reg, auth, nil, startSeq, nil)
	if err != nil {
		t.Fatal(err)
	}
	f.nodes = nodes
	return f
}

func mustParse(t *testing.T, spec string) *node {
	t.Helper()
	nd, err := parse(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	return nd
}

// member returns the registry's status row for name.
func member(t *testing.T, reg *registry.Registry, name string) registry.MemberStatus {
	t.Helper()
	for _, m := range reg.Status() {
		if m.Name == name {
			return m
		}
	}
	t.Fatalf("no member %q in %+v", name, reg.Status())
	return registry.MemberStatus{}
}

// pushResync registers name on reg as a push member and delivers one
// full-state frame, as a node's announcer would.
func pushResync(t *testing.T, reg *registry.Registry, name string, counts []int64, n int64) {
	t.Helper()
	grant, err := reg.Register(registry.RegisterRequest{Name: name, Bits: reg.Bits(), Kind: "node"})
	if err != nil {
		t.Fatal(err)
	}
	err = reg.Push(registry.Push{Name: name, Session: grant.Session,
		Frame: registry.PushFrame{Seq: 1, Resync: true, Packed: varpack.Pack(counts), N: n}})
	if err != nil {
		t.Fatal(err)
	}
}

// startNodes brings up nodeCount framed TCP collector nodes.
func startNodes(t *testing.T, e *core.Engine, nodeCount int) []*node {
	t.Helper()
	sources := make([]*node, nodeCount)
	for i := range sources {
		srv, err := transport.Serve("127.0.0.1:0", e.M(), server.WithShards(2))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		sources[i] = mustParse(t, srv.Addr())
	}
	return sources
}

// sendTo ships one report to a node.
func sendTo(t *testing.T, nd *node, v *bitvec.Vector) {
	t.Helper()
	c, err := transport.Dial(context.Background(), strings.TrimPrefix(nd.name, "tcp://"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.SendReport(v); err != nil {
		t.Fatal(err)
	}
	// The snapshot request flushes the connection batcher, so the report
	// is visible before the connection closes.
	if _, _, _, err := c.Snapshot(); err != nil {
		t.Fatal(err)
	}
}

// TestFleetMergeEquivalence is the multi-node half of the exactness
// guarantee: reports partitioned across 2 and 4 polled nodes plus one
// push-registered member must merge to
// per-bit counts — and therefore estimates — bit-for-bit identical to
// one collector that ingested every report.
func TestFleetMergeEquivalence(t *testing.T) {
	e, err := core.New(core.Config{Budgets: budget.ToyExample(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	const n = 600
	// Pre-generate the campaign so every topology sees identical reports.
	reports := make([]*bitvec.Vector, n)
	r := rng.New(42)
	ur := rng.New(0)
	for u := range reports {
		r.SplitNInto(u, ur)
		reports[u] = e.PerturbItem(u%e.M(), ur)
	}
	single := agg.New(e.M())
	for _, v := range reports {
		single.Add(v)
	}
	wantCounts := single.Counts()
	wantEst, err := e.EstimateSingle(wantCounts, int(single.N()))
	if err != nil {
		t.Fatal(err)
	}

	for _, nodeCount := range []int{2, 4} {
		t.Run(fmt.Sprintf("nodes=%d", nodeCount), func(t *testing.T) {
			sources := startNodes(t, e, nodeCount)
			pushed := agg.New(e.M())
			for u, v := range reports {
				if k := u % (nodeCount + 1); k < nodeCount {
					sendTo(t, sources[k], v)
				} else {
					pushed.Add(v)
				}
			}
			f, reg := newFleet(t, e.M(), sources)
			pushResync(t, reg, "pusher", pushed.Counts(), pushed.N())
			if err := f.Poll(context.Background()); err != nil {
				t.Fatal(err)
			}
			gotCounts, gotN := reg.Counts()
			if gotN != n {
				t.Fatalf("merged n = %d, want %d", gotN, n)
			}
			for i := range wantCounts {
				if gotCounts[i] != wantCounts[i] {
					t.Fatalf("bit %d: merged %d, single-collector %d", i, gotCounts[i], wantCounts[i])
				}
			}
			gotEst, err := e.EstimateSingle(gotCounts, int(gotN))
			if err != nil {
				t.Fatal(err)
			}
			for i := range wantEst {
				if gotEst[i] != wantEst[i] {
					t.Fatalf("estimate %d: merged %v, single-collector %v", i, gotEst[i], wantEst[i])
				}
			}
			sts := reg.Status()
			if len(sts) != nodeCount+1 {
				t.Fatalf("%d members, want %d polled + 1 pushed", len(sts), nodeCount)
			}
			for _, st := range sts {
				if st.Evicted || st.Rejects != 0 || st.Resets != 0 || (st.Kind == Kind) == (st.Name == "pusher") {
					t.Fatalf("healthy member reported unhealthy: %+v", st)
				}
			}
		})
	}
}

// scripted is a node whose fetches are answered by fetch.
func scripted(name string, fetch func() ([]int64, int64, error)) *node {
	return &node{name: name, fetch: func(context.Context, int) ([]int64, int64, error) { return fetch() }}
}

// static serves one fixed snapshot.
func static(name string, counts []int64, n int64) *node {
	return scripted(name, func() ([]int64, int64, error) { return counts, n, nil })
}

// script replays a sequence of snapshots, then repeats the last one.
func script(name string, counts [][]int64, ns []int64) *node {
	calls := 0
	return scripted(name, func() ([]int64, int64, error) {
		i := min(calls, len(ns)-1)
		calls++
		return counts[i], ns[i], nil
	})
}

// TestLivenessTracking: a node that never answers is a loud poll error
// and never becomes a member; a live node keeps contributing, goes
// Evicted once it is unreachable for the heartbeat window — its counts
// still merged, its failures quiet and counted — and rejoins under a new
// session when it answers again.
func TestLivenessTracking(t *testing.T) {
	down := false
	live := scripted("live", func() ([]int64, int64, error) {
		if down {
			return nil, 0, &net.OpError{Op: "dial", Err: fmt.Errorf("connection refused")}
		}
		return []int64{1, 2, 3, 4}, 4, nil
	})
	dead := scripted("dead-node", func() ([]int64, int64, error) { return nil, 0, fmt.Errorf("down") })
	reg, err := registry.New(4, registry.WithHeartbeat(20*time.Millisecond, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	tel := telemetry.NewRegistry("idldp")
	f, err := New(reg, nil, nil, 0, tel)
	if err != nil {
		t.Fatal(err)
	}
	f.nodes = []*node{live, dead}
	ctx := context.Background()
	if err := f.Poll(ctx); err == nil || !strings.Contains(err.Error(), "dead-node") {
		t.Fatalf("poll with a dead node: err = %v", err)
	}
	if counts, n := reg.Counts(); n != 4 || counts[3] != 4 {
		t.Fatalf("live node's snapshot lost: counts=%v n=%d", counts, n)
	}
	if sts := reg.Status(); len(sts) != 1 || sts[0].Name != "live" || sts[0].Kind != Kind || sts[0].Evicted {
		t.Fatalf("members after one poll: %+v", sts)
	}

	down = true
	if err := f.Poll(ctx); err == nil || strings.Contains(err.Error(), "live") {
		t.Fatalf("transient failure of a seen node surfaced (or the dead node went quiet): %v", err)
	}
	time.Sleep(40 * time.Millisecond)
	if st := member(t, reg, "live"); !st.Evicted || st.N != 4 {
		t.Fatalf("unreachable node after the heartbeat window: %+v", st)
	}
	if _, n := reg.Counts(); n != 4 {
		t.Fatalf("evicted member's counts dropped: n=%d", n)
	}

	down = false
	_ = f.Poll(ctx)
	if st := member(t, reg, "live"); st.Evicted || st.Registrations != 2 || st.Resets != 0 {
		t.Fatalf("node back after eviction: %+v", st)
	}
	var prom bytes.Buffer
	if err := tel.WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	// Three rounds of the dead node plus one of the live node while down.
	if !strings.Contains(prom.String(), "idldp_poll_failures_total 4\n") {
		t.Fatalf("failed fetches not counted:\n%s", prom.String())
	}
}

// TestResetDetection: a node whose cumulative count regresses is flagged
// and its authoritative state adopted.
func TestResetDetection(t *testing.T) {
	f, reg := newFleet(t, 1, []*node{script("flip", [][]int64{{5}, {2}}, []int64{5, 2})})
	for i := 0; i < 2; i++ {
		if err := f.Poll(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if st := member(t, reg, "flip"); st.Resets != 1 {
		t.Fatalf("Resets = %d, want 1", st.Resets)
	}
	if _, n := reg.Counts(); n != 2 {
		t.Fatalf("merged n = %d, want the node's authoritative 2", n)
	}
}

// TestBitsMismatchRejected: a node with the wrong domain is an error —
// on every poll, not just the first — and never pollutes the merge,
// whether the fetcher or the registry catches it.
func TestBitsMismatchRejected(t *testing.T) {
	srv, err := transport.Serve("127.0.0.1:0", 3)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, nd := range []*node{
		static("short", []int64{1, 1, 1}, 1),
		mustParse(t, srv.Addr()),
	} {
		f, reg := newFleet(t, 4, []*node{nd})
		for i := 0; i < 2; i++ {
			if err := f.Poll(context.Background()); err == nil {
				t.Fatalf("%s: bits mismatch accepted", nd.name)
			}
		}
		if _, n := reg.Counts(); n != 0 {
			t.Fatalf("%s: mismatched snapshot merged: n=%d", nd.name, n)
		}
	}
}

// TestHostileTCPNode: whatever answers on a node's port cannot crash or
// balloon the merger. Packed or plain counts past the fleet's domain, a
// reply for another domain and an endless stream are all failed
// fetches, none allocating more than polling a genuine node of the
// fleet's domain does, and the good member is untouched.
func TestHostileTCPNode(t *testing.T) {
	const m, huge = 4, 8 << 20
	// Replies spelled out in the wire layout of internal/transport: the
	// preamble, a FrameSnapshot (kind 4), the presence bits of its Bits,
	// Counts, N and Packed fields, then those present, in that order.
	const hasBits, hasCounts, hasN, hasPacked = 1 << 1, 1 << 2, 1 << 3, 1 << 5
	frame := func(has uint64, fields ...[]byte) []byte {
		b := binary.AppendUvarint([]byte("IDF\x01\x04"), has)
		return append(b, bytes.Join(fields, nil)...)
	}
	varint := func(v int64) []byte { return binary.AppendVarint(nil, v) }
	prefixed := func(n int, body []byte) []byte { return append(binary.AppendUvarint(nil, uint64(n)), body...) }
	packed := func(n int) []byte { p := varpack.Pack(make([]int64, n)); return prefixed(len(p), p) }
	replies := map[string][]byte{
		"packed counts > m": frame(hasBits|hasN|hasPacked, varint(m), varint(1), packed(huge)),
		"packed header > m": frame(hasBits|hasN|hasPacked, varint(m), varint(1), packed(5*m)),
		"counts > m":        frame(hasBits|hasCounts|hasN, varint(m), prefixed(huge, make([]byte, huge)), varint(1)),
		"bits mismatch":     frame(hasBits|hasN|hasPacked, varint(m+1), varint(1), packed(m+1)),
		// A packed length within the package cap, then bytes without end.
		"endless": frame(hasBits|hasN|hasPacked, varint(m), varint(1), binary.AppendUvarint(nil, 64<<20)),
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	var reply atomic.Pointer[string]
	endless := make([]byte, 32<<10)
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			name := *reply.Load()
			go func() {
				defer conn.Close()
				_, err := conn.Write(replies[name])
				for name == "endless" && err == nil {
					_, err = conn.Write(endless)
				}
				_, _ = io.Copy(io.Discard, conn) // the request, until the poller hangs up
			}()
		}
	}()
	allocated := func(f *Fleet) (uint64, error) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := f.Poll(context.Background())
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, err
	}
	genuine, err := transport.Serve("127.0.0.1:0", m)
	if err != nil {
		t.Fatal(err)
	}
	defer genuine.Close()
	poller, _ := newFleet(t, m, []*node{mustParse(t, genuine.Addr())})
	budget, err := allocated(poller)
	if err != nil {
		t.Fatal(err)
	}

	hostile := mustParse(t, lis.Addr().String())
	f, reg := newFleet(t, m, []*node{hostile, static("good", []int64{1, 0, 1, 0}, 2)})
	for name := range replies {
		reply.Store(&name)
		grew, err := allocated(f)
		if err == nil || !strings.Contains(err.Error(), hostile.name) {
			t.Fatalf("%s: poll error = %v", name, err)
		}
		if grew > budget {
			t.Errorf("%s: the poll allocated %d bytes, a genuine %d-bit node's %d", name, grew, m, budget)
		}
	}
	if sts := reg.Status(); len(sts) != 1 || sts[0].Name != "good" || sts[0].N != 2 || sts[0].Pushes != int64(len(replies)) {
		t.Fatalf("merger state after hostile replies: %+v", sts)
	}
}

func TestParseSource(t *testing.T) {
	cases := []struct {
		spec string
		want string
		ok   bool
	}{
		{"http://10.0.0.7:8080/", "", false},
		{"https://node.example", "", false},
		{"tcp://10.0.0.7:7070", "tcp://10.0.0.7:7070", true},
		{"10.0.0.7:7070", "tcp://10.0.0.7:7070", true},
		{"gopher://x", "", false},
		{"", "", false},
	}
	for _, c := range cases {
		nd, err := parse(c.spec, nil)
		if c.ok != (err == nil) {
			t.Errorf("parse(%q) err = %v, want ok=%v", c.spec, err, c.ok)
			continue
		}
		if err == nil && (nd.name != c.want || nd.fetch == nil) {
			t.Errorf("parse(%q) = %+v, want name %q and a fetcher", c.spec, nd, c.want)
		}
	}
}

// TestNewValidation: New refuses a spec list it cannot parse (specs are
// trimmed first) and needs no specs at all.
func TestNewValidation(t *testing.T) {
	reg, err := registry.New(4)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	for _, specs := range [][]string{{"127.0.0.1:7070", "gopher://x"}, {"http://h:1"}, {""}} {
		if _, err := New(reg, nil, specs, 0, nil); err == nil {
			t.Fatalf("specs %q accepted", specs)
		}
	}
	f, err := New(reg, nil, []string{" 127.0.0.1:7070", "tcp://h:1 "}, 0, nil)
	if err != nil || len(f.nodes) != 2 || f.nodes[0].name != "tcp://127.0.0.1:7070" || f.nodes[1].name != "tcp://h:1" {
		t.Fatalf("New over two specs: %+v, %v", f, err)
	}
	if _, err := New(reg, nil, nil, 0, nil); err != nil {
		t.Fatalf("registry-only fleet refused: %v", err)
	}
}

// TestStreamResyncOnNodeReset: a node restarting mid-campaign without
// its checkpoint makes the merged counts regress; the stream must carry
// that as a full resync frame, never as a negative delta, and a
// subscriber's accumulated state must end exactly on the merged counts.
func TestStreamResyncOnNodeReset(t *testing.T) {
	steady := script("steady", [][]int64{{4, 1, 0}, {6, 2, 1}, {7, 2, 1}}, []int64{5, 9, 10})
	// Restarts after the first poll: cumulative state falls back to near
	// zero, then grows again — by less than steady grew, so no merged
	// count regresses on the second poll and only Resets tells.
	restarter := script("restarter", [][]int64{{10, 5, 5}, {9, 5, 5}, {11, 6, 5}}, []int64{20, 19, 22})
	f, reg := newFleet(t, 3, []*node{steady, restarter})
	sub, err := f.Subscribe(16)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if err := f.Poll(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if st := member(t, reg, "restarter"); st.Resets != 1 {
		t.Fatalf("restarter resets = %d, want 1", st.Resets)
	}
	f.Close()

	acc, err := stream.NewAccumulator(3)
	if err != nil {
		t.Fatal(err)
	}
	var frames []stream.Delta
	for d := range sub.C() {
		frames = append(frames, d)
		if err := acc.Apply(d); err != nil {
			t.Fatalf("apply frame %+v: %v", d, err)
		}
		// The regression interval must never surface as a negative delta.
		for j, inc := range d.Inc {
			if inc < 0 || d.DN < 0 {
				t.Fatalf("negative increment %d on bit %d (dn %d): %+v", inc, d.Bits[j], d.DN, d)
			}
		}
	}
	// initial resync, first-poll delta, reset resync, recovery delta.
	if len(frames) != 4 {
		t.Fatalf("got %d frames: %+v", len(frames), frames)
	}
	if !frames[2].Resync || frames[1].Resync || frames[3].Resync {
		t.Fatalf("want only the reset poll (and the initial frame) published as a resync: %+v", frames)
	}
	wantCounts, wantN := reg.Counts()
	gotCounts, gotN := acc.Counts()
	if gotN != wantN {
		t.Fatalf("subscriber n = %d, merged %d", gotN, wantN)
	}
	for i := range wantCounts {
		if gotCounts[i] != wantCounts[i] {
			t.Fatalf("subscriber counts[%d] = %d, merged %d", i, gotCounts[i], wantCounts[i])
		}
	}
}

// TestSubscribeMidCampaignSeedsState: the first frame a late subscriber
// sees is a resync with the already-merged state, not zeros, and the
// stream numbers its frames after the start sequence.
func TestSubscribeMidCampaignSeedsState(t *testing.T) {
	reg, err := registry.New(2)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	f := pollerOf(t, reg, nil, 40, []*node{static("static", []int64{3, 4}, 7)})
	if f.Ready() {
		t.Fatal("ready before the first poll")
	}
	if err := f.Poll(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !f.Ready() {
		t.Fatal("not ready after a poll")
	}
	sub, err := f.Subscribe(4)
	if err != nil {
		t.Fatal(err)
	}
	d := <-sub.C()
	if !d.Resync || d.N != 7 || d.Counts[1] != 4 || d.Seq <= 40 {
		t.Fatalf("initial frame %+v, want resync of the merged state past seq 40", d)
	}
	f.Close()
	if _, err := f.Subscribe(1); err == nil {
		t.Fatal("Subscribe after Close should fail")
	}
}

// TestMidRestartNodeGoesStaleNotError: a real node that has answered
// before and then refuses connections (mid-restart) must not surface a
// poll error, and its last snapshot keeps contributing. A node that has
// never answered stays a loud error.
func TestMidRestartNodeGoesStaleNotError(t *testing.T) {
	srv, err := transport.Serve("127.0.0.1:0", 4, server.WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	src := mustParse(t, srv.Addr())
	v := bitvec.New(4)
	v.Set(1)
	sendTo(t, src, v)

	f, reg := newFleet(t, 4, []*node{src})
	if err := f.Poll(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Kill the node: the next poll's dial is refused — a transient
	// condition, not a poll error.
	srv.Close()
	if err := f.Poll(context.Background()); err != nil {
		t.Fatalf("mid-restart dial error surfaced from Poll: %v", err)
	}
	if st := member(t, reg, src.name); st.Pushes != 1 || st.N != 1 {
		t.Fatalf("mid-restart node status: %+v", st)
	}
	if counts, n := reg.Counts(); n != 1 || counts[1] != 1 {
		t.Fatalf("stale snapshot lost: counts=%v n=%d", counts, n)
	}

	dead, _ := newFleet(t, 4, []*node{mustParse(t, srv.Addr())})
	if err := dead.Poll(context.Background()); err == nil {
		t.Fatal("never-seen dead node reported no poll error")
	}
}

// TestRegistryBackedMembership: on an authenticated registry polled and
// push-registered members merge and report liveness side by side, the
// merged stream advances once per poll rather than once per push, and a
// fleet with no sources is just that tick.
func TestRegistryBackedMembership(t *testing.T) {
	auth, err := registry.NewAuthenticator("fleet-token")
	if err != nil {
		t.Fatal(err)
	}
	reg, err := registry.New(2, registry.WithAuth(auth))
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	polled := []*node{static("polled", []int64{1, 0}, 1)}
	if pollerOf(t, reg, nil, 0, polled).Poll(context.Background()) == nil {
		t.Fatal("unsigned poller merged into an authenticated registry")
	}
	f := pollerOf(t, reg, auth, 0, polled)
	sub, err := f.Subscribe(8)
	if err != nil {
		t.Fatal(err)
	}
	<-sub.C() // initial resync

	req := registry.RegisterRequest{Name: "pusher", Bits: 2, Kind: "node"}
	req.SignRegister(auth, time.Now())
	grant, err := reg.Register(req)
	if err != nil {
		t.Fatal(err)
	}
	trace := telemetry.NewTraceID()
	for seq, c := range []int64{2, 4, 5} {
		p := registry.Push{Name: "pusher", Session: grant.Session, Frame: registry.PushFrame{
			Seq: uint64(seq + 1), Resync: true, Packed: varpack.Pack([]int64{0, c}), N: c, Trace: trace}}
		p.SignPush(auth, time.Now())
		if err := reg.Push(p); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case d := <-sub.C():
		t.Fatalf("a push published %+v ahead of the tick", d)
	default:
	}
	if err := f.Poll(context.Background()); err != nil {
		t.Fatal(err)
	}
	if d := <-sub.C(); d.Resync || d.N != 6 || d.Trace != trace || len(sub.C()) != 0 {
		t.Fatalf("tick frame %+v (%d more queued), want one delta to n=6 carrying the pushed trace", d, len(sub.C()))
	}

	counts, n := reg.Counts()
	if n != 6 || counts[0] != 1 || counts[1] != 5 {
		t.Fatalf("mixed merge: counts=%v n=%d", counts, n)
	}
	if p, q := member(t, reg, "polled"), member(t, reg, "pusher"); p.Kind != Kind || p.N != 1 || p.Evicted ||
		q.Kind != "node" || q.N != 5 || q.Evicted {
		t.Fatalf("member status: %+v %+v", p, q)
	}

	// Registry-only fleets need no sources at all.
	only, err := New(reg, auth, nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := only.Poll(context.Background()); err != nil || !only.Ready() {
		t.Fatalf("registry-only tick: err=%v ready=%v", err, only.Ready())
	}
}

// TestRestoredMergerServesPolledMembers: a merger restarted on its
// checkpoint directory serves its polled members' counts — marked
// evicted — before the first poll of the new process lands; the poll
// then re-registers them on top, resyncing to the node's current state.
func TestRestoredMergerServesPolledMembers(t *testing.T) {
	ckpt := registry.WithCheckpoint(t.TempDir(), time.Hour)
	first, reg := newFleet(t, 2, []*node{static("node", []int64{3, 4}, 7)}, ckpt)
	if err := first.Poll(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := reg.Close(); err != nil { // final checkpoint
		t.Fatal(err)
	}

	reg2, restored, err := registry.Restore(2, ckpt)
	if err != nil || restored != 1 {
		t.Fatalf("restore: %d members, err %v", restored, err)
	}
	defer reg2.Close()
	f := pollerOf(t, reg2, nil, 0, []*node{static("node", []int64{5, 4}, 9)})
	sub, err := f.Subscribe(4)
	if err != nil {
		t.Fatal(err)
	}
	if d := <-sub.C(); !d.Resync || d.N != 7 || d.Counts[0] != 3 {
		t.Fatalf("first frame of the restarted merger %+v, want the restored state", d)
	}
	if st := member(t, reg2, "node"); !st.Evicted || st.N != 7 {
		t.Fatalf("restored member before the first poll: %+v", st)
	}
	if err := f.Poll(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := member(t, reg2, "node"); st.Evicted || st.N != 9 || st.Kind != Kind || st.Resets != 0 {
		t.Fatalf("restored member after the first poll: %+v", st)
	}
	if d := <-sub.C(); d.Resync || d.DN != 2 {
		t.Fatalf("first poll published %+v, want a delta of 2 reports", d)
	}
}

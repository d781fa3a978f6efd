package transport

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"idldp/internal/agg"
	"idldp/internal/bitvec"
	"idldp/internal/registry"
	"idldp/internal/rng"
	"idldp/internal/server"
	"idldp/internal/varpack"
)

func testAuth(t *testing.T, token string) *registry.Authenticator {
	t.Helper()
	a, err := registry.NewAuthenticator(token)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// startRegistry serves reg on an ephemeral port.
func startRegistry(t *testing.T, reg *registry.Registry) *RegistryServer {
	t.Helper()
	rs, err := ServeRegistry("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rs.Close() })
	return rs
}

func TestRegistryAnnounceOverTCP(t *testing.T) {
	auth := testAuth(t, "fleet-token")
	reg, err := registry.New(8, registry.WithAuth(auth), registry.WithHeartbeat(50*time.Millisecond, 3))
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	rs := startRegistry(t, reg)

	// A streaming node whose deltas the announcer pushes.
	sink, err := server.New(8, server.WithShards(2), server.WithStream(10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	a, err := registry.Announce(registry.AnnounceConfig{
		Name: "node-0", Bits: 8, Kind: "node", Auth: auth,
		Dial: func(ctx context.Context) (registry.Conn, error) {
			return DialRegistry(ctx, rs.Addr())
		},
		Subscribe: sink.Subscribe,
		Backoff:   5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	b := sink.NewBatcher()
	r := rng.New(1)
	v := bitvec.New(8)
	ref := agg.New(8)
	for u := 0; u < 5000; u++ {
		v.Zero()
		v.Set(int(r.IntN(8)))
		ref.Add(v)
		if err := b.Add(v); err != nil {
			t.Fatal(err)
		}
		if u%1000 == 999 {
			// Let the stream tick so the announcer ships real interval
			// deltas, not one final resync.
			if err := b.Flush(); err != nil {
				t.Fatal(err)
			}
			time.Sleep(15 * time.Millisecond)
		}
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil { // final resync, announcer finishes
		t.Fatal(err)
	}
	select {
	case <-a.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("announcer did not drain after sink close")
	}
	a.Close()

	counts, n := reg.Counts()
	if n != ref.N() {
		t.Fatalf("registry n = %d, want %d", n, ref.N())
	}
	for i, c := range ref.Counts() {
		if counts[i] != c {
			t.Fatalf("registry counts = %v, want %v", counts, ref.Counts())
		}
	}
	st := reg.Status()[0]
	if st.Pushes < 3 || st.Resyncs == 0 {
		t.Fatalf("member status: %+v", st)
	}
	// Bandwidth accounting is maintained per member. (The ≥4x delta-push
	// vs polling claim is asserted deterministically at m=1024 in
	// internal/varpack's TestDeltaPushCheaperThanPolling — on this tiny
	// 8-bit domain the two are comparable by construction.)
	if st.DeltaBytes <= 0 || st.PollEquivBytes <= 0 {
		t.Fatalf("bandwidth accounting missing: %+v", st)
	}
}

func TestRegisterAuthRejectionOverTCP(t *testing.T) {
	auth := testAuth(t, "fleet-token")
	wrong := testAuth(t, "wrong-token")
	reg, err := registry.New(4, registry.WithAuth(auth))
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	rs := startRegistry(t, reg)

	conn, err := DialRegistry(context.Background(), rs.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ctx := context.Background()

	// Unsigned register.
	if _, err := conn.Register(ctx, registry.RegisterRequest{Name: "x", Bits: 4, TimeNano: time.Now().UnixNano()}); !errors.Is(err, registry.ErrAuth) {
		t.Fatalf("unsigned register: %v", err)
	}
	// Wrong-token register.
	req := registry.RegisterRequest{Name: "x", Bits: 4}
	req.SignRegister(wrong, time.Now())
	if _, err := conn.Register(ctx, req); !errors.Is(err, registry.ErrAuth) {
		t.Fatalf("wrong-token register: %v", err)
	}
	// Properly signed register succeeds; then a wrong-token push on the
	// real session is refused.
	req = registry.RegisterRequest{Name: "x", Bits: 4}
	req.SignRegister(auth, time.Now())
	grant, err := conn.Register(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	p := registry.Push{Name: "x", Session: grant.Session,
		Frame: registry.PushFrame{Seq: 1, Resync: true, Packed: packCounts(t, []int64{1, 1, 1, 1}), N: 4}}
	p.SignPush(wrong, time.Now())
	if err := conn.Push(ctx, p); !errors.Is(err, registry.ErrAuth) {
		t.Fatalf("wrong-token push: %v", err)
	}
	// Heartbeat with a bogus session is a session error, not accepted.
	hb := registry.Heartbeat{Name: "x", Session: grant.Session + 1}
	hb.SignHeartbeat(auth, time.Now())
	if err := conn.Heartbeat(ctx, hb); !errors.Is(err, registry.ErrBadSession) {
		t.Fatalf("bogus-session heartbeat: %v", err)
	}
	if _, n := reg.Counts(); n != 0 {
		t.Fatalf("rejected traffic mutated the registry: n=%d", n)
	}
}

func TestSnapshotAuthOnIngestServer(t *testing.T) {
	auth := testAuth(t, "fleet-token")
	sink, err := server.New(4)
	if err != nil {
		t.Fatal(err)
	}
	s, err := ServeSink("127.0.0.1:0", sink, WithSnapshotAuth(auth))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Plain client: ingest works, snapshot is refused.
	c, err := Dial(context.Background(), s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	v := bitvec.New(4)
	v.Set(2)
	if err := c.SendReport(v); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := c.Snapshot(); !errors.Is(err, registry.ErrAuth) {
		t.Fatalf("unauthenticated snapshot: %v", err)
	}
	// Wrong token: still refused. The connection survives refusals.
	c.SetAuth(testAuth(t, "wrong"))
	if _, _, _, err := c.Snapshot(); !errors.Is(err, registry.ErrAuth) {
		t.Fatalf("wrong-token snapshot: %v", err)
	}
	// Right token: the read works and includes this connection's report.
	c.SetAuth(auth)
	counts, n, bits, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if bits != 4 || n != 1 || counts[2] != 1 {
		t.Fatalf("snapshot = %v n=%d bits=%d", counts, n, bits)
	}
}

// TestMergerSnapshotPollable: a registry listener answers the same
// snapshot frames as a node, so higher tiers can mix push and poll.
func TestMergerSnapshotPollable(t *testing.T) {
	auth := testAuth(t, "fleet-token")
	reg, err := registry.New(4, registry.WithAuth(auth))
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	rs := startRegistry(t, reg)

	req := registry.RegisterRequest{Name: "a", Bits: 4}
	req.SignRegister(auth, time.Now())
	grant, err := reg.Register(req)
	if err != nil {
		t.Fatal(err)
	}
	p := registry.Push{Name: "a", Session: grant.Session,
		Frame: registry.PushFrame{Seq: 1, Resync: true, Packed: packCounts(t, []int64{0, 3, 0, 1}), N: 4}}
	p.SignPush(auth, time.Now())
	if err := reg.Push(p); err != nil {
		t.Fatal(err)
	}

	c, err := Dial(context.Background(), rs.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, _, err := c.Snapshot(); !errors.Is(err, registry.ErrAuth) {
		t.Fatalf("unauthenticated merger snapshot: %v", err)
	}
	c.SetAuth(auth)
	counts, n, bits, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if bits != 4 || n != 4 || counts[1] != 3 || counts[3] != 1 {
		t.Fatalf("merger snapshot = %v n=%d bits=%d", counts, n, bits)
	}
}

// TestTwoTierBitEquivalence is the acceptance test: four nodes ingesting
// concurrently, announcing to two mid-tier mergers, which announce to a
// top-tier merger — the top tier's final counts must be bit-for-bit what
// one flat collector ingesting every report would hold.
func TestTwoTierBitEquivalence(t *testing.T) {
	const (
		bits     = 16
		nodes    = 4
		usersPer = 3000
	)
	auth := testAuth(t, "fleet-token")

	top, err := registry.New(bits, registry.WithAuth(auth))
	if err != nil {
		t.Fatal(err)
	}
	defer top.Close()
	topSrv := startRegistry(t, top)

	ref := agg.New(bits)
	var refMu sync.Mutex

	var mids []*registry.Registry
	var upstreams []*registry.Announcer
	var nodeAnns []*registry.Announcer
	var sinks []*server.Server
	for m := 0; m < 2; m++ {
		mid, err := registry.New(bits, registry.WithAuth(auth))
		if err != nil {
			t.Fatal(err)
		}
		defer mid.Close()
		mids = append(mids, mid)
		midSrv := startRegistry(t, mid)
		up, err := registry.Announce(registry.AnnounceConfig{
			Name: midSrv.Addr(), Bits: bits, Kind: "merger", Auth: auth,
			Dial: func(ctx context.Context) (registry.Conn, error) {
				return DialRegistry(ctx, topSrv.Addr())
			},
			Subscribe: mid.Subscribe,
			Backoff:   5 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		upstreams = append(upstreams, up)

		for k := 0; k < nodes/2; k++ {
			sink, err := server.New(bits, server.WithShards(2), server.WithStream(5*time.Millisecond))
			if err != nil {
				t.Fatal(err)
			}
			sinks = append(sinks, sink)
			ann, err := registry.Announce(registry.AnnounceConfig{
				Name: midSrv.Addr() + "/" + string(rune('a'+k)), Bits: bits, Kind: "node", Auth: auth,
				Dial: func(ctx context.Context) (registry.Conn, error) {
					return DialRegistry(ctx, midSrv.Addr())
				},
				Subscribe: sink.Subscribe,
				Backoff:   5 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			nodeAnns = append(nodeAnns, ann)
		}
	}

	// Concurrent ingest into every node while deltas stream upward.
	var wg sync.WaitGroup
	for i, sink := range sinks {
		wg.Add(1)
		go func(i int, sink *server.Server) {
			defer wg.Done()
			b := sink.NewBatcher()
			r := rng.New(uint64(100 + i))
			v := bitvec.New(bits)
			local := agg.New(bits)
			for u := 0; u < usersPer; u++ {
				v.Zero()
				v.Set(int(r.IntN(bits)))
				if r.Bernoulli(0.3) {
					v.Set(int(r.IntN(bits)))
				}
				local.Add(v)
				if err := b.Add(v); err != nil {
					t.Error(err)
					return
				}
			}
			if err := b.Flush(); err != nil {
				t.Error(err)
				return
			}
			refMu.Lock()
			if err := ref.Merge(local); err != nil {
				t.Error(err)
			}
			refMu.Unlock()
		}(i, sink)
	}
	wg.Wait()

	// Drain the pipeline tier by tier: closing each node publishes its
	// final resync, which its announcer pushes before finishing.
	for _, sink := range sinks {
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for _, ann := range nodeAnns {
		select {
		case <-ann.Done():
		case <-time.After(10 * time.Second):
			t.Fatal("node announcer did not drain")
		}
		ann.Close()
	}
	// Mid tiers now hold the final node states; wait for the top tier to
	// converge on the same total.
	waitFor(t, func() bool { _, n := top.Counts(); return n == ref.N() })
	for _, up := range upstreams {
		up.Close()
	}

	counts, n := top.Counts()
	if n != ref.N() {
		t.Fatalf("top-tier n = %d, want %d", n, ref.N())
	}
	for i, c := range ref.Counts() {
		if counts[i] != c {
			t.Fatalf("top-tier counts[%d] = %d, want %d (tiered merge not bit-exact)", i, counts[i], c)
		}
	}
	// And the mid tiers together hold exactly the same state.
	mergedMid := make([]int64, bits)
	var midN int64
	for _, mid := range mids {
		mc, mn := mid.Counts()
		for i, c := range mc {
			mergedMid[i] += c
		}
		midN += mn
	}
	if midN != n {
		t.Fatalf("mid tiers n = %d, top n = %d", midN, n)
	}
}

// TestDialControlPlaneSchemes: a merger target is tcp://host:port or a
// bare host:port; any other scheme is refused when the dialer is built,
// before an announcer would retry it as an address.
func TestDialControlPlaneSchemes(t *testing.T) {
	for target, ok := range map[string]bool{
		"tcp://127.0.0.1:7490":  true,
		"127.0.0.1:7490":        true,
		"http://127.0.0.1:8090": false,
		"https://merger":        false,
		"gopher://x":            false,
		"tcp://":                false,
	} {
		dial, err := DialControlPlane(target)
		if ok != (err == nil) || ok != (dial != nil) {
			t.Errorf("DialControlPlane(%q) = %v, want ok=%v", target, err, ok)
		}
		if err != nil && !strings.Contains(err.Error(), "unsupported scheme") {
			t.Errorf("DialControlPlane(%q) error %q does not name the scheme", target, err)
		}
	}
}

func packCounts(t *testing.T, counts []int64) []byte {
	t.Helper()
	return varpack.Pack(counts)
}

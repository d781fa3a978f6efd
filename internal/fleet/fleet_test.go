package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"idldp/internal/agg"
	"idldp/internal/bitvec"
	"idldp/internal/budget"
	"idldp/internal/core"
	"idldp/internal/httpapi"
	"idldp/internal/registry"
	"idldp/internal/rng"
	"idldp/internal/server"
	"idldp/internal/stream"
	"idldp/internal/transport"
	"idldp/internal/varpack"
)

// startNodes brings up nodeCount collector nodes, alternating framed TCP
// and HTTP so every merge test exercises both transports, and returns
// their fleet sources plus a cleanup-registered teardown.
func startNodes(t *testing.T, e *core.Engine, nodeCount int) []Source {
	t.Helper()
	sources := make([]Source, nodeCount)
	for i := range sources {
		if i%2 == 0 {
			srv, err := transport.Serve("127.0.0.1:0", e.M(), server.WithShards(2))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close() })
			sources[i] = NewTCPSource(srv.Addr())
		} else {
			h, err := httpapi.New(e.M(), e.EstimateSingle, server.WithShards(2))
			if err != nil {
				t.Fatal(err)
			}
			hs := httptest.NewServer(h)
			t.Cleanup(hs.Close)
			t.Cleanup(func() { h.Close() })
			sources[i] = NewHTTPSource(hs.URL)
		}
	}
	return sources
}

// postReport POSTs one report to an httpapi node, returning the status.
func postReport(t *testing.T, base string, v *bitvec.Vector) int {
	t.Helper()
	body, err := json.Marshal(map[string]any{"words": v.Words(), "bits": v.Len()})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/report", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// sendTo ships one report to a node through its native transport.
func sendTo(t *testing.T, src Source, v *bitvec.Vector) {
	t.Helper()
	switch s := src.(type) {
	case *TCPSource:
		c, err := transport.Dial(context.Background(), s.addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.SendReport(v); err != nil {
			t.Fatal(err)
		}
		// The snapshot request flushes the connection batcher, so the
		// report is visible before the connection closes.
		if _, _, _, err := c.Snapshot(); err != nil {
			t.Fatal(err)
		}
	case *HTTPSource:
		resp := postReport(t, s.base, v)
		if resp != 202 {
			t.Fatalf("report rejected with status %d", resp)
		}
	default:
		t.Fatalf("unknown source type %T", src)
	}
}

// TestFleetMergeEquivalence is the multi-node half of the exactness
// guarantee: reports partitioned across 2 and 4 nodes (mixed framed TCP and
// HTTP), merged by the fleet, must produce per-bit counts — and
// therefore estimates — bit-for-bit identical to one collector that
// ingested every report.
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
			for u, v := range reports {
				sendTo(t, sources[u%nodeCount], v)
			}
			f, err := New(e.M(), sources, WithPollTimeout(10*time.Second))
			if err != nil {
				t.Fatal(err)
			}
			if err := f.Poll(context.Background()); err != nil {
				t.Fatal(err)
			}
			gotCounts, gotN := f.Counts()
			if gotN != n {
				t.Fatalf("merged n = %d, want %d", gotN, n)
			}
			for i := range wantCounts {
				if gotCounts[i] != wantCounts[i] {
					t.Fatalf("bit %d: merged %d, single-collector %d", i, gotCounts[i], wantCounts[i])
				}
			}
			gotEst, err := f.Estimates(e.EstimateSingle)
			if err != nil {
				t.Fatal(err)
			}
			for i := range wantEst {
				if gotEst[i] != wantEst[i] {
					t.Fatalf("estimate %d: merged %v, single-collector %v", i, gotEst[i], wantEst[i])
				}
			}
			for _, st := range f.Status() {
				if st.Stale || st.Failures != 0 || st.Resets != 0 {
					t.Fatalf("healthy node reported unhealthy: %+v", st)
				}
			}
		})
	}
}

// failingSource always errors, to drive the liveness bookkeeping.
type failingSource struct{}

func (failingSource) Name() string                            { return "dead-node" }
func (failingSource) Fetch(context.Context) (Snapshot, error) { return Snapshot{}, fmt.Errorf("down") }

// staticSource serves a fixed snapshot.
type staticSource struct{ snap Snapshot }

func (staticSource) Name() string                              { return "static" }
func (s staticSource) Fetch(context.Context) (Snapshot, error) { return s.snap, nil }

// TestLivenessTracking: a dead node goes stale and reports its error; a
// live node keeps contributing.
func TestLivenessTracking(t *testing.T) {
	live := staticSource{snap: Snapshot{Bits: 4, Counts: []int64{1, 2, 3, 4}, N: 4}}
	f, err := New(4, []Source{live, failingSource{}}, WithStaleAfter(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Poll(context.Background()); err == nil {
		t.Fatal("poll with a dead node reported no error")
	}
	counts, n := f.Counts()
	if n != 4 || counts[3] != 4 {
		t.Fatalf("live node's snapshot lost: counts=%v n=%d", counts, n)
	}
	sts := f.Status()
	if sts[0].Stale || sts[0].Failures != 0 {
		t.Fatalf("live node: %+v", sts[0])
	}
	if !sts[1].Stale || sts[1].Failures != 1 || sts[1].LastErr == "" {
		t.Fatalf("dead node: %+v", sts[1])
	}
}

// TestResetDetection: a node whose cumulative count regresses is flagged.
func TestResetDetection(t *testing.T) {
	src := &flipSource{}
	f, err := New(1, []Source{src})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := f.Poll(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if st := f.Status()[0]; st.Resets != 1 {
		t.Fatalf("Resets = %d, want 1", st.Resets)
	}
	if _, n := f.Counts(); n != 2 {
		t.Fatalf("merged n = %d, want the node's authoritative 2", n)
	}
}

// flipSource returns a high count first, then a lower one (simulated
// restart without restore).
type flipSource struct{ calls int }

func (s *flipSource) Name() string { return "flip" }
func (s *flipSource) Fetch(context.Context) (Snapshot, error) {
	s.calls++
	if s.calls == 1 {
		return Snapshot{Bits: 1, Counts: []int64{5}, N: 5}, nil
	}
	return Snapshot{Bits: 1, Counts: []int64{2}, N: 2}, nil
}

// TestBitsMismatchRejected: a node with the wrong domain is an error and
// never pollutes the merge.
func TestBitsMismatchRejected(t *testing.T) {
	bad := staticSource{snap: Snapshot{Bits: 3, Counts: []int64{1, 1, 1}, N: 1}}
	f, err := New(4, []Source{bad})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Poll(context.Background()); err == nil {
		t.Fatal("bits mismatch accepted")
	}
	if _, n := f.Counts(); n != 0 {
		t.Fatalf("mismatched snapshot merged: n=%d", n)
	}
}

func TestParseSource(t *testing.T) {
	cases := []struct {
		spec string
		want string
		ok   bool
	}{
		{"http://10.0.0.7:8080", "http://10.0.0.7:8080", true},
		{"https://node.example", "https://node.example", true},
		{"tcp://10.0.0.7:7070", "tcp://10.0.0.7:7070", true},
		{"10.0.0.7:7070", "tcp://10.0.0.7:7070", true},
		{"gopher://x", "", false},
		{"", "", false},
	}
	for _, c := range cases {
		src, err := ParseSource(c.spec)
		if c.ok != (err == nil) {
			t.Errorf("ParseSource(%q) err = %v, want ok=%v", c.spec, err, c.ok)
			continue
		}
		if err == nil && src.Name() != c.want {
			t.Errorf("ParseSource(%q).Name() = %q, want %q", c.spec, src.Name(), c.want)
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, []Source{staticSource{}}); err == nil {
		t.Fatal("bits=0 accepted")
	}
	if _, err := New(4, nil); err == nil {
		t.Fatal("no sources accepted")
	}
}

// seqSource replays a scripted sequence of snapshots, then repeats the
// last one.
type seqSource struct {
	name  string
	snaps []Snapshot
	calls int
}

func (s *seqSource) Name() string { return s.name }
func (s *seqSource) Fetch(context.Context) (Snapshot, error) {
	i := s.calls
	if i >= len(s.snaps) {
		i = len(s.snaps) - 1
	}
	s.calls++
	return s.snaps[i], nil
}

// TestStreamResyncOnNodeReset: a node restarting mid-campaign without
// its checkpoint makes the merged counts regress; the stream must carry
// that as a full resync frame, never as a negative delta, and a
// subscriber's accumulated state must end exactly on the merged counts.
func TestStreamResyncOnNodeReset(t *testing.T) {
	steady := &seqSource{name: "steady", snaps: []Snapshot{
		{Bits: 3, Counts: []int64{4, 1, 0}, N: 5},
		{Bits: 3, Counts: []int64{6, 2, 1}, N: 9},
		{Bits: 3, Counts: []int64{7, 2, 1}, N: 10},
	}}
	// Restarts after the first poll: cumulative state falls back to near
	// zero, then grows again.
	restarter := &seqSource{name: "restarter", snaps: []Snapshot{
		{Bits: 3, Counts: []int64{10, 5, 5}, N: 20},
		{Bits: 3, Counts: []int64{1, 0, 0}, N: 1},
		{Bits: 3, Counts: []int64{3, 1, 0}, N: 4},
	}}
	f, err := New(3, []Source{steady, restarter})
	if err != nil {
		t.Fatal(err)
	}
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
	if st := f.Status()[1]; st.Resets != 1 {
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
		if !d.Resync {
			for j, inc := range d.Inc {
				if inc < 0 {
					t.Fatalf("negative delta increment %d on bit %d: %+v", inc, d.Bits[j], d)
				}
			}
			if d.DN < 0 {
				t.Fatalf("negative DN: %+v", d)
			}
		}
	}
	// initial resync, first-poll delta, reset resync, recovery delta.
	if len(frames) != 4 {
		t.Fatalf("got %d frames: %+v", len(frames), frames)
	}
	if !frames[2].Resync {
		t.Fatalf("reset poll published %+v, want a resync frame", frames[2])
	}
	wantCounts, wantN := f.Counts()
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
// sees is a resync with the already-merged state, not zeros.
func TestSubscribeMidCampaignSeedsState(t *testing.T) {
	src := staticSource{snap: Snapshot{Bits: 2, Counts: []int64{3, 4}, N: 7}}
	f, err := New(2, []Source{src})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Poll(context.Background()); err != nil {
		t.Fatal(err)
	}
	sub, err := f.Subscribe(4)
	if err != nil {
		t.Fatal(err)
	}
	d := <-sub.C()
	if !d.Resync || d.N != 7 || d.Counts[1] != 4 {
		t.Fatalf("initial frame %+v, want resync of the merged state", d)
	}
	f.Close()
	if _, err := f.Subscribe(1); err == nil {
		t.Fatal("Subscribe after Close should fail")
	}
}

// TestMidRestartNodeGoesStaleNotError: a node that has answered before
// and then refuses connections (mid-restart) must not surface a poll
// error — it shows up as a failure count and eventual staleness, and
// its last snapshot keeps contributing.
func TestMidRestartNodeGoesStaleNotError(t *testing.T) {
	srv, err := transport.Serve("127.0.0.1:0", 4, server.WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	v := bitvec.New(4)
	v.Set(1)
	src := NewTCPSource(addr)
	sendTo(t, src, v)

	f, err := New(4, []Source{src}, WithStaleAfter(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Poll(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Kill the node: the next poll's dial is refused — a transient
	// condition, not a poll error.
	srv.Close()
	if err := f.Poll(context.Background()); err != nil {
		t.Fatalf("mid-restart dial error surfaced from Poll: %v", err)
	}
	time.Sleep(2 * time.Millisecond)
	st := f.Status()[0]
	if st.Failures != 1 || st.LastErr == "" || !st.Stale {
		t.Fatalf("mid-restart node status: %+v", st)
	}
	// The stale snapshot still answers.
	counts, n := f.Counts()
	if n != 1 || counts[1] != 1 {
		t.Fatalf("stale snapshot lost: counts=%v n=%d", counts, n)
	}
	// Estimates still work from the stale state.
	if _, err := f.Estimates(func(counts []int64, n int) ([]float64, error) {
		return make([]float64, len(counts)), nil
	}); err != nil {
		t.Fatalf("Estimates surfaced the transient failure: %v", err)
	}

	// A node that has *never* answered stays a loud error.
	dead, err := New(4, []Source{NewTCPSource(addr)})
	if err != nil {
		t.Fatal(err)
	}
	if err := dead.Poll(context.Background()); err == nil {
		t.Fatal("never-seen dead node reported no poll error")
	}
}

// TestRegistryBackedMembership: push-registered members merge and
// report liveness alongside polled sources.
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

	polled := staticSource{snap: Snapshot{Bits: 2, Counts: []int64{1, 0}, N: 1}}
	f, err := New(2, []Source{polled}, WithRegistry(reg))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Poll(context.Background()); err != nil {
		t.Fatal(err)
	}

	req := registry.RegisterRequest{Name: "pusher", Bits: 2, Kind: "node"}
	req.SignRegister(auth, time.Now())
	grant, err := reg.Register(req)
	if err != nil {
		t.Fatal(err)
	}
	p := registry.Push{Name: "pusher", Session: grant.Session,
		Frame: registry.PushFrame{Seq: 1, Resync: true, Packed: varpack.Pack([]int64{0, 5}), N: 5}}
	p.SignPush(auth, time.Now())
	if err := reg.Push(p); err != nil {
		t.Fatal(err)
	}

	counts, n := f.Counts()
	if n != 6 || counts[0] != 1 || counts[1] != 5 {
		t.Fatalf("mixed merge: counts=%v n=%d", counts, n)
	}
	sts := f.Status()
	if len(sts) != 2 {
		t.Fatalf("status has %d entries, want 2", len(sts))
	}
	if sts[1].Name != "push://pusher" || sts[1].N != 5 || sts[1].Stale {
		t.Fatalf("pushed member status: %+v", sts[1])
	}

	// Registry-only fleets need no sources at all.
	only, err := New(2, nil, WithRegistry(reg))
	if err != nil {
		t.Fatal(err)
	}
	if _, n := only.Counts(); n != 5 {
		t.Fatalf("registry-only fleet n = %d, want 5", n)
	}
	// But a fleet with neither is still rejected.
	if _, err := New(2, nil); err == nil {
		t.Fatal("fleet with no membership accepted")
	}
}

// TestEstimatesMemoizedPerGeneration: Estimates calibrates once per
// Poll generation and replays the stamped result until the next Poll —
// the merger-side read cache.
func TestEstimatesMemoizedPerGeneration(t *testing.T) {
	src := staticSource{snap: Snapshot{Bits: 3, Counts: []int64{6, 2, 1}, N: 9}}
	f, err := New(3, []Source{src})
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	est := func(counts []int64, n int) ([]float64, error) {
		calls++
		out := make([]float64, len(counts))
		for i, c := range counts {
			out[i] = float64(c) / float64(n)
		}
		return out, nil
	}
	// Pre-poll: no reports, no generation, and nothing cached.
	if g := f.Generation(); g != 0 {
		t.Fatalf("generation %d before first poll", g)
	}
	if _, err := f.Estimates(est); err == nil {
		t.Fatal("empty fleet produced estimates")
	}
	if err := f.Poll(context.Background()); err != nil {
		t.Fatal(err)
	}
	if g := f.Generation(); g != 1 {
		t.Fatalf("generation %d after first poll, want 1", g)
	}
	first, err := f.Estimates(est)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		again, err := f.Estimates(est)
		if err != nil {
			t.Fatal(err)
		}
		for j := range first {
			if again[j] != first[j] {
				t.Fatalf("memoized estimates diverged at %d", j)
			}
		}
	}
	if calls != 1 {
		t.Fatalf("estimator ran %d times within one generation, want 1", calls)
	}
	// A new poll is a new generation: exactly one recalibration.
	if err := f.Poll(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Estimates(est); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Estimates(est); err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("estimator ran %d times across two generations, want 2", calls)
	}
}

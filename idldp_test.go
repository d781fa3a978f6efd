package idldp

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"idldp/internal/registry"
	"idldp/internal/transport"
)

func toyConfig() Config {
	return Config{
		DomainSize: 5,
		Levels:     Levels{Eps: []float64{math.Log(4), math.Log(6)}},
		LevelOf:    []int{0, 1, 1, 1, 1},
		Seed:       1,
	}
}

func TestNewClientValidation(t *testing.T) {
	if _, err := NewClient(Config{}); err == nil {
		t.Error("zero config accepted")
	}
	c := toyConfig()
	c.LevelOf = []int{0, 1}
	if _, err := NewClient(c); err == nil {
		t.Error("short LevelOf accepted")
	}
	c = toyConfig()
	c.Notion = "median"
	if _, err := NewClient(c); err == nil {
		t.Error("unknown notion accepted")
	}
	c = Config{
		DomainSize: 10,
		Levels:     Levels{Eps: []float64{1, 2}, Prop: []float64{0.5, 0.6}},
	}
	if _, err := NewClient(c); err == nil {
		t.Error("bad proportions accepted")
	}
}

func TestNotionsAccepted(t *testing.T) {
	for _, n := range []string{"", "min", "avg", "max"} {
		c := toyConfig()
		c.Notion = n
		if _, err := NewClient(c); err != nil {
			t.Errorf("notion %q rejected: %v", n, err)
		}
	}
}

func TestSingleItemEndToEnd(t *testing.T) {
	client, err := NewClient(toyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if client.DomainSize() != 5 {
		t.Fatalf("DomainSize=%d", client.DomainSize())
	}
	server := client.NewServer()
	const n = 30000
	truth := make([]float64, 5)
	for u := 0; u < n; u++ {
		item := u % 5
		truth[item]++
		if err := server.Collect(client.ReportItem(item, uint64(u))); err != nil {
			t.Fatal(err)
		}
	}
	if server.N() != n {
		t.Fatalf("N=%d", server.N())
	}
	est, err := server.Estimates()
	if err != nil {
		t.Fatal(err)
	}
	for i := range truth {
		if math.Abs(est[i]-truth[i]) > 0.15*truth[i]+200 {
			t.Errorf("item %d estimate %v truth %v", i, est[i], truth[i])
		}
	}
}

func TestItemSetEndToEnd(t *testing.T) {
	c := toyConfig()
	c.PaddingLength = 2
	client, err := NewClient(c)
	if err != nil {
		t.Fatal(err)
	}
	server := client.NewServer()
	const n = 40000
	truth := make([]float64, 5)
	for u := 0; u < n; u++ {
		set := []int{u % 5, (u + 2) % 5}
		for _, i := range set {
			truth[i]++
		}
		if err := server.Collect(client.ReportSet(set, uint64(u))); err != nil {
			t.Fatal(err)
		}
	}
	est, err := server.Estimates()
	if err != nil {
		t.Fatal(err)
	}
	if len(est) != 5 {
		t.Fatalf("estimates cover %d items, want 5", len(est))
	}
	for i := range truth {
		if math.Abs(est[i]-truth[i]) > 0.25*truth[i]+800 {
			t.Errorf("item %d estimate %v truth %v", i, est[i], truth[i])
		}
	}
	// Eq. (17) set budget of a mixed pair exceeds the strictest item's.
	if b := client.SetBudget([]int{0, 1}); b < math.Log(4) {
		t.Errorf("set budget %v below min item budget", b)
	}
}

// TestShardedServerMatchesPlain proves the facade's sharded mode is
// lossless: for several shard counts, Estimates are bit-for-bit identical
// to the plain accumulator fed the same reports.
func TestShardedServerMatchesPlain(t *testing.T) {
	client, err := NewClient(toyConfig())
	if err != nil {
		t.Fatal(err)
	}
	const n = 5000
	reports := make([]Report, n)
	for u := range reports {
		reports[u] = client.ReportItem(u%5, uint64(u))
	}
	plain := client.NewServer()
	for _, r := range reports {
		if err := plain.Collect(r); err != nil {
			t.Fatal(err)
		}
	}
	want, err := plain.Estimates()
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 4, 16} {
		sharded := client.NewServer(WithShards(shards), WithBatchSize(33))
		if got := sharded.Shards(); got != shards {
			t.Fatalf("Shards() = %d, want %d", got, shards)
		}
		if sharded.Runtime() == nil {
			t.Fatal("sharded server has no runtime")
		}
		for _, r := range reports {
			if err := sharded.Collect(r); err != nil {
				t.Fatal(err)
			}
		}
		if got := sharded.N(); got != n {
			t.Fatalf("shards=%d: N = %d, want %d", shards, got, n)
		}
		got, err := sharded.Estimates()
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("shards=%d: estimate[%d] = %v, want bit-identical %v", shards, i, got[i], want[i])
			}
		}
		if err := sharded.Close(); err != nil {
			t.Fatal(err)
		}
		if err := sharded.Close(); err != nil {
			t.Fatalf("second Close: %v", err)
		}
		// Reads keep answering from the drained state after Close.
		got, err = sharded.Estimates()
		if err != nil {
			t.Fatalf("shards=%d: Estimates after Close: %v", shards, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("shards=%d: post-Close estimate[%d] = %v, want %v", shards, i, got[i], want[i])
			}
		}
		if got := sharded.N(); got != n {
			t.Fatalf("shards=%d: post-Close N = %d, want %d", shards, got, n)
		}
	}
	// A plain server has no runtime and Close is a no-op.
	if plain.Shards() != 0 || plain.Runtime() != nil {
		t.Fatal("plain server reports sharding")
	}
	if err := plain.Close(); err != nil {
		t.Fatal(err)
	}
	// A closed sharded server must reject further reports, not buffer
	// them silently.
	closed := client.NewServer(WithShards(2))
	if err := closed.Close(); err != nil {
		t.Fatal(err)
	}
	if err := closed.Collect(reports[0]); err == nil {
		t.Fatal("Collect after Close accepted a report")
	}
}

// TestShardedServerConcurrentUse exercises the documented concurrency
// contract under -race: several goroutines Collect while another polls
// Estimates and N mid-stream.
func TestShardedServerConcurrentUse(t *testing.T) {
	client, err := NewClient(toyConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv := client.NewServer(WithShards(2), WithBatchSize(16))
	const producers, per = 4, 500
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for u := 0; u < per; u++ {
				if err := srv.Collect(client.ReportItem(u%5, uint64(p*per+u))); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			if _, err := srv.Estimates(); err != nil {
				t.Error(err)
				return
			}
			_ = srv.N()
		}
	}()
	wg.Wait()
	<-done
	if got := srv.N(); got != producers*per {
		t.Fatalf("N = %d, want %d", got, producers*per)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestServerCollectErrors(t *testing.T) {
	client, err := NewClient(toyConfig())
	if err != nil {
		t.Fatal(err)
	}
	server := client.NewServer()
	if err := server.Collect(Report{Words: []uint64{0}, Bits: 9}); err == nil {
		t.Error("wrong bit count accepted")
	}
	if err := server.Collect(Report{Words: []uint64{1 << 40}, Bits: 5}); err == nil {
		t.Error("padding bits accepted")
	}
}

func TestRealizedBudgetWithinLemma1(t *testing.T) {
	client, err := NewClient(toyConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Lemma 1: min{max E, 2 min E} = min{ln6, ln16} = ln6.
	if got := client.RealizedLDPBudget(); got > math.Log(6)+1e-6 {
		t.Errorf("realized budget %v exceeds ln6", got)
	}
}

func TestSaveLoadParamsFacade(t *testing.T) {
	orig, err := NewClient(toyConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.SaveParams(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := NewClientFromParams(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Identical mechanism → identical reports for the same user seed.
	r1 := orig.ReportItem(3, 42)
	r2 := loaded.ReportItem(3, 42)
	for i := range r1.Words {
		if r1.Words[i] != r2.Words[i] {
			t.Fatal("loaded client produces different reports")
		}
	}
	if _, err := NewClientFromParams(strings.NewReader("{")); err == nil {
		t.Fatal("malformed params accepted")
	}
}

func TestRandomAssignmentPath(t *testing.T) {
	client, err := NewClient(Config{
		DomainSize: 50,
		Levels:     Levels{Eps: []float64{1, 2, 4}, Prop: []float64{0.1, 0.2, 0.7}},
		Model:      Opt1,
		Seed:       3,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := client.ReportItem(7, 11)
	if r.Bits != 50 {
		t.Fatalf("report bits %d", r.Bits)
	}
	// Same user seed → identical report (determinism contract).
	r2 := client.ReportItem(7, 11)
	for i := range r.Words {
		if r.Words[i] != r2.Words[i] {
			t.Fatal("reports differ for same seed")
		}
	}
}

// TestDurableServerRestores exercises the facade durability loop:
// collect, graceful Close (which writes a final checkpoint), RestoreServer,
// collect more — estimates must be bit-for-bit what a never-interrupted
// plain server produces for the same reports.
func TestDurableServerRestores(t *testing.T) {
	client, err := NewClient(toyConfig())
	if err != nil {
		t.Fatal(err)
	}
	const n = 400
	reports := make([]Report, n)
	for u := range reports {
		reports[u] = client.ReportItem(u%client.DomainSize(), uint64(u))
	}
	plain := client.NewServer()
	for _, r := range reports {
		if err := plain.Collect(r); err != nil {
			t.Fatal(err)
		}
	}
	want, err := plain.Estimates()
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	first, restored, err := client.RestoreServer(WithShards(2), WithCheckpoint(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	if restored != 0 {
		t.Fatalf("fresh campaign restored %d reports", restored)
	}
	for _, r := range reports[:n/2] {
		if err := first.Collect(r); err != nil {
			t.Fatal(err)
		}
	}
	// Explicit mid-campaign checkpoint, then graceful shutdown.
	if err := first.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if st := first.Stats(); st.Checkpoints != 1 || st.Reports != n/2 {
		t.Fatalf("stats after checkpoint: %+v", st)
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}

	second, restored, err := client.RestoreServer(WithShards(4), WithCheckpoint(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	if restored != n/2 {
		t.Fatalf("restored %d reports, want %d", restored, n/2)
	}
	for _, r := range reports[n/2:] {
		if err := second.Collect(r); err != nil {
			t.Fatal(err)
		}
	}
	got, err := second.Estimates()
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("estimate %d: restored %v, uninterrupted %v", i, got[i], want[i])
		}
	}
}

func TestRestoreServerRequiresCheckpoint(t *testing.T) {
	client, err := NewClient(toyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := client.RestoreServer(WithShards(2)); err == nil {
		t.Fatal("RestoreServer without WithCheckpoint accepted")
	}
}

// TestAnnouncingServerPushesToMerger: the facade's WithAnnounce wires a
// collector into the fleet control plane — register, push deltas,
// deliver the final state on Close.
func TestAnnouncingServerPushesToMerger(t *testing.T) {
	auth, err := registry.NewAuthenticator("facade-token")
	if err != nil {
		t.Fatal(err)
	}
	reg, err := registry.New(5, registry.WithAuth(auth))
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	rs, err := transport.ServeRegistry("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()

	client, err := NewClient(toyConfig())
	if err != nil {
		t.Fatal(err)
	}
	server := client.NewServer(
		WithShards(2),
		WithStream(20*time.Millisecond),
		WithAdaptiveBatch(4, 256),
		WithAnnounce("tcp://"+rs.Addr(), "facade-token", "facade-node"),
	)
	const users = 400
	for u := 0; u < users; u++ {
		if err := server.Collect(client.ReportItem(u%5, uint64(u))); err != nil {
			t.Fatal(err)
		}
	}
	want, err := server.Estimates()
	if err != nil {
		t.Fatal(err)
	}
	if err := server.Close(); err != nil {
		t.Fatal(err)
	}

	counts, n := reg.Counts()
	if n != users {
		t.Fatalf("merger n = %d, want %d", n, users)
	}
	sts := reg.Status()
	if len(sts) != 1 || sts[0].Name != "facade-node" || sts[0].Kind != "node" {
		t.Fatalf("merger members: %+v", sts)
	}
	// The merger's merged counts calibrate to exactly the node's own
	// estimates — push streaming is lossless.
	got, err := client.Engine().EstimateSingle(counts, int(n))
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("merger estimate[%d] = %v, node's own %v", i, got[i], want[i])
		}
	}
}

// TestAnnounceRefusesNonTCPTarget: WithAnnounce takes a framed TCP
// merger target; an http(s):// one fails construction instead of being
// retried as an address.
func TestAnnounceRefusesNonTCPTarget(t *testing.T) {
	client, err := NewClient(toyConfig())
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = client.RestoreServer(WithCheckpoint(t.TempDir(), time.Hour), WithAnnounce("http://127.0.0.1:8090", "", "n"))
	if err == nil || !strings.Contains(err.Error(), "unsupported scheme") {
		t.Fatalf("http:// announce target: err = %v, want unsupported scheme", err)
	}
}

// TestDurableAnnouncerReclaimsItsMemberSlot: a durable announcing
// server that restarts must re-register under the same derived name and
// resync — never announce its restored counts as a second member, which
// would double-count the whole checkpointed state at the merger.
func TestDurableAnnouncerReclaimsItsMemberSlot(t *testing.T) {
	auth, err := registry.NewAuthenticator("facade-token")
	if err != nil {
		t.Fatal(err)
	}
	reg, err := registry.New(5, registry.WithAuth(auth))
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	rs, err := transport.ServeRegistry("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()

	client, err := NewClient(toyConfig())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	opts := []ServerOption{
		WithShards(2),
		WithStream(20 * time.Millisecond),
		WithCheckpoint(dir, time.Hour),
		WithAnnounce("tcp://"+rs.Addr(), "facade-token", ""),
	}
	first, _, err := client.RestoreServer(opts...)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 200; u++ {
		if err := first.Collect(client.ReportItem(u%5, uint64(u))); err != nil {
			t.Fatal(err)
		}
	}
	if err := first.Close(); err != nil { // final checkpoint + final push
		t.Fatal(err)
	}

	second, restored, err := client.RestoreServer(opts...)
	if err != nil {
		t.Fatal(err)
	}
	if restored != 200 {
		t.Fatalf("restored %d reports, want 200", restored)
	}
	for u := 200; u < 300; u++ {
		if err := second.Collect(client.ReportItem(u%5, uint64(u))); err != nil {
			t.Fatal(err)
		}
	}
	if err := second.Close(); err != nil {
		t.Fatal(err)
	}

	sts := reg.Status()
	if len(sts) != 1 {
		t.Fatalf("restart created a second member slot: %+v", sts)
	}
	if sts[0].Registrations < 2 {
		t.Fatalf("restart did not re-register the same member: %+v", sts[0])
	}
	if _, n := reg.Counts(); n != 300 {
		t.Fatalf("merger n = %d, want 300 (restored state must not double-count)", n)
	}
}

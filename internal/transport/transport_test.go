package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"math"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"idldp/internal/agg"
	"idldp/internal/bitvec"
	"idldp/internal/budget"
	"idldp/internal/core"
	"idldp/internal/rng"
	"idldp/internal/server"
	"idldp/internal/telemetry"
	"idldp/internal/varpack"
)

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not reached before deadline")
}

func TestServeInvalidBits(t *testing.T) {
	if _, err := Serve("127.0.0.1:0", 0); err == nil {
		t.Fatal("bits=0 accepted")
	}
}

func TestReportRoundTrip(t *testing.T) {
	s, err := Serve("127.0.0.1:0", 8)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(context.Background(), s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	v := bitvec.New(8)
	v.Set(1)
	v.Set(7)
	for i := 0; i < 10; i++ {
		if err := c.SendReport(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { _, n := s.Snapshot(); return n == 10 })
	counts, n := s.Snapshot()
	if n != 10 || counts[1] != 10 || counts[7] != 10 || counts[0] != 0 {
		t.Fatalf("counts=%v n=%d", counts, n)
	}
}

func TestBatchRoundTrip(t *testing.T) {
	s, err := Serve("127.0.0.1:0", 4)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(context.Background(), s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	local := agg.New(4)
	for i := 0; i < 100; i++ {
		v := bitvec.New(4)
		v.Set(i % 4)
		local.Add(v)
	}
	if err := c.SendBatch(local); err != nil {
		t.Fatal(err)
	}
	c.Close()
	waitFor(t, func() bool { _, n := s.Snapshot(); return n == 100 })
	counts, _ := s.Snapshot()
	for i, want := range []int64{25, 25, 25, 25} {
		if counts[i] != want {
			t.Fatalf("counts=%v", counts)
		}
	}
}

func TestManyConcurrentClients(t *testing.T) {
	s, err := Serve("127.0.0.1:0", 16, server.WithShards(4), server.WithBatchSize(8))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const clients, per = 8, 50
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			c, err := Dial(context.Background(), s.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for i := 0; i < per; i++ {
				v := bitvec.New(16)
				v.Set((k + i) % 16)
				if err := c.SendReport(v); err != nil {
					t.Error(err)
					return
				}
			}
		}(k)
	}
	wg.Wait()
	waitFor(t, func() bool { _, n := s.Snapshot(); return n == clients*per })
}

// TestMalformedFrameDropsConnection: every way a peer can send something
// that is not a valid frame for this server drops that connection, is
// counted in ingest_malformed_total, folds nothing — and leaves the
// server serving everyone else.
func TestMalformedFrameDropsConnection(t *testing.T) {
	tel := telemetry.NewRegistry("idldp")
	sink, err := server.New(8, server.WithTelemetry(tel))
	if err != nil {
		t.Fatal(err)
	}
	s, err := ServeSink("127.0.0.1:0", sink)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// A well-behaved client connected before the malformed traffic, used
	// after it.
	good, err := Dial(context.Background(), s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()

	frame := func(f Frame) []byte { return appendFrame(preamble[:], &f) }
	raw := func(kind FrameKind, presence uint64, rest ...byte) []byte {
		b := append(preamble[:], byte(kind))
		return append(binary.AppendUvarint(b, presence), rest...)
	}
	overCap := binary.AppendUvarint(nil, 1<<40)
	var gobHello bytes.Buffer
	if err := gob.NewEncoder(&gobHello).Encode(struct{ Kind uint8 }{1}); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		bytes []byte
	}{
		{"bits != domain", frame(Frame{Kind: FrameReport, Words: []uint64{1}, Bits: 4})},
		{"wrong preamble (a gob-speaking peer)", gobHello.Bytes()},
		{"garbage bytes", []byte("not a frame at all")},
		{"unknown kind", raw(99, 0)},
		{"kind zero", raw(0, 0)},
		{"kind no ingest server takes", frame(Frame{Kind: FrameAck})},
		{"unknown presence bit", raw(FrameReport, knownFields+1)},
		{"words over the domain's cap", raw(FrameReport, hasWords, 2)},
		{"words length 2^40", raw(FrameReport, hasWords, overCap...)},
		{"counts length 2^40", raw(FrameBatch, hasCounts, overCap...)},
		{"packed length 2^40", raw(FrameSnapshotRequest, hasPacked, overCap...)},
		{"varint overflow", raw(FrameReport, hasBits, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f)},
		{"bad batch (negative n)", frame(Frame{Kind: FrameBatch, Counts: make([]int64, 8), N: -5})},
	}
	for _, tc := range cases {
		conn, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(tc.bytes); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		// The server must hang up on its own: the connection stays open
		// from this side until the read sees it end.
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("%s: connection not dropped (read err %v)", tc.name, err)
		}
		conn.Close()
	}
	malformedTotal := func() int64 { return tel.Snapshot().Counter("ingest_malformed_total") }
	waitFor(t, func() bool { return malformedTotal() == int64(len(cases)) })

	// A peer that just hangs up — before or in the middle of a frame —
	// is not malformed.
	for _, b := range [][]byte{nil, preamble[:2], raw(FrameReport, hasWords, 1, 0xaa)} {
		conn, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		conn.Write(b)
		conn.Close()
	}
	waitFor(t, func() bool { // every handler but the good client's has ended
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.conns) == 1
	})

	v := bitvec.New(8)
	v.Set(2)
	if err := good.SendReport(v); err != nil {
		t.Fatal(err)
	}
	counts, n, _, err := good.Snapshot()
	if err != nil {
		t.Fatalf("server stopped serving after malformed traffic: %v", err)
	}
	if n != 1 || counts[2] != 1 {
		t.Fatalf("after malformed traffic: n=%d counts=%v, want only the good client's report", n, counts)
	}
	if got := malformedTotal(); got != int64(len(cases)) {
		t.Fatalf("ingest_malformed_total = %d, want %d", got, len(cases))
	}
}

func TestCloseIdempotentAndRefusesNewWork(t *testing.T) {
	s, err := Serve("127.0.0.1:0", 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal("second close errored:", err)
	}
	if _, err := Dial(context.Background(), s.Addr()); err == nil {
		// Connection may be accepted by the OS backlog momentarily, but
		// sends must not aggregate.
		time.Sleep(20 * time.Millisecond)
		if _, n := s.Snapshot(); n != 0 {
			t.Fatal("closed server aggregated reports")
		}
	}
}

func TestEndToEndOverTCP(t *testing.T) {
	// Full protocol: IDUE perturbation client-side, calibration
	// server-side, estimates near truth.
	e, err := core.New(core.Config{Budgets: budget.ToyExample()})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Serve("127.0.0.1:0", e.M())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const n = 20000
	truth := make([]float64, 5)
	c, err := Dial(context.Background(), s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(77)
	local := agg.New(e.M())
	for u := 0; u < n; u++ {
		item := u % 5
		truth[item]++
		local.Add(e.PerturbItem(item, r))
	}
	if err := c.SendBatch(local); err != nil {
		t.Fatal(err)
	}
	c.Close()
	waitFor(t, func() bool { _, got := s.Snapshot(); return got == n })

	ue := e.UE()
	est, err := s.Estimate(ue.A, ue.B, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range truth {
		if math.Abs(est[i]-truth[i]) > 0.2*truth[i]+200 {
			t.Errorf("item %d estimate %v truth %v", i, est[i], truth[i])
		}
	}
}

// TestSnapshotFrame exercises the snapshot request/reply frames: the
// reply must include the requester's own unflushed reports and match the
// server's local snapshot exactly.
func TestSnapshotFrame(t *testing.T) {
	const m = 70
	srv, err := Serve("127.0.0.1:0", m, server.WithBatchSize(1000))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(context.Background(), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Empty server first.
	counts, n, bits, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 || bits != m || len(counts) != m {
		t.Fatalf("empty snapshot: n=%d bits=%d len=%d", n, bits, len(counts))
	}

	// Reports smaller than the batch size stay in the connection batcher
	// until the snapshot request flushes them.
	want := make([]int64, m)
	for i := 0; i < 5; i++ {
		v := bitvec.OneHot(m, i*7)
		want[i*7]++
		if err := c.SendReport(v); err != nil {
			t.Fatal(err)
		}
	}
	counts, n, _, err = c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("snapshot n = %d, want 5 (own reports must be flushed)", n)
	}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("bit %d: %d != %d", i, counts[i], want[i])
		}
	}
	localCounts, localN := srv.Snapshot()
	if localN != n {
		t.Fatalf("wire snapshot n=%d, local n=%d", n, localN)
	}
	for i := range localCounts {
		if counts[i] != localCounts[i] {
			t.Fatalf("bit %d: wire %d, local %d", i, counts[i], localCounts[i])
		}
	}
}

// TestInterleavedFrameKindsReuseSafely interleaves report, batch, and
// snapshot frames on one connection. The server decodes every frame into
// one reused Frame value, so any stale-field leakage between kinds would
// corrupt counts here.
func TestInterleavedFrameKindsReuseSafely(t *testing.T) {
	const m = 40
	srv, err := Serve("127.0.0.1:0", m, server.WithBatchSize(3))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(context.Background(), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	want := make([]int64, m)
	var wantN int64
	for round := 0; round < 10; round++ {
		v := bitvec.OneHot(m, round%m)
		want[round%m]++
		wantN++
		if err := c.SendReport(v); err != nil {
			t.Fatal(err)
		}
		local := agg.New(m)
		for u := 0; u < round+1; u++ {
			w := bitvec.OneHot(m, (round*3+u)%m)
			local.Add(w)
			want[(round*3+u)%m]++
		}
		wantN += int64(round + 1)
		if err := c.SendBatch(local); err != nil {
			t.Fatal(err)
		}
		counts, n, _, err := c.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if n != wantN {
			t.Fatalf("round %d: n=%d want %d", round, n, wantN)
		}
		for i := range want {
			if counts[i] != want[i] {
				t.Fatalf("round %d bit %d: %d != %d", round, i, counts[i], want[i])
			}
		}
	}
}

// TestServeSinkRestoresDurableCollector runs the full durable-server
// path over TCP: serve a restored runtime and confirm the snapshot frame
// carries the pre-crash counts.
func TestServeSinkRestoresDurableCollector(t *testing.T) {
	const m = 24
	dir := t.TempDir()
	first, err := server.New(m, server.WithCheckpoint(dir, time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if err := first.Add(bitvec.OneHot(m, 3)); err != nil {
		t.Fatal(err)
	}
	if err := first.Close(); err != nil { // graceful stop writes a final frame
		t.Fatal(err)
	}

	sink, restored, err := server.Restore(m, server.WithCheckpoint(dir, time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if restored != 1 {
		t.Fatalf("restored %d, want 1", restored)
	}
	srv, err := ServeSink("127.0.0.1:0", sink)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(context.Background(), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	counts, n, _, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || counts[3] != 1 {
		t.Fatalf("restored snapshot over TCP: n=%d counts[3]=%d", n, counts[3])
	}
	if srv.Stats().Reports != 1 {
		t.Fatalf("Stats.Reports = %d, want 1", srv.Stats().Reports)
	}
}

// TestLegacySnapshotRequestGetsPlainCounts: a requester that does not
// advertise AcceptPacked (an old peer) must receive the plain Counts
// form — the compat contract of the packed encoding.
func TestLegacySnapshotRequestGetsPlainCounts(t *testing.T) {
	const m = 9
	srv, err := Serve("127.0.0.1:0", m, server.WithBatchSize(1))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(context.Background(), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.SendReport(bitvec.OneHot(m, 4)); err != nil {
		t.Fatal(err)
	}
	// Speak the wire protocol by hand, like a pre-varpack client.
	var f Frame
	if err := exchange(&c.w, c.r, &Frame{Kind: FrameSnapshotRequest}, &f); err != nil {
		t.Fatal(err)
	}
	if f.Kind != FrameSnapshot {
		t.Fatalf("reply kind %d", f.Kind)
	}
	if len(f.Packed) != 0 {
		t.Fatal("legacy requester was sent a packed payload")
	}
	if len(f.Counts) != m || f.Counts[4] != 1 || f.N != 1 {
		t.Fatalf("legacy reply counts=%v n=%d", f.Counts, f.N)
	}
}

// TestPackedSnapshotMatchesPlain: the negotiated packed reply decodes to
// exactly the plain snapshot, and its wire payload is several times
// smaller for mostly-small counts.
func TestPackedSnapshotMatchesPlain(t *testing.T) {
	const m = 512
	srv, err := Serve("127.0.0.1:0", m, server.WithBatchSize(1))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	counts := make([]int64, m)
	for i := range counts {
		counts[i] = int64(i % 7)
	}
	if err := srv.Runtime().AddCounts(append([]int64(nil), counts...), 40); err != nil {
		t.Fatal(err)
	}
	c, err := Dial(context.Background(), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, n, bits, err := c.Snapshot() // advertises AcceptPacked
	if err != nil {
		t.Fatal(err)
	}
	if n != 40 || bits != m {
		t.Fatalf("n=%d bits=%d", n, bits)
	}
	for i := range counts {
		if got[i] != counts[i] {
			t.Fatalf("bit %d: packed %d, want %d", i, got[i], counts[i])
		}
	}
	if packed, fixed := len(varpack.Pack(counts)), len(varpack.PackFixed(counts)); 4*packed > fixed {
		t.Fatalf("packed snapshot %dB vs fixed %dB: less than 4x smaller", packed, fixed)
	}
}

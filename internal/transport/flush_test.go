package transport

import (
	"context"
	"net"
	"testing"
	"time"

	"idldp/internal/bitvec"
	"idldp/internal/server"
)

// countingConn counts the Write calls and bytes that reach the socket.
type countingConn struct {
	net.Conn
	writes, bytes int64 // the client under test writes from one goroutine
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes++
	c.bytes += int64(len(p))
	return c.Conn.Write(p)
}

// dialCounting is Dial behind a countingConn.
func dialCounting(t testing.TB, addr string) (*Client, *countingConn) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	cc := &countingConn{Conn: conn}
	return newClient(cc), cc
}

// TestFrameOfReportsIsOneWrite: 63 plain reports and the acked 64th —
// the unit the fleet's senders ship — reach the socket in one Write
// (two allowed), and once the ack is back all 64 are in the server's
// snapshot, at the default batch size: the connection's one batcher
// flushes the plain reports with the acked one, so the ack covers every
// report the connection sent before it.
func TestFrameOfReportsIsOneWrite(t *testing.T) {
	const m = 1024
	srv, err := Serve("127.0.0.1:0", m)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, cc := dialCounting(t, srv.Addr())
	defer c.Close()
	v := bitvec.New(m)
	for i := 0; i < 63; i++ {
		v.Zero()
		v.Set(i)
		if err := c.SendReport(v); err != nil {
			t.Fatal(err)
		}
	}
	if cc.writes != 0 {
		t.Fatalf("%d writes before anything asked for a flush", cc.writes)
	}
	v.Zero()
	v.Set(63)
	if err := c.SendReportAck(context.Background(), v); err != nil {
		t.Fatal(err)
	}
	if cc.writes > 2 {
		t.Fatalf("64 reports took %d writes, want <= 2", cc.writes)
	}
	if perReport := float64(cc.bytes) / 64; perReport > 134 {
		t.Fatalf("%.1f wire bytes per report at m=%d, want <= 134", perReport, m)
	}
	counts, n := srv.Snapshot()
	if n != 64 {
		t.Fatalf("after the ack the server holds %d of 64 reports", n)
	}
	for i := 0; i < 64; i++ {
		if counts[i] != 1 {
			t.Fatalf("bit %d counted %d times, want 1", i, counts[i])
		}
	}
}

// TestBufferFlushesWhenFull: a stream that never asks for a flush still
// reaches the socket, one Write per writeBufSize.
func TestBufferFlushesWhenFull(t *testing.T) {
	const m, reports = 1024, 1000 // 133 KB of frames
	srv, err := Serve("127.0.0.1:0", m)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, cc := dialCounting(t, srv.Addr())
	defer c.Close()
	v := bitvec.OneHot(m, 5)
	for i := 0; i < reports; i++ {
		if err := c.SendReport(v); err != nil {
			t.Fatal(err)
		}
	}
	if want := int64(reports * 133 / writeBufSize); cc.writes != want {
		t.Fatalf("%d writes for %d reports, want %d", cc.writes, reports, want)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return srv.Stats().Reports >= reports-int64(server.DefaultBatchSize) })
}

// TestLoneReportVisibleAfterFlushSnapshotClose: the three calls that
// promise delivery each deliver a lone queued report with no further
// send, and nothing else does — there is no flush timer.
func TestLoneReportVisibleAfterFlushSnapshotClose(t *testing.T) {
	const m = 16
	srv, err := Serve("127.0.0.1:0", m, server.WithBatchSize(1))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	folded := func() int64 { _, n := srv.Snapshot(); return n }
	v := bitvec.OneHot(m, 2)

	deliver := map[string]func(*Client) error{
		"Flush":    (*Client).Flush,
		"Snapshot": func(c *Client) error { _, _, _, err := c.Snapshot(); return err },
		"Close":    (*Client).Close,
	}
	var want int64
	for name, call := range deliver {
		c, err := Dial(context.Background(), srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if err := c.SendReport(v); err != nil {
			t.Fatal(err)
		}
		time.Sleep(20 * time.Millisecond)
		if got := folded(); got != want {
			t.Fatalf("before %s: server holds %d reports, want %d (the report is still queued client-side)", name, got, want)
		}
		if err := call(c); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want++
		waitFor(t, func() bool { return folded() == want })
		c.Close()
	}
}

// TestCallerMayOverwriteVectorAfterSend: SendReport copies the vector
// into the write buffer, so the reuse pattern of idldp-client — one
// report buffer overwritten per user — sends what was there at the call.
func TestCallerMayOverwriteVectorAfterSend(t *testing.T) {
	const m = 64
	srv, err := Serve("127.0.0.1:0", m)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(context.Background(), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	buf := bitvec.New(m)
	for i := 0; i < m; i++ {
		buf.Zero()
		buf.Set(i)
		if err := c.SendReport(buf); err != nil {
			t.Fatal(err)
		}
	}
	buf.Zero()
	for i := 0; i < m; i += 2 { // scribble before the flush
		buf.Set(i)
	}
	counts, n, _, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if n != m {
		t.Fatalf("n = %d, want %d", n, m)
	}
	for i, got := range counts {
		if got != 1 {
			t.Fatalf("bit %d counted %d times, want 1: the server folded a vector overwritten after SendReport", i, got)
		}
	}
}

// TestCloseReportsLostTail: a flush that fails on Close is Close's
// error — the queued reports never left.
func TestCloseReportsLostTail(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", 16)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, cc := dialCounting(t, srv.Addr())
	if err := c.SendReport(bitvec.OneHot(16, 1)); err != nil {
		t.Fatal(err)
	}
	cc.Conn.Close() // the connection dies under the client
	if err := c.Close(); err == nil {
		t.Fatal("Close returned nil with a report still queued on a dead connection")
	}
	if err := c.SendReport(bitvec.OneHot(16, 1)); err == nil {
		t.Fatal("send after a failed flush succeeded")
	}
}

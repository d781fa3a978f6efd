package transport

import (
	"context"
	"testing"

	"idldp/internal/agg"
	"idldp/internal/bitvec"
)

// BenchmarkReportThroughput measures end-to-end report frames per second
// over loopback TCP — timed until the server has folded every report —
// and the bytes per report that reached the socket.
func BenchmarkReportThroughput(b *testing.B) {
	s, err := Serve("127.0.0.1:0", 1024)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	c, cc := dialCounting(b, s.Addr())
	defer c.Close()
	v := bitvec.New(1024)
	for i := 0; i < 1024; i += 3 {
		v.Set(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.SendReport(v); err != nil {
			b.Fatal(err)
		}
	}
	sent := cc.bytes + int64(len(c.w.buf)) // before the snapshot request joins the stream
	if _, n, _, err := c.Snapshot(); err != nil || n != int64(b.N) {
		b.Fatalf("server folded %d of %d reports (err %v)", n, b.N, err)
	}
	b.StopTimer()
	b.ReportMetric(float64(sent)/float64(b.N), "wire-B/report")
}

// BenchmarkBatchThroughput measures pre-summed batch frames per second.
func BenchmarkBatchThroughput(b *testing.B) {
	s, err := Serve("127.0.0.1:0", 1024)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(context.Background(), s.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	local := agg.New(1024)
	v := bitvec.New(1024)
	v.Set(1)
	for i := 0; i < 1000; i++ {
		local.Add(v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.SendBatch(local); err != nil {
			b.Fatal(err)
		}
	}
}

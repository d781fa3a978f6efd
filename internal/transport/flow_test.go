package transport

import (
	"context"
	"sync"
	"testing"
	"time"

	"idldp/internal/bitvec"
	"idldp/internal/flow"
	"idldp/internal/server"
)

// tightPolicy retries fast enough for tests while still exercising the
// jittered backoff path.
func tightPolicy() flow.Policy {
	return flow.Policy{Base: time.Millisecond, Max: 20 * time.Millisecond, Attempts: 200, PerAttempt: 5 * time.Second}
}

func TestAckedIngestExactlyOnce(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", 16, server.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(context.Background(), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetRetryPolicy(tightPolicy(), 1)
	v := bitvec.New(16)
	v.Set(3)
	for i := 0; i < 10; i++ {
		if err := c.SendReportAck(context.Background(), v); err != nil {
			t.Fatalf("SendReportAck %d: %v", i, err)
		}
	}
	counts, n := srv.Snapshot()
	if n != 10 || counts[3] != 10 {
		t.Fatalf("n=%d counts[3]=%d, want 10/10", n, counts[3])
	}
	if st := c.FlowStats(); st.Attempts != 10 || st.Sheds != 0 {
		t.Fatalf("unsaturated flow stats = %+v, want 10 attempts 0 sheds", st)
	}
}

// TestAckedIngestConvergesUnderSaturation is the flow-control
// acceptance test: a saturated server pushes back, clients observe the
// shed signal, back off with jitter, and once pressure clears every
// report lands exactly once — acks gate re-send, so no dedup is needed
// — and the server/client shed counters agree.
func TestAckedIngestConvergesUnderSaturation(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", 16, server.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rt := srv.Runtime()
	rt.ForceSaturation(true)

	const clients = 4
	const perClient = 25
	var wg sync.WaitGroup
	stats := make([]flow.Stats, clients)
	errs := make([]error, clients)
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c, err := Dial(context.Background(), srv.Addr())
			if err != nil {
				errs[ci] = err
				return
			}
			defer c.Close()
			c.SetRetryPolicy(tightPolicy(), uint64(ci+1))
			v := bitvec.New(16)
			v.Set(ci % 16)
			for i := 0; i < perClient; i++ {
				if err := c.SendReportAck(context.Background(), v); err != nil {
					errs[ci] = err
					return
				}
			}
			stats[ci] = c.FlowStats()
		}(ci)
	}
	// Hold the pressure long enough that every client observes at least
	// one shed, then clear it and let the retries drain.
	time.Sleep(150 * time.Millisecond)
	rt.ForceSaturation(false)
	wg.Wait()
	for ci, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", ci, err)
		}
	}

	_, n := srv.Snapshot()
	if n != clients*perClient {
		t.Fatalf("n = %d, want %d — reports lost or duplicated under shed/retry", n, clients*perClient)
	}
	var clientSheds, clientRetries int64
	for ci, st := range stats {
		if st.Sheds == 0 {
			t.Errorf("client %d observed no shed signal while the server was saturated", ci)
		}
		if st.Backoff == 0 {
			t.Errorf("client %d backed off for zero time despite sheds", ci)
		}
		clientSheds += st.Sheds
		clientRetries += st.Retries
	}
	st := rt.Stats()
	if st.ShedRejectFrames != clientSheds {
		t.Fatalf("server counted %d rejected frames, clients observed %d shed acks", st.ShedRejectFrames, clientSheds)
	}
	if st.ShedRejectReports != clientSheds {
		t.Fatalf("server counted %d rejected reports, want %d (one per shed ack)", st.ShedRejectReports, clientSheds)
	}
	if clientRetries != clientSheds {
		t.Fatalf("retries %d != sheds %d: every shed must be retried exactly once", clientRetries, clientSheds)
	}
	if st.ShedReports != 0 {
		t.Fatalf("silent ShedReports = %d on the acked path, want 0", st.ShedReports)
	}
}

// TestRefusedAckedSendLeavesNoDeadline: a refused acked report leaves
// the connection open on the server, so the client must leave it usable
// too — no per-attempt deadline still armed to fail the next flush or
// Snapshot once it passes.
func TestRefusedAckedSendLeavesNoDeadline(t *testing.T) {
	const m = 16
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
	c.SetRetryPolicy(flow.Policy{Base: time.Millisecond, Max: time.Millisecond, Attempts: 2, PerAttempt: 50 * time.Millisecond}, 3)
	if err := c.SendReportAck(context.Background(), bitvec.OneHot(m+1, 2)); err == nil {
		t.Fatal("a report of the wrong length was acked")
	}
	time.Sleep(100 * time.Millisecond) // past the refused attempt's deadline
	if err := c.SendReport(bitvec.OneHot(m, 2)); err != nil {
		t.Fatal(err)
	}
	counts, n, _, err := c.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot after a refused acked send: %v", err)
	}
	if n != 1 || counts[2] != 1 {
		t.Fatalf("n = %d, counts[2] = %d: want the one good report", n, counts[2])
	}
}

func TestAckedIngestShedDuringDrain(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", 16, server.WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(context.Background(), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Two attempts only: under drain the pushback never clears, so the
	// send must exhaust quickly.
	c.SetRetryPolicy(flow.Policy{Base: time.Millisecond, Max: 2 * time.Millisecond, Attempts: 2, Floor: 0}, 7)
	srv.BeginDrain()
	v := bitvec.New(16)
	v.Set(1)
	err = c.SendReportAck(context.Background(), v)
	if err == nil {
		t.Fatal("acked send succeeded on a draining server")
	}
	if _, n := srv.Snapshot(); n != 0 {
		t.Fatalf("draining server folded %d reports", n)
	}
	if st := c.FlowStats(); st.Sheds != 2 {
		t.Fatalf("client sheds = %d, want 2 (both attempts pushed back)", st.Sheds)
	}
}

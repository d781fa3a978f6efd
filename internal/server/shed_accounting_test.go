package server

import (
	"slices"
	"testing"
	"time"
)

// TestShedAccountingBalances pins the accounting invariant of the legacy
// silent-shed path: whatever mix of frames lands and drops while the
// runtime is saturated, accepted (Stats.Reports) + shed
// (Stats.ShedReports) must equal exactly what was sent — a shed report
// is counted, never silently vanished. The saturation is made
// deterministic by wedging the single shard worker on an unread
// snapshot reply and arming the adaptive shed guard directly.
func TestShedAccountingBalances(t *testing.T) {
	s, err := New(4, WithShards(1), WithQueueDepth(1), WithAdaptiveBatch(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	s.retarget(1e9) // rate pins the target past max: shed guard armed
	if !s.shedArmed.Load() {
		t.Fatal("shed guard not armed")
	}

	// Wedge the worker, then fill the one queue slot behind it.
	gate := make(chan shardSnap)
	s.shards[0].ch <- shardMsg{snap: gate}
	for deadline := time.Now().Add(2 * time.Second); len(s.shards[0].ch) != 0; {
		if time.Now().After(deadline) {
			t.Fatal("worker never dequeued the wedge marker")
		}
		time.Sleep(time.Millisecond)
	}

	const sent = 20
	for i := 0; i < sent; i++ {
		if err := s.AddCounts([]int64{1, 0, 0, 1}, 1); err != nil {
			t.Fatal(err)
		}
		// Periodically unwedge-and-rewedge so some frames land and some
		// shed — the invariant must hold for any interleaving.
		if i == 9 {
			<-gate
			gate = make(chan shardSnap)
			s.shards[0].ch <- shardMsg{snap: gate}
			for deadline := time.Now().Add(2 * time.Second); len(s.shards[0].ch) != 0; {
				if time.Now().After(deadline) {
					t.Fatal("worker never dequeued the second wedge")
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
	<-gate

	st := s.Stats()
	if st.Reports+st.ShedReports != sent {
		t.Fatalf("accounting broken: accepted %d + shed %d != sent %d", st.Reports, st.ShedReports, sent)
	}
	if st.ShedReports == 0 {
		t.Fatal("nothing was shed — the saturation never bit")
	}
	if st.Reports == 0 {
		t.Fatal("everything was shed — the landed path never exercised")
	}
	counts, n, err := s.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if n != st.Reports {
		t.Fatalf("drained n = %d, want accepted count %d", n, st.Reports)
	}
	if counts[0] != n || counts[3] != n || counts[1] != 0 {
		t.Fatalf("drained counts %v inconsistent with %d identical reports", counts, n)
	}
}

// TestHandoffShedsPlainButLandsAdmitted: under forced adaptive
// saturation a plain-only flush that hands off its fold is shed —
// counted in ShedReports, its fold back on the free list empty — while
// a flush carrying an admitted report blocks until the shard has room
// and then lands.
func TestHandoffShedsPlainButLandsAdmitted(t *testing.T) {
	const m = 70
	s, err := New(m, WithShards(1), WithQueueDepth(1), WithAdaptiveBatch(1000, 1000))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.retarget(1e9) // shed guard armed, batch target 1000: no auto-flush below

	// Admitted before the pressure, as a connection does before its ack.
	acked := s.NewBatcher()
	if err := acked.Admit(1); err != nil {
		t.Fatal(err)
	}
	if err := acked.Add(report(t, m, 3)); err != nil {
		t.Fatal(err)
	}

	// Wedge the worker, then fill the one queue slot behind it.
	gate := make(chan shardSnap)
	s.shards[0].ch <- shardMsg{snap: gate}
	for deadline := time.Now().Add(2 * time.Second); len(s.shards[0].ch) != 0; {
		if time.Now().After(deadline) {
			t.Fatal("worker never dequeued the wedge marker")
		}
		time.Sleep(time.Millisecond)
	}
	filler := s.NewBatcher()
	if err := filler.Add(report(t, m, 5)); err != nil {
		t.Fatal(err)
	}
	if err := filler.Flush(); err != nil {
		t.Fatal(err)
	}
	if !s.Saturated() {
		t.Fatal("queue full and guard armed, but the runtime is not saturated")
	}

	plain := s.NewBatcher()
	for i := 0; i < 3; i++ {
		if err := plain.Add(report(t, m, 1)); err != nil {
			t.Fatal(err)
		}
	}
	shipped := plain.lanes
	if err := plain.Flush(); err != nil {
		t.Fatalf("shed flush returned %v, want nil (a shed is silent)", err)
	}
	if got := s.Stats().ShedReports; got != 3 {
		t.Fatalf("ShedReports = %d after shedding a 3-report fold, want 3", got)
	}
	select {
	case l := <-s.freeLanes:
		if l != shipped {
			t.Fatal("the free list holds a fold other than the shed one")
		}
		zero := make([]int64, m)
		if l.Drain(zero); l.Pending() != 0 || !slices.Equal(zero, make([]int64, m)) {
			t.Fatalf("the shed fold came back holding reports: %v", zero)
		}
	default:
		t.Fatal("the shed fold never reached the free list")
	}

	done := make(chan error, 1)
	go func() { done <- acked.Flush() }()
	select {
	case err := <-done:
		t.Fatalf("a flush carrying an admitted report returned (%v) while every queue was full", err)
	case <-time.After(50 * time.Millisecond):
	}
	<-gate // unwedge: the worker takes the filler, then the admitted flush
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the admitted flush never landed")
	}
	counts, n := s.Snapshot()
	if n != 2 || counts[3] != 1 || counts[5] != 1 || counts[1] != 0 {
		t.Fatalf("n = %d, counts[1,3,5] = %d,%d,%d: want the filler and the admitted report only",
			n, counts[1], counts[3], counts[5])
	}
	if st := s.Stats(); st.Reports+st.ShedReports != 5 {
		t.Fatalf("accepted %d + shed %d != 5 reports sent", st.Reports, st.ShedReports)
	}
}

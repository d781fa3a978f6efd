package server

import (
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"idldp/internal/bitvec"
	"idldp/internal/budget"
	"idldp/internal/core"
	"idldp/internal/dataset"
	"idldp/internal/estimate"
	"idldp/internal/opt"
	"idldp/internal/rng"
)

// flatSum is the scalar reference: every report folded bit by bit into
// one flat counts slice.
func flatSum(reports []*bitvec.Vector, m int) []int64 {
	counts := make([]int64, m)
	for _, v := range reports {
		v.AccumulateInto(counts)
	}
	return counts
}

// TestLaneFoldExactAcrossModes runs concurrent batchers in all three
// placement modes against one runtime, each interleaving Add, AddWords
// and AddCounts, while saturation pulses push the reject-mode flushes
// back. A pushed-back batcher keeps its pending block and only retries
// Flush; the final Snapshot must equal the flat scalar sum bit for bit.
func TestLaneFoldExactAcrossModes(t *testing.T) {
	const m, perProducer = 200, 1500 // m is not a multiple of 64: a padded last word column
	s, err := New(m, WithShards(2), WithBatchSize(37))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	makers := []func() *Batcher{s.NewBatcher, s.NewBlockingBatcher, s.NewRejectBatcher}
	const perMode = 2
	producers := len(makers) * perMode
	reports := randomReports(producers*perProducer, m, 21)

	// Saturation starts forced on and stays on until every reject-mode
	// producer has been pushed back at least once (its first flush is at
	// report 37, so each is), and only then starts pulsing: the retry path
	// runs on every run, not when the scheduler happens to line a flush up
	// with a pulse.
	var pushedBack atomic.Int32 // reject-mode producers pushed back so far
	s.ForceSaturation(true)
	stopPulses := make(chan struct{})
	pulsesDone := make(chan struct{})
	go func() {
		defer close(pulsesDone)
		for on := true; ; {
			if pushedBack.Load() == perMode {
				on = !on
				s.ForceSaturation(on)
			}
			select {
			case <-stopPulses:
				s.ForceSaturation(false)
				return
			case <-time.After(200 * time.Microsecond):
			}
		}
	}()

	var pushbacks int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			b := makers[p/perMode]()
			mine := reports[p*perProducer : (p+1)*perProducer]
			var pushed int64
			// settle absorbs reject-mode pushback: the report is already
			// part of the pending block, so only the flush is retried.
			settle := func(err error) error {
				for errors.Is(err, ErrSaturated) {
					if pushed++; pushed == 1 {
						pushedBack.Add(1)
					}
					runtime.Gosched()
					err = b.Flush()
				}
				return err
			}
			for i, v := range mine {
				var err error
				switch i % 3 {
				case 0:
					err = b.Add(v)
				case 1:
					err = b.AddWords(v.Words(), v.Len())
				default:
					one := make([]int64, m)
					v.AccumulateInto(one)
					err = b.AddCounts(one, 1)
				}
				if err = settle(err); err != nil {
					t.Errorf("producer %d report %d: %v", p, i, err)
					return
				}
			}
			if err := settle(b.Flush()); err != nil {
				t.Errorf("producer %d final flush: %v", p, err)
			}
			if b.Pending() != 0 {
				t.Errorf("producer %d: %d reports still pending", p, b.Pending())
			}
			mu.Lock()
			pushbacks += pushed
			mu.Unlock()
		}(p)
	}
	wg.Wait()
	close(stopPulses)
	<-pulsesDone

	counts, n := s.Snapshot()
	if n != int64(len(reports)) {
		t.Fatalf("n = %d, want %d", n, len(reports))
	}
	if !slices.Equal(counts, flatSum(reports, m)) {
		t.Fatal("Snapshot != flat scalar sum")
	}
	if pushbacks == 0 {
		t.Error("no reject-mode flush was ever pushed back: the retry path went untested")
	}
	if st := s.Stats(); st.ShedReports != 0 {
		t.Errorf("ShedReports = %d on a non-adaptive runtime", st.ShedReports)
	}
}

// TestBatchTargetAbovePlaneCap: an adaptive batch target larger than the
// fold's plane cap stays exact — the kernel spills into the frame before
// its counters can overflow — and still ships the batch as one frame.
func TestBatchTargetAbovePlaneCap(t *testing.T) {
	const m = 67
	const target = bitvec.LaneCap + 1000
	s, err := New(m, WithShards(1), WithAdaptiveBatch(target, target))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.batchTarget(); got != target {
		t.Fatalf("batch target = %d, want %d", got, target)
	}
	// Bit 0 is set in every report, so its counter sits exactly at the
	// number of reports folded — the first to overflow a plane too few.
	pool := randomReports(50, m, 5)
	for _, v := range pool {
		v.Set(0)
	}
	want := make([]int64, m)
	b := s.NewBatcher()
	for i := 0; i < target+10; i++ {
		v := pool[i%len(pool)]
		if err := b.AddWords(v.Words(), v.Len()); err != nil {
			t.Fatal(err)
		}
		v.AccumulateInto(want)
	}
	if got := s.Stats().Frames; got != 1 {
		t.Fatalf("frames before the final flush = %d, want 1 (one %d-report batch)", got, target)
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	counts, n := s.Snapshot()
	if n != target+10 || !slices.Equal(counts, want) {
		t.Fatalf("n = %d (want %d), counts equal: %v", n, target+10, slices.Equal(counts, want))
	}
}

// TestRecycledFramesNeverLeak: acked ingest flushes every few reports,
// so folds and frames cycle batcher → shard → free list → batcher
// constantly. Every third flush also carries a pre-summed report, so it
// ships a counts frame; the others hand off their fold. A recycled fold
// or frame must come back empty: total and per-bit sums over many small
// flushes equal the reference, and both really are reused.
func TestRecycledFramesNeverLeak(t *testing.T) {
	const m, producers, flushes = 130, 3, 4000
	s, err := New(m, WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	reports := randomReports(producers*flushes*2, m, 9)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			b := s.NewBlockingBatcher()
			mine := reports[p*flushes*2 : (p+1)*flushes*2]
			frames, folds := map[*int64]bool{}, map[*bitvec.Lanes]bool{}
			var frameFlushes, foldFlushes int
			for flush := 0; len(mine) > 0; flush++ {
				k := 1 + len(mine)%3 // 1–3 reports per flush
				k = min(k, len(mine))
				for i, v := range mine[:k] {
					var err error
					if i == 0 && flush%3 == 0 {
						one := make([]int64, m)
						v.AccumulateInto(one)
						err = b.AddCounts(one, 1)
					} else {
						err = b.AddWords(v.Words(), v.Len())
					}
					if err != nil {
						t.Error(err)
						return
					}
				}
				mine = mine[k:]
				if flush%3 == 0 {
					frames[&b.counts[0]] = true
					frameFlushes++
				} else {
					folds[b.lanes] = true
					foldFlushes++
				}
				if err := b.Flush(); err != nil {
					t.Error(err)
					return
				}
			}
			if len(frames) > frameFlushes/2 {
				t.Errorf("producer %d filled %d distinct frames over %d frame flushes: frames are not being recycled",
					p, len(frames), frameFlushes)
			}
			if len(folds) > foldFlushes/2 {
				t.Errorf("producer %d handed off %d distinct folds over %d fold flushes: folds are not being recycled",
					p, len(folds), foldFlushes)
			}
		}(p)
	}
	wg.Wait()
	counts, n := s.Snapshot()
	if n != int64(len(reports)) {
		t.Fatalf("n = %d, want %d", n, len(reports))
	}
	if !slices.Equal(counts, flatSum(reports, m)) {
		t.Fatal("Snapshot != flat scalar sum: a recycled frame leaked counts")
	}
}

// TestLaneFoldPreservesIDUEVariance is the privacy/utility guard on the
// fold: the deployed path PerturbItemInto → Batcher.AddWords → Snapshot →
// EstimateSingle, at the Fig. 3 setting (power-law α = 2, m = 100,
// budget.Default(1.0), Opt0), must keep the empirical total MSE within
// [0.8, 1.25]× the analytic IDUE variance of Eq. (9). A fold that drops
// or doubles one lane of sixteen shifts every count by ~n·0.27/16 — tens
// of standard deviations — so it fails here, not only in the benchmark.
func TestLaneFoldPreservesIDUEVariance(t *testing.T) {
	const m, users, reps = 100, 20000, 16
	asgn, err := budget.Assign(m, budget.Default(1.0), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.New(core.Config{Budgets: asgn, Model: opt.Opt0, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	data := dataset.PowerLawSingle(users, m, 2, 3)
	truth := data.TrueCounts()
	analytic, err := eng.TheoreticalTotalMSE(truth, users)
	if err != nil {
		t.Fatal(err)
	}
	var empirical float64
	for rep := 0; rep < reps; rep++ {
		s, err := New(m, WithShards(2))
		if err != nil {
			t.Fatal(err)
		}
		b := s.NewBatcher()
		buf := eng.NewReport()
		r := rng.New(uint64(100 + rep))
		for _, item := range data.Items {
			eng.PerturbItemInto(item, r, buf)
			if err := b.AddWords(buf.Words(), buf.Len()); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.Flush(); err != nil {
			t.Fatal(err)
		}
		counts, n := s.Snapshot()
		s.Close()
		est, err := eng.EstimateSingle(counts, int(n))
		if err != nil {
			t.Fatal(err)
		}
		se, err := estimate.TotalSquaredError(est, truth)
		if err != nil {
			t.Fatal(err)
		}
		empirical += se / reps
	}
	if ratio := empirical / analytic; ratio < 0.8 || ratio > 1.25 {
		t.Fatalf("empirical total MSE %.4g is %.3f× the analytic %.4g, want within [0.8, 1.25]×",
			empirical, ratio, analytic)
	} else {
		t.Logf("empirical/analytic total MSE = %.3f over %d campaigns of %d users", ratio, reps, users)
	}
}

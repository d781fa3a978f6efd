package bitvec_test

import (
	"fmt"
	"testing"
	"time"

	"idldp/internal/bitvec"
	"idldp/internal/budget"
	"idldp/internal/core"
	"idldp/internal/opt"
	"idldp/internal/rng"
)

// foldReports perturbs count reports with the default engine at the
// paper's section VII setting (m = 1024, budget.Default(1.0)), so the
// fold sees the bit density the collector really ingests (~0.27).
func foldReports(tb testing.TB, count int) (words [][]uint64, bits int) {
	const m = 1024
	asgn, err := budget.Assign(m, budget.Default(1.0), rng.New(1))
	if err != nil {
		tb.Fatal(err)
	}
	eng, err := core.New(core.Config{Budgets: asgn, Model: opt.Opt0, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	root, ur := rng.New(2), rng.New(0)
	words = make([][]uint64, count)
	for i := range words {
		root.SplitNInto(i, ur)
		words[i] = eng.PerturbItem(i%m, ur).Words()
	}
	return words, m
}

// foldScalar and foldLanes sum reports into counts in batches, the way
// server.Batcher does: fold a batch, ship it (here: keep adding into
// the same counts).
func foldScalar(reports [][]uint64, bits int, counts []int64) {
	for _, w := range reports {
		if err := bitvec.AccumulateWordsInto(w, bits, counts); err != nil {
			panic(err)
		}
	}
}

func foldLanes(l *bitvec.Lanes, reports [][]uint64, bits, batch int, counts []int64) {
	for i, w := range reports {
		if err := l.AddWords(w, bits, counts); err != nil {
			panic(err)
		}
		if (i+1)%batch == 0 {
			l.Drain(counts)
		}
	}
	l.Drain(counts)
}

// addLanes sums reports the way a batcher and its shard do: fold a
// batch, hand the fold to an accumulator (AddLanes), and drain the
// accumulator into counts once at the end.
func addLanes(l, acc *bitvec.Lanes, reports [][]uint64, bits, batch int, counts []int64) {
	for i, w := range reports {
		if err := l.AddWords(w, bits, counts); err != nil {
			panic(err)
		}
		if (i+1)%batch == 0 {
			acc.AddLanes(l, counts)
		}
	}
	acc.AddLanes(l, counts)
	acc.Drain(counts)
}

// BenchmarkFold compares the scalar per-set-bit fold with the lane fold
// (one op = one report), draining each batch or adding it into an
// accumulator, and asserts the two floors the batch runtime is built
// on: at batch 256 the lanes are at least 3× the scalar loop (measured
// ~9×), and adding a 64-report fold into an accumulator is at least 3×
// cheaper than draining it (measured ~7×).
func BenchmarkFold(b *testing.B) {
	const pool, handoff = 4096, 64
	reports, bits := foldReports(b, pool)
	counts := make([]int64, bits)
	b.Run("scalar", func(b *testing.B) {
		for i := 0; i < b.N; i += pool {
			foldScalar(reports[:min(pool, b.N-i)], bits, counts)
		}
	})
	l, acc := bitvec.NewLanes(bits), bitvec.NewLanes(bits)
	for _, batch := range []int{64, 256} {
		b.Run(fmt.Sprintf("lanes/batch=%d", batch), func(b *testing.B) {
			for i := 0; i < b.N; i += pool {
				foldLanes(l, reports[:min(pool, b.N-i)], bits, batch, counts)
			}
		})
	}
	b.Run(fmt.Sprintf("lanes-add/batch=%d", handoff), func(b *testing.B) {
		for i := 0; i < b.N; i += pool {
			addLanes(l, acc, reports[:min(pool, b.N-i)], bits, handoff, counts)
		}
	})

	// The floors are timed on whole pools (best of five), independent of
	// -benchtime, so the 1x bench smoke in CI asserts them too.
	best := func(setup, fold func()) time.Duration {
		d := time.Duration(1<<63 - 1)
		for rep := 0; rep < 5; rep++ {
			setup()
			start := time.Now()
			fold()
			d = min(d, time.Since(start))
		}
		return d
	}
	none := func() {}
	scalar := best(none, func() { foldScalar(reports, bits, counts) })
	lanes := best(none, func() { foldLanes(l, reports, bits, 256, counts) })
	if ratio := float64(scalar) / float64(lanes); ratio < 3 {
		b.Fatalf("lane fold is %.1f× the scalar fold at batch 256 (%v vs %v per %d reports), want ≥ 3×",
			ratio, lanes, scalar, pool)
	}

	// The hand-off floor: the pool as 64 folds of 64 reports each, either
	// added one by one into an accumulator or drained one by one.
	folds := make([]*bitvec.Lanes, pool/handoff)
	for i := range folds {
		folds[i] = bitvec.NewLanes(bits)
	}
	refill := func() {
		acc.Drain(counts)
		for i, f := range folds {
			f.Reset()
			for _, w := range reports[i*handoff : (i+1)*handoff] {
				if err := f.AddWords(w, bits, counts); err != nil {
					panic(err)
				}
			}
		}
	}
	add := best(refill, func() {
		for _, f := range folds {
			acc.AddLanes(f, counts)
		}
	})
	drain := best(refill, func() {
		for _, f := range folds {
			f.Drain(counts)
		}
	})
	if ratio := float64(drain) / float64(add); ratio < 3 {
		b.Fatalf("adding a %d-report fold costs %v, draining it %v: %.1f×, want ≥ 3×",
			handoff, add/time.Duration(len(folds)), drain/time.Duration(len(folds)), ratio)
	}
}

package collect

import (
	"math"
	"testing"

	"idldp/internal/bitvec"
	"idldp/internal/budget"
	"idldp/internal/core"
	"idldp/internal/estimate"
	"idldp/internal/rng"
)

// TestRunSingleDeterministicAcrossWorkerCounts runs one campaign at 1, 4
// and 16 workers over populations on both sides of every frame boundary a
// worker can meet: fewer users than one frame (in all, and per worker),
// and 4,096·k − 1, 4,096·k and 4,096·k + 1, where the last frame of the
// one-worker run is full, one short, or a single report. Each must fold
// exactly the flat per-user sum.
func TestRunSingleDeterministicAcrossWorkerCounts(t *testing.T) {
	e, err := core.New(core.Config{Budgets: budget.ToyExample()})
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int{1, 17, 2000}
	for _, k := range []int{1, 2, 4} {
		sizes = append(sizes, k*frameReports-1, k*frameReports, k*frameReports+1)
	}
	for _, n := range sizes {
		items := make([]int, n)
		for i := range items {
			items[i] = i % 5
		}
		run := func(workers int) []int64 {
			a, err := RunSingle(items, e.M(), e.PerturbItem, Options{Workers: workers, Seed: 9})
			if err != nil {
				t.Fatal(err)
			}
			if a.N() != int64(n) {
				t.Fatalf("n=%d workers=%d: folded N=%d", n, workers, a.N())
			}
			return a.Counts()
		}
		// The flat sum the frames must add up to: user u's report drawn from
		// the root's u-th derived stream.
		want, root := make([]int64, e.M()), rng.New(9)
		for u, item := range items {
			e.PerturbItem(item, root.SplitN(u)).AccumulateInto(want)
		}
		c1, c4, c16 := run(1), run(4), run(16)
		for i := range want {
			if c1[i] != want[i] || c4[i] != want[i] || c16[i] != want[i] {
				t.Fatalf("n=%d: 1, 4 and 16 workers folded %v %v %v, the flat sum is %v", n, c1, c4, c16, want)
			}
		}
	}
}

func TestRunSingleEstimatesNearTruth(t *testing.T) {
	e, err := core.New(core.Config{Budgets: budget.ToyExample()})
	if err != nil {
		t.Fatal(err)
	}
	const n = 40000
	items := make([]int, n)
	truth := make([]float64, 5)
	for i := range items {
		items[i] = i % 5
		truth[i%5]++
	}
	a, err := RunSingle(items, e.M(), e.PerturbItem, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	est, err := e.EstimateSingle(a.Counts(), n)
	if err != nil {
		t.Fatal(err)
	}
	for i := range truth {
		if math.Abs(est[i]-truth[i]) > 0.15*truth[i]+200 {
			t.Errorf("item %d estimate %v truth %v", i, est[i], truth[i])
		}
	}
}

func TestRunSetsPipeline(t *testing.T) {
	asgn, err := budget.Assign(8, budget.Default(2), rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.New(core.Config{Budgets: asgn, PaddingLength: 2})
	if err != nil {
		t.Fatal(err)
	}
	sets := make([][]int, 10000)
	truth := make([]float64, 8)
	for u := range sets {
		sets[u] = []int{u % 8, (u + 3) % 8}
		truth[u%8]++
		truth[(u+3)%8]++
	}
	a, err := RunSets(sets, e.SetMech().Bits(), e.PerturbSet, Options{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	est, err := e.EstimateSet(a.Counts(), len(sets))
	if err != nil {
		t.Fatal(err)
	}
	se, err := estimate.TotalSquaredError(est, truth)
	if err != nil {
		t.Fatal(err)
	}
	// Loose sanity bound: each estimate within a plausible band of 2500
	// true count → total squared error far below catastrophic failure.
	if se > 8e7 {
		t.Errorf("total squared error %v implausibly large", se)
	}
}

func TestRunEmpty(t *testing.T) {
	a, err := RunSingle(nil, 4, func(int, *rng.Source) *bitvec.Vector {
		t.Fatal("perturb called for empty input")
		return nil
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.N() != 0 {
		t.Fatalf("N=%d", a.N())
	}
}

func TestRunInvalidBits(t *testing.T) {
	if _, err := RunSingle([]int{1}, 0, nil, Options{}); err != nil {
	} else {
		t.Error("bits=0 accepted")
	}
	if _, err := RunSets([][]int{{1}}, -1, nil, Options{}); err == nil {
		t.Error("bits<0 accepted")
	}
}

func TestWorkerPanicSurfacesAsError(t *testing.T) {
	_, err := RunSingle([]int{1, 2, 3}, 4, func(item int, r *rng.Source) *bitvec.Vector {
		panic("boom")
	}, Options{Workers: 2, Seed: 1})
	if err == nil {
		t.Fatal("worker panic not surfaced")
	}
}

// TestRunSingleIntoMatchesRunSingle pins that the allocation-free path
// aggregates bit-for-bit the same counts as the allocating path: both
// feed each user the same derived stream and the same mechanism.
func TestRunSingleIntoMatchesRunSingle(t *testing.T) {
	e, err := core.New(core.Config{Budgets: budget.ToyExample()})
	if err != nil {
		t.Fatal(err)
	}
	items := make([]int, 3000)
	for i := range items {
		items[i] = i % 5
	}
	o := Options{Workers: 4, Seed: 21}
	alloc, err := RunSingle(items, e.M(), e.PerturbItem, o)
	if err != nil {
		t.Fatal(err)
	}
	into, err := RunSingleInto(items, e.M(), e.PerturbItemInto, o)
	if err != nil {
		t.Fatal(err)
	}
	if alloc.N() != into.N() {
		t.Fatalf("N: %d vs %d", alloc.N(), into.N())
	}
	ca, ci := alloc.Counts(), into.Counts()
	for i := range ca {
		if ca[i] != ci[i] {
			t.Fatalf("bit %d: RunSingle %d != RunSingleInto %d", i, ca[i], ci[i])
		}
	}
}

// TestRunSetsIntoMatchesRunSets is the item-set counterpart.
func TestRunSetsIntoMatchesRunSets(t *testing.T) {
	e, err := core.New(core.Config{Budgets: budget.ToyExample(), PaddingLength: 2})
	if err != nil {
		t.Fatal(err)
	}
	sets := make([][]int, 2000)
	for i := range sets {
		sets[i] = []int{i % 5, (i + 2) % 5}
	}
	bits := e.M() + e.PaddingLength()
	o := Options{Workers: 3, Seed: 33}
	alloc, err := RunSets(sets, bits, e.PerturbSet, o)
	if err != nil {
		t.Fatal(err)
	}
	into, err := RunSetsInto(sets, bits, e.PerturbSetInto, o)
	if err != nil {
		t.Fatal(err)
	}
	ca, ci := alloc.Counts(), into.Counts()
	for i := range ca {
		if ca[i] != ci[i] {
			t.Fatalf("bit %d: RunSets %d != RunSetsInto %d", i, ca[i], ci[i])
		}
	}
}

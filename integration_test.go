package idldp

// Cross-module integration tests: full pipelines over the simulated
// datasets, sequential-composition accounting across survey rounds, and
// heavy-hitter identification on IDUE estimates.

import (
	"math"
	"testing"

	"idldp/internal/budget"
	"idldp/internal/collect"
	"idldp/internal/core"
	"idldp/internal/dataset"
	"idldp/internal/estimate"
	"idldp/internal/notion"
	"idldp/internal/opt"
	"idldp/internal/ps"
	"idldp/internal/rng"
)

// TestPipelineOnAllSimulatedDatasets runs the complete item-set protocol
// (solve → perturb → aggregate → calibrate) on each simulated real-world
// dataset and checks the top items are recovered with plausible error.
func TestPipelineOnAllSimulatedDatasets(t *testing.T) {
	datasets := map[string]*dataset.SetValued{}
	k := dataset.DefaultKosarak()
	k.Users = 8000
	k.Pages = 500
	kos := dataset.Kosarak(k)
	red, err := kos.TopM(32)
	if err != nil {
		t.Fatal(err)
	}
	datasets["kosarak"] = red
	r := dataset.DefaultRetail()
	r.Users = 8000
	r.Items = 500
	ret := dataset.Retail(r)
	red, err = ret.TopM(32)
	if err != nil {
		t.Fatal(err)
	}
	datasets["retail"] = red
	m := dataset.DefaultMSNBC()
	m.Users = 8000
	datasets["msnbc"] = dataset.MSNBC(m)

	for name, data := range datasets {
		t.Run(name, func(t *testing.T) {
			asgn, err := budget.Assign(data.M, budget.Default(2), rng.New(1))
			if err != nil {
				t.Fatal(err)
			}
			ell, err := ps.ChooseEll(data.Sets, ps.EllConfig{Eps: 0.5, MaxSize: 24, Seed: 2})
			if err != nil {
				t.Fatal(err)
			}
			e, err := core.New(core.Config{Budgets: asgn, Model: opt.Opt1, PaddingLength: ell, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			a, err := collect.RunSets(data.Sets, e.SetMech().Bits(), e.PerturbSet, collect.Options{Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			est, err := e.EstimateSet(a.Counts(), data.N())
			if err != nil {
				t.Fatal(err)
			}
			truth := data.TrueCounts()
			top, err := estimate.TopK(truth, 3)
			if err != nil {
				t.Fatal(err)
			}
			for _, i := range top {
				if truth[i] == 0 {
					continue
				}
				rel := math.Abs(est[i]-truth[i]) / truth[i]
				if rel > 0.9 {
					t.Errorf("%s (ell=%d): top item %d estimate %v truth %v (rel err %.2f)",
						name, ell, i, est[i], truth[i], rel)
				}
			}
		})
	}
}

// TestTwoRoundCompositionSpendsDeclaredBudget splits a per-item budget
// set across two survey rounds (60% and 40% of each item's budget), builds
// an engine for each round, and checks the accountant composes the rounds'
// per-item spend back to the declared budgets (Theorem 2).
func TestTwoRoundCompositionSpendsDeclaredBudget(t *testing.T) {
	const mSize = 8
	full, err := budget.Assign(mSize, budget.Default(3), rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	levelOf := make([]int, mSize)
	for i := range levelOf {
		levelOf[i] = full.LevelOf(i)
	}
	acct := notion.NewAccountant(mSize)
	for _, frac := range []float64{0.6, 0.4} {
		eps := full.LevelEpsAll()
		for l := range eps {
			eps[l] *= frac
		}
		asgn, err := budget.FromLevels(levelOf, eps)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := core.New(core.Config{Budgets: asgn, Model: opt.Opt1, Seed: 1}); err != nil {
			t.Fatalf("round at %v of the budget: %v", frac, err)
		}
		if err := acct.Spend(asgn.PerItem()); err != nil {
			t.Fatal(err)
		}
	}
	for i, tot := range acct.TotalPerInput() {
		if math.Abs(tot-full.EpsOf(i)) > 1e-9 {
			t.Fatalf("item %d composed budget %v != declared %v", i, tot, full.EpsOf(i))
		}
	}
}

// TestHeavyHittersOnIDUE runs heavy-hitter identification end to end on
// IDUE estimates and checks precision/recall against ground truth.
func TestHeavyHittersOnIDUE(t *testing.T) {
	const mSize, n = 30, 80000
	asgn, err := budget.Assign(mSize, budget.Default(2), rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.New(core.Config{Budgets: asgn, Model: opt.Opt1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Three clear heavy hitters (items 0-2), the rest spread thin.
	items := make([]int, n)
	truth := make([]float64, mSize)
	r := rng.New(8)
	for u := range items {
		var x int
		switch {
		case u%10 < 3:
			x = u % 3 // 10% each on items 0..2
		default:
			x = 3 + r.IntN(mSize-3)
		}
		items[u] = x
		truth[x]++
	}
	a, err := collect.RunSingle(items, mSize, e.PerturbItem, collect.Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	est, err := e.EstimateSingle(a.Counts(), n)
	if err != nil {
		t.Fatal(err)
	}
	ue := e.UE()
	hh, err := estimate.HeavyHitters(est, n, ue.A, ue.B, 1, estimate.HeavyHitterConfig{Threshold: 5000})
	if err != nil {
		t.Fatal(err)
	}
	prec, rec := estimate.PrecisionRecall(hh, truth, 5000)
	if prec < 0.99 || rec < 0.99 {
		t.Errorf("precision %v recall %v; heavy hitters %v", prec, rec, hh)
	}
}

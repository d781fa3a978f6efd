package main

import (
	"fmt"

	"idldp/internal/bitvec"
	"idldp/internal/budget"
	"idldp/internal/core"
	"idldp/internal/dataset"
	"idldp/internal/opt"
	"idldp/internal/rng"
)

// Every workload runs the paper's section VII setting: m = 1024 items,
// budgets {eps, 1.2eps, 2eps, 4eps} on {5, 5, 5, 85}% of the items.
const (
	domainM   = 1024
	baseEps   = 1.0
	setEll    = 8   // IDUE-PS padding length
	alphaZipf = 2.0 // power-law exponent of the single-item dataset
)

func assignment(seed uint64) (*budget.Assignment, error) {
	return budget.Assign(domainM, budget.Default(baseEps), rng.New(seed))
}

// itemInputs is the generated input of the single-item workloads: the
// users' items and the solved IDUE engine. Only these reach the program.
type itemInputs struct {
	eng   *core.Engine
	items []int
}

func setupItem(seed uint64, users int) (*itemInputs, error) {
	asgn, err := assignment(seed)
	if err != nil {
		return nil, fmt.Errorf("assign budgets: %w", err)
	}
	eng, err := core.New(core.Config{Budgets: asgn, Model: opt.Opt0, Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("solve opt0: %w", err)
	}
	data := dataset.PowerLawSingle(users, domainM, alphaZipf, seed)
	return &itemInputs{eng: eng, items: data.Items}, nil
}

// setInputs is the generated input of batch_set: Retail-like baskets
// restricted to the 1024 most frequent items, and the IDUE-PS engine.
type setInputs struct {
	eng  *core.Engine
	sets [][]int
}

func setupSet(seed uint64, users int) (*setInputs, error) {
	asgn, err := assignment(seed)
	if err != nil {
		return nil, fmt.Errorf("assign budgets: %w", err)
	}
	eng, err := core.New(core.Config{Budgets: asgn, Model: opt.Opt1, PaddingLength: setEll, Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("solve opt1: %w", err)
	}
	rc := dataset.DefaultRetail()
	rc.Users, rc.Items, rc.Seed = users, 4*domainM, seed
	top, err := dataset.Retail(rc).TopM(domainM)
	if err != nil {
		return nil, fmt.Errorf("retail top-%d: %w", domainM, err)
	}
	return &setInputs{eng: eng, sets: top.Sets}, nil
}

// perturbPool pre-perturbs one report per item, so the service
// workloads exercise no core code inside their timed sections.
func perturbPool(eng *core.Engine, items []int, seed uint64) []*bitvec.Vector {
	root, ur := rng.New(seed), rng.New(0)
	pool := make([]*bitvec.Vector, len(items))
	for i, it := range items {
		root.SplitNInto(i, ur)
		pool[i] = eng.NewReport()
		eng.PerturbItemInto(it, ur, pool[i])
	}
	return pool
}

// poolSum folds uses[i] copies of pool[i] into flat counts: the
// reference a fleet's merged counts must equal bit for bit.
func poolSum(pool []*bitvec.Vector, uses []int64) (counts []int64, n int64) {
	counts = make([]int64, pool[0].Len())
	one := make([]int64, len(counts))
	for i, v := range pool {
		if uses[i] == 0 {
			continue
		}
		for k := range one {
			one[k] = 0
		}
		v.AccumulateInto(one)
		for k, c := range one {
			counts[k] += c * uses[i]
		}
		n += uses[i]
	}
	return counts, n
}

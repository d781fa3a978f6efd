// Package longitudinal extends the one-shot protocol to repeated
// collection of the same value, following RAPPOR's two-level
// randomization (the paper's baseline, Erlingsson et al. CCS 2014): each
// user computes a memoized *permanent* perturbation of her input once
// (IDUE at the permanent budgets) and, in every collection round, reports
// an *instantaneous* re-randomization of the memoized vector.
//
// The permanent layer bounds what an adversary observing every round can
// learn about the input — by MinID-LDP sequential composition the
// per-round reports reveal nothing beyond the memoized vector, which is
// itself an IDUE report — while the instantaneous layer prevents exact
// tracking of a user across rounds.
package longitudinal

import (
	"fmt"

	"idldp/internal/bitvec"
	"idldp/internal/budget"
	"idldp/internal/core"
	"idldp/internal/estimate"
	"idldp/internal/mech"
	"idldp/internal/opt"
	"idldp/internal/rng"
)

// Config configures a longitudinal collector.
type Config struct {
	// Budgets are the *permanent* per-item budgets, protecting the input
	// across unboundedly many rounds.
	Budgets *budget.Assignment
	// InstEps is the uniform instantaneous (per-round) budget applied to
	// the memoized vector with a symmetric RAPPOR-style layer.
	InstEps float64
	// Model selects the IDUE optimization program for the permanent layer.
	Model opt.Model
	// Seed drives the permanent layer's solver.
	Seed uint64
}

// Collector builds memoized user states and per-round reports.
type Collector struct {
	cfg    Config
	engine *core.Engine
	inst   *mech.UE // m-bit symmetric instantaneous layer
	instA  float64  // Pr(report 1 | memoized 1)
	instB  float64  // Pr(report 1 | memoized 0)
	effA   []float64
	effB   []float64
}

// New validates the configuration and derives the effective per-bit
// probabilities the server calibrates against: the composition of the
// permanent IDUE parameters (a_i, b_i) with the instantaneous layer
// (p, 1-p), namely a_eff = a·p + (1-a)(1-p).
func New(cfg Config) (*Collector, error) {
	if cfg.InstEps <= 0 {
		return nil, fmt.Errorf("longitudinal: instantaneous budget %v must be positive", cfg.InstEps)
	}
	engine, err := core.New(core.Config{Budgets: cfg.Budgets, Model: cfg.Model, Seed: cfg.Seed})
	if err != nil {
		return nil, fmt.Errorf("longitudinal: %w", err)
	}
	// The instantaneous layer is an m-bit symmetric UE applied to the
	// memoized vector; building it as a mech.UE lets Report ride the
	// planned fast path instead of one Bernoulli per bit.
	instUE, err := mech.NewRAPPOR(cfg.InstEps, engine.M())
	if err != nil {
		return nil, fmt.Errorf("longitudinal: %w", err)
	}
	p, q := instUE.A[0], instUE.B[0]
	ue := engine.UE()
	m := engine.M()
	c := &Collector{
		cfg: cfg, engine: engine, inst: instUE, instA: p, instB: q,
		effA: make([]float64, m), effB: make([]float64, m),
	}
	for i := 0; i < m; i++ {
		c.effA[i] = ue.A[i]*p + (1-ue.A[i])*q
		c.effB[i] = ue.B[i]*p + (1-ue.B[i])*q
	}
	return c, nil
}

// M returns the domain size.
func (c *Collector) M() int { return c.engine.M() }

// UserState is one user's memoized permanent perturbation. It must be
// stored on the user's device and reused for every round; regenerating it
// per round would degrade the permanent guarantee by composition.
type UserState struct {
	permanent *bitvec.Vector
}

// NewUserState memoizes the permanent perturbation of the user's item.
func (c *Collector) NewUserState(item int, r *rng.Source) *UserState {
	return &UserState{permanent: c.engine.PerturbItem(item, r)}
}

// Report produces one round's instantaneous report from the memoized
// state. It allocates the report; ReportInto with a NewReport buffer is
// the allocation-free variant for per-round report loops.
func (c *Collector) Report(s *UserState, r *rng.Source) *bitvec.Vector {
	y := bitvec.New(s.permanent.Len())
	c.ReportInto(s, r, y)
	return y
}

// ReportInto writes one round's instantaneous report into out without
// allocating, on mech's planned fast path. out must have M() bits and
// be distinct from the memoized state; each call overwrites it, so one
// buffer serves a whole reporting loop.
func (c *Collector) ReportInto(s *UserState, r *rng.Source, out *bitvec.Vector) {
	c.inst.PerturbInto(s.permanent, r, out)
}

// NewReport returns an m-bit buffer sized for ReportInto.
func (c *Collector) NewReport() *bitvec.Vector { return bitvec.New(c.engine.M()) }

// Estimate calibrates one round's aggregated bit counts against the
// effective (permanent ∘ instantaneous) probabilities.
func (c *Collector) Estimate(counts []int64, n int) ([]float64, error) {
	return estimate.Calibrate(counts, n, c.effA, c.effB, 1)
}

// PermanentLDPBudget returns the plain-LDP budget of the permanent layer
// — the bound on total leakage across all rounds (the adversary's view is
// a post-processing of the memoized vector).
func (c *Collector) PermanentLDPBudget() float64 { return c.engine.RealizedLDPBudget() }

// RoundLDPBudget returns the instantaneous budget spent per round against
// an adversary who sees only that round and not the memoized state.
func (c *Collector) RoundLDPBudget() float64 { return c.cfg.InstEps }

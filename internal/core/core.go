// Package core assembles the paper's primary contribution from the
// substrate packages: given per-item privacy budgets, it solves the
// perturbation probabilities (§V-D), builds the IDUE mechanism
// (Algorithm 1) and — when a padding length is configured — the IDUE-PS
// item-set mechanism (Algorithm 3), verifies the result against the
// selected ID-LDP notion, and exposes the client-side perturbation and
// server-side estimation halves of the protocol.
package core

import (
	"fmt"
	"math"

	"idldp/internal/agg"
	"idldp/internal/bitvec"
	"idldp/internal/budget"
	"idldp/internal/estimate"
	"idldp/internal/mech"
	"idldp/internal/notion"
	"idldp/internal/opt"
	"idldp/internal/ps"
	"idldp/internal/rng"
)

// Config configures an Engine.
type Config struct {
	// Budgets assigns every item a privacy budget (required).
	Budgets *budget.Assignment
	// Notion is the ID-LDP instantiation to satisfy. Defaults to
	// MinID-LDP (Definition 3).
	Notion notion.Notion
	// Model selects the optimization program for the perturbation
	// probabilities. Defaults to Opt0 (Eq. 10).
	Model opt.Model
	// PaddingLength enables item-set input via Padding-and-Sampling with
	// ℓ dummy items. Zero means single-item input only.
	PaddingLength int
	// Seed is passed to the solver, which ignores it: every model's solve,
	// Opt0's included, is deterministic.
	Seed uint64
}

// Engine is a ready-to-run ID-LDP frequency-estimation protocol: the
// user-side Perturb* methods and the server-side Estimate* methods share
// the solved parameters.
type Engine struct {
	cfg     Config
	params  opt.LevelParams
	ue      *mech.UE    // over m bits (single-item)
	setMech *ps.SetMech // over m+ℓ bits, nil unless PaddingLength > 0
	extAsgn *budget.Assignment
	epsStar float64
}

// New solves the optimization problem for the configured budgets, builds
// the mechanisms, and verifies they satisfy the configured notion. It
// returns an error if the configuration is invalid or the solved
// parameters fail verification.
func New(cfg Config) (*Engine, error) {
	if cfg.Budgets == nil {
		return nil, fmt.Errorf("core: Config.Budgets is required")
	}
	if cfg.Notion == nil {
		cfg.Notion = notion.MinID{}
	}
	if cfg.PaddingLength < 0 {
		return nil, fmt.Errorf("core: negative padding length %d", cfg.PaddingLength)
	}
	asgn := cfg.Budgets
	params, err := opt.Solve(cfg.Model, asgn.LevelEpsAll(), asgn.LevelCounts(), cfg.Notion, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("core: solving %v: %w", cfg.Model, err)
	}
	if err := notion.VerifyUE(params.A, params.B, asgn.LevelEpsAll(), cfg.Notion, 1e-6); err != nil {
		return nil, fmt.Errorf("core: solved parameters fail verification: %w", err)
	}
	ue, err := mech.NewIDUE(params, asgn)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	e := &Engine{cfg: cfg, params: params, ue: ue}
	if cfg.PaddingLength > 0 {
		if err := e.buildSetMech(); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// buildSetMech extends the domain with ℓ dummy items at ε* = min{E}
// (§VI-B) — the dummy bits reuse the parameters of the strictest level,
// which by Theorem 4 preserves MinID-LDP for item-set inputs.
func (e *Engine) buildSetMech() error {
	asgn := e.cfg.Budgets
	e.epsStar = asgn.Min()
	minLevel := asgn.SortedLevels()[0]
	ext, err := asgn.Extend(e.cfg.PaddingLength, e.epsStar)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	extParams := opt.LevelParams{
		A: append(append([]float64(nil), e.params.A...), e.params.A[minLevel]),
		B: append(append([]float64(nil), e.params.B...), e.params.B[minLevel]),
	}
	extUE, err := mech.NewIDUE(extParams, ext)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	sm, err := ps.NewSetMech(extUE, asgn.M(), e.cfg.PaddingLength)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	e.extAsgn = ext
	e.setMech = sm
	return nil
}

// M returns the item-domain size.
func (e *Engine) M() int { return e.cfg.Budgets.M() }

// PaddingLength returns ℓ (zero in single-item mode).
func (e *Engine) PaddingLength() int { return e.cfg.PaddingLength }

// Params returns the solved per-level perturbation parameters.
func (e *Engine) Params() opt.LevelParams { return e.params }

// UE returns the single-item IDUE mechanism.
func (e *Engine) UE() *mech.UE { return e.ue }

// SetMech returns the IDUE-PS mechanism, or nil in single-item mode.
func (e *Engine) SetMech() *ps.SetMech { return e.setMech }

// PerturbItem runs Algorithm 1 on a single-item input. It allocates the
// report; PerturbItemInto with a NewReport buffer is the allocation-free
// variant for report-generation loops.
func (e *Engine) PerturbItem(item int, r *rng.Source) *bitvec.Vector {
	return e.ue.PerturbItem(item, r)
}

// PerturbItemInto runs Algorithm 1 writing the report into out, which
// must have M() bits (see NewReport).
func (e *Engine) PerturbItemInto(item int, r *rng.Source, out *bitvec.Vector) {
	e.ue.PerturbItemInto(item, r, out)
}

// PerturbSet runs Algorithm 3 on an item-set input. It panics if the
// engine was built without a padding length. It allocates the report;
// PerturbSetInto with a NewSetReport buffer is the allocation-free
// variant.
func (e *Engine) PerturbSet(set []int, r *rng.Source) *bitvec.Vector {
	if e.setMech == nil {
		panic("core: engine not configured for item-set input (PaddingLength == 0)")
	}
	return e.setMech.Perturb(set, r)
}

// PerturbSetInto runs Algorithm 3 writing the report into out, which must
// have M()+PaddingLength() bits (see NewSetReport). It panics if the
// engine was built without a padding length.
func (e *Engine) PerturbSetInto(set []int, r *rng.Source, out *bitvec.Vector) {
	if e.setMech == nil {
		panic("core: engine not configured for item-set input (PaddingLength == 0)")
	}
	e.setMech.PerturbInto(set, r, out)
}

// NewReport returns an m-bit buffer sized for PerturbItemInto. A report
// buffer may be reused across calls (each call overwrites it) but not
// shared across goroutines.
func (e *Engine) NewReport() *bitvec.Vector { return bitvec.New(e.M()) }

// NewSetReport returns an (m+ℓ)-bit buffer sized for PerturbSetInto. It
// panics in single-item mode.
func (e *Engine) NewSetReport() *bitvec.Vector {
	if e.setMech == nil {
		panic("core: engine not configured for item-set input (PaddingLength == 0)")
	}
	return bitvec.New(e.setMech.Bits())
}

// NewAggregator returns a server-side aggregator for single-item reports.
func (e *Engine) NewAggregator() *agg.Aggregator { return agg.New(e.M()) }

// NewSetAggregator returns a server-side aggregator for item-set reports
// (m+ℓ bits).
func (e *Engine) NewSetAggregator() *agg.Aggregator {
	if e.setMech == nil {
		panic("core: engine not configured for item-set input (PaddingLength == 0)")
	}
	return agg.New(e.setMech.Bits())
}

// EstimateSingle calibrates single-item bit counts (Eq. 8).
func (e *Engine) EstimateSingle(counts []int64, n int) ([]float64, error) {
	return estimate.Calibrate(counts, n, e.ue.A, e.ue.B, 1)
}

// EstimateSet calibrates item-set bit counts with the PS scale factor ℓ
// (Fig. 2) and discards the dummy-bit estimates, returning only the m
// real items.
func (e *Engine) EstimateSet(counts []int64, n int) ([]float64, error) {
	if e.setMech == nil {
		return nil, fmt.Errorf("core: engine not configured for item-set input")
	}
	est, err := estimate.Calibrate(counts, n, e.setMech.UE.A, e.setMech.UE.B, float64(e.cfg.PaddingLength))
	if err != nil {
		return nil, err
	}
	return est[:e.M()], nil
}

// TheoreticalTotalMSE returns Σ_i MSE_i per Eq. (9) for given true counts
// in single-item mode.
func (e *Engine) TheoreticalTotalMSE(trueCounts []float64, n int) (float64, error) {
	return estimate.TotalTheoreticalMSE(n, trueCounts, e.ue.A, e.ue.B)
}

// RealizedLDPBudget returns the plain-LDP budget the solved mechanism
// actually provides (Lemma 1 bounds it by min{max E, 2 min E}).
func (e *Engine) RealizedLDPBudget() float64 {
	return notion.UELDPBudget(e.ue.A, e.ue.B)
}

// SetBudget returns the Eq. (17) combined budget of an item-set under the
// engine's configuration. It panics in single-item mode.
func (e *Engine) SetBudget(set []int) float64 {
	if e.setMech == nil {
		panic("core: engine not configured for item-set input (PaddingLength == 0)")
	}
	return ps.SetBudget(set, e.cfg.Budgets.EpsOf, e.epsStar, e.cfg.PaddingLength)
}

// LeakageBounds returns the Table I prior–posterior bounds for an item
// under the engine's budget set and MinID-LDP.
func (e *Engine) LeakageBounds(item int) notion.LeakageBounds {
	asgn := e.cfg.Budgets
	return notion.MinIDLeakage(asgn.EpsOf(item), asgn.LevelEpsAll())
}

// Baseline identifies a uniform-budget LDP mechanism used as a comparator.
type Baseline int

const (
	// RAPPOR is basic one-time RAPPOR.
	RAPPOR Baseline = iota
	// OUE is Optimized Unary Encoding.
	OUE
)

// String implements fmt.Stringer.
func (b Baseline) String() string {
	switch b {
	case RAPPOR:
		return "RAPPOR"
	case OUE:
		return "OUE"
	default:
		return fmt.Sprintf("Baseline(%d)", int(b))
	}
}

// NewBaselineUE builds a uniform LDP baseline over m bits at the budget
// the assignment forces on plain LDP: ε = min{E}.
func NewBaselineUE(b Baseline, asgn *budget.Assignment) (*mech.UE, error) {
	return newBaseline(b, asgn.Min(), asgn.M())
}

// NewBaselineSet builds the PS-wrapped uniform baseline (RAPPOR-PS /
// OUE-PS) over m+ℓ bits at ε = min{E}.
func NewBaselineSet(b Baseline, asgn *budget.Assignment, ell int) (*ps.SetMech, error) {
	u, err := newBaseline(b, asgn.Min(), asgn.M()+ell)
	if err != nil {
		return nil, err
	}
	return ps.NewSetMech(u, asgn.M(), ell)
}

func newBaseline(b Baseline, eps float64, bits int) (*mech.UE, error) {
	if math.IsNaN(eps) || eps <= 0 {
		return nil, fmt.Errorf("core: invalid baseline budget %v", eps)
	}
	switch b {
	case RAPPOR:
		return mech.NewRAPPOR(eps, bits)
	case OUE:
		return mech.NewOUE(eps, bits)
	default:
		return nil, fmt.Errorf("core: unknown baseline %v", b)
	}
}

package opt

import (
	"fmt"
	"math"
	"slices"
)

// LinCon is the linear inequality constraint Coef·x <= RHS. The barrier
// solver requires a strictly feasible interior (Coef·x < RHS).
type LinCon struct {
	Coef []float64
	RHS  float64
}

// Slack returns RHS - Coef·x; positive inside the feasible region.
func (c LinCon) Slack(x []float64) float64 { return c.RHS - Dot(c.Coef, x) }

// Separable is a separable convex objective Σ_i f_i(x_i). Eval returns
// the value and the first and second derivatives of f_i at xi. Both
// paper programs (Eqs. 12, 13) are separable, which keeps the Newton
// Hessian a diagonal-plus-rank-k matrix.
type Separable interface {
	Eval(i int, xi float64) (f, df, ddf float64)
	Dim() int
}

// Path-following constants, shared by every barrier program in the
// package.
const (
	barrierMu = 20    // barrier weight multiplier per outer step
	newtonTol = 1e-10 // Newton decrement threshold
	maxNewton = 100   // Newton iterations per outer step
	maxOuter  = 60    // outer iterations
)

// barrierFunc evaluates a log-barrier function φ(z) = τ·f(z) − Σ_k
// log slack_k(z). It reports false when z is outside the strict interior
// (or f's domain). When grad is non-nil it also accumulates ∇φ into grad
// and ∇²φ into h, both zero on entry. It may first move a coordinate of z
// to its optimum given the others.
type barrierFunc func(z []float64, tau float64, grad []float64, h *Matrix) (float64, bool)

// row is the linear constraint Σ_k coef[k]·z[idx[k]] ≤ rhs, over its
// nonzero coefficients only.
type row struct {
	idx  []int
	coef []float64
	rhs  float64
}

func (w row) dot(z []float64) float64 {
	var s float64
	for k, i := range w.idx {
		s += w.coef[k] * z[i]
	}
	return s
}

// logSlacks returns Σ log slack over rows at z, or false if a slack is not
// positive. With grad non-nil it adds the gradient and Hessian of
// −Σ log slack into grad and h.
func logSlacks(rows []row, z, grad []float64, h *Matrix) (float64, bool) {
	var bar float64
	for _, w := range rows {
		s := w.rhs - w.dot(z)
		if s <= 0 {
			return 0, false
		}
		bar += math.Log(s)
		if grad == nil {
			continue
		}
		inv := 1 / s
		for k, i := range w.idx {
			grad[i] += w.coef[k] * inv
			for l, j := range w.idx {
				h.Add(i, j, w.coef[k]*w.coef[l]*inv*inv)
			}
		}
	}
	return bar, true
}

// MinimizeBarrier minimizes the separable convex objective subject to
// linear inequality constraints using a log-barrier interior-point method
// with damped Newton steps. x0 must be strictly feasible. The returned
// point is feasible and within a 1e-9 duality gap of the optimum.
func MinimizeBarrier(obj Separable, cons []LinCon, x0 []float64) ([]float64, error) {
	n := obj.Dim()
	if len(x0) != n {
		return nil, fmt.Errorf("opt: x0 has %d entries, objective has dim %d", len(x0), n)
	}
	// The zero products a dense Coef·x adds change no bit of the slack.
	rows := make([]row, len(cons))
	for k, c := range cons {
		if len(c.Coef) != n {
			return nil, fmt.Errorf("opt: constraint %d has %d coefficients, want %d", k, len(c.Coef), n)
		}
		if c.Slack(x0) <= 0 {
			return nil, fmt.Errorf("opt: x0 violates constraint %d (slack %g)", k, c.Slack(x0))
		}
		rows[k].rhs = c.RHS
		for i, ci := range c.Coef {
			if ci != 0 {
				rows[k].idx, rows[k].coef = append(rows[k].idx, i), append(rows[k].coef, ci)
			}
		}
	}
	phi := func(x []float64, t float64, grad []float64, h *Matrix) (float64, bool) {
		var fval float64
		for i := 0; i < n; i++ {
			f, df, ddf := obj.Eval(i, x[i])
			fval += f
			if grad != nil {
				grad[i] = t * df
				h.Add(i, i, t*ddf)
			}
		}
		bar, ok := logSlacks(rows, x, grad, h)
		return fval*t - bar, ok
	}
	x := append([]float64(nil), x0...)
	if err := pathFollow(phi, x, 1, len(cons), 1e-9, 0); err != nil {
		return nil, err
	}
	return x, nil
}

// pathFollow follows the central path of phi from the strictly interior
// point z, in place: it centers at weight tau, then multiplies tau by
// barrierMu until the gap bound ncons/tau falls below gapTol. A centering
// also ends once the decrease a Newton step promises is below roundoff
// relative to |φ|, which φ's own rounding would hide; 0 keeps the
// absolute newtonTol test alone.
func pathFollow(phi barrierFunc, z []float64, tau float64, ncons int, gapTol, roundoff float64) error {
	for outer := 0; outer < maxOuter; outer++ {
		if err := newtonCenter(phi, z, tau, roundoff); err != nil {
			return fmt.Errorf("opt: centering at t=%g: %w", tau, err)
		}
		if float64(ncons)/tau < gapTol {
			return nil
		}
		tau *= barrierMu
	}
	return nil
}

// newtonCenter runs damped Newton on φ in place, stopping when the Newton
// decrement is small.
func newtonCenter(phi barrierFunc, z []float64, tau, roundoff float64) error {
	n := len(z)
	grad := make([]float64, n)
	for iter := 0; iter < maxNewton; iter++ {
		for i := range grad {
			grad[i] = 0
		}
		h := NewMatrix(n, n)
		phi0, ok := phi(z, tau, grad, h)
		if !ok {
			return fmt.Errorf("iterate left feasible region")
		}
		step, err := SolveLinear(h, negate(grad))
		if err != nil {
			// Hessian singular (e.g. all-zero objective rows): fall back
			// to a ridge-regularized solve.
			for i := 0; i < n; i++ {
				h.Add(i, i, 1e-9)
			}
			step, err = SolveLinear(h, negate(grad))
			if err != nil {
				return err
			}
		}
		decr := -Dot(grad, step) // λ² = -gᵀΔ for Newton step
		if decr/2 < newtonTol+roundoff*math.Abs(phi0) {
			return nil
		}
		// Backtracking line search: stay strictly feasible, Armijo on φ.
		alpha := 1.0
		for alpha > 1e-14 {
			cand := append([]float64(nil), z...)
			AXPY(alpha, step, cand)
			if slices.Equal(z, cand) {
				// The step is below z's resolution, and so is every shorter
				// one: no further progress at this scale.
				return nil
			}
			if v, ok := phi(cand, tau, nil, nil); ok && v <= phi0-0.25*alpha*decr {
				copy(z, cand)
				break
			}
			alpha /= 2
		}
		if alpha <= 1e-14 {
			return nil // no further progress possible at this scale
		}
	}
	return nil
}

func negate(v []float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = -x
	}
	return out
}

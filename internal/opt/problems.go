package opt

import (
	"fmt"
	"math"
	"slices"

	"idldp/internal/notion"
)

// Model selects which of the paper's three optimization programs picks the
// per-level perturbation probabilities (§V-D).
type Model int

const (
	// Opt0 is the worst-case program of Eq. (10): free (a_i, b_i),
	// non-convex, solved deterministically by a log barrier in the
	// coordinates where Eq. (7) is linear (see SolveOpt0). Its feasible
	// region contains the opt1 and opt2 solutions, so the result is never
	// worse than either.
	Opt0 Model = iota
	// Opt1 is the RAPPOR-structured convex program of Eq. (12): a+b = 1.
	Opt1
	// Opt2 is the OUE-structured convex program of Eq. (13): a = 1/2.
	Opt2
)

// String implements fmt.Stringer.
func (m Model) String() string {
	switch m {
	case Opt0:
		return "opt0"
	case Opt1:
		return "opt1"
	case Opt2:
		return "opt2"
	default:
		return fmt.Sprintf("Model(%d)", int(m))
	}
}

// LevelParams is a solved perturbation parameterization: per privacy level
// i, bits of items in that level are kept with probability A[i] when set
// and flipped on with probability B[i] when clear.
type LevelParams struct {
	A, B []float64
	// Objective is the Eq. (10) worst-case total-MSE objective of the
	// parameters (per user; multiply by n for the worst-case MSE bound).
	Objective float64
	// Model records which program produced the parameters.
	Model Model
}

// WorstCaseObjective evaluates the Eq. (10) objective
// Σ_i m_i b_i(1-b_i)/(a_i-b_i)² + max_i (1-a_i-b_i)/(a_i-b_i)
// for per-level parameters with level item-counts m. It returns +Inf for
// degenerate parameters (a <= b or outside (0,1)).
func WorstCaseObjective(a, b []float64, counts []int) float64 {
	var sum float64
	worst := math.Inf(-1)
	for i := range a {
		if !(0 < b[i] && b[i] < a[i] && a[i] < 1) {
			return math.Inf(1)
		}
		d := a[i] - b[i]
		sum += float64(counts[i]) * b[i] * (1 - b[i]) / (d * d)
		worst = math.Max(worst, (1-a[i]-b[i])/d)
	}
	return sum + worst
}

// pairBudgets materializes r(ε_i, ε_j) for every level pair. Notions that
// implement notion.LevelPairer (incomplete policy graphs, §IV-C)
// discriminate by level identity; an entry of +Inf means the pair is
// unconstrained and the solvers drop the corresponding constraint.
func pairBudgets(eps []float64, n notion.Notion) [][]float64 {
	t := len(eps)
	lp, _ := n.(notion.LevelPairer)
	r := make([][]float64, t)
	for i := range r {
		r[i] = make([]float64, t)
		for j := range r[i] {
			if lp != nil {
				r[i][j] = lp.LevelPairBudget(i, j, eps[i], eps[j])
			} else {
				r[i][j] = n.PairBudget(eps[i], eps[j])
			}
		}
	}
	return r
}

func validateProblem(eps []float64, counts []int) error {
	if len(eps) == 0 {
		return fmt.Errorf("opt: no privacy levels")
	}
	if len(counts) != len(eps) {
		return fmt.Errorf("opt: %d level counts for %d levels", len(counts), len(eps))
	}
	for i, e := range eps {
		if e <= 0 || math.IsNaN(e) || math.IsInf(e, 0) {
			return fmt.Errorf("opt: level %d has invalid budget %v", i, e)
		}
		if counts[i] < 0 {
			return fmt.Errorf("opt: level %d has negative item count", i)
		}
	}
	return nil
}

// opt1Objective is Σ m_i e^{τ_i}/(e^{τ_i}-1)² with analytic derivatives.
type opt1Objective struct{ weights []float64 }

func (o opt1Objective) Dim() int { return len(o.weights) }

func (o opt1Objective) Eval(i int, tau float64) (f, df, ddf float64) {
	m := o.weights[i]
	u := math.Exp(tau)
	d := u - 1
	f = m * u / (d * d)
	df = -m * u * (u + 1) / (d * d * d)
	ddf = m * u * (u*u + 4*u + 1) / (d * d * d * d)
	return f, df, ddf
}

// SolveOpt1 solves the Eq. (12) program: minimize Σ m_i e^{τ_i}/(e^{τ_i}-1)²
// subject to τ_i + τ_j <= r(ε_i, ε_j), τ_i > 0, then maps back to the
// RAPPOR structure a_i = e^{τ_i}/(e^{τ_i}+1), b_i = 1-a_i.
func SolveOpt1(eps []float64, counts []int, n notion.Notion) (LevelParams, error) {
	if err := validateProblem(eps, counts); err != nil {
		return LevelParams{}, err
	}
	t := len(eps)
	r := pairBudgets(eps, n)
	weights := make([]float64, t)
	for i, c := range counts {
		weights[i] = float64(c)
	}
	var cons []LinCon
	for i := 0; i < t; i++ {
		for j := i; j < t; j++ {
			if math.IsInf(r[i][j], 1) {
				continue // pair unconstrained under an incomplete policy
			}
			coef := make([]float64, t)
			coef[i]++
			coef[j]++
			cons = append(cons, LinCon{Coef: coef, RHS: r[i][j]})
		}
		// τ_i >= δ keeps zero-weight coordinates away from the pole at 0.
		lo := make([]float64, t)
		lo[i] = -1
		cons = append(cons, LinCon{Coef: lo, RHS: -1e-6})
	}
	x0 := make([]float64, t)
	for i := 0; i < t; i++ {
		m := math.Inf(1)
		for j := 0; j < t; j++ {
			m = math.Min(m, r[i][j])
		}
		x0[i] = math.Max(0.45*m, 2.1e-6)
	}
	tau, err := MinimizeBarrier(opt1Objective{weights: weights}, cons, x0)
	if err != nil {
		return LevelParams{}, fmt.Errorf("opt1: %w", err)
	}
	p := LevelParams{A: make([]float64, t), B: make([]float64, t), Model: Opt1}
	for i, ti := range tau {
		u := math.Exp(ti)
		p.A[i] = u / (u + 1)
		p.B[i] = 1 - p.A[i]
	}
	p.Objective = WorstCaseObjective(p.A, p.B, counts)
	return p, nil
}

// opt2Objective is Σ m_i b_i(1-b_i)/(0.5-b_i)² with analytic derivatives.
type opt2Objective struct{ weights []float64 }

func (o opt2Objective) Dim() int { return len(o.weights) }

func (o opt2Objective) Eval(i int, b float64) (f, df, ddf float64) {
	m := o.weights[i]
	s := 0.5 - b
	f = m * (0.25/(s*s) - 1)
	df = 0.5 * m / (s * s * s)
	ddf = 1.5 * m / (s * s * s * s)
	return f, df, ddf
}

// SolveOpt2 solves the Eq. (13) program: minimize Σ m_i b_i(1-b_i)/(0.5-b_i)²
// subject to e^{r(ε_i,ε_j)}·b_i + b_j >= 1 and 0 < b_i < 0.5, under the
// OUE structure a_i = 1/2.
func SolveOpt2(eps []float64, counts []int, n notion.Notion) (LevelParams, error) {
	if err := validateProblem(eps, counts); err != nil {
		return LevelParams{}, err
	}
	t := len(eps)
	r := pairBudgets(eps, n)
	weights := make([]float64, t)
	for i, c := range counts {
		weights[i] = float64(c)
	}
	var cons []LinCon
	for i := 0; i < t; i++ {
		for j := 0; j < t; j++ {
			if math.IsInf(r[i][j], 1) {
				continue // pair unconstrained under an incomplete policy
			}
			// e^{r_ij} b_i + b_j >= 1  ⇔  -e^{r_ij} b_i - b_j <= -1.
			coef := make([]float64, t)
			coef[i] -= math.Exp(r[i][j])
			coef[j]--
			cons = append(cons, LinCon{Coef: coef, RHS: -1})
		}
		hi := make([]float64, t)
		hi[i] = 1
		cons = append(cons, LinCon{Coef: hi, RHS: 0.5 - 1e-9})
		lo := make([]float64, t)
		lo[i] = -1
		cons = append(cons, LinCon{Coef: lo, RHS: -1e-9})
	}
	minE := eps[0]
	for _, e := range eps[1:] {
		minE = math.Min(minE, e)
	}
	x0 := make([]float64, t)
	for i := range x0 {
		x0[i] = 1 / (math.Exp(0.95*minE) + 1)
	}
	b, err := MinimizeBarrier(opt2Objective{weights: weights}, cons, x0)
	if err != nil {
		return LevelParams{}, fmt.Errorf("opt2: %w", err)
	}
	p := LevelParams{A: make([]float64, t), B: append([]float64(nil), b...), Model: Opt2}
	for i := range p.A {
		p.A[i] = 0.5
	}
	p.Objective = WorstCaseObjective(p.A, p.B, counts)
	return p, nil
}

// maxViolation returns the largest log-space violation of the Eq. (7)
// privacy constraints over all level pairs (negative when strictly
// feasible).
func maxViolation(a, b []float64, r [][]float64) float64 {
	worst := math.Inf(-1)
	for i := range a {
		for j := range a {
			if math.IsInf(r[i][j], 1) {
				continue
			}
			v := math.Log(a[i]*(1-b[j])) - math.Log(b[i]*(1-a[j])) - r[i][j]
			worst = math.Max(worst, v)
		}
	}
	return worst
}

// Where the opt0 solve stops. A returned point lies interiorMargin inside
// every Eq. (7) row in log space; the barrier runs on rows tightened by
// two margins, and the second absorbs the rounding of the (x, y) → (a, b)
// map. A level holding no items is pinned at x = y = emptyXY, opt1's
// lower bound.
const (
	interiorMargin = 1e-10
	emptyXY        = 1e-6
)

// SolveOpt0 solves the Eq. (10) worst-case program with free (a_i, b_i).
// In x = ln(a/b), y = ln((1−b)/(1−a)), where x, y > 0 ⇔ 0 < b < a < 1,
// each Eq. (7) row is linear, x_i + y_j ≤ r(ε_i, ε_j); a level's variance
// term is m·e^y/((e^x−1)(e^y−1)), log-convex; and its max-term entry,
// 1/(e^y−1) − 1/(e^x−1), is bounded by an epigraph variable s. That bound
// is concave in x, the program's only non-convexity. A log barrier with
// damped Newton steps runs from the opt1 and opt2 solutions and from the
// point that drops the max term, and the best point interiorMargin inside
// every row wins, opt1 and opt2 included, so the result is never worse
// than either. The solve is deterministic: seed is ignored.
//
// A level with no items enters Eq. (10) only through its rows, which
// loosen as it nears a = b, and its max-term entry, exactly 0 on x = y.
// Pinned at x = y = emptyXY, its rows bound the other levels' x and y,
// and its entry becomes s ≥ 0.
func SolveOpt0(eps []float64, counts []int, n notion.Notion, seed uint64) (LevelParams, error) {
	if err := validateProblem(eps, counts); err != nil {
		return LevelParams{}, err
	}
	r := pairBudgets(eps, n)
	p := newOpt0Program(r, counts)
	nt := len(p.levels)
	best := LevelParams{Objective: math.Inf(1), Model: Opt0}
	consider := func(a, b []float64) {
		if obj := WorstCaseObjective(a, b, counts); obj < best.Objective && maxViolation(a, b, r) <= -interiorMargin {
			best = LevelParams{A: a, B: b, Objective: obj, Model: Opt0}
		}
	}
	var starts [][]float64
	var errs []error
	scale := 1.0
	for _, convex := range []func([]float64, []int, notion.Notion) (LevelParams, error){SolveOpt1, SolveOpt2} {
		c, err := convex(eps, counts, n)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		consider(c.A, c.B)
		scale = math.Max(scale, c.Objective)
		// Start from c's (x, y), shrunk toward 0, which loosens every
		// row, until each row keeps a relative slack of 10⁻³.
		xy, theta := make([]float64, 2*nt), 1.0
		for i, l := range p.levels {
			xy[i], xy[nt+i] = xyOf(c.A[l], c.B[l])
		}
		for _, w := range p.rows {
			theta = math.Min(theta, (1-1e-3)*w.rhs/w.dot(xy))
		}
		for i := range xy {
			xy[i] *= theta
		}
		starts = append(starts, xy)
	}
	if len(starts) == 0 {
		return LevelParams{}, fmt.Errorf("opt0: both convex starts failed: %v", errs)
	}
	if z, err := p.solve(starts[0], false, scale); err == nil {
		starts = append(starts, z)
	}
	for _, xy := range starts {
		z, err := p.solve(xy, true, scale)
		if err != nil {
			continue
		}
		a, b := make([]float64, len(counts)), make([]float64, len(counts))
		for l := range a {
			a[l], b[l] = abOf(emptyXY, emptyXY)
		}
		for i, l := range p.levels {
			a[l], b[l] = abOf(z[i], z[nt+i])
		}
		consider(a, b)
	}
	if best.A == nil {
		return LevelParams{}, fmt.Errorf("opt0: no point %g inside the privacy constraints", interiorMargin)
	}
	return best, nil
}

// opt0Program is Eq. (10) over the T levels holding items, in
// z = (x_1..x_T, y_1..y_T, s); without s it drops the max term.
type opt0Program struct {
	levels []int     // the level of each (x_i, y_i)
	m      []float64 // its item count
	rows   []row     // Eq. (7), tightened by two margins
	sRows  []row     // rows, and s ≥ 0 when some level is empty
}

func newOpt0Program(r [][]float64, counts []int) *opt0Program {
	p := &opt0Program{}
	v := make([]int, len(counts)) // a level's index in z, or −1 when empty
	for l, c := range counts {
		v[l] = -1
		if c > 0 {
			v[l] = len(p.levels)
			p.levels, p.m = append(p.levels, l), append(p.m, float64(c))
		}
	}
	nt := len(p.levels)
	bound := map[int]int{} // a variable's bound row: only the tightest is kept
	for k := range r {
		for l, rkl := range r[k] { // x_k + y_l ≤ r_kl
			w := row{rhs: rkl - 2*interiorMargin}
			for side, vi := range [2]int{v[k], v[l]} {
				if vi < 0 {
					w.rhs -= emptyXY // an empty level's x and y
				} else {
					w.idx, w.coef = append(w.idx, vi+side*nt), append(w.coef, 1)
				}
			}
			if len(w.idx) == 0 || math.IsInf(w.rhs, 1) {
				continue
			}
			if len(w.idx) == 1 { // a bound from an empty level
				if j, ok := bound[w.idx[0]]; ok {
					p.rows[j].rhs = math.Min(p.rows[j].rhs, w.rhs)
					continue
				}
				bound[w.idx[0]] = len(p.rows)
			}
			p.rows = append(p.rows, w)
		}
	}
	p.sRows = p.rows
	if nt < len(counts) { // an empty level's max-term entry is 0
		p.sRows = append(p.rows[:len(p.rows):len(p.rows)], row{[]int{2 * nt}, []float64{-1}, 0})
	}
	return p
}

// solve follows the central path from the interior point xy, with the max
// term or without it, from a gap of 10% of the convex objectives' scale
// to 10⁻¹⁰ of it.
func (p *opt0Program) solve(xy []float64, withMax bool, scale float64) ([]float64, error) {
	z, ncons := append([]float64(nil), xy...), len(p.rows)
	if withMax {
		z, ncons = append(z, 0), len(p.sRows)+len(p.levels) // phi sets s
	}
	err := pathFollow(p.phi, z, float64(ncons)/(0.1*scale), ncons, 1e-10*scale, 1e-15)
	return z, err
}

// phi is the program's barrierFunc. With p = 1/(e^x−1) and q = 1/(e^y−1),
// a level's variance term is m·p(1+q) and its max-term entry q − p. It
// first moves s to its optimum for z's (x, y): a step along the curved
// valley s ≈ max term would otherwise have to stay within its narrow
// width, and Newton would crawl.
func (p *opt0Program) phi(z []float64, tau float64, grad []float64, h *Matrix) (float64, bool) {
	nt := len(p.levels)
	withMax, si, k, rows := len(z) > 2*nt, 2*nt, 2, p.rows
	for i := 0; i < nt; i++ {
		if !(z[i] > 0 && z[nt+i] > 0) {
			return 0, false
		}
	}
	var f float64
	if withMax {
		z[si] = p.center(z, tau)
		f, k, rows = z[si], 3, p.sRows
		if grad != nil {
			grad[si] += tau
		}
	}
	bar, ok := logSlacks(rows, z, grad, h)
	for i, m := range p.m {
		if !ok {
			return 0, false
		}
		px, qy := 1/math.Expm1(z[i]), 1/math.Expm1(z[nt+i])
		dx, dy := px*(1+px), qy*(1+qy) // −dp/dx, −dq/dy
		f += m * px * (1 + qy)
		inv := 0.0 // 1/(s − q + p), the max-term row's inverse slack
		if withMax {
			sl := z[si] - qy + px
			ok = sl > 0
			bar += math.Log(sl)
			inv = 1 / sl
		}
		if grad == nil {
			continue
		}
		// The level's gradient and Hessian over (x, y, s): its variance
		// term, then −log(s − q + p), whose curvature in x is negative.
		// Where that makes the (x, y) block indefinite, its xx entry is
		// raised to the least that keeps it semidefinite, so the Newton
		// step still descends.
		w := tau * m
		idx, d := [3]int{i, nt + i, si}, [3]float64{-dx, dy, 1} // ∇(s − q + p)
		g := [3]float64{-w * dx * (1 + qy), -w * px * dy}
		hl := [3][3]float64{{dx * (1 + 2*px) * (w*(1+qy) - inv), w * dx * dy}, {w * dx * dy, dy * (1 + 2*qy) * (w*px + inv)}}
		hl[0][0] = math.Max(hl[0][0], hl[0][1]*hl[0][1]/hl[1][1])
		for a := 0; a < k; a++ {
			grad[idx[a]] += g[a] - inv*d[a]
			for b := 0; b < k; b++ {
				h.Add(idx[a], idx[b], hl[a][b]+inv*inv*d[a]*d[b])
			}
		}
	}
	return tau*f - bar, ok
}

// center returns the s that minimizes φ for z's (x, y): the root of
// Σ 1/(s − g) = τ over the max-term entries g, and the 0 of an empty
// level. Newton from the left converges monotonically: the sum is convex
// and falls in s.
func (p *opt0Program) center(z []float64, tau float64) float64 {
	nt := len(p.levels)
	g := make([]float64, 0, nt+1)
	if len(p.sRows) > len(p.rows) {
		g = append(g, 0)
	}
	for i := 0; i < nt; i++ {
		g = append(g, 1/math.Expm1(z[nt+i])-1/math.Expm1(z[i]))
	}
	s := slices.Max(g) + 1/tau // the largest entry alone makes the sum τ here
	for iter := 0; iter < 100; iter++ {
		var sum, slope float64
		for _, e := range g {
			sum += 1 / (s - e)
			slope += 1 / ((s - e) * (s - e))
		}
		step := (sum - tau) / slope
		if s += step; !(step > 1e-15*math.Abs(s)) {
			break
		}
	}
	return s
}

// xyOf maps 0 < b < a < 1 to x = ln(a/b) > 0, y = ln((1−b)/(1−a)) > 0.
func xyOf(a, b float64) (x, y float64) {
	return math.Log(a / b), math.Log((1 - b) / (1 - a))
}

// abOf inverts xyOf: b = (e^y−1)/(e^{x+y}−1), a = e^x·b.
func abOf(x, y float64) (a, b float64) {
	b = math.Expm1(y) / math.Expm1(x+y)
	return math.Exp(x) * b, b
}

// Solve dispatches to the selected model. seed is accepted for every
// model and used by none: all three solves are deterministic.
func Solve(m Model, eps []float64, counts []int, n notion.Notion, seed uint64) (LevelParams, error) {
	switch m {
	case Opt0:
		return SolveOpt0(eps, counts, n, seed)
	case Opt1:
		return SolveOpt1(eps, counts, n)
	case Opt2:
		return SolveOpt2(eps, counts, n)
	default:
		return LevelParams{}, fmt.Errorf("opt: unknown model %v", m)
	}
}

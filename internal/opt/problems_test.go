package opt

import (
	"math"
	"testing"
	"testing/quick"

	"idldp/internal/notion"
	"idldp/internal/rng"
)

func TestOpt1SingleLevelIsRAPPOR(t *testing.T) {
	// With one level the binding constraint is 2τ <= ε, so τ = ε/2 and the
	// parameters coincide with basic RAPPOR.
	eps := math.Log(4)
	p, err := SolveOpt1([]float64{eps}, []int{10}, notion.MinID{})
	if err != nil {
		t.Fatal(err)
	}
	wantA := math.Exp(eps/2) / (math.Exp(eps/2) + 1) // = 2/3
	if math.Abs(p.A[0]-wantA) > 1e-4 {
		t.Errorf("a=%v want %v", p.A[0], wantA)
	}
	if math.Abs(p.A[0]+p.B[0]-1) > 1e-9 {
		t.Errorf("a+b=%v want 1", p.A[0]+p.B[0])
	}
}

func TestOpt2SingleLevelIsOUE(t *testing.T) {
	eps := 1.7
	p, err := SolveOpt2([]float64{eps}, []int{10}, notion.MinID{})
	if err != nil {
		t.Fatal(err)
	}
	if p.A[0] != 0.5 {
		t.Errorf("a=%v want 0.5", p.A[0])
	}
	wantB := 1 / (math.Exp(eps) + 1)
	if math.Abs(p.B[0]-wantB) > 1e-4 {
		t.Errorf("b=%v want %v", p.B[0], wantB)
	}
}

func TestOpt0MatchesPaperToyExample(t *testing.T) {
	// Table II: ε = (ln4, ln6), m = (1, 4). Paper reports
	// (a,b) ≈ (0.59, 0.33) and (0.67, 0.28), worst-case total ≈ 8.86n.
	eps := []float64{math.Log(4), math.Log(6)}
	counts := []int{1, 4}
	p, err := SolveOpt0(eps, counts, notion.MinID{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Objective > 8.95 {
		t.Errorf("worst-case objective %v exceeds paper's ≈8.86", p.Objective)
	}
	if p.Objective < 8.0 {
		t.Errorf("worst-case objective %v implausibly low", p.Objective)
	}
	// Parameters near the paper's (two-decimal) values.
	if math.Abs(p.A[0]-0.59) > 0.05 || math.Abs(p.B[0]-0.33) > 0.05 {
		t.Errorf("level 0 params (%.3f, %.3f) far from paper (0.59, 0.33)", p.A[0], p.B[0])
	}
	if math.Abs(p.A[1]-0.67) > 0.05 || math.Abs(p.B[1]-0.28) > 0.05 {
		t.Errorf("level 1 params (%.3f, %.3f) far from paper (0.67, 0.28)", p.A[1], p.B[1])
	}
	// Must satisfy the MinID-LDP constraints.
	if err := notion.VerifyUE(p.A, p.B, eps, notion.MinID{}, 1e-6); err != nil {
		t.Errorf("opt0 solution violates MinID-LDP: %v", err)
	}
}

func TestOpt0BeatsRAPPORAndOUEOnToyExample(t *testing.T) {
	// Table II: RAPPOR total 10n, OUE 9.9n; IDUE must be strictly better.
	eps := []float64{math.Log(4), math.Log(6)}
	counts := []int{1, 4}
	p, err := SolveOpt0(eps, counts, notion.MinID{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	minE := math.Log(4)
	// RAPPOR at min budget.
	ra := math.Exp(minE/2) / (math.Exp(minE/2) + 1)
	rappor := WorstCaseObjective([]float64{ra, ra}, []float64{1 - ra, 1 - ra}, counts)
	// OUE at min budget.
	ob := 1 / (math.Exp(minE) + 1)
	oue := WorstCaseObjective([]float64{0.5, 0.5}, []float64{ob, ob}, counts)
	if math.Abs(rappor-10) > 0.01 {
		t.Errorf("RAPPOR objective %v, Table II says 10", rappor)
	}
	if math.Abs(oue-9.89) > 0.02 {
		t.Errorf("OUE objective %v, Table II says ≈9.9", oue)
	}
	if p.Objective >= oue {
		t.Errorf("IDUE %v not better than OUE %v", p.Objective, oue)
	}
	if p.Objective >= rappor {
		t.Errorf("IDUE %v not better than RAPPOR %v", p.Objective, rappor)
	}
}

func TestOpt0NeverWorseThanConvexModels(t *testing.T) {
	eps := []float64{1, 1.2, 2, 4}
	counts := []int{5, 5, 5, 85}
	p0, err := SolveOpt0(eps, counts, notion.MinID{}, 7)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := SolveOpt1(eps, counts, notion.MinID{})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := SolveOpt2(eps, counts, notion.MinID{})
	if err != nil {
		t.Fatal(err)
	}
	if p0.Objective > p1.Objective+1e-9 {
		t.Errorf("opt0 %v worse than opt1 %v", p0.Objective, p1.Objective)
	}
	if p0.Objective > p2.Objective+1e-9 {
		t.Errorf("opt0 %v worse than opt2 %v", p0.Objective, p2.Objective)
	}
}

func TestAllModelsSatisfyMinID(t *testing.T) {
	eps := []float64{1, 1.2, 2, 4}
	counts := []int{5, 5, 5, 85}
	for _, m := range []Model{Opt0, Opt1, Opt2} {
		p, err := Solve(m, eps, counts, notion.MinID{}, 3)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if err := notion.VerifyUE(p.A, p.B, eps, notion.MinID{}, 1e-6); err != nil {
			t.Errorf("%v violates MinID-LDP: %v", m, err)
		}
		if p.Model != m {
			t.Errorf("%v reported model %v", m, p.Model)
		}
	}
}

func TestSolveAvgIDNotion(t *testing.T) {
	// §IV-C: the mechanisms also apply to AvgID-LDP.
	eps := []float64{1, 3}
	counts := []int{2, 8}
	for _, m := range []Model{Opt0, Opt1, Opt2} {
		p, err := Solve(m, eps, counts, notion.AvgID{}, 3)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if err := notion.VerifyUE(p.A, p.B, eps, notion.AvgID{}, 1e-6); err != nil {
			t.Errorf("%v violates AvgID-LDP: %v", m, err)
		}
	}
}

func TestSolveUniformBudgetsReduceToLDP(t *testing.T) {
	// All budgets equal: MinID-LDP degenerates to ε-LDP, and opt2 should
	// land on OUE exactly.
	eps := []float64{2, 2, 2}
	counts := []int{1, 1, 1}
	p, err := SolveOpt2(eps, counts, notion.MinID{})
	if err != nil {
		t.Fatal(err)
	}
	want := 1 / (math.Exp(2.0) + 1)
	for i := range p.B {
		if math.Abs(p.B[i]-want) > 1e-4 {
			t.Errorf("b[%d]=%v want %v", i, p.B[i], want)
		}
	}
	if b := notion.UELDPBudget(p.A, p.B); b > 2+1e-6 {
		t.Errorf("realized LDP budget %v exceeds 2", b)
	}
}

func TestSolveTwentyLevels(t *testing.T) {
	// Fig. 4(b) uses t = 20 exponential levels; every solver must scale
	// there.
	if testing.Short() {
		t.Skip("short mode")
	}
	eps := make([]float64, 20)
	counts := make([]int, 20)
	for i := range eps {
		eps[i] = 1 + 3*float64(i)/19
		counts[i] = 1 + i
	}
	for _, m := range []Model{Opt0, Opt1, Opt2} {
		p, err := Solve(m, eps, counts, notion.MinID{}, 1)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if err := notion.VerifyUE(p.A, p.B, eps, notion.MinID{}, 1e-6); err != nil {
			t.Errorf("%v violates MinID-LDP at t=20: %v", m, err)
		}
	}
}

func TestSolveZeroCountLevel(t *testing.T) {
	// A level with no realized items still participates in constraints.
	eps := []float64{1, 2, 4}
	counts := []int{3, 0, 7}
	for _, m := range []Model{Opt0, Opt1, Opt2} {
		p, err := Solve(m, eps, counts, notion.MinID{}, 2)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if err := notion.VerifyUE(p.A, p.B, eps, notion.MinID{}, 1e-6); err != nil {
			t.Errorf("%v with zero-count level violates MinID-LDP: %v", m, err)
		}
	}
}

func TestSolveErrors(t *testing.T) {
	n := notion.MinID{}
	if _, err := SolveOpt1(nil, nil, n); err == nil {
		t.Error("empty levels accepted")
	}
	if _, err := SolveOpt1([]float64{1}, []int{1, 2}, n); err == nil {
		t.Error("count mismatch accepted")
	}
	if _, err := SolveOpt1([]float64{-1}, []int{1}, n); err == nil {
		t.Error("negative budget accepted")
	}
	if _, err := SolveOpt2([]float64{1}, []int{-1}, n); err == nil {
		t.Error("negative count accepted")
	}
	if _, err := Solve(Model(99), []float64{1}, []int{1}, n, 0); err == nil {
		t.Error("unknown model accepted")
	}
}

func TestWorstCaseObjectiveDegenerate(t *testing.T) {
	if v := WorstCaseObjective([]float64{0.3}, []float64{0.5}, []int{1}); !math.IsInf(v, 1) {
		t.Error("a<b not rejected")
	}
	if v := WorstCaseObjective([]float64{1.0}, []float64{0.5}, []int{1}); !math.IsInf(v, 1) {
		t.Error("a=1 not rejected")
	}
}

func TestModelString(t *testing.T) {
	if Opt0.String() != "opt0" || Opt1.String() != "opt1" || Opt2.String() != "opt2" {
		t.Fatal("model names wrong")
	}
	if Model(9).String() == "" {
		t.Fatal("unknown model name empty")
	}
}

// Property: for random level structures, empty levels included, all
// solvers return parameters satisfying the MinID-LDP constraints, and opt0
// lies interiorMargin inside them and is no worse than opt1 or opt2.
func TestSolversFeasibleProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	f := func(s1, s2, s3 uint64) bool {
		eps := []float64{
			0.5 + float64(s1%250)/100,
			0.5 + float64(s2%350)/100,
			0.5 + float64(s3%450)/100,
		}
		counts := []int{int((s1 >> 8) % 9), int((s2 >> 8) % 9), int((s3 >> 8) % 9)}
		p1, err := SolveOpt1(eps, counts, notion.MinID{})
		if err != nil || notion.VerifyUE(p1.A, p1.B, eps, notion.MinID{}, 1e-6) != nil {
			return false
		}
		p2, err := SolveOpt2(eps, counts, notion.MinID{})
		if err != nil || notion.VerifyUE(p2.A, p2.B, eps, notion.MinID{}, 1e-6) != nil {
			return false
		}
		p0, err := SolveOpt0(eps, counts, notion.MinID{}, s1^s2)
		if err != nil || notion.VerifyUE(p0.A, p0.B, eps, notion.MinID{}, 1e-6) != nil {
			return false
		}
		if maxViolation(p0.A, p0.B, pairBudgets(eps, notion.MinID{})) > -interiorMargin {
			return false
		}
		// Where opt1's or opt2's point is optimal but sits on a row,
		// opt0's interior margin costs a little; at these budgets 10⁻⁹ of
		// the objective covers it.
		return p0.Objective <= p1.Objective*(1+1e-9) && p0.Objective <= p2.Objective*(1+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// The identities SolveOpt0 rests on, for random 0 < b < a < 1 with
// x = ln(a/b), y = ln((1−b)/(1−a)): Eq. (10)'s per-level terms are
// e^y/((e^x−1)(e^y−1)) and 1/(e^y−1) − 1/(e^x−1), (a, b) round-trips
// through (x, y), and Eq. (7)'s log ratio for pair (i, j) is x_i + y_j.
func TestOpt0ClosedForms(t *testing.T) {
	r := rng.New(11)
	draw := func() (a, b float64) {
		for {
			u, v := 0.01+0.98*r.Float64(), 0.01+0.98*r.Float64()
			if a, b = math.Max(u, v), math.Min(u, v); a-b > 0.05 {
				return a, b
			}
		}
	}
	for k := 0; k < 2000; k++ {
		a, b := draw()
		x, y := xyOf(a, b)
		maxTerm := WorstCaseObjective([]float64{a}, []float64{b}, []int{0})
		// m = 2^20 scales the variance term exactly and drowns the max term.
		variance := (WorstCaseObjective([]float64{a}, []float64{b}, []int{1 << 20}) - maxTerm) / (1 << 20)
		if v := math.Exp(y) / (math.Expm1(x) * math.Expm1(y)); math.Abs(v-variance) > 1e-12*variance {
			t.Fatalf("a=%v b=%v: variance term %v, closed form %v", a, b, variance, v)
		}
		if g := 1/math.Expm1(y) - 1/math.Expm1(x); math.Abs(g-maxTerm) > 1e-12*math.Max(1, math.Abs(maxTerm)) {
			t.Fatalf("a=%v b=%v: max term %v, closed form %v", a, b, maxTerm, g)
		}
		if a2, b2 := abOf(x, y); math.Abs(a2-a) > 1e-12*a || math.Abs(b2-b) > 1e-12*b {
			t.Fatalf("(%v, %v) -> (%v, %v) -> (%v, %v)", a, b, x, y, a2, b2)
		}
	}
	for k := 0; k < 200; k++ {
		const levels = 3
		a, b, x, y := make([]float64, levels), make([]float64, levels), make([]float64, levels), make([]float64, levels)
		eps := make([]float64, levels)
		for i := range a {
			a[i], b[i] = draw()
			x[i], y[i] = xyOf(a[i], b[i])
			eps[i] = 0.5 + 4*r.Float64()
		}
		rb := pairBudgets(eps, notion.AvgID{})
		want := math.Inf(-1)
		for i := range a {
			for j := range a {
				want = math.Max(want, x[i]+y[j]-rb[i][j])
			}
		}
		if got := maxViolation(a, b, rb); math.Abs(got-want) > 1e-12 {
			t.Fatalf("maxViolation %v, max x_i + y_j − r_ij %v", got, want)
		}
	}
}

// TestOpt0BruteForceGrid guards against a local minimum at t = 1 and 2.
// Eq. (10) falls as any y_j rises (both q_j and the variance term fall),
// so for given x each y_j sits at its bound min_i(r_ij − x_i), and a grid
// over x alone covers the closed feasible set. δ is the largest objective
// change across one grid step around the best grid point; the solve must
// land at or below that point and no more than δ under it.
func TestOpt0BruteForceGrid(t *testing.T) {
	cases := []struct {
		eps    []float64
		counts []int
		n      notion.Notion
	}{
		{[]float64{math.Log(4)}, []int{1}, notion.MinID{}},
		{[]float64{3}, []int{10}, notion.MinID{}},
		{[]float64{math.Log(4), math.Log(6)}, []int{1, 4}, notion.MinID{}}, // Table II
		{[]float64{1, 3}, []int{2, 8}, notion.AvgID{}},
	}
	for _, c := range cases {
		levels := len(c.eps)
		steps := 20000
		if levels == 2 {
			steps = 300
		}
		r := pairBudgets(c.eps, c.n)
		xMax := make([]float64, levels)
		for i := range xMax {
			xMax[i] = math.Inf(1)
			for j := range r[i] {
				xMax[i] = math.Min(xMax[i], r[i][j])
			}
		}
		a, b := make([]float64, levels), make([]float64, levels)
		eval := func(idx []int) float64 {
			x := make([]float64, levels)
			for i := range x {
				x[i] = xMax[i] * float64(idx[i]) / float64(steps)
			}
			for j := range a {
				y := math.Inf(1)
				for i := range x {
					y = math.Min(y, r[i][j]-x[i])
				}
				if x[j] <= 0 || y <= 0 {
					return math.Inf(1)
				}
				a[j], b[j] = abOf(x[j], y)
			}
			return WorstCaseObjective(a, b, c.counts)
		}
		best, bestIdx := math.Inf(1), []int(nil)
		idx := make([]int, levels)
		for {
			if v := eval(idx); v < best {
				best, bestIdx = v, append([]int(nil), idx...)
			}
			k := 0
			for ; k < levels; k++ {
				if idx[k]++; idx[k] <= steps {
					break
				}
				idx[k] = 0
			}
			if k == levels {
				break
			}
		}
		var delta float64
		for i := range bestIdx {
			for _, d := range []int{-1, 1} {
				nb := append([]int(nil), bestIdx...)
				nb[i] += d
				if v := eval(nb); !math.IsInf(v, 1) {
					delta = math.Max(delta, math.Abs(v-best))
				}
			}
		}
		p, err := SolveOpt0(c.eps, c.counts, c.n, 1)
		if err != nil {
			t.Fatal(err)
		}
		if p.Objective > best*(1+1e-9) || p.Objective < best-delta {
			t.Errorf("eps=%v counts=%v: solved %.12g, grid best %.12g (step change δ = %.3g)", c.eps, c.counts, p.Objective, best, delta)
		}
		t.Logf("eps=%v counts=%v: solved %.9g, grid best %.9g, δ = %.3g", c.eps, c.counts, p.Objective, best, delta)
	}
}

package opt

import (
	"math"
	"testing"
)

func TestNelderMeadQuadratic(t *testing.T) {
	f := func(x []float64) float64 {
		return (x[0]-3)*(x[0]-3) + 2*(x[1]+1)*(x[1]+1)
	}
	x, v := NelderMead(f, []float64{0, 0}, NelderMeadOptions{})
	if math.Abs(x[0]-3) > 1e-4 || math.Abs(x[1]+1) > 1e-4 || v > 1e-7 {
		t.Fatalf("x=%v v=%v", x, v)
	}
}

func TestNelderMeadRosenbrock(t *testing.T) {
	f := func(x []float64) float64 {
		a := 1 - x[0]
		b := x[1] - x[0]*x[0]
		return a*a + 100*b*b
	}
	x, v := NelderMead(f, []float64{-1.2, 1}, NelderMeadOptions{MaxIter: 20000})
	if math.Abs(x[0]-1) > 1e-3 || math.Abs(x[1]-1) > 1e-3 {
		t.Fatalf("x=%v v=%v", x, v)
	}
}

func TestNelderMeadHandlesInf(t *testing.T) {
	// Hard wall at x < 0; minimum at x = 0.5 on the feasible side.
	f := func(x []float64) float64 {
		if x[0] < 0 {
			return math.Inf(1)
		}
		return (x[0] - 0.5) * (x[0] - 0.5)
	}
	x, _ := NelderMead(f, []float64{2}, NelderMeadOptions{})
	if math.Abs(x[0]-0.5) > 1e-4 {
		t.Fatalf("x=%v", x)
	}
}

// quadObjective is a separable quadratic Σ w_i (x_i - c_i)² used to
// exercise the barrier solver against hand-computable optima.
type quadObjective struct {
	w, c []float64
}

func (q quadObjective) Dim() int { return len(q.w) }

func (q quadObjective) Eval(i int, x float64) (f, df, ddf float64) {
	d := x - q.c[i]
	return q.w[i] * d * d, 2 * q.w[i] * d, 2 * q.w[i]
}

func TestBarrierActiveConstraint(t *testing.T) {
	// min (x-3)² s.t. x <= 1  →  x = 1.
	obj := quadObjective{w: []float64{1}, c: []float64{3}}
	cons := []LinCon{{Coef: []float64{1}, RHS: 1}}
	x, err := MinimizeBarrier(obj, cons, []float64{0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-6 {
		t.Fatalf("x=%v want 1", x)
	}
}

func TestBarrierInactiveConstraint(t *testing.T) {
	// min (x-0.5)² s.t. x <= 10  →  interior optimum x = 0.5.
	obj := quadObjective{w: []float64{1}, c: []float64{0.5}}
	cons := []LinCon{{Coef: []float64{1}, RHS: 10}}
	x, err := MinimizeBarrier(obj, cons, []float64{0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-0.5) > 1e-6 {
		t.Fatalf("x=%v want 0.5", x)
	}
}

func TestBarrierCoupledConstraint(t *testing.T) {
	// min (x-2)² + (y-2)² s.t. x+y <= 2 → x = y = 1.
	obj := quadObjective{w: []float64{1, 1}, c: []float64{2, 2}}
	cons := []LinCon{{Coef: []float64{1, 1}, RHS: 2}}
	x, err := MinimizeBarrier(obj, cons, []float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-6 || math.Abs(x[1]-1) > 1e-6 {
		t.Fatalf("x=%v want [1 1]", x)
	}
}

func TestBarrierRejectsInfeasibleStart(t *testing.T) {
	obj := quadObjective{w: []float64{1}, c: []float64{0}}
	cons := []LinCon{{Coef: []float64{1}, RHS: -1}}
	if _, err := MinimizeBarrier(obj, cons, []float64{0}); err == nil {
		t.Fatal("infeasible start accepted")
	}
}

func TestBarrierShapeErrors(t *testing.T) {
	obj := quadObjective{w: []float64{1}, c: []float64{0}}
	if _, err := MinimizeBarrier(obj, nil, []float64{0, 0}); err == nil {
		t.Error("wrong x0 length accepted")
	}
	cons := []LinCon{{Coef: []float64{1, 1}, RHS: 1}}
	if _, err := MinimizeBarrier(obj, cons, []float64{0}); err == nil {
		t.Error("wrong constraint arity accepted")
	}
}

// Finite-difference cross-check of the analytic derivatives in the two
// paper objectives.
func TestObjectiveDerivatives(t *testing.T) {
	const h = 1e-6
	o1 := opt1Objective{weights: []float64{3}}
	for _, tau := range []float64{0.3, 0.8, 1.5, 2.5} {
		f0, df, ddf := o1.Eval(0, tau)
		fp, _, _ := o1.Eval(0, tau+h)
		fm, _, _ := o1.Eval(0, tau-h)
		if math.Abs((fp-fm)/(2*h)-df) > 1e-4*(1+math.Abs(df)) {
			t.Errorf("opt1 df at %v: analytic %v fd %v", tau, df, (fp-fm)/(2*h))
		}
		if math.Abs((fp-2*f0+fm)/(h*h)-ddf) > 1e-2*(1+math.Abs(ddf)) {
			t.Errorf("opt1 ddf at %v: analytic %v fd %v", tau, ddf, (fp-2*f0+fm)/(h*h))
		}
		if ddf <= 0 {
			t.Errorf("opt1 not convex at %v", tau)
		}
	}
	o2 := opt2Objective{weights: []float64{2}}
	for _, b := range []float64{0.05, 0.15, 0.3, 0.45} {
		f0, df, ddf := o2.Eval(0, b)
		fp, _, _ := o2.Eval(0, b+h)
		fm, _, _ := o2.Eval(0, b-h)
		if math.Abs((fp-fm)/(2*h)-df) > 1e-4*(1+math.Abs(df)) {
			t.Errorf("opt2 df at %v: analytic %v fd %v", b, df, (fp-fm)/(2*h))
		}
		if math.Abs((fp-2*f0+fm)/(h*h)-ddf) > 1e-2*(1+math.Abs(ddf)) {
			t.Errorf("opt2 ddf at %v: analytic %v fd %v", b, ddf, (fp-2*f0+fm)/(h*h))
		}
		if ddf <= 0 {
			t.Errorf("opt2 not convex at %v", b)
		}
	}
}

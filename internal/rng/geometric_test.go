package rng

import (
	"math"
	"testing"
)

// momentCheck draws n samples via draw and compares the sample mean and
// variance against closed-form values, with tolerances of a few standard
// errors (SE of the mean is sd/sqrt(n); SE of the variance is roughly
// sqrt(2/n)·var for light-tailed laws — geometric moments up to order 4
// exist, so the normal-approximation band is valid).
func momentCheck(t *testing.T, name string, n int, draw func() float64, wantMean, wantVar float64) {
	t.Helper()
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := draw()
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	sd := math.Sqrt(wantVar)
	if tol := 6 * sd / math.Sqrt(float64(n)); math.Abs(mean-wantMean) > tol {
		t.Errorf("%s: mean %v want %v ± %v", name, mean, wantMean, tol)
	}
	if tol := 8 * wantVar * math.Sqrt(2/float64(n)); math.Abs(variance-wantVar) > tol {
		t.Errorf("%s: variance %v want %v ± %v", name, variance, wantVar, tol)
	}
}

func TestGeometricMoments(t *testing.T) {
	// Support {1, 2, ...}: mean 1/p, variance (1-p)/p².
	for _, p := range []float64{0.05, 0.3, 0.7, 0.95} {
		s := New(17)
		momentCheck(t, "Geometric", 200000,
			func() float64 { return float64(s.Geometric(p)) },
			1/p, (1-p)/(p*p))
	}
}

func TestGeometricSkipMoments(t *testing.T) {
	// Failures before first success: mean (1-p)/p, variance (1-p)/p².
	for _, p := range []float64{0.01, 0.05, 0.3, 0.7, 0.95} {
		s, ln1mp := New(23), math.Log1p(-p)
		momentCheck(t, "GeometricSkipLn", 200000,
			func() float64 { return float64(s.GeometricSkipLn(ln1mp)) },
			(1-p)/p, (1-p)/(p*p))
	}
}

func TestGeometricSkipDeterministic(t *testing.T) {
	a, b, ln1mp := New(99), New(99), math.Log1p(-0.1)
	for i := 0; i < 1000; i++ {
		if x, y := a.GeometricSkipLn(ln1mp), b.GeometricSkipLn(ln1mp); x != y {
			t.Fatalf("draw %d: same seed diverged (%d vs %d)", i, x, y)
		}
	}
	// Geometric shares the determinism contract.
	c, d := New(7), New(7)
	for i := 0; i < 1000; i++ {
		if x, y := c.Geometric(0.3), d.Geometric(0.3); x != y {
			t.Fatalf("draw %d: Geometric same seed diverged (%d vs %d)", i, x, y)
		}
	}
}

func TestGeometricSkipEdgeCases(t *testing.T) {
	s := New(1)
	// p = 1: ln(1-p) = -Inf, a success at every trial.
	for i := 0; i < 100; i++ {
		if k := s.GeometricSkipLn(math.Log1p(-1)); k != 0 {
			t.Fatalf("GeometricSkipLn(ln(1-1)) = %d, want 0", k)
		}
	}
	// A success probability at the smallest positive normal must not
	// overflow position arithmetic in callers.
	if k := s.GeometricSkipLn(math.Log1p(-5e-324)); k < 0 || k > maxSkip {
		t.Fatalf("GeometricSkipLn(ln(1-tiny)) = %d outside [0, maxSkip]", k)
	}
	// No p in (0, 1] behind the log — p <= 0 gives ln(1-p) >= 0, p > 1
	// gives NaN: a success never happens, so the cap, not 0 and not
	// whatever int(NaN) is.
	for _, p := range []float64{0, -0.5, 1.5} {
		if k := s.GeometricSkipLn(math.Log1p(-p)); k != maxSkip {
			t.Errorf("GeometricSkipLn(ln(1-%v)) = %d, want maxSkip", p, k)
		}
	}
}

func TestReseedMatchesNew(t *testing.T) {
	fresh := New(1234)
	reused := New(1)
	reused.Uint64() // advance so Reseed has state to discard
	reused.Reseed(1234)
	for i := 0; i < 200; i++ {
		if a, b := fresh.Uint64(), reused.Uint64(); a != b {
			t.Fatalf("draw %d: Reseed stream diverged from New", i)
		}
	}
	// Derived streams after Reseed must match too (s1/s2 are updated).
	if New(1234).Split("x").Uint64() != reused.Split("x").Uint64() {
		t.Fatal("Split after Reseed diverged")
	}
}

func TestSplitNIntoMatchesSplitN(t *testing.T) {
	root := New(42)
	child := New(0)
	for i := 0; i < 50; i++ {
		root.SplitNInto(i, child)
		want := root.SplitN(i)
		for d := 0; d < 20; d++ {
			if a, b := child.Uint64(), want.Uint64(); a != b {
				t.Fatalf("user %d draw %d: SplitNInto diverged from SplitN", i, d)
			}
		}
	}
}

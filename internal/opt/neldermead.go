package opt

import (
	"math"
	"sort"
)

// NelderMeadOptions tunes the downhill-simplex search used by the
// direct-matrix ablation (SolveDirect).
type NelderMeadOptions struct {
	MaxIter   int     // total function-evaluation budget (default 4000·dim)
	InitScale float64 // initial simplex edge length (default 0.1)
	Tol       float64 // spread termination threshold (default 1e-12)
}

func (o NelderMeadOptions) withDefaults(dim int) NelderMeadOptions {
	if o.MaxIter <= 0 {
		o.MaxIter = 4000 * dim
	}
	if o.InitScale <= 0 {
		o.InitScale = 0.1
	}
	if o.Tol <= 0 {
		o.Tol = 1e-12
	}
	return o
}

// NelderMead minimizes f starting from x0 using the Nelder–Mead simplex
// method with standard reflection/expansion/contraction/shrink
// coefficients and a few restarts around the incumbent to escape simplex
// collapse. It returns the best point found and its value. f must be
// finite on the search path (use penalties, not infinities, for soft
// constraints; +Inf values are handled but give the search no gradient
// information).
func NelderMead(f func([]float64) float64, x0 []float64, opts NelderMeadOptions) ([]float64, float64) {
	o := opts.withDefaults(len(x0))
	bestX, bestV := nmRun(f, x0, o)
	scale := o.InitScale
	for restart := 0; restart < 3; restart++ {
		scale /= 4
		ro := o
		ro.InitScale = scale
		x, v := nmRun(f, bestX, ro)
		if v < bestV {
			bestX, bestV = x, v
		}
	}
	return bestX, bestV
}

func nmRun(f func([]float64) float64, x0 []float64, o NelderMeadOptions) ([]float64, float64) {
	dim := len(x0)
	type vertex struct {
		x []float64
		v float64
	}
	simplex := make([]vertex, dim+1)
	simplex[0] = vertex{x: append([]float64(nil), x0...), v: f(x0)}
	for i := 1; i <= dim; i++ {
		x := append([]float64(nil), x0...)
		step := o.InitScale
		if x[i-1] != 0 {
			step = o.InitScale * math.Abs(x[i-1])
			if step < 1e-6 {
				step = 1e-6
			}
		}
		x[i-1] += step
		simplex[i] = vertex{x: x, v: f(x)}
	}
	evals := dim + 1
	const (
		alpha = 1.0 // reflection
		gamma = 2.0 // expansion
		rho   = 0.5 // contraction
		sigma = 0.5 // shrink
	)
	centroid := make([]float64, dim)
	for evals < o.MaxIter {
		sort.Slice(simplex, func(i, j int) bool { return simplex[i].v < simplex[j].v })
		if math.Abs(simplex[dim].v-simplex[0].v) < o.Tol*(math.Abs(simplex[0].v)+o.Tol) {
			break
		}
		// Centroid of all but the worst vertex.
		for j := range centroid {
			centroid[j] = 0
		}
		for i := 0; i < dim; i++ {
			for j, xj := range simplex[i].x {
				centroid[j] += xj / float64(dim)
			}
		}
		worst := simplex[dim]
		refl := blend(centroid, worst.x, 1+alpha, -alpha)
		fr := f(refl)
		evals++
		switch {
		case fr < simplex[0].v:
			exp := blend(centroid, worst.x, 1+alpha*gamma, -alpha*gamma)
			fe := f(exp)
			evals++
			if fe < fr {
				simplex[dim] = vertex{x: exp, v: fe}
			} else {
				simplex[dim] = vertex{x: refl, v: fr}
			}
		case fr < simplex[dim-1].v:
			simplex[dim] = vertex{x: refl, v: fr}
		default:
			// Contraction toward the better of worst/reflected.
			base := worst.x
			if fr < worst.v {
				base = refl
			}
			con := blend(centroid, base, 1-rho, rho)
			fc := f(con)
			evals++
			if fc < math.Min(fr, worst.v) {
				simplex[dim] = vertex{x: con, v: fc}
			} else {
				// Shrink toward the best vertex.
				for i := 1; i <= dim; i++ {
					simplex[i].x = blend(simplex[0].x, simplex[i].x, 1-sigma, sigma)
					simplex[i].v = f(simplex[i].x)
				}
				evals += dim
			}
		}
	}
	sort.Slice(simplex, func(i, j int) bool { return simplex[i].v < simplex[j].v })
	return simplex[0].x, simplex[0].v
}

// blend returns ca*a + cb*b element-wise as a fresh slice.
func blend(a, b []float64, ca, cb float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = ca*a[i] + cb*b[i]
	}
	return out
}

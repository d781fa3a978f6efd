// Package opt contains the numerical optimization substrate used to choose
// the IDUE perturbation probabilities (§V-D): a small dense linear-algebra
// kernel and one log-barrier path follower with damped Newton steps. It
// solves the two convex programs opt1 (Eq. 12) and opt2 (Eq. 13), and the
// non-convex worst-case program opt0 (Eq. 10) in the log-ratio coordinates
// where its privacy constraints are linear. A Nelder–Mead search serves
// only the direct-matrix ablation (SolveDirect).
package opt

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major square-or-rectangular matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix returns a zero matrix with the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("opt: negative matrix dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Add increments element (i, j) by v.
func (m *Matrix) Add(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// SolveLinear solves A x = b by LU decomposition with partial pivoting,
// destroying neither input. It returns an error if A is not square, the
// sizes disagree, or A is numerically singular.
func SolveLinear(a *Matrix, b []float64) ([]float64, error) {
	n := a.Rows
	if a.Cols != n {
		return nil, fmt.Errorf("opt: matrix %dx%d not square", a.Rows, a.Cols)
	}
	if len(b) != n {
		return nil, fmt.Errorf("opt: rhs length %d != %d", len(b), n)
	}
	lu := a.Clone()
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for col := 0; col < n; col++ {
		// Partial pivot.
		p := col
		best := math.Abs(lu.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(lu.At(r, col)); v > best {
				best, p = v, r
			}
		}
		if best < 1e-300 {
			return nil, fmt.Errorf("opt: singular matrix at column %d", col)
		}
		if p != col {
			for j := 0; j < n; j++ {
				vj, wj := lu.At(col, j), lu.At(p, j)
				lu.Set(col, j, wj)
				lu.Set(p, j, vj)
			}
			perm[col], perm[p] = perm[p], perm[col]
		}
		piv := lu.At(col, col)
		for r := col + 1; r < n; r++ {
			f := lu.At(r, col) / piv
			lu.Set(r, col, f)
			for j := col + 1; j < n; j++ {
				lu.Add(r, j, -f*lu.At(col, j))
			}
		}
	}
	// Forward substitution on permuted rhs.
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = b[perm[i]]
		for j := 0; j < i; j++ {
			x[i] -= lu.At(i, j) * x[j]
		}
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		for j := i + 1; j < n; j++ {
			x[i] -= lu.At(i, j) * x[j]
		}
		x[i] /= lu.At(i, i)
	}
	return x, nil
}

// Dot returns the inner product of equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("opt: dot of unequal lengths")
	}
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm.
func Norm2(a []float64) float64 { return math.Sqrt(Dot(a, a)) }

// AXPY computes y += alpha * x in place.
func AXPY(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("opt: axpy of unequal lengths")
	}
	for i := range x {
		y[i] += alpha * x[i]
	}
}

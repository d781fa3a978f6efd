package rng

import "math"

// Alias is a Walker alias table (Vose, IEEE TSE 1991) for O(1) sampling
// from a fixed discrete distribution, behind the synthetic datasets.
// Building costs O(k); a draw is i = IntN(k), then Float64() < prob[i]. A
// cell stores prob as ⌈prob·2⁵³⌉ beside its alias, so a draw loads one
// cell and compares the word's low 53 bits x with it: x < ⌈prob·2⁵³⌉
// exactly when x/2⁵³ < prob, as prob·2⁵³ is exact and x an integer.
type Alias struct{ cells []aliasCell }

type aliasCell struct {
	thr   uint64
	alias int
}

// NewAlias builds an alias table for the (unnormalized) weights. It panics
// if weights is empty, contains a negative entry, or sums to zero.
func NewAlias(weights []float64) *Alias {
	k, total := len(weights), weightTotal("NewAlias", weights)
	a := &Alias{cells: make([]aliasCell, k)}
	scaled, small, large := make([]float64, k), make([]int, 0, k), make([]int, 0, k)
	for i, w := range weights {
		scaled[i] = w * float64(k) / total
		if scaled[i] < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		l := small[len(small)-1]
		small = small[:len(small)-1]
		g := large[len(large)-1]
		large = large[:len(large)-1]
		a.cells[l] = aliasCell{uint64(math.Ceil(scaled[l] * (1 << 53))), g}
		scaled[g] = scaled[g] + scaled[l] - 1
		if scaled[g] < 1 {
			small = append(small, g)
		} else {
			large = append(large, g)
		}
	}
	// What is left is full (small cells only through round-off).
	for _, i := range append(large, small...) {
		a.cells[i] = aliasCell{1 << 53, i}
	}
	return a
}

// K returns the number of categories.
func (a *Alias) K() int { return len(a.cells) }

// Draw returns a category index sampled from the table's distribution.
func (a *Alias) Draw(s *Source) int {
	// IntN(k)'s loop, written out so the draw makes no call.
	var i uint64
	for ok := false; !ok; {
		i, ok = reduce(s.Uint64(), uint64(len(a.cells)))
	}
	if c := a.cells[i]; s.Uint64()<<11>>11 >= c.thr {
		i = uint64(c.alias)
	}
	return int(i)
}

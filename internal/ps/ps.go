// Package ps implements the Padding-and-Sampling protocol (Algorithm 2)
// and the item-set mechanisms built on it (§VI): IDUE-PS (Algorithm 3) and
// the PS-wrapped baselines RAPPOR-PS and OUE-PS. The item domain
// {0..m-1} is extended with ℓ dummy items {m..m+ℓ-1}; every user pads or
// truncates her set to exactly ℓ items, samples one, unary-encodes it over
// m+ℓ bits and perturbs with the underlying UE mechanism. The server
// multiplies calibrated estimates by ℓ to undo the sampling.
package ps

import (
	"fmt"
	"math"

	"idldp/internal/bitvec"
	"idldp/internal/mech"
	"idldp/internal/rng"
)

// Sample implements Algorithm 2: pad (or truncate) the item-set x to
// exactly ell items using the disjoint dummy domain {m..m+ell-1}, then
// sample one item uniformly from the padded set. The returned value is in
// [0, m+ell); values >= m are dummy items. It panics on invalid input
// (out-of-range or duplicate items, or ell <= 0).
func Sample(x []int, m, ell int, r *rng.Source) int {
	if ell <= 0 {
		panic("ps: padding length must be positive")
	}
	validateSet(x, m)
	switch {
	case len(x) < ell:
		// Pad with (ell - |x|) distinct dummies, then sample uniformly
		// from the ell-element padded set. Sampling position first avoids
		// materializing the padded set: position < |x| hits a real item;
		// otherwise a uniformly random dummy (the padded dummies are a
		// uniform subset, so the sampled dummy is uniform over S).
		pos := r.IntN(ell)
		if pos < len(x) {
			return x[pos]
		}
		return m + r.IntN(ell)
	case len(x) > ell:
		// Truncate to ell random items, then sample one uniformly — which
		// is a uniform draw from x.
		return x[r.IntN(len(x))]
	default:
		return x[r.IntN(ell)]
	}
}

// bitmapDomain is the largest real domain validateSet checks with a bitmap
// on the stack: 4,096 items, 64 words.
const bitmapDomain = 4096

// validateSet checks range and uniqueness, panicking at the first item that
// is out of range or repeats an earlier one. Up to bitmapDomain items it
// marks each item in a bitmap on the stack, O(|x| + m/64) whatever the
// set's size, so the per-report path allocates nothing for any set (3% of
// Retail's baskets hold more than 32 items, up to 76). Only a larger
// domain pays for a map.
func validateSet(x []int, m int) {
	if m <= bitmapDomain {
		var seen [bitmapDomain / 64]uint64
		for _, i := range x {
			if i < 0 || i >= m {
				panic(fmt.Sprintf("ps: item %d out of range [0,%d)", i, m))
			}
			bit := uint64(1) << uint(i&63)
			if seen[i>>6]&bit != 0 {
				panic(fmt.Sprintf("ps: duplicate item %d in set", i))
			}
			seen[i>>6] |= bit
		}
		return
	}
	seen := make(map[int]bool, len(x))
	for _, i := range x {
		if i < 0 || i >= m {
			panic(fmt.Sprintf("ps: item %d out of range [0,%d)", i, m))
		}
		if seen[i] {
			panic(fmt.Sprintf("ps: duplicate item %d in set", i))
		}
		seen[i] = true
	}
}

// SampleProb returns the probability that Sample(x, m, ell) returns item
// id (real or dummy) — the per-item sampling rates behind Lemma 2:
// η_x/|x| for i ∈ x, (1-η_x)/ℓ for dummies, 0 otherwise, with
// η_x = |x|/max{|x|, ℓ}.
func SampleProb(x []int, m, ell, id int) float64 {
	eta := Eta(len(x), ell)
	if id >= m && id < m+ell {
		return (1 - eta) / float64(ell)
	}
	for _, i := range x {
		if i == id {
			return eta / float64(len(x))
		}
	}
	return 0
}

// Eta returns η_x = |x|/max{|x|, ℓ}, the probability that the sampled
// item is real rather than a dummy.
func Eta(setSize, ell int) float64 {
	if setSize == 0 {
		return 0
	}
	return float64(setSize) / math.Max(float64(setSize), float64(ell))
}

// SetMech is an item-set mechanism (Algorithm 3): Padding-and-Sampling
// followed by a UE perturbation over m+ℓ bits.
type SetMech struct {
	UE  *mech.UE
	M   int // real item domain size
	Ell int // padding length ℓ = number of dummy items
}

// NewSetMech wraps a UE mechanism over exactly m+ell bits.
func NewSetMech(u *mech.UE, m, ell int) (*SetMech, error) {
	if m <= 0 || ell <= 0 {
		return nil, fmt.Errorf("ps: need positive m and ell, got %d and %d", m, ell)
	}
	if u.Bits() != m+ell {
		return nil, fmt.Errorf("ps: mechanism has %d bits, want m+ell = %d", u.Bits(), m+ell)
	}
	return &SetMech{UE: u, M: m, Ell: ell}, nil
}

// Perturb runs Algorithm 3 on an item-set: sample one (possibly dummy)
// item, encode it one-hot over m+ℓ bits, and perturb every bit. It
// allocates the report; PerturbInto is the buffer-reuse variant.
func (s *SetMech) Perturb(x []int, r *rng.Source) *bitvec.Vector {
	y := bitvec.New(s.Bits())
	s.PerturbInto(x, r, y)
	return y
}

// PerturbInto runs Algorithm 3 writing the report into out without
// allocating: sampling stays index-level (no padded set is materialized)
// and the perturbation over m+ℓ bits is mech.UE.PerturbItemInto's. out
// must have Bits() bits; its prior contents are discarded.
func (s *SetMech) PerturbInto(x []int, r *rng.Source, out *bitvec.Vector) {
	sampled := Sample(x, s.M, s.Ell, r)
	s.UE.PerturbItemInto(sampled, r, out)
}

// Bits returns the report length m+ℓ.
func (s *SetMech) Bits() int { return s.M + s.Ell }

// SetBudget implements Eq. (17): the combined privacy budget of item-set x,
// ε_x = ln(η_x·Σ_{i∈x} e^{ε_i}/|x| + (1-η_x)·e^{ε*}), where epsOf gives the
// per-item budgets and epsStar is the dummy-item budget (the paper picks
// ε* = min{E}). For the empty set it degenerates to ε*.
func SetBudget(x []int, epsOf func(int) float64, epsStar float64, ell int) float64 {
	eta := Eta(len(x), ell)
	var real float64
	if len(x) > 0 {
		for _, i := range x {
			real += math.Exp(epsOf(i))
		}
		real /= float64(len(x))
	}
	return math.Log(eta*real + (1-eta)*math.Exp(epsStar))
}

// OutputProb returns the exact probability Pr(y | x) of observing report y
// for item-set input x under the mechanism, via the mixture form of
// Eq. (20) in Appendix A: Σ_s Pr(s sampled)·Π_k Pr(y[k] | one-hot(s)[k]).
// It is exponential in nothing — O((|x|+ℓ)·(m+ℓ)) — and exists to verify
// Theorem 4 directly in tests.
func (s *SetMech) OutputProb(x []int, y *bitvec.Vector) float64 {
	if y.Len() != s.Bits() {
		panic(fmt.Sprintf("ps: output has %d bits, want %d", y.Len(), s.Bits()))
	}
	validateSet(x, s.M)
	var total float64
	addCandidate := func(id int, prob float64) {
		if prob == 0 {
			return
		}
		p := prob
		for k := 0; k < s.Bits(); k++ {
			var bitP float64
			if k == id {
				if y.Get(k) {
					bitP = s.UE.A[k]
				} else {
					bitP = 1 - s.UE.A[k]
				}
			} else {
				if y.Get(k) {
					bitP = s.UE.B[k]
				} else {
					bitP = 1 - s.UE.B[k]
				}
			}
			p *= bitP
		}
		total += p
	}
	eta := Eta(len(x), s.Ell)
	for _, i := range x {
		addCandidate(i, eta/float64(len(x)))
	}
	for d := 0; d < s.Ell; d++ {
		addCandidate(s.M+d, (1-eta)/float64(s.Ell))
	}
	return total
}

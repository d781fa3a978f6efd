package ps

import (
	"fmt"
	"math"
	"testing"

	"idldp/internal/bitvec"
	"idldp/internal/mech"
	"idldp/internal/rng"
)

// TestSetMechFastPathMarginals is the padded-domain equivalence test: for
// a fixed item-set, both the sparse-flip fast path (PerturbInto) and the
// per-bit reference loop must reproduce the exact per-bit output law of
// Algorithm 3, Pr(y[k]=1) = Σ_s Pr(sample=s)·Pr(y[k]=1 | one-hot(s)[k]),
// over all m+ℓ bits including the dummies.
func TestSetMechFastPathMarginals(t *testing.T) {
	const m, ell, n = 40, 6, 120000
	sm, _ := buildIDUEPS(t, m, ell)
	x := []int{0, 3, 17, 39}
	bits := sm.Bits()
	// Exact marginal of bit k via the sampling rates of Lemma 2.
	prob := func(k int) float64 {
		var p float64
		for s := 0; s < bits; s++ {
			ps := SampleProb(x, m, ell, s)
			if ps == 0 {
				continue
			}
			if s == k {
				p += ps * sm.UE.A[k]
			} else {
				p += ps * sm.UE.B[k]
			}
		}
		return p
	}
	run := func(name string, report func(y *bitvec.Vector)) {
		counts := make([]int64, bits)
		y := bitvec.New(bits)
		for i := 0; i < n; i++ {
			report(y)
			y.AccumulateInto(counts)
		}
		for k, c := range counts {
			p := prob(k)
			f := float64(c) / float64(n)
			se := math.Sqrt(p * (1 - p) / float64(n))
			if math.Abs(f-p) > 5.5*se {
				t.Errorf("%s: bit %d rate %v want %v ± %v", name, k, f, p, 5.5*se)
			}
		}
	}
	rFast := rng.New(41)
	run("fast", func(y *bitvec.Vector) { sm.PerturbInto(x, rFast, y) })
	rRef := rng.New(82)
	run("reference", func(y *bitvec.Vector) {
		sampled := Sample(x, m, ell, rRef)
		y.CopyFrom(sm.UE.PerturbReference(bitvec.OneHot(bits, sampled), rRef))
	})
}

// TestSetMechPerturbIntoMatchesPerturb pins stream-level determinism of
// the buffer variant.
func TestSetMechPerturbIntoMatchesPerturb(t *testing.T) {
	u, _ := mech.NewOUE(2, 12)
	sm, err := NewSetMech(u, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	x := []int{1, 6}
	y1 := sm.Perturb(x, rng.New(9))
	y2 := bitvec.New(sm.Bits())
	sm.PerturbInto(x, rng.New(9), y2)
	if !y1.Equal(y2) {
		t.Fatal("PerturbInto diverged from Perturb for the same seed")
	}
}

// TestValidateSetLargeSet exercises the map-based branch of validateSet
// (domains larger than the stack bitmap covers).
func TestValidateSetLargeSet(t *testing.T) {
	big := make([]int, 40)
	for i := range big {
		big[i] = i * 1000
	}
	validateSet(big, bitmapDomain+1<<20) // must not panic
	big[39] = 5000                       // duplicate
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate in large set not caught")
		}
	}()
	validateSet(big, bitmapDomain+1<<20)
}

// panicOf returns the message fn panics with, "" if it returns.
func panicOf(fn func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	fn()
	return ""
}

// TestSampleValidatesWithoutAllocating pins the per-report contract at the
// §VII IDUE-PS shape, m + ℓ = 1,032: sampling a set of any size Retail
// holds (0 to 76 items) allocates nothing, and a set with one bad item
// panics with the message it always did — out of range or duplicate,
// whichever comes first — at every size, in the bitmap and the map branch.
func TestSampleValidatesWithoutAllocating(t *testing.T) {
	const m, ell = 1024, 8
	r := rng.New(4)
	for size := 0; size <= 76; size++ {
		x := make([]int, size)
		for j := range x {
			x[j] = (j*389 + 7) % m
		}
		if a := testing.AllocsPerRun(50, func() { Sample(x, m, ell, r) }); a != 0 {
			t.Errorf("|x| = %d: Sample allocates %v times per report", size, a)
		}
		for _, dom := range []int{m, bitmapDomain + 1} {
			bad := append(append([]int(nil), x...), dom)
			want := fmt.Sprintf("ps: item %d out of range [0,%d)", dom, dom)
			if got := panicOf(func() { validateSet(bad, dom) }); got != want {
				t.Errorf("|x| = %d, m = %d: out-of-range panic %q, want %q", size, dom, got, want)
			}
			bad[len(bad)-1] = -1
			want = fmt.Sprintf("ps: item -1 out of range [0,%d)", dom)
			if got := panicOf(func() { validateSet(bad, dom) }); got != want {
				t.Errorf("|x| = %d, m = %d: negative-item panic %q, want %q", size, dom, got, want)
			}
			if size == 0 {
				continue
			}
			// A repeat of the middle item, then an out-of-range one: the
			// repeat comes first, so it is the one reported.
			dup := append(append([]int(nil), x...), x[size/2], dom)
			want = fmt.Sprintf("ps: duplicate item %d in set", x[size/2])
			if got := panicOf(func() { validateSet(dup, dom) }); got != want {
				t.Errorf("|x| = %d, m = %d: duplicate panic %q, want %q", size, dom, got, want)
			}
			if got := panicOf(func() { validateSet(x, dom) }); got != "" {
				t.Errorf("|x| = %d, m = %d: a valid set panicked: %s", size, dom, got)
			}
		}
	}
}

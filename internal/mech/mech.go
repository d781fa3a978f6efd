// Package mech implements the local perturbation mechanisms of the paper:
// the Unary-Encoding family (basic RAPPOR, OUE, and the paper's
// Input-Discriminative Unary Encoding, Algorithm 1) plus the categorical
// baselines Randomized Response and Generalized Randomized Response
// (§III-C). All UE-family mechanisms share one representation — per-bit
// Bernoulli keep/flip probabilities — which is exactly what makes IDUE
// input-discriminative: bits of different privacy levels get different
// parameters.
//
// # Cost model
//
// A naive UE perturbation draws one Bernoulli per bit: O(m) per report,
// which for Table-I/II domain sizes (m in the thousands) makes the
// simulated clients — not aggregation — the bottleneck of every
// end-to-end figure. The constructors therefore build a plan that samples
// the report of the all-zero input, Bernoulli(B[k]) on every bit, by one of
// two samplers, and Perturb* then overwrites the input's set bits with
// Bernoulli(A[k]) draws.
//
// Bit planes (dense bits). Each B[k] is stored as the 0.64 fixed-point
// threshold T = ⌊B[k]·2⁶⁴⌋, transposed so that plane j of an output word
// holds bit 63−j of its 64 lanes' thresholds. A lane's output bit is
// [U < T] for a uniform 64-bit U that is never materialized: one 64-bit
// draw supplies the next bit of all 64 lanes' U at once, MSB first, and a
// lane is decided at the first plane where its U and T differ — half of the
// undecided lanes per draw. Stopping the moment the last lane is decided
// takes log₂64 + 1.33 ≈ 7.3 expected draws a word, but a loop that exits
// after 7.3 ± 1.9 trips mispredicts its exit once per word, which costs
// more than the two draws a fixed count adds. So a word first runs a
// prefix of ⌈log₂ lanes⌉ + 3 planes, set at plan time from its live-lane
// count (9 for a full word, 6 for the 8 live lanes of IDUE-PS's last word
// at m + ℓ = 1,032, none for a word with no live lane) with no test of
// what is left undecided, and only from there on stops when no lane is,
// a tail the 11.8% of words that still hold an undecided lane need for
// another 0.24 draws on average. A full word costs 9.24 expected draws and
// a report
//
//	O(m/64 · 9.24 + |x|)
//
// draws whatever b is and however the levels interleave (thresholds are per
// lane). A prefix shorter than ⌈log₂ lanes⌉ + 2 leaves most words to the
// data-dependent exit, which mispredicts as with no prefix; per §VII report,
// ⌈log₂ lanes⌉ + 2 / 3 / 4 / 5 → 331 / 306 / 308 / 330 ns. The draws come
// from an rng.Xoshiro, a xoshiro256++ generator that fill derives once per
// report from the Source's next two words (when the plan has planes at
// all) and holds in registers across the words: no multiply a draw, where
// the PCG-DXSM step of the Source costs five, so a full word takes ~21 ns
// and a §VII report ~340 ns, the derivation included (on PCG-DXSM steps
// ~34 ns and ~550 ns). The Source moves on exactly two words per report for
// its planes, so the skip runs and the keep draws after them stay on the
// Source's own stream. The probability realized is exactly T/2⁶⁴ (the tail
// runs to plane 64 if it must): finer than the reference's Float64() < p
// grid of 2⁻⁵³, and equal to B[k] for every float64 B[k] ≥ 2⁻¹¹ (smaller
// values truncate, never round up).
//
// Geometric skip (sparse bits). Bits sharing a flip probability b form a
// run, and the gap between consecutive flips of a run is Geometric(b): one
// ExpFloat64, a divide and a bit store per flipped bit,
//
//	O(t + m·b̄ + |x|)
//
// for t runs at mean flip rate b̄.
//
// The plan assigns a run to skip when b < skipBelow and to planes
// otherwise. skipBelow = 0.037 is where the two cost the same at m = 1024 on
// the 2.1 GHz Xeon the repository's benchmark runs on (best of 60 batches
// of 4,096 reports): planes 325–355 ns per report at any b; skip
// 620 / 500 / 410 / 345 / 265 ns at b = 0.076 / 0.06 / 0.047 / 0.037 /
// 0.029 — they cross at b = 0.037 (OUE ε ≈ 3.25).
// BenchmarkPerturbItem in this package measures both plans at the §VII
// IDUE setting and at OUE ε ∈ {1, 2.5, 3, 5, 8} and fails if the chosen one
// loses by more than 20%. The two samplers write disjoint bits, so runs of
// both kinds may share a word. The *Into variants write into a
// caller-provided buffer, so steady-state report generation does not
// allocate at all.
//
// PerturbReference keeps the literal per-bit loop of Algorithm 1. It is
// the executable specification: statistical-equivalence tests compare the
// fast path's output distribution against it, and a UE value assembled by
// hand (rather than through a constructor) falls back to it.
package mech

import (
	"fmt"
	"math"
	"math/bits"

	"idldp/internal/bitvec"
	"idldp/internal/budget"
	"idldp/internal/opt"
	"idldp/internal/rng"
)

// UE is a Unary-Encoding mechanism over m bits. Bit k of the encoded
// input is reported as 1 with probability A[k] if it is set and with
// probability B[k] if it is clear:
//
//	Pr(y[k]=1 | x[k]=1) = A[k],   Pr(y[k]=1 | x[k]=0) = B[k].
//
// Uniform A and B give RAPPOR/OUE; per-level values give IDUE.
type UE struct {
	A, B []float64

	// The sampling plan for the all-zero input's report, built by the
	// constructors; live == nil (hand-assembled UE) selects the per-bit
	// reference path. Read-only after construction, so a UE is safe to
	// share across perturbation goroutines.
	//
	// live[w] masks the lanes of output word w drawn by the plane sampler,
	// depth[w] is the length of its fixed prefix (prefixDepth of its
	// live-lane count) and planes[w][j] holds bit 63-j of the lanes'
	// thresholds (zero on every other lane; nil when no lane is).
	// Word-major, so the ~9 planes a word usually needs span two cache
	// lines. skips are the runs drawn by geometric skip instead.
	live   []uint64
	depth  []uint8
	planes [][64]uint64
	skips  []skipRun
}

// skipRun is one group of bits sharing a zero-bit flip probability b low
// enough that jumping between its flips beats sampling its words.
type skipRun struct {
	ln1mb float64 // log1p(-b), precomputed for GeometricSkipLn
	pos   []int32 // bit positions of the run, ascending
}

// skipBelow is the flip probability under which a run is sampled by
// geometric skip rather than bit planes (see the package cost model for
// where it was measured).
const skipBelow = 0.037

// NewUE builds a UE mechanism from explicit per-bit probabilities. It
// returns an error unless 0 < B[k] <= A[k] < 1 for every bit (the paper's
// standing assumption a_k >= b_k, §V-B).
func NewUE(a, b []float64) (*UE, error) {
	if len(a) == 0 || len(a) != len(b) {
		return nil, fmt.Errorf("mech: need equal non-zero parameter lengths, got %d and %d", len(a), len(b))
	}
	for k := range a {
		if !(0 < b[k] && b[k] <= a[k] && a[k] < 1) {
			return nil, fmt.Errorf("mech: bit %d has invalid probabilities a=%v b=%v", k, a[k], b[k])
		}
	}
	u := &UE{A: append([]float64(nil), a...), B: append([]float64(nil), b...)}
	u.buildPlan(skipBelow)
	return u, nil
}

// buildPlan assigns every bit to one of the two samplers by its
// zero-bit flip probability (set-bit draws use the per-bit A array
// directly, so only b matters): b >= skipBelow goes into the bit planes,
// the rest are grouped into skip runs by b in first-appearance order, so
// the draw sequence is deterministic. Budgets assign each bit one of t
// levels, so the map stays tiny even for random assignments over large
// domains.
func (u *UE) buildPlan(skipBelow float64) {
	words := (len(u.B) + 63) / 64
	u.live = make([]uint64, words)
	index := make(map[float64]int, 8)
	for k, b := range u.B {
		if b >= skipBelow {
			lane := uint(k & 63)
			u.live[k>>6] |= 1 << lane
			if u.planes == nil {
				u.planes = make([][64]uint64, words)
			}
			t, p := fixed64(b), &u.planes[k>>6]
			for j := range p {
				p[j] |= (t >> (63 - j) & 1) << lane
			}
			continue
		}
		ri, ok := index[b]
		if !ok {
			ri = len(u.skips)
			index[b] = ri
			u.skips = append(u.skips, skipRun{ln1mb: math.Log1p(-b)})
		}
		u.skips[ri].pos = append(u.skips[ri].pos, int32(k))
	}
	u.depth = make([]uint8, words)
	for wi, live := range u.live {
		u.depth[wi] = prefixDepth(bits.OnesCount64(live))
	}
}

// prefixDepth is the number of planes a word with the given live-lane count
// draws before it first tests whether a lane is still undecided:
// ⌈log₂ lanes⌉ + 3, after which one word in eight still has one (see the
// package cost model for the depths either side), and none for a word the
// plane sampler owns no lane of.
func prefixDepth(lanes int) uint8 {
	if lanes == 0 {
		return 0
	}
	return uint8(bits.Len(uint(lanes-1)) + 3)
}

// fixed64 returns ⌊p·2⁶⁴⌋ for p in (0, 1), the threshold T for which a
// uniform 64-bit U has P(U < T) = T/2⁶⁴. Scaling by a power of two is
// exact and the conversion truncates; a float64 p >= 2⁻¹¹ has no
// significant bit below 2⁻⁶⁴, so for those T/2⁶⁴ is p exactly.
func fixed64(p float64) uint64 { return uint64(p * 0x1p64) }

// fill writes a perturbation of the all-zero input into w: bit k is 1 with
// probability B[k], independently; padding bits stay clear.
func (u *UE) fill(r *rng.Source, w []uint64) {
	if u.planes == nil {
		// An all-skip plan: a report can cost ~45 ns in all, of which
		// walking the words below to store zeros would be a quarter. It
		// derives no plane stream, so its draws are the Source's alone.
		clear(w)
	} else {
		// The planes draw from a generator of their own, seeded from r's
		// next two words; the skip runs (and the caller's keep) draw
		// through r.
		g := r.Xoshiro()
		for wi := range u.planes {
			g, w[wi] = planeWord(g, &u.planes[wi], u.live[wi], int(u.depth[wi]))
		}
	}
	// Within a skip run every bit shares b, so the gaps between flip
	// positions are Geometric(b): jump, flip, repeat.
	for ri := range u.skips {
		run := &u.skips[ri]
		for i := r.GeometricSkipLn(run.ln1mb); i < len(run.pos); i += 1 + r.GeometricSkipLn(run.ln1mb) {
			k := run.pos[i]
			w[k>>6] |= 1 << uint(k&63)
		}
	}
}

// planeWord draws one output word from the planes p of its live lanes:
// bit k is [U < T] for lane k's threshold T and a fresh uniform U, zero on
// a lane that is not live. It returns g advanced by the draws it took: d
// whatever they decide, then one per further plane while a lane is still
// undecided. A function of its own so that the generator, the two lane
// masks and the plane cursor are all the loop keeps live: inlined into
// fill's word loop they spill.
func planeWord(g rng.Xoshiro, p *[64]uint64, live uint64, d int) (rng.Xoshiro, uint64) {
	// und holds the lanes whose uniform U has matched the threshold on
	// every plane so far; lt the lanes already decided U < T. A lane
	// leaves und at the first plane where the two differ, and it is
	// below the threshold iff that plane has U's bit 0 and T's bit 1.
	und, lt, x := live, uint64(0), uint64(0)
	for j, t := range p {
		if j >= d && und == 0 {
			break
		}
		g, x = g.Next()
		lt |= und &^ x & t
		und &^= x ^ t
	}
	return g, lt
}

// keep overwrites bit k of w, a set input bit, with a Bernoulli(A[k]) draw.
func (u *UE) keep(k int, r *rng.Source, w []uint64) {
	bit := uint64(1) << uint(k&63)
	if r.Bernoulli(u.A[k]) {
		w[k>>6] |= bit
	} else {
		w[k>>6] &^= bit
	}
}

// NewRAPPOR returns the basic (one-time) RAPPOR mechanism over m bits at
// budget eps: a = e^{ε/2}/(e^{ε/2}+1), b = 1-a.
func NewRAPPOR(eps float64, m int) (*UE, error) {
	if eps <= 0 {
		return nil, fmt.Errorf("mech: RAPPOR budget %v must be positive", eps)
	}
	if m <= 0 {
		return nil, fmt.Errorf("mech: domain size %d must be positive", m)
	}
	p := math.Exp(eps/2) / (math.Exp(eps/2) + 1)
	a := make([]float64, m)
	b := make([]float64, m)
	for k := range a {
		a[k], b[k] = p, 1-p
	}
	return NewUE(a, b)
}

// NewOUE returns the Optimized Unary Encoding mechanism over m bits at
// budget eps: a = 1/2, b = 1/(e^ε+1).
func NewOUE(eps float64, m int) (*UE, error) {
	if eps <= 0 {
		return nil, fmt.Errorf("mech: OUE budget %v must be positive", eps)
	}
	if m <= 0 {
		return nil, fmt.Errorf("mech: domain size %d must be positive", m)
	}
	q := 1 / (math.Exp(eps) + 1)
	a := make([]float64, m)
	b := make([]float64, m)
	for k := range a {
		a[k], b[k] = 0.5, q
	}
	return NewUE(a, b)
}

// NewIDUE expands solved per-level parameters into a per-bit IDUE
// mechanism using the level assignment: every item inherits the (a, b) of
// its privacy level.
func NewIDUE(p opt.LevelParams, asgn *budget.Assignment) (*UE, error) {
	if len(p.A) != asgn.T() || len(p.B) != asgn.T() {
		return nil, fmt.Errorf("mech: %d-level parameters for a %d-level assignment", len(p.A), asgn.T())
	}
	m := asgn.M()
	a := make([]float64, m)
	b := make([]float64, m)
	for i := 0; i < m; i++ {
		l := asgn.LevelOf(i)
		a[i], b[i] = p.A[l], p.B[l]
	}
	return NewUE(a, b)
}

// Bits returns the report length m.
func (u *UE) Bits() int { return len(u.A) }

// Perturb applies Algorithm 1 to an encoded input vector, drawing each
// output bit independently. The input must have exactly Bits() bits. It
// allocates the output; PerturbInto is the buffer-reuse variant.
func (u *UE) Perturb(x *bitvec.Vector, r *rng.Source) *bitvec.Vector {
	y := bitvec.New(len(u.A))
	u.PerturbInto(x, r, y)
	return y
}

// PerturbInto writes a perturbation of x into out without allocating.
// x and out must both have exactly Bits() bits; out's prior contents are
// discarded. The output distribution is that of Algorithm 1 — bit k of
// out is 1 with probability A[k] if x[k] is set and B[k] otherwise,
// independently — realized by sampling the all-zero input's report with
// the plan (see the package cost-model doc) and then redrawing the set
// bits of x, in ascending order, at their keep probability. The draw
// sequence differs from PerturbReference's, so for a fixed Source seed the
// two paths emit different (identically distributed) reports.
func (u *UE) PerturbInto(x *bitvec.Vector, r *rng.Source, out *bitvec.Vector) {
	if x.Len() != len(u.A) {
		panic(fmt.Sprintf("mech: input has %d bits, mechanism has %d", x.Len(), len(u.A)))
	}
	if x == out {
		// out is overwritten before x is read, so aliasing would silently
		// perturb a random input instead of x.
		panic("mech: PerturbInto input and output must be distinct vectors")
	}
	if u.live == nil {
		u.perturbReferenceInto(x, r, out)
		return
	}
	u.checkOut(out)
	w := out.MutableWords()
	u.fill(r, w)
	for wi, xw := range x.Words() {
		for ; xw != 0; xw &= xw - 1 {
			u.keep(wi*64+bits.TrailingZeros64(xw), r, w)
		}
	}
}

// PerturbItem encodes single-item input i as the one-hot vector v_i
// (Eq. 6) and perturbs it. It allocates the output; PerturbItemInto is
// the buffer-reuse variant.
func (u *UE) PerturbItem(i int, r *rng.Source) *bitvec.Vector {
	y := bitvec.New(len(u.A))
	u.PerturbItemInto(i, r, y)
	return y
}

// PerturbItemInto writes a perturbation of the one-hot encoding of item i
// into out without allocating or materializing the input vector. It is
// PerturbInto's fill and redraw applied to the single set bit, so for a
// fixed Source seed it emits exactly the report PerturbInto(OneHot(m, i))
// would. out must have exactly Bits() bits; its prior contents are
// discarded.
func (u *UE) PerturbItemInto(i int, r *rng.Source, out *bitvec.Vector) {
	if i < 0 || i >= len(u.A) {
		panic(fmt.Sprintf("mech: item %d out of range [0,%d)", i, len(u.A)))
	}
	if u.live == nil {
		u.perturbReferenceInto(bitvec.OneHot(len(u.A), i), r, out)
		return
	}
	u.checkOut(out)
	w := out.MutableWords()
	u.fill(r, w)
	u.keep(i, r, w)
}

// PerturbReference is the literal per-bit loop of Algorithm 1: one
// Bernoulli per bit, O(m). It is kept as the executable specification the
// fast path is tested against, and as the fallback for UE values
// assembled without a constructor.
func (u *UE) PerturbReference(x *bitvec.Vector, r *rng.Source) *bitvec.Vector {
	if x.Len() != len(u.A) {
		panic(fmt.Sprintf("mech: input has %d bits, mechanism has %d", x.Len(), len(u.A)))
	}
	y := bitvec.New(x.Len())
	u.perturbReferenceInto(x, r, y)
	return y
}

func (u *UE) perturbReferenceInto(x *bitvec.Vector, r *rng.Source, out *bitvec.Vector) {
	u.checkOut(out)
	out.Zero()
	for k := 0; k < x.Len(); k++ {
		p := u.B[k]
		if x.Get(k) {
			p = u.A[k]
		}
		if r.Bernoulli(p) {
			out.Set(k)
		}
	}
}

func (u *UE) checkOut(out *bitvec.Vector) {
	if out.Len() != len(u.A) {
		panic(fmt.Sprintf("mech: output buffer has %d bits, mechanism has %d", out.Len(), len(u.A)))
	}
}

// FlipProbabilities reports, for bit k, the probability of flipping a set
// bit (1→0) and a clear bit (0→1) — the presentation used by Table II.
func (u *UE) FlipProbabilities(k int) (oneToZero, zeroToOne float64) {
	return 1 - u.A[k], u.B[k]
}

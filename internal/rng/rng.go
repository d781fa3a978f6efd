// Package rng provides the deterministic randomness substrate used by every
// randomized component in this repository: Bernoulli trials and raw
// 64-bit words for bit perturbation, geometric skip sampling for its
// sparse runs, weighted categorical sampling for workload generation, and
// reservoir/partial-shuffle sampling for the Padding-and-Sampling protocol.
//
// All randomness flows through a Source so that experiments, tests and
// benchmarks are reproducible from a single seed. Derived streams (Split)
// let concurrent workers draw independent, stable sub-streams; SplitNInto
// and Reseed re-point an existing Source at a derived stream without
// allocating, which is what keeps per-user report generation
// allocation-free in the collection hot loops.
//
// Two generators, one seed. A Source runs PCG-DXSM, the generator of
// math/rand/v2, on a step it owns (Float64, IntN and the alias draw step
// it directly): a seed yields exactly the draws rand.New(rand.NewPCG(..))
// yields, which the tests pin for the raw step and every sampling method,
// so datasets, budgets, solver starts, geometric skips and the keep draws
// of internal/mech are the standard library's. The one loop that wants
// many raw words at once — the bit-plane sampler in internal/mech, ~160 a
// report — instead runs four xoshiro256++ streams per report, drawn in
// lockstep: an Xoshiro4 that Seed fills from the Source's next two words,
// every stream pinned against a transcription of its authors' C. PCG-DXSM
// costs five multiplies a step; xoshiro256++ costs none, only shifts,
// rotates, xors and adds, so four streams step together in 256-bit
// registers, one a state word. One stream took a §VII report from ~550 to
// ~340 ns; four in lockstep take it to ~195 ns on AVX2, ~140 on AVX-512,
// whose kernel also runs Seed in vector lanes. (The standard
// library's other generator, ChaCha8, is no way out: the 16 plane words
// of that report cost ~270 ns on one xoshiro256++ stream and ~810 on it.)
// It is the ++ scrambler and not xoshiro256+, whose lowest bits are weak
// linear functions of the state: the sampler uses every bit of every draw
// as a lane's next uniform bit.
package rng

import (
	"hash/fnv"
	"math"
	"math/bits"
	"math/rand/v2"
)

// pcg is the PCG-DXSM state of a Source: the 128-bit LCG and output
// function of math/rand/v2's rand.PCG, written out so that Uint64 steps it
// without a call through rand.PCG.
type pcg struct{ hi, lo uint64 }

// next advances the generator one step and returns its uniform 64-bit
// output: state·mul + inc over 128 bits, then DXSM of the new state.
func (g pcg) next() (pcg, uint64) {
	const (
		mulHi    = 2549297995355413924
		mulLo    = 4865540595714422341
		incHi    = 6364136223846793005
		incLo    = 1442695040888963407
		cheapMul = 0xda942042e4dd58b5
	)
	hi, lo := bits.Mul64(g.lo, mulLo)
	hi += g.hi*mulLo + g.lo*mulHi
	lo, c := bits.Add64(lo, incLo, 0)
	hi, _ = bits.Add64(hi, incHi, c)
	g = pcg{hi, lo}
	hi ^= hi >> 32
	hi *= cheapMul
	hi ^= hi >> 48
	return g, hi * (lo | 1)
}

// Xoshiro is the state of a xoshiro256++ generator (Blackman & Vigna,
// "Scrambled Linear Pseudorandom Number Generators", ACM TOMS 47(4),
// 2021): shifts, rotates, xors and two adds a step, no multiply. Next
// takes and returns the state by value, so a caller that loops
// x, v = x.Next() keeps the four words in registers for the whole run of
// draws. The zero value is the one state the generator never leaves;
// Xoshiro4.Seed and Lane are the way to get seeded ones.
type Xoshiro struct{ s0, s1, s2, s3 uint64 }

// Next advances the generator one step and returns its uniform 64-bit
// output, the authors' next() with the state passed by value.
func (x Xoshiro) Next() (Xoshiro, uint64) {
	v := bits.RotateLeft64(x.s0+x.s3, 23) + x.s0
	t := x.s1 << 17
	x.s2 ^= x.s0
	x.s3 ^= x.s1
	x.s1 ^= x.s2
	x.s0 ^= x.s3
	x.s2 ^= t
	x.s3 = bits.RotateLeft64(x.s3, 45)
	return x, v
}

// newXoshiro seeds a xoshiro256++ state from two 64-bit words the way its
// authors prescribe, with SplitMix64 outputs: the first two outputs of a
// SplitMix64 generator started at a, then the first two of one started at
// b. Every bit of both words reaches the state, and since SplitMix64's
// output is a bijection of its state, s0 and s1 are never both zero.
func newXoshiro(a, b uint64) Xoshiro {
	return Xoshiro{splitmix64(a), splitmix64(a + golden), splitmix64(b), splitmix64(b + golden)}
}

// Source is a seeded pseudo-random source. It owns its generator: g is
// the whole state, which Uint64, Float64, IntN and the draws built on them
// step directly; r is a rand.Rand drawing from the Source itself, left
// only to NormFloat64, ExpFloat64, Perm and Shuffle. All consume one
// stream, rand.New(rand.NewPCG(s1, s2))'s, draw for draw: the package's
// tests pin the step against rand.PCG.Uint64 and every sampling method
// against a standard-library twin. A Source is not safe for concurrent
// use; use Split to hand each goroutine its own stream.
type Source struct {
	r *rand.Rand
	g pcg
	// seeds retained so Split can derive independent streams.
	s1, s2 uint64
}

// New returns a Source seeded with the given value. Two Sources created
// with the same seed produce identical streams.
func New(seed uint64) *Source {
	s := new(Source)
	s.r = rand.New(s)
	s.Reseed(seed)
	return s
}

// Reseed resets s in place to the stream New(seed) would produce,
// reusing the existing generator state instead of allocating a new one.
func (s *Source) Reseed(seed uint64) {
	// Mix the single user seed into two PCG words using splitmix64 so that
	// nearby seeds (0, 1, 2, ...) yield unrelated streams.
	s.s1 = splitmix64(seed)
	s.s2 = splitmix64(s.s1)
	s.g = pcg{hi: s.s1, lo: s.s2}
}

// Xoshiro4 is the state of four xoshiro256++ streams drawn in lockstep.
// State word k of stream i is at [k][i], so a row holds one state word of
// all four streams: the layout a 256-bit vector unit steps them in, one
// register a row. Lane hands a stream to scalar code.
type Xoshiro4 [4][4]uint64

// Seed seeds the four streams from the Source's next two words a and b,
// which it consumes like two Uint64 calls. Seeding once per report gives
// every report its own streams for the draws it takes in bulk, while the
// Source moves on exactly two words. Stream i is newXoshiro(a + 2iφ,
// b + 2iφ), φ SplitMix64's increment: its state is outputs 2i+1 and 2i+2
// of a SplitMix64 generator started at a and the same two of one started
// at b. No stream starts in the all-zero state, since its first two words
// are distinct outputs of one SplitMix64 generator, and the sixteen
// outputs, independent of one another, cost less than sixteen draws of
// one seeded xoshiro256++, which each wait on the last.
func (x *Xoshiro4) Seed(s *Source) {
	a := s.Uint64()
	b := s.Uint64()
	for i := range x[0] {
		o := uint64(2*i) * golden
		g := newXoshiro(a+o, b+o)
		x[0][i], x[1][i], x[2][i], x[3][i] = g.s0, g.s1, g.s2, g.s3
	}
}

// Lane returns stream i (0 ≤ i < 4) as a Xoshiro.
func (x *Xoshiro4) Lane(i int) Xoshiro { return Xoshiro{x[0][i], x[1][i], x[2][i], x[3][i]} }

// Split derives an independent Source identified by label. Splitting the
// same parent with the same label always yields the same child stream,
// regardless of how much the parent has been consumed.
func (s *Source) Split(label string) *Source {
	h := fnv.New64a()
	_, _ = h.Write([]byte(label))
	return New(s.s1 ^ splitmix64(s.s2^h.Sum64()))
}

// SplitN derives the i-th of a family of independent child Sources. It is
// the integer-labelled counterpart of Split, used to give each simulated
// user or worker goroutine its own stream.
func (s *Source) SplitN(i int) *Source {
	return New(s.s1 ^ splitmix64(s.s2+uint64(i)*golden+1))
}

// SplitNInto resets child in place to the stream SplitN(i) would return.
// It is the allocation-free variant used by hot loops that derive one
// stream per simulated user: the caller keeps a single child Source and
// re-points it at each user's stream. child must not be s itself (the
// derivation reads s's retained seeds, which Reseed overwrites).
func (s *Source) SplitNInto(i int, child *Source) {
	child.Reseed(s.s1 ^ splitmix64(s.s2+uint64(i)*golden+1))
}

// golden is SplitMix64's increment, 2⁶⁴/φ rounded to odd.
const golden = 0x9e3779b97f4a7c15

// splitmix64 is the output of a SplitMix64 generator whose state was x:
// it advances x by golden and mixes the result.
func splitmix64(x uint64) uint64 {
	x += golden
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Float64 returns a uniform value in [0, 1), as rand.Rand computes it.
func (s *Source) Float64() float64 { return float64(s.Uint64()<<11>>11) / (1 << 53) }

// NormFloat64 returns a standard normal variate.
func (s *Source) NormFloat64() float64 { return s.r.NormFloat64() }

// IntN returns a uniform value in [0, n), drawing words until reduce
// keeps one, as rand.Rand.IntN does. It panics if n <= 0.
func (s *Source) IntN(n int) int {
	if n <= 0 {
		panic("rng: IntN requires n > 0")
	}
	for {
		if i, ok := reduce(s.Uint64(), uint64(n)); ok {
			return int(i)
		}
	}
}

// reduce maps the word x to [0, n) as rand.Rand's uint64n does (32-bit
// targets take uint32n, documented as the identical computation), and
// reports whether x is kept: a mask for a power of two, else Lemire's
// multiply-shift ("Fast Random Integer Generation in an Interval", ACM
// TOMACS 2019), the high word of x·n, rejected when the low word falls
// below 2⁶⁴ mod n.
func reduce(x, n uint64) (uint64, bool) {
	if n&(n-1) == 0 {
		return x & (n - 1), true
	}
	hi, lo := bits.Mul64(x, n)
	return hi, lo >= n || lo >= -n%n
}

// Uint64 returns a uniform 64-bit value: one step of the generator. It is
// also the rand.Source method s.r draws through. A loop that wants many —
// the bit-plane sampler in internal/mech draws ~160 per report — runs them
// on the streams of an Xoshiro4 instead.
func (s *Source) Uint64() (x uint64) {
	s.g, x = s.g.next()
	return x
}

// Bernoulli reports true with probability p. Values of p outside [0, 1]
// are clamped, so Bernoulli(1.2) is always true and Bernoulli(-0.1) false.
func (s *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// Geometric returns a sample from the geometric distribution on {1, 2, ...}
// with success probability p (mean 1/p). It panics if p is not in (0, 1].
func (s *Source) Geometric(p float64) int {
	if p <= 0 || p > 1 {
		panic("rng: Geometric requires p in (0, 1]")
	}
	if p == 1 {
		return 1
	}
	u := s.Float64()
	// Inverse CDF: ceil(ln(1-u) / ln(1-p)).
	k := int(math.Ceil(math.Log1p(-u) / math.Log1p(-p)))
	if k < 1 {
		k = 1
	}
	return k
}

// maxSkip caps GeometricSkipLn draws so that position arithmetic in callers
// cannot overflow: any skip this large runs past every real index anyway.
const maxSkip = math.MaxInt / 4

// GeometricSkipLn returns the number of failures before the first
// success in i.i.d. Bernoulli(p) trials — P(K=k) = (1-p)^k·p for k >= 0,
// mean (1-p)/p — given ln1mp = log1p(-p) = ln(1-p). It is the gap
// distribution of skip sampling: instead of one Bernoulli per position,
// a scan jumps GeometricSkipLn positions between consecutive successes,
// visiting only the ~n·p hits. Taking the log instead of p lets hot
// loops that draw many skips at a fixed p pay the transcendental once.
// P(K >= k) = e^{k·ln(1-p)} = (1-p)^k, so floor(E/-ln(1-p)) with
// E ~ Exp(1) is exactly geometric. Draws are capped at a value far
// beyond any real index so callers can add skips to positions without
// overflow checks.
func (s *Source) GeometricSkipLn(ln1mp float64) int {
	if !(ln1mp < 0) {
		// ln(1-p) >= 0 means p <= 0, NaN means p > 1: a success never
		// happens. Return the cap so scan loops run off the end of any
		// real index range. (p = 1 is the other degenerate: ln1mp = -Inf
		// flows through the division below and yields skip 0, a success
		// at every trial.)
		return maxSkip
	}
	k := s.r.ExpFloat64() / -ln1mp
	if k >= maxSkip {
		return maxSkip
	}
	return int(k)
}

// LogNormal returns exp(mu + sigma*Z) for standard normal Z.
func (s *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*s.r.NormFloat64())
}

// Perm returns a random permutation of [0, n).
func (s *Source) Perm(n int) []int { return s.r.Perm(n) }

// Shuffle pseudo-randomizes the order of n elements using swap.
func (s *Source) Shuffle(n int, swap func(i, j int)) { s.r.Shuffle(n, swap) }

// SampleWithoutReplacement returns k distinct values drawn uniformly from
// [0, n). It panics if k > n or either argument is negative. The result is
// in random order.
func (s *Source) SampleWithoutReplacement(n, k int) []int {
	if k < 0 || n < 0 || k > n {
		panic("rng: SampleWithoutReplacement requires 0 <= k <= n")
	}
	if k == 0 {
		return nil
	}
	// Partial Fisher–Yates over a dense index array. For k much smaller
	// than n a map-based virtual swap avoids the O(n) allocation.
	if n > 4096 && k*8 < n {
		chosen := make(map[int]int, k)
		out := make([]int, k)
		for i := 0; i < k; i++ {
			j := i + s.IntN(n-i)
			vj, ok := chosen[j]
			if !ok {
				vj = j
			}
			vi, ok := chosen[i]
			if !ok {
				vi = i
			}
			out[i] = vj
			chosen[j] = vi
		}
		return out
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + s.IntN(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx[:k]
}

// Choice returns an index drawn with probability proportional to
// weights[i]. It panics if weights is empty or sums to a non-positive
// value. For repeated draws from the same weights build an Alias sampler.
func (s *Source) Choice(weights []float64) int {
	u := s.Float64() * weightTotal("Choice", weights)
	var acc float64
	for i, w := range weights {
		acc += w
		if u < acc {
			return i
		}
	}
	return len(weights) - 1
}

// weightTotal returns the sum of weights for the sampler named what. It
// panics if weights is empty, contains a negative entry, or sums to zero.
func weightTotal(what string, weights []float64) float64 {
	if len(weights) == 0 {
		panic("rng: " + what + " of empty weights")
	}
	var total float64
	for _, w := range weights {
		if w < 0 {
			panic("rng: negative weight")
		}
		total += w
	}
	if total <= 0 {
		panic("rng: weights sum to zero")
	}
	return total
}

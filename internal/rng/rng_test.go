package rng

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

// pcgTwin is the standard-library generator New(seed) must reproduce.
func pcgTwin(seed uint64) *rand.PCG {
	return rand.NewPCG(splitmix64(seed), splitmix64(splitmix64(seed)))
}

// twinXoshiro is Source.Xoshiro done by hand on a standard-library twin:
// two twin words, each the start of a SplitMix64 generator that supplies
// two state words (splitmixC's outputs, not the package's splitmix64).
func twinXoshiro(twin *rand.Rand) *xoshiroC {
	a, b := twin.Uint64(), twin.Uint64()
	var x xoshiroC
	x.s[0], x.s[1] = splitmixC(&a), splitmixC(&a)
	x.s[2], x.s[3] = splitmixC(&b), splitmixC(&b)
	return &x
}

// TestUint64SharesTheRandStream pins that the ways to draw — Uint64, the
// derivation of a Xoshiro, and the methods that go through rand.Rand —
// consume one stream, and that it is math/rand/v2's: interleaved in any
// order they match a plain rand.New(rand.NewPCG(..)) twin, also after a
// Reseed and on a child re-pointed by SplitNInto (which must leave the
// parent where it was). Each derivation costs exactly two twin words and
// yields the generator the twin's two words seed by hand.
func TestUint64SharesTheRandStream(t *testing.T) {
	const seed = 20200420
	// derive takes a Xoshiro from s and draws k from it, against the
	// reference generator seeded from the twin's next two words.
	derive := func(where string, s *Source, twin *rand.Rand, k int) {
		t.Helper()
		g, ref := s.Xoshiro(), twinXoshiro(twin)
		for d := 0; d < k; d++ {
			var got uint64
			if g, got = g.Next(); got != ref.next() {
				t.Fatalf("%s: draw %d of a %d-draw derivation left the reference stream", where, d, k)
			}
		}
	}
	s, child := New(seed), New(0)
	twinPCG := pcgTwin(seed)
	twin := rand.New(twinPCG)
	for round := 0; round < 3; round++ {
		for i := 0; i < 2100; i++ {
			where := fmt.Sprintf("round %d step %d", round, i)
			switch i % 7 {
			case 0, 3:
				if got, want := s.Uint64(), twin.Uint64(); got != want {
					t.Fatalf("%s: Uint64 %#x, twin %#x", where, got, want)
				}
			case 1:
				if got, want := s.Float64(), twin.Float64(); got != want {
					t.Fatalf("%s: Float64 %v, twin %v", where, got, want)
				}
				drawTwins(t, where, i/7, s, twin)
			case 2:
				if got, want := s.IntN(i+7), twin.IntN(i+7); got != want {
					t.Fatalf("%s: IntN %d, twin %d", where, got, want)
				}
				if n := intNs[i/7%len(intNs)]; s.IntN(n) != twin.IntN(n) {
					t.Fatalf("%s: IntN(%d) left the twin", where, n)
				}
			case 4:
				if got, want := s.GeometricSkipLn(-0.3), int(twin.ExpFloat64()/0.3); got != want {
					t.Fatalf("%s: GeometricSkipLn %d, twin %d", where, got, want)
				}
			case 5:
				// 0, 1 and the sampler's 9-to-150-draw runs.
				derive(where, s, twin, []int{0, 1, 9, 150}[i/7%4])
			case 6:
				s.SplitNInto(i, child)
				childTwin := rand.New(pcgTwin(s.s1 ^ splitmix64(s.s2+uint64(i)*0x9e3779b97f4a7c15+1)))
				derive(where+" (child)", child, childTwin, 12)
				if got, want := child.Float64(), childTwin.Float64(); got != want {
					t.Fatalf("%s: child Float64 %v after the derivation, twin %v", where, got, want)
				}
			}
		}
		s.Reseed(seed + uint64(round) + 1)
		*twinPCG = *pcgTwin(seed + uint64(round) + 1)
	}
}

// intNs are the bounds IntN is pinned at beside the loop's i+7: the
// power-of-two masks and the multiply-shift at 2³⁰+1, which on 32-bit
// targets are the standard library's uint32n (a second algorithm), and
// where int is 64 bits the multiply-shift at 2⁴⁰+3 and at 3·2⁶¹, where
// 2⁶⁴ mod n = 2⁶² and one word in four is redrawn.
var intNs = func() []int {
	ns := []int{1, 2, 1024, 4096, 1<<30 + 1}
	for _, n := range []uint64{1<<40 + 3, 3 << 61} {
		if n <= math.MaxInt {
			ns = append(ns, int(n))
		}
	}
	return ns
}()

// drawTwins pins Bernoulli, Geometric and Choice, cycling on k, against
// the standard-library expressions they stand for, drawn from the twin.
func drawTwins(t *testing.T, where string, k int, s *Source, twin *rand.Rand) {
	t.Helper()
	const p = 0.3
	switch k % 3 {
	case 0:
		if got, want := s.Bernoulli(p), twin.Float64() < p; got != want {
			t.Fatalf("%s: Bernoulli %v, twin %v", where, got, want)
		}
		// The clamped ends draw nothing: the twin takes no word for them.
		if s.Bernoulli(0) || !s.Bernoulli(1) {
			t.Fatalf("%s: Bernoulli(0) true or Bernoulli(1) false", where)
		}
	case 1:
		want := max(1, int(math.Ceil(math.Log1p(-twin.Float64())/math.Log1p(-p))))
		if got := s.Geometric(p); got != want {
			t.Fatalf("%s: Geometric %d, twin %d", where, got, want)
		}
	case 2:
		w := []float64{1, 0, 2.5, 0.5}
		u, want := twin.Float64()*4, len(w)-1
		for i, acc := 0, 0.0; i < len(w); i++ {
			if acc += w[i]; u < acc {
				want = i
				break
			}
		}
		if got := s.Choice(w); got != want {
			t.Fatalf("%s: Choice %d, twin %d", where, got, want)
		}
	}
}

// TestPCGNextMatchesStdlib pins the owned PCG-DXSM step against
// rand.PCG.Uint64: 10⁵ consecutive draws from each of ten seeds, the state
// never touching a Source in between.
func TestPCGNextMatchesStdlib(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		g, std := New(seed*0x9e3779b97f4a7c15).g, pcgTwin(seed*0x9e3779b97f4a7c15)
		for i := 0; i < 100000; i++ {
			var got uint64
			if g, got = g.next(); got != std.Uint64() {
				t.Fatalf("seed %d draw %d: pcg.next left rand.PCG's stream", seed, i)
			}
		}
	}
}

// xoshiroC and splitmixC transcribe the reference C of xoshiro256++ and
// SplitMix64 (prng.di.unimi.it) literally — array state, rotl written out,
// the seed generator's state advanced through a pointer — as the oracle
// the by-value Xoshiro and its seeding are pinned against.
type xoshiroC struct{ s [4]uint64 }

func rotlC(x uint64, k int) uint64 { return (x << k) | (x >> (64 - k)) }

func (x *xoshiroC) next() uint64 {
	s := &x.s
	result := rotlC(s[0]+s[3], 23) + s[0]
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotlC(s[3], 45)
	return result
}

func splitmixC(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// TestXoshiroMatchesReference pins the by-value step and the seeding
// against the C transcription: 10⁵ draws from each of ten seeds, the
// generator seeded as Source.Xoshiro seeds it from two words.
func TestXoshiroMatchesReference(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		a, b := seed*0x9e3779b97f4a7c15, ^seed
		g := newXoshiro(a, b)
		var ref xoshiroC
		ref.s[0], ref.s[1] = splitmixC(&a), splitmixC(&a)
		ref.s[2], ref.s[3] = splitmixC(&b), splitmixC(&b)
		for i := 0; i < 100000; i++ {
			var got uint64
			if g, got = g.Next(); got != ref.next() {
				t.Fatalf("seed %d draw %d: Xoshiro.Next left the reference stream", seed, i)
			}
		}
	}
}

func TestNearbySeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 produced %d identical draws", same)
	}
}

func TestSplitStableAndIndependent(t *testing.T) {
	p := New(7)
	c1 := p.Split("workers")
	// Consume the parent; the derived stream must not change.
	for i := 0; i < 10; i++ {
		p.Uint64()
	}
	c2 := New(7).Split("workers")
	for i := 0; i < 50; i++ {
		if c1.Uint64() != c2.Uint64() {
			t.Fatal("Split is not stable under parent consumption")
		}
	}
	a := New(7).Split("a").Uint64()
	b := New(7).Split("b").Uint64()
	if a == b {
		t.Fatal("differently-labelled splits coincide")
	}
}

func TestSplitNDistinct(t *testing.T) {
	p := New(3)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		v := p.SplitN(i).Uint64()
		if seen[v] {
			t.Fatalf("SplitN(%d) collided", i)
		}
		seen[v] = true
	}
}

func TestBernoulliEdges(t *testing.T) {
	s := New(1)
	for i := 0; i < 100; i++ {
		if s.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !s.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
		if s.Bernoulli(-0.5) {
			t.Fatal("Bernoulli(-0.5) returned true")
		}
		if !s.Bernoulli(1.5) {
			t.Fatal("Bernoulli(1.5) returned false")
		}
	}
}

func TestBernoulliMean(t *testing.T) {
	s := New(11)
	const n = 200000
	for _, p := range []float64{0.1, 0.33, 0.5, 0.9} {
		hits := 0
		for i := 0; i < n; i++ {
			if s.Bernoulli(p) {
				hits++
			}
		}
		got := float64(hits) / n
		// 5-sigma band around p.
		tol := 5 * math.Sqrt(p*(1-p)/n)
		if math.Abs(got-p) > tol {
			t.Errorf("Bernoulli(%g): mean %g outside ±%g", p, got, tol)
		}
	}
}

func TestGeometricMean(t *testing.T) {
	s := New(5)
	const n = 100000
	p := 0.25
	var sum float64
	for i := 0; i < n; i++ {
		k := s.Geometric(p)
		if k < 1 {
			t.Fatalf("Geometric returned %d < 1", k)
		}
		sum += float64(k)
	}
	mean := sum / n
	want := 1 / p
	sd := math.Sqrt((1-p)/(p*p)) / math.Sqrt(n)
	if math.Abs(mean-want) > 6*sd {
		t.Errorf("Geometric mean %g, want %g ± %g", mean, want, 6*sd)
	}
}

func TestGeometricPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for p=0")
		}
	}()
	New(1).Geometric(0)
}

func TestGeometricOne(t *testing.T) {
	s := New(1)
	for i := 0; i < 10; i++ {
		if s.Geometric(1) != 1 {
			t.Fatal("Geometric(1) != 1")
		}
	}
}

func TestSampleWithoutReplacement(t *testing.T) {
	s := New(9)
	for _, tc := range []struct{ n, k int }{{10, 0}, {10, 1}, {10, 10}, {10, 5}, {10000, 3}, {10000, 9999}} {
		got := s.SampleWithoutReplacement(tc.n, tc.k)
		if len(got) != tc.k {
			t.Fatalf("n=%d k=%d: got %d values", tc.n, tc.k, len(got))
		}
		seen := map[int]bool{}
		for _, v := range got {
			if v < 0 || v >= tc.n {
				t.Fatalf("value %d out of range [0,%d)", v, tc.n)
			}
			if seen[v] {
				t.Fatalf("duplicate value %d (n=%d k=%d)", v, tc.n, tc.k)
			}
			seen[v] = true
		}
	}
}

func TestSampleWithoutReplacementUniform(t *testing.T) {
	// Each of the n items should appear in a k-sample with probability k/n.
	s := New(77)
	const n, k, trials = 20, 5, 40000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		for _, v := range s.SampleWithoutReplacement(n, k) {
			counts[v]++
		}
	}
	want := float64(trials) * k / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("item %d drawn %d times, want ≈%g", i, c, want)
		}
	}
}

func TestSampleWithoutReplacementPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for k > n")
		}
	}()
	New(1).SampleWithoutReplacement(3, 4)
}

func TestChoiceDistribution(t *testing.T) {
	s := New(21)
	w := []float64{1, 2, 3, 4}
	const n = 100000
	counts := make([]float64, len(w))
	for i := 0; i < n; i++ {
		counts[s.Choice(w)]++
	}
	for i, wi := range w {
		p := wi / 10
		got := counts[i] / n
		tol := 5 * math.Sqrt(p*(1-p)/n)
		if math.Abs(got-p) > tol {
			t.Errorf("Choice index %d: freq %g want %g ± %g", i, got, p, tol)
		}
	}
}

func TestChoicePanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"empty":    func() { New(1).Choice(nil) },
		"zero":     func() { New(1).Choice([]float64{0, 0}) },
		"negative": func() { New(1).Choice([]float64{1, -1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestAliasMatchesWeights(t *testing.T) {
	s := New(33)
	w := []float64{0.5, 0, 2.5, 7}
	a := NewAlias(w)
	if a.K() != len(w) {
		t.Fatalf("K=%d want %d", a.K(), len(w))
	}
	const n = 200000
	counts := make([]float64, len(w))
	for i := 0; i < n; i++ {
		counts[a.Draw(s)]++
	}
	for i, wi := range w {
		p := wi / 10
		got := counts[i] / n
		tol := 5*math.Sqrt(p*(1-p)/n) + 1e-9
		if math.Abs(got-p) > tol {
			t.Errorf("alias index %d: freq %g want %g ± %g", i, got, p, tol)
		}
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight category drawn %v times", counts[1])
	}
}

func TestAliasSingleCategory(t *testing.T) {
	a := NewAlias([]float64{3})
	s := New(1)
	for i := 0; i < 10; i++ {
		if a.Draw(s) != 0 {
			t.Fatal("single-category alias returned nonzero")
		}
	}
}

func TestAliasPanics(t *testing.T) {
	for name, w := range map[string][]float64{
		"empty": nil, "zero": {0, 0}, "negative": {1, -2},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			NewAlias(w)
		}()
	}
}

// Property: Choice always returns a valid index with positive weight.
func TestChoiceValidIndexProperty(t *testing.T) {
	s := New(55)
	f := func(raw []float64) bool {
		w := make([]float64, 0, len(raw))
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			w = append(w, math.Abs(v))
		}
		var total float64
		for _, v := range w {
			total += v
		}
		if len(w) == 0 || total <= 0 {
			return true // precondition not met; skip
		}
		i := s.Choice(w)
		return i >= 0 && i < len(w) && w[i] > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(13)
	p := s.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("invalid permutation %v", p)
		}
		seen[v] = true
	}
}

func TestLogNormalPositive(t *testing.T) {
	s := New(2)
	for i := 0; i < 1000; i++ {
		if s.LogNormal(1, 0.5) <= 0 {
			t.Fatal("LogNormal produced non-positive value")
		}
	}
}

package mech

import (
	"math"
	"math/big"
	"math/bits"
	"testing"

	"idldp/internal/bitvec"
	"idldp/internal/rng"
)

// floorScaled is ⌊p·2⁶⁴⌋ in arbitrary precision: the oracle fixed64 and
// the transposed planes are checked against.
func floorScaled(p float64) uint64 {
	f := new(big.Float).SetPrec(200).SetFloat64(p)
	f.SetMantExp(f, 64)
	i, _ := f.Int(nil)
	return i.Uint64()
}

// flipRates covers the exactness boundary from both sides: ordinary
// probabilities, the largest float64 below 1, 2⁻¹¹ and its neighbours,
// and values far below it down to a subnormal.
func flipRates() (exact, truncated []float64) {
	exact = []float64{
		0.5, 0.25, 0.3, 1 / (math.E + 1), 0.08, 0.43, 1.0 / 3,
		math.Nextafter(1, 0), math.Nextafter(0.5, 0), math.Nextafter(0.5, 1),
		0x1p-11, math.Nextafter(0x1p-11, 1), 0x1p-11 + 0x1p-40,
	}
	truncated = []float64{
		math.Nextafter(0x1p-12, 0), 0x1p-20 / 3, 1e-9, 0x1p-64, 0x1p-65, 1e-300, 5e-324,
	}
	r := rng.New(64)
	for i := 0; i < 200; i++ {
		exact = append(exact, 0x1p-11+r.Float64()*(1-0x1p-11))
		truncated = append(truncated, math.Ldexp(r.Float64()+0x1p-53, -12-r.IntN(60)))
	}
	return exact, truncated
}

// TestFixed64 pins the fixed-point construction: the exact floor
// everywhere, which from 2⁻¹¹ up reads back as p itself and below it
// never as more than p.
func TestFixed64(t *testing.T) {
	exact, truncated := flipRates()
	for i, p := range append(exact, truncated...) {
		T := fixed64(p)
		if T != floorScaled(p) {
			t.Errorf("fixed64(%v) = %#x, want %#x", p, T, floorScaled(p))
		}
		back := math.Ldexp(float64(T), -64) // exact: T has at most 53 significant bits
		if i < len(exact) && back != p || back > p {
			t.Errorf("fixed64(%v) = %#x reads back as %v", p, T, back)
		}
	}
}

// laneThreshold reads lane k's threshold back out of the transposed planes.
func laneThreshold(u *UE, k int) uint64 {
	var T uint64
	for j, plane := range u.planes[k>>6] {
		T |= (plane >> uint(k&63) & 1) << (63 - j)
	}
	return T
}

// TestPlanesRoundTrip builds an all-planes plan over every probe rate and
// reads each lane's threshold back out of the planes: B[k] exactly from
// 2⁻¹¹ up, the floor below, and nothing in the padding lanes.
func TestPlanesRoundTrip(t *testing.T) {
	exact, truncated := flipRates()
	B := append(append([]float64(nil), exact...), truncated...)
	A := make([]float64, len(B))
	for k := range A {
		A[k] = math.Nextafter(1, 0)
	}
	made, err := NewUE(A, B)
	if err != nil {
		t.Fatal(err)
	}
	u := replan(made, 0)
	if len(u.skips) != 0 {
		t.Fatalf("all-planes plan kept %d skip runs", len(u.skips))
	}
	for k, b := range B {
		if u.live[k>>6]>>uint(k&63)&1 == 0 {
			t.Fatalf("bit %d not live in an all-planes plan", k)
		}
		T := laneThreshold(u, k)
		if T != floorScaled(b) {
			t.Errorf("bit %d (b=%v): planes hold %#x, want %#x", k, b, T, floorScaled(b))
		}
		if k < len(exact) && math.Ldexp(float64(T), -64) != b {
			t.Errorf("bit %d: planes read back as %v, want exactly %v", k, math.Ldexp(float64(T), -64), b)
		}
	}
	n := len(B)
	if n%64 == 0 {
		t.Fatal("probe set must leave padding lanes in the last word")
	}
	pad := ^uint64(0) << uint(n%64)
	last := len(u.live) - 1
	if u.live[last]&pad != 0 {
		t.Errorf("padding lanes live: %#x", u.live[last]&pad)
	}
	for j, plane := range u.planes[last] {
		if plane&pad != 0 {
			t.Errorf("plane %d has padding bits %#x", j, plane&pad)
		}
	}
}

// splitUE builds an n-bit mechanism whose flip rates alternate lane by
// lane between two dense levels and two sparse ones, so every word holds
// plane lanes and lanes of two skip runs.
func splitUE(t testing.TB, n int) *UE {
	t.Helper()
	rates := []float64{0.35, 0.02, 0.12, 0.005}
	A, B := make([]float64, n), make([]float64, n)
	for k := range B {
		B[k] = rates[(k+k/7)%len(rates)]
		A[k] = 0.5 + B[k]
	}
	u, err := NewUE(A, B)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// TestPlanAssignsRunsByFlipRate pins the plan's shape: each bit belongs to
// exactly one sampler, chosen by its own b against skipBelow; skip lanes
// have zero plane bits; and the two mechanisms the cost model quotes land
// where it says (§VII all planes, OUE ε = 5 and 8 all skip).
func TestPlanAssignsRunsByFlipRate(t *testing.T) {
	u := splitUE(t, 150)
	inSkip := make([]int, u.Bits())
	for _, run := range u.skips {
		for _, k := range run.pos {
			inSkip[k]++
			if math.Log1p(-u.B[k]) != run.ln1mb {
				t.Errorf("bit %d (b=%v) sits in the run of ln(1-b)=%v", k, u.B[k], run.ln1mb)
			}
		}
	}
	if len(u.skips) != 2 {
		t.Errorf("%d skip runs, want one per sparse level (2)", len(u.skips))
	}
	for k, b := range u.B {
		live := int(u.live[k>>6] >> uint(k&63) & 1)
		if want := b >= skipBelow; (live == 1) != want || inSkip[k] != 1-live {
			t.Errorf("bit %d (b=%v): live=%d, in %d skip runs", k, b, live, inSkip[k])
		}
		if live == 0 && laneThreshold(u, k) != 0 {
			t.Errorf("skip bit %d has plane bits %#x", k, laneThreshold(u, k))
		}
	}
	for wi, live := range u.live[:2] {
		if live == 0 || live == ^uint64(0) {
			t.Errorf("word %d is not shared by both samplers (live %#x)", wi, live)
		}
	}

	if vii := sectionVII(t); len(vii.skips) != 0 || vii.planes == nil {
		t.Errorf("§VII IDUE: %d skip runs, want the whole domain in planes", len(vii.skips))
	}
	for _, eps := range []float64{5, 8} {
		oue, err := NewOUE(eps, 1024)
		if err != nil {
			t.Fatal(err)
		}
		if oue.planes != nil || len(oue.skips) != 1 {
			t.Errorf("OUE ε=%v: planes=%v, %d skip runs; want one skip run and no planes", eps, oue.planes != nil, len(oue.skips))
		}
	}
}

// TestPerturbVariantsShareStreamsEveryShape extends the determinism
// contract of TestPerturbVariantsShareStreams over the shapes the word
// sampler distinguishes: a last word with 8 live lanes (m + ℓ = 1,032),
// a report shorter than one word, runs split between planes and skip
// inside a word, and the pure plans. PerturbItemInto, PerturbInto(OneHot)
// and the allocating variants emit the same bits for a seed, whatever the
// buffer held before, and never a bit at or beyond Bits().
func TestPerturbVariantsShareStreamsEveryShape(t *testing.T) {
	oue5, err := NewOUE(5, 70)
	if err != nil {
		t.Fatal(err)
	}
	rappor, err := NewRAPPOR(1, 33)
	if err != nil {
		t.Fatal(err)
	}
	for name, u := range map[string]*UE{
		"split-1032":   splitUE(t, 1032),
		"split-40":     splitUE(t, 40),
		"split-64":     splitUE(t, 64),
		"mixed-80":     mixedIDUE(t, 80),
		"planes-1032":  replan(splitUE(t, 1032), 0),
		"skip-oue5-70": oue5,
		"planes-33":    rappor,
		"one-bit":      replan(splitUE(t, 1), 0),
	} {
		n := u.Bits()
		dirty := bitvec.New(n)
		for k := 0; k < n; k++ {
			dirty.Set(k)
		}
		for seed := uint64(1); seed <= 40; seed++ {
			i := int(seed*37) % n
			y1 := u.PerturbItem(i, rng.New(seed))
			y2 := dirty.Clone()
			u.PerturbItemInto(i, rng.New(seed), y2)
			y3 := dirty.Clone()
			u.PerturbInto(bitvec.OneHot(n, i), rng.New(seed), y3)
			y4 := u.Perturb(bitvec.OneHot(n, i), rng.New(seed))
			if !y1.Equal(y2) || !y1.Equal(y3) || !y1.Equal(y4) {
				t.Fatalf("%s seed %d: Perturb variants diverged", name, seed)
			}
			if _, err := bitvec.FromWords(y2.Words(), n); err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
		}
		// A multi-bit input redraws its set bits in ascending order after
		// the same fill, so it agrees with the one-hot report everywhere
		// but on the extra set bits.
		if n > 2 {
			x := bitvec.OneHot(n, 0)
			x.Set(n - 1)
			y := bitvec.New(n)
			u.PerturbInto(x, rng.New(9), y)
			if _, err := bitvec.FromWords(y.Words(), n); err != nil {
				t.Fatalf("%s multi-bit: %v", name, err)
			}
			one := u.PerturbItem(0, rng.New(9))
			for wi, w := range y.Words() {
				diff := w ^ one.Words()[wi]
				if wi == (n-1)>>6 {
					diff &^= 1 << uint((n-1)&63)
				}
				if diff != 0 {
					t.Fatalf("%s multi-bit: word %d differs from the one-hot report on %d unrelated bits", name, wi, bits.OnesCount64(diff))
				}
			}
		}
	}
}

// TestPerturbIntoZeroAllocs pins the buffer-reuse contract on every plan
// shape: no *Into path allocates.
func TestPerturbIntoZeroAllocs(t *testing.T) {
	for name, u := range map[string]*UE{"§VII": sectionVII(t), "split": splitUE(t, 1032)} {
		n := u.Bits()
		r, out, x := rng.New(3), bitvec.New(n), bitvec.OneHot(n, 5)
		x.Set(n - 1)
		if a := testing.AllocsPerRun(200, func() { u.PerturbItemInto(7, r, out) }); a != 0 {
			t.Errorf("%s: PerturbItemInto allocates %v times per report", name, a)
		}
		if a := testing.AllocsPerRun(200, func() { u.PerturbInto(x, r, out) }); a != 0 {
			t.Errorf("%s: PerturbInto allocates %v times per report", name, a)
		}
	}
}

// replayWord is the scalar twin of planeWord: it takes the draws one at a
// time from draw, rebuilds every live lane's uniform U plane by plane, MSB
// first, and stops where the sampler must — after the word's prefix
// (⌈log₂ lanes⌉ + 3 planes, worked out here by counting, not read from the
// plan) once no live lane's U still equals its threshold on every plane
// drawn. A lane's output bit is [U < T], which its first differing plane
// decides; the draws it reports taking beyond the prefix are the tail's.
func replayWord(u *UE, wi int, draw func() uint64) (word uint64, tail int) {
	var lanes []int
	var T, U [64]uint64
	for k := 0; k < 64; k++ {
		if u.live[wi]>>uint(k)&1 == 1 {
			lanes = append(lanes, k)
			T[k] = laneThreshold(u, wi*64+k)
		}
	}
	prefix := 0
	if len(lanes) > 0 {
		for prefix = 3; 1<<(prefix-3) < len(lanes); prefix++ {
		}
	}
	drawn := 0
	undecided := func() bool {
		for _, k := range lanes {
			// x >> 64 is 0 in Go: with no plane drawn every lane is open.
			if U[k]>>(64-drawn) == T[k]>>(64-drawn) {
				return true
			}
		}
		return false
	}
	for drawn < prefix || drawn < 64 && undecided() {
		x := draw()
		for _, k := range lanes {
			U[k] |= (x >> uint(k) & 1) << (63 - drawn)
		}
		drawn++
	}
	for _, k := range lanes {
		if U[k] < T[k] {
			word |= 1 << uint(k)
		}
	}
	return word, drawn - prefix
}

// refPlanes is the scalar twin of the plane stream fill derives: a
// xoshiro256++ generator, array state, seeded by hand with the first two
// SplitMix64 outputs from each of two words of the twin Source.
type refPlanes struct{ s [4]uint64 }

func newRefPlanes(twin *rng.Source) *refPlanes {
	var g refPlanes
	for i := 0; i < 4; i += 2 {
		x := twin.Uint64()
		for j := i; j < i+2; j++ {
			x += 0x9e3779b97f4a7c15
			z := (x ^ x>>30) * 0xbf58476d1ce4e5b9
			z = (z ^ z>>27) * 0x94d049bb133111eb
			g.s[j] = z ^ z>>31
		}
	}
	return &g
}

func (g *refPlanes) draw() uint64 {
	s := &g.s
	out := bits.RotateLeft64(s[0]+s[3], 23) + s[0]
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = bits.RotateLeft64(s[3], 45)
	return out
}

// TestFillReplaysScalar is the sampler's fast-equals-naive check, bit for
// bit: a twin Source replays fill — a plane stream seeded by hand from its
// next two words (refPlanes) when the plan has planes, replayWord on it,
// then the skip runs on the twin itself — and must produce the same words
// from garbage-filled buffers (so a plane bit in a padding or skip-owned
// lane, or a word left unwritten, shows) and leave the Source where the
// twin stands: two words further per fill that uses planes, plus the skip
// runs. The shapes are §VII IDUE, splitUE (planes and two skip runs in
// every word), an all-planes 1,032-bit report whose last word has
// IDUE-PS's 8 live lanes, words with 0, 1, 8 and 64 live lanes side by
// side, and an all-skip plan, whose fill must not touch the plane stream.
func TestFillReplaysScalar(t *testing.T) {
	rates := []float64{0.26, 0.31, 0.43, 0.37}
	setShape := make([]float64, 1032)
	for k := range setShape {
		setShape[k] = rates[(k+k/5)%len(rates)]
	}
	// Word 0 all sparse, word 1 one dense lane, word 2 eight, word 3 all.
	laneMix := make([]float64, 256)
	for k := range laneMix {
		laneMix[k] = 0.01
		if k == 64+37 || k >= 128+20 && k < 128+28 || k >= 192 {
			laneMix[k] = rates[k%len(rates)]
		}
	}
	fromB := func(B []float64) *UE {
		A := make([]float64, len(B))
		for k := range A {
			A[k] = 0.5 + B[k]/2
		}
		u, err := NewUE(A, B)
		if err != nil {
			t.Fatal(err)
		}
		return u
	}
	mixed := fromB(laneMix)
	for wi, want := range []int{0, 1, 8, 64} {
		if got := bits.OnesCount64(mixed.live[wi]); got != want {
			t.Fatalf("lanes-0/1/8/64: word %d has %d live lanes, want %d", wi, got, want)
		}
	}
	skipOnly, err := NewOUE(5, 200)
	if err != nil {
		t.Fatal(err)
	}
	tails := 0
	for name, u := range map[string]*UE{
		"§VII":           sectionVII(t),
		"split-1032":     splitUE(t, 1032),
		"ps-1032":        fromB(setShape),
		"lanes-0/1/8/64": mixed,
		"skip-oue5-200":  skipOnly,
	} {
		words := (u.Bits() + 63) / 64
		w, want := make([]uint64, words), make([]uint64, words)
		r, twin := rng.New(20260928), rng.New(20260928)
		for rep := 0; rep < 500; rep++ {
			for wi := range w {
				w[wi] = ^uint64(0)
			}
			u.fill(r, w)

			clear(want)
			if u.planes != nil {
				g := newRefPlanes(twin)
				for wi := range u.planes {
					var tail int
					want[wi], tail = replayWord(u, wi, g.draw)
					if tail > 0 {
						tails++
					}
				}
			}
			for _, run := range u.skips {
				for i := twin.GeometricSkipLn(run.ln1mb); i < len(run.pos); i += 1 + twin.GeometricSkipLn(run.ln1mb) {
					want[run.pos[i]>>6] |= 1 << uint(run.pos[i]&63)
				}
			}
			for wi := range w {
				if w[wi] != want[wi] {
					t.Fatalf("%s report %d word %d: fill wrote %#016x, the scalar replay %#016x", name, rep, wi, w[wi], want[wi])
				}
			}
			if got, want := r.Uint64(), twin.Uint64(); got != want {
				t.Fatalf("%s report %d: the Source stands elsewhere than the replay (next draw %#x, twin %#x)", name, rep, got, want)
			}
		}
	}
	if tails < 1000 {
		t.Errorf("the tail ran for %d words, want at least 1,000 for the replay to have covered it", tails)
	}
}

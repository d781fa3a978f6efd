package core

// Wire-level audit of the deployed perturbation path (ROADMAP aim 3c):
// the bits PerturbItemInto / PerturbSetInto actually emit — through the
// bit-plane and geometric-skip samplers, not PerturbReference — are
// tested against the paper's per-bit law, against independence across
// lanes, words and reports (the failure mode a word-at-a-time sampler
// adds, which marginals cannot see), and on a small domain against the
// full output distribution and the MinID-LDP ratio bound.
//
// Every z bound below is 5.5 standard errors (two-sided tail 3.8e-8 per
// statistic, < 1e-3 over all of them together) and the seeds are fixed, so
// a failure is a change in the sampler, not bad luck.

import (
	"fmt"
	"math"
	"math/bits"
	"testing"

	"idldp/internal/bitvec"
	"idldp/internal/budget"
	"idldp/internal/collect"
	"idldp/internal/mech"
	"idldp/internal/notion"
	"idldp/internal/opt"
	"idldp/internal/ps"
	"idldp/internal/rng"
)

const zMax = 5.5

// wireCase is one deployed report generator with a fixed input: report
// writes the next report, and cand lists the inputs' candidate one-hot
// positions with their sampling rates (a single item: itself at rate 1;
// an item-set: Lemma 2's rates over the set and the dummies).
type wireCase struct {
	name   string
	a, b   []float64
	report func(r *rng.Source, out *bitvec.Vector)
	cand   map[int]float64
}

// bitProb is Pr(y[k] = 1) and jointProb Pr(y[k] = y[j] = 1) within one
// report, exact under the mixture over sampled positions.
func (c *wireCase) bitProb(k int) float64 {
	pi := c.cand[k]
	return pi*c.a[k] + (1-pi)*c.b[k]
}

func (c *wireCase) jointProb(k, j int) float64 {
	pk, pj := c.cand[k], c.cand[j]
	return pk*c.a[k]*c.b[j] + pj*c.b[k]*c.a[j] + (1-pk-pj)*c.b[k]*c.b[j]
}

// benchAssignment is the paper's §VII setting the benchmark runs:
// m = 1024, budget.Default(1.0) assigned at random.
func benchAssignment(t *testing.T) *budget.Assignment {
	t.Helper()
	asgn, err := budget.Assign(1024, budget.Default(1.0), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	return asgn
}

// splitMech is a 1032-bit mechanism whose flip rates alternate lane by
// lane between two dense and two sparse levels, so every word is written
// by both samplers.
func splitMech(t *testing.T) *mech.UE {
	t.Helper()
	rates := []float64{0.35, 0.02, 0.12, 0.005}
	a, b := make([]float64, 1032), make([]float64, 1032)
	for k := range b {
		b[k] = rates[(k+k/7)%len(rates)]
		a[k] = 0.5 + b[k]
	}
	u, err := mech.NewUE(a, b)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func wireCases(t *testing.T) []wireCase {
	t.Helper()
	const item = 7
	set := []int{1, 5, 99, 500, 1023}
	setCand := func(sm *ps.SetMech) map[int]float64 {
		cand := map[int]float64{}
		for id := 0; id < sm.Bits(); id++ {
			if p := ps.SampleProb(set, sm.M, sm.Ell, id); p > 0 {
				cand[id] = p
			}
		}
		return cand
	}
	single, err := New(Config{Budgets: benchAssignment(t), Model: opt.Opt0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	padded, err := New(Config{Budgets: benchAssignment(t), Model: opt.Opt1, PaddingLength: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	split := splitMech(t)
	splitSet, err := ps.NewSetMech(split, 1024, 8)
	if err != nil {
		t.Fatal(err)
	}
	return []wireCase{
		{
			name: "§VII IDUE item", a: single.UE().A, b: single.UE().B, cand: map[int]float64{item: 1},
			report: func(r *rng.Source, out *bitvec.Vector) { single.PerturbItemInto(item, r, out) },
		},
		{
			name: "§VII IDUE-PS set", a: padded.SetMech().UE.A, b: padded.SetMech().UE.B, cand: setCand(padded.SetMech()),
			report: func(r *rng.Source, out *bitvec.Vector) { padded.PerturbSetInto(set, r, out) },
		},
		{
			name: "dense+sparse item", a: split.A, b: split.B, cand: map[int]float64{item: 1},
			report: func(r *rng.Source, out *bitvec.Vector) { split.PerturbItemInto(item, r, out) },
		},
		{
			name: "dense+sparse set", a: split.A, b: split.B, cand: setCand(splitSet),
			report: func(r *rng.Source, out *bitvec.Vector) { splitSet.PerturbInto(set, r, out) },
		},
	}
}

// addWord adds the set bits of w into counts[base:].
func addWord(counts []int64, base int, w uint64) {
	for ; w != 0; w &= w - 1 {
		counts[base+bits.TrailingZeros64(w)]++
	}
}

// chiBand checks a sum of k squared z-scores against χ²(k): within six
// standard deviations of its mean.
func chiBand(t *testing.T, name string, chi2 float64, k int) {
	t.Helper()
	if band := 6 * math.Sqrt(2*float64(k)); math.Abs(chi2-float64(k)) > band {
		t.Errorf("%s: chi-square %.1f outside %d ± %.1f", name, chi2, k, band)
	}
}

// TestWireMarginalsAndIndependence is audits (i) and (ii): per-bit
// z-tests and a chi-square of the emitted bits against A/B, and the
// covariance of three kinds of neighbour the word sampler could couple —
// adjacent lanes of a word (one draw feeds both), the same lane of
// adjacent words (consecutive draws) and the same lane of consecutive
// reports.
func TestWireMarginalsAndIndependence(t *testing.T) {
	const n = 60000
	for _, c := range wireCases(t) {
		nbits := len(c.a)
		var (
			ones    = make([]int64, nbits)
			lanes   = make([]int64, nbits) // y[k] & y[k+1], k and k+1 in one word
			words   = make([]int64, nbits) // y[k] & y[k+64]
			reports = make([]int64, nbits) // y_t[k] & y_{t+1}[k]
			out     = bitvec.New(nbits)
			prev    = make([]uint64, len(out.Words()))
			r       = rng.New(20260928)
		)
		for rep := 0; rep < n; rep++ {
			c.report(r, out)
			w := out.Words()
			if _, err := bitvec.FromWords(w, nbits); err != nil {
				t.Fatalf("%s: report %d: %v", c.name, rep, err)
			}
			for wi, cur := range w {
				addWord(ones, wi*64, cur)
				addWord(lanes, wi*64, cur&(cur>>1))
				if wi+1 < len(w) {
					addWord(words, wi*64, cur&w[wi+1])
				}
				if rep > 0 {
					addWord(reports, wi*64, cur&prev[wi])
				}
			}
			copy(prev, w)
		}

		var chi2 float64
		for k, s := range ones {
			p := c.bitProb(k)
			z := (float64(s)/n - p) / math.Sqrt(p*(1-p)/n)
			if math.Abs(z) > zMax {
				t.Errorf("%s: bit %d rate %v want %v (z = %.2f)", c.name, k, float64(s)/n, p, z)
			}
			chi2 += z * z
		}
		chiBand(t, c.name+" marginals", chi2, nbits)

		// cov tests the sample covariance of bits k and j, taken around
		// their known means, against its exact expectation.
		cov := func(kind string, joint []int64, pairs float64, partner func(k int) (j int, want float64, ok bool)) {
			var chi2 float64
			var tested int
			for k := range joint {
				j, wantJoint, ok := partner(k)
				if !ok {
					continue
				}
				pk, pj := c.bitProb(k), c.bitProb(j)
				got := float64(joint[k])/pairs - pj*float64(ones[k])/n - pk*float64(ones[j])/n + pk*pj
				z := (got - (wantJoint - pk*pj)) / math.Sqrt(pk*(1-pk)*pj*(1-pj)/pairs)
				if math.Abs(z) > zMax {
					t.Errorf("%s: %s: bits %d and %d covary by %.2e (z = %.2f)", c.name, kind, k, j, got, z)
				}
				chi2 += z * z
				tested++
			}
			chiBand(t, c.name+" "+kind, chi2, tested)
		}
		cov("adjacent lanes", lanes, n, func(k int) (int, float64, bool) {
			if k&63 == 63 || k+1 >= nbits {
				return 0, 0, false
			}
			return k + 1, c.jointProb(k, k+1), true
		})
		cov("adjacent words", words, n, func(k int) (int, float64, bool) {
			if k+64 >= nbits {
				return 0, 0, false
			}
			return k + 64, c.jointProb(k, k+64), true
		})
		cov("consecutive reports", reports, n-1, func(k int) (int, float64, bool) {
			p := c.bitProb(k)
			return k, p * p, true
		})
	}
}

// TestWireKeepProbability completes audit (i) for the set bit: with the
// input cycling over the whole domain, the reported rate of the input's
// own bit matches A, per privacy level.
func TestWireKeepProbability(t *testing.T) {
	asgn := benchAssignment(t)
	e, err := New(Config{Budgets: asgn, Model: opt.Opt0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	const n = 200 * 1024
	kept, sent := make([]float64, asgn.T()), make([]float64, asgn.T())
	r, out := rng.New(20260929), e.NewReport()
	for rep := 0; rep < n; rep++ {
		item := rep % e.M()
		e.PerturbItemInto(item, r, out)
		sent[asgn.LevelOf(item)]++
		if out.Get(item) {
			kept[asgn.LevelOf(item)]++
		}
	}
	for l, a := range e.Params().A {
		z := (kept[l]/sent[l] - a) / math.Sqrt(a*(1-a)/sent[l])
		if math.Abs(z) > zMax {
			t.Errorf("level %d: set bit kept at rate %v, want A = %v (z = %.2f)", l, kept[l]/sent[l], a, z)
		}
	}
}

// TestWireTotalWeight completes audit (i) for a bias too small and too
// evenly spread for any one bit to show: the number of set bits over all
// reports against Σ_k Pr(y[k] = 1), whose standard error shrinks with
// reports × bits. A sampler that lost the lanes its first nine planes leave
// undecided would report each bit about 2⁻¹⁰ too seldom — half a per-bit
// standard error at this n, and z = −19.6 on this sum.
func TestWireTotalWeight(t *testing.T) {
	e, err := New(Config{Budgets: benchAssignment(t), Model: opt.Opt0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	const n = 40 * 1024
	ua, ub := e.UE().A, e.UE().B
	var zeroMean, zeroVar float64 // of the all-zero input's report weight
	for _, b := range ub {
		zeroMean += b
		zeroVar += b * (1 - b)
	}
	var got, want, variance float64
	r, out := rng.New(20261003), e.NewReport()
	for rep := 0; rep < n; rep++ {
		item := rep % e.M()
		e.PerturbItemInto(item, r, out)
		got += float64(out.Count())
		want += zeroMean - ub[item] + ua[item]
		variance += zeroVar - ub[item]*(1-ub[item]) + ua[item]*(1-ua[item])
	}
	if z := (got - want) / math.Sqrt(variance); math.Abs(z) > zMax {
		t.Errorf("%d reports carry %.0f set bits, want %.0f (z = %.2f)", n, got, want, z)
	}
}

// TestWireCountVariance audits independence across users, on the path a
// campaign takes: collect.RunSingleInto gives every user a stream derived
// from her index, and the estimator's variance (Eq. 9, what the
// benchmark's estimate.mse_ratio compares against) assumes their reports
// are independent. Over many campaigns of the same users under different
// seeds, the variance of each folded bit count must be the binomial sum
// Σ_u p_u(1−p_u): correlated streams would inflate it, shared ones
// deflate it. The mean ratio over the 1,024 bits has standard error
// √(2/(R−1)/m) ≈ 0.2%.
func TestWireCountVariance(t *testing.T) {
	const users, campaigns = 500, 600
	asgn := benchAssignment(t)
	e, err := New(Config{Budgets: asgn, Model: opt.Opt0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	m := e.M()
	items, holders := make([]int, users), make([]float64, m)
	for u := range items {
		items[u] = u * 7 % m
		holders[items[u]]++
	}
	sum, sq := make([]float64, m), make([]float64, m)
	for c := 0; c < campaigns; c++ {
		a, err := collect.RunSingleInto(items, m, e.PerturbItemInto, collect.Options{Workers: 1, Seed: uint64(20260928)<<10 + uint64(c)})
		if err != nil {
			t.Fatal(err)
		}
		for k, n := range a.Counts() {
			sum[k] += float64(n)
			sq[k] += float64(n) * float64(n)
		}
	}
	var ratio float64
	ua, ub := e.UE().A, e.UE().B
	for k := range sum {
		mean := sum[k] / campaigns
		got := (sq[k] - campaigns*mean*mean) / (campaigns - 1)
		want := holders[k]*ua[k]*(1-ua[k]) + (users-holders[k])*ub[k]*(1-ub[k])
		ratio += got / want / float64(m)
	}
	if se := math.Sqrt(2.0 / (campaigns - 1) / float64(m)); math.Abs(ratio-1) > zMax*se {
		t.Errorf("count variance is %.4f× the binomial sum, want 1 ± %.4f", ratio, zMax*se)
	}
}

// TestWireSmallDomainLikelihoodRatios is audit (iii): on a six-item,
// three-level domain every one of the 64 outputs is observed often enough
// to compare the whole output law, not just its marginals. For each input
// the empirical frequencies are chi-square-tested against the exact
// product form of Algorithm 1, and for every ordered input pair (x, x′)
// and every output y the empirical likelihood ratio must not exceed
// e^{min(ε_x, ε_x′)} by more than five standard errors of its logarithm —
// one-sided confidence 1 − 2.9e-7 per comparison, 1,920 comparisons per
// mechanism. Two mechanisms: the Opt0-solved engine (all six lanes in the
// bit planes) and a hand-set one whose levels straddle skipBelow, so
// planes and skip share the one output word.
func TestWireSmallDomainLikelihoodRatios(t *testing.T) {
	levelOf := []int{0, 1, 2, 0, 1, 2}
	solvedAsgn, err := budget.FromLevels(levelOf, []float64{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	solved, err := New(Config{Budgets: solvedAsgn, Model: opt.Opt0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}

	// Hand-set levels: dense, dense, sparse. Each level's budget is the
	// largest worst-case ratio it takes part in, which makes the mechanism
	// MinID-LDP for exactly those budgets (checked by notion.VerifyUE).
	la, lb := []float64{0.5, 0.55, 0.1}, []float64{0.3, 0.12, 0.03}
	leps := make([]float64, 3)
	for i := range leps {
		for j := range leps {
			leps[i] = math.Max(leps[i], math.Max(
				notion.UEPairBound(la[i], lb[i], la[j], lb[j]),
				notion.UEPairBound(la[j], lb[j], la[i], lb[i])))
		}
	}
	if err := notion.VerifyUE(la, lb, leps, notion.MinID{}, 1e-12); err != nil {
		t.Fatal(err)
	}
	handAsgn, err := budget.FromLevels(levelOf, leps)
	if err != nil {
		t.Fatal(err)
	}
	hand, err := mech.NewIDUE(opt.LevelParams{A: la, B: lb}, handAsgn)
	if err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name string
		ue   *mech.UE
		asgn *budget.Assignment
	}{
		{"Opt0-solved ε={1,2,4}", solved.UE(), solvedAsgn},
		{fmt.Sprintf("hand-set dense+sparse ε=%.3v", leps), hand, handAsgn},
	} {
		const m, n = 6, 300000
		exact := func(x int, y uint64) float64 {
			p := 1.0
			for k := 0; k < m; k++ {
				q := c.ue.B[k]
				if k == x {
					q = c.ue.A[k]
				}
				if y>>uint(k)&1 == 0 {
					q = 1 - q
				}
				p *= q
			}
			return p
		}
		var counts [m][1 << m]float64
		r, out := rng.New(20260930), bitvec.New(m)
		for x := 0; x < m; x++ {
			for rep := 0; rep < n; rep++ {
				c.ue.PerturbItemInto(x, r, out)
				counts[x][out.Words()[0]]++
			}
		}

		// Goodness of fit of the whole output law, cells expected fewer
		// than ten times pooled into one.
		for x := 0; x < m; x++ {
			var chi2, poolObs, poolExp float64
			cells := 0
			for y := range counts[x] {
				e := n * exact(x, uint64(y))
				if e < 10 {
					poolObs, poolExp = poolObs+counts[x][y], poolExp+e
					continue
				}
				chi2 += (counts[x][y] - e) * (counts[x][y] - e) / e
				cells++
			}
			if poolExp > 0 {
				chi2 += (poolObs - poolExp) * (poolObs - poolExp) / poolExp
				cells++
			}
			chiBand(t, fmt.Sprintf("%s: output law of input %d", c.name, x), chi2, cells-1)
		}

		// The ratio bound, on every output both inputs produced at least
		// a hundred times (below that the log-ratio's normal
		// approximation is not worth a confidence statement).
		compared, worst := 0, math.Inf(-1)
		for x := 0; x < m; x++ {
			for x2 := 0; x2 < m; x2++ {
				if x == x2 {
					continue
				}
				eps := math.Min(c.asgn.EpsOf(x), c.asgn.EpsOf(x2))
				for y := range counts[x] {
					o, o2 := counts[x][y], counts[x2][y]
					if exactLR := math.Log(exact(x, uint64(y)) / exact(x2, uint64(y))); exactLR > eps+1e-6 {
						t.Fatalf("%s: exact ratio of inputs %d, %d at output %06b is e^%.4f > e^%.4f", c.name, x, x2, y, exactLR, eps)
					}
					if o < 100 || o2 < 100 {
						continue
					}
					se := math.Sqrt(1/o + 1/o2 - 2.0/n)
					excess := (math.Log(o/o2) - eps) / se
					if excess > 5 {
						t.Errorf("%s: inputs %d, %d at output %06b: empirical ratio e^%.4f exceeds e^%.4f by %.1f standard errors",
							c.name, x, x2, y, math.Log(o/o2), eps, excess)
					}
					compared++
					worst = math.Max(worst, excess)
				}
			}
		}
		if compared < m*(m-1)*(1<<m)/2 {
			t.Errorf("%s: only %d of %d ratios had enough samples to test", c.name, compared, m*(m-1)*(1<<m))
		}
		t.Logf("%s: %d likelihood ratios within bound, largest excess %.2f standard errors", c.name, compared, worst)
	}
}

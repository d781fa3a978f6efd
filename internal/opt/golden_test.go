package opt

import (
	"fmt"
	"math"
	"testing"

	"idldp/internal/budget"
	"idldp/internal/notion"
	"idldp/internal/rng"
)

// opt0Setting is one opt0 problem as a table, figure or the bench poses
// it: the level budgets and item counts of an assignment, the notion, and
// the seed the caller passes.
type opt0Setting struct {
	name   string
	eps    []float64
	counts []int
	n      notion.Notion
	seed   uint64
}

// opt0Settings lists Table I/II, every notion, the Figs. 3–5 ε grids at
// the assignments internal/exp draws (CI scale, plus Fig. 3 uniform at
// paper scale, and TestFig4bSmall's 24 items), the policy-graph
// LevelPairer, and the bench setting (m = 1024, Default(1)) per seed.
func opt0Settings(tb testing.TB) []opt0Setting {
	var out []opt0Setting
	add := func(name string, eps []float64, counts []int, n notion.Notion, seed uint64) {
		out = append(out, opt0Setting{name, eps, counts, n, seed})
	}
	assigned := func(name string, m int, spec budget.Spec, asgnSeed, seed uint64) {
		a, err := budget.Assign(m, spec, rng.New(asgnSeed))
		if err != nil {
			tb.Fatal(err)
		}
		add(name, a.LevelEpsAll(), a.LevelCounts(), notion.MinID{}, seed)
	}
	add("table2", []float64{math.Log(4), math.Log(6)}, []int{1, 4}, notion.MinID{}, 1)
	add("avgid-toy", []float64{1, 3}, []int{2, 8}, notion.AvgID{}, 3)
	add("zero-count", []float64{1, 2, 4}, []int{3, 0, 7}, notion.MinID{}, 2)
	grid := []float64{1, 1.5, 2, 2.5, 3}
	for _, n := range []notion.Notion{notion.MinID{}, notion.AvgID{}, notion.MaxID{}} {
		for _, eps := range grid {
			add(fmt.Sprintf("table1/%s/eps=%g", n.Name(), eps), budget.Default(eps).Eps, []int{5, 5, 5, 85}, n, 1)
		}
	}
	for xi, eps := range grid {
		assigned(fmt.Sprintf("fig3/powerlaw/eps=%g", eps), 100, budget.Default(eps), 3+uint64(xi), 3)
		assigned(fmt.Sprintf("fig3/uniform/eps=%g", eps), 200, budget.Default(eps), 3+uint64(xi), 3)
		assigned(fmt.Sprintf("fig3/uniform-paper/eps=%g", eps), 1000, budget.Default(eps), 3+uint64(xi), 3)
	}
	dists := [][]float64{{0.05, 0.05, 0.05, 0.85}, {0.10, 0.10, 0.10, 0.70}, {0.25, 0.25, 0.25, 0.25}}
	for _, eps := range grid {
		for di, d := range dists {
			assigned(fmt.Sprintf("fig4a/%.0f%%/eps=%g", 100*d[0], eps), 128, budget.WithProportions(eps, d), 4+uint64(di), 4)
		}
	}
	for _, eps := range []float64{1, 2, 3, 4, 5, 6} {
		assigned(fmt.Sprintf("fig4b/t=4/eps=%g", eps), 128, budget.Default(eps), 5, 5)
		assigned(fmt.Sprintf("fig4b/t=20/eps=%g", eps), 128, budget.Exponential(eps, 20), 6, 5)
	}
	for _, eps := range []float64{2, 4} {
		assigned(fmt.Sprintf("fig4b-small/t=4/eps=%g", eps), 24, budget.Default(eps), 5, 5)
		assigned(fmt.Sprintf("fig4b-small/t=20/eps=%g", eps), 24, budget.Exponential(eps, 20), 6, 5)
	}
	assigned("fig5/retail", 128, budget.Default(2), 6, 6)
	assigned("fig5/msnbc", 17, budget.Default(2), 6, 6)
	g, err := notion.NewPolicyGraph(notion.MinID{}, 3, [][2]int{{1, 2}})
	if err != nil {
		tb.Fatal(err)
	}
	add("policy/loose-pair", []float64{1, 4, 4}, []int{2, 49, 49}, g, 1)
	g4, err := notion.NewPolicyGraph(notion.MinID{}, 4, [][2]int{{0, 1}, {2, 3}})
	if err != nil {
		tb.Fatal(err)
	}
	add("policy/two-pairs", budget.Default(1).Eps, []int{5, 5, 5, 85}, g4, 1)
	for _, s := range []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 20260928} {
		assigned(fmt.Sprintf("bench/seed=%d", s), 1024, budget.Default(1), s, s)
	}
	return out
}

// opt0Golden holds the Eq. (10) objectives the penalized multi-start
// Nelder–Mead search returned at each setting, with the seed listed
// there. The barrier solve must match or beat every one.
var opt0Golden = map[string]float64{
	"table2":                     8.567498574502576,
	"avgid-toy":                  10.734517997120818,
	"zero-count":                 35.86759203927523,
	"table1/MinID-LDP/eps=1":     239.7309637495263,
	"table1/MinID-LDP/eps=1.5":   97.23829888759889,
	"table1/MinID-LDP/eps=2":     48.49300243568814,
	"table1/MinID-LDP/eps=2.5":   26.90893433194907,
	"table1/MinID-LDP/eps=3":     15.94272864009022,
	"table1/AvgID-LDP/eps=1":     49.48137492605068,
	"table1/AvgID-LDP/eps=1.5":   18.31136616089172,
	"table1/AvgID-LDP/eps=2":     8.524409901047592,
	"table1/AvgID-LDP/eps=2.5":   4.572333764452859,
	"table1/AvgID-LDP/eps=3":     2.9283940693734145,
	"table1/MaxID-LDP/eps=1":     41.77224465093335,
	"table1/MaxID-LDP/eps=1.5":   14.975124234742072,
	"table1/MaxID-LDP/eps=2":     7.289829520088509,
	"table1/MaxID-LDP/eps=2.5":   4.075936570892489,
	"table1/MaxID-LDP/eps=3":     2.4502432835676857,
	"fig3/powerlaw/eps=1":        254.79998413916516,
	"fig3/uniform/eps=1":         505.9903368304506,
	"fig3/uniform-paper/eps=1":   2339.260978057666,
	"fig3/powerlaw/eps=1.5":      94.15583374316496,
	"fig3/uniform/eps=1.5":       193.98018177951485,
	"fig3/uniform-paper/eps=1.5": 924.3098732534605,
	"fig3/powerlaw/eps=2":        44.98057221106725,
	"fig3/uniform/eps=2":         88.61797742201124,
	"fig3/uniform-paper/eps=2":   462.08576669428805,
	"fig3/powerlaw/eps=2.5":      27.74901938426402,
	"fig3/uniform/eps=2.5":       50.819555765836895,
	"fig3/uniform-paper/eps=2.5": 250.89500247828607,
	"fig3/powerlaw/eps=3":        15.877094116370905,
	"fig3/uniform/eps=3":         30.550856967864007,
	"fig3/uniform-paper/eps=3":   141.0780699061915,
	"fig4a/5%/eps=1":             312.56026694187415,
	"fig4a/10%/eps=1":            361.8675726798952,
	"fig4a/25%/eps=1":            436.0169358591452,
	"fig4a/5%/eps=1.5":           126.30443886536989,
	"fig4a/10%/eps=1.5":          145.78474526605098,
	"fig4a/25%/eps=1.5":          190.29176272849884,
	"fig4a/5%/eps=2":             62.64319968791824,
	"fig4a/10%/eps=2":            71.92658897213741,
	"fig4a/25%/eps=2":            93.67989260396116,
	"fig4a/5%/eps=2.5":           34.478876246121416,
	"fig4a/10%/eps=2.5":          50.88027293000212,
	"fig4a/25%/eps=2.5":          50.880272930002135,
	"fig4a/5%/eps=3":             20.23024090930445,
	"fig4a/10%/eps=3":            22.86722936844386,
	"fig4a/25%/eps=3":            29.23219481732802,
	"fig4b/t=4/eps=1":            305.43391918778036,
	"fig4b/t=20/eps=1":           230.39337773747152,
	"fig4b/t=4/eps=2":            61.18639055697281,
	"fig4b/t=20/eps=2":           24.050727506397735,
	"fig4b/t=4/eps=3":            19.809932182418507,
	"fig4b/t=20/eps=3":           7.058056501963245,
	"fig4b/t=4/eps=4":            7.7554420110570215,
	"fig4b/t=20/eps=4":           2.432701078311231,
	"fig4b/t=4/eps=5":            3.481519457112056,
	"fig4b/t=20/eps=5":           0.8741990147393122,
	"fig4b/t=4/eps=6":            1.7838138460101087,
	"fig4b/t=20/eps=6":           0.31885938513429746,
	"fig4b-small/t=4/eps=2":      11.99282212257849,
	"fig4b-small/t=20/eps=2":     4.371642913015848,
	"fig4b-small/t=4/eps=4":      2.0401135971756124,
	"fig4b-small/t=20/eps=4":     0.4561314521937284,
	"fig5/retail":                65.488579157872,
	"fig5/msnbc":                 10.815034966409875,
	"policy/loose-pair":          15.71614163038342,
	"policy/two-pairs":           80.29145404542211,
	"bench/seed=1":               2442.727197947354,
	"bench/seed=2":               2356.158731787563,
	"bench/seed=3":               2391.949638343583,
	"bench/seed=4":               2360.2304083535855,
	"bench/seed=5":               2407.40661194559,
	"bench/seed=6":               2457.0909553636902,
	"bench/seed=7":               2425.9350602179766,
	"bench/seed=8":               2335.5255823947978,
	"bench/seed=9":               2431.8836929241643,
	"bench/seed=10":              2374.2081483735233,
	"bench/seed=20260928":        2387.984745197857,
}

// TestOpt0NoWorseThanGolden checks, at every setting, that the solved
// objective is at most the search's (to 10⁻⁹ relative), that the point is
// interiorMargin inside every Eq. (7) row, and that notion.VerifyUE
// accepts it.
func TestOpt0NoWorseThanGolden(t *testing.T) {
	settings := opt0Settings(t)
	if len(settings) != len(opt0Golden) {
		t.Fatalf("%d settings, %d golden objectives", len(settings), len(opt0Golden))
	}
	for _, s := range settings {
		golden, ok := opt0Golden[s.name]
		if !ok {
			t.Fatalf("%s: no golden objective", s.name)
		}
		t.Run(s.name, func(t *testing.T) {
			t.Parallel()
			p, err := SolveOpt0(s.eps, s.counts, s.n, s.seed)
			if err != nil {
				t.Fatal(err)
			}
			if p.Objective > golden*(1+1e-9) {
				t.Errorf("objective %.12g above the search's %.12g", p.Objective, golden)
			}
			if v := maxViolation(p.A, p.B, pairBudgets(s.eps, s.n)); v > -interiorMargin {
				t.Errorf("max violation %g, want ≤ %g", v, -interiorMargin)
			}
			if err := notion.VerifyUE(p.A, p.B, s.eps, s.n, 1e-6); err != nil {
				t.Error(err)
			}
			t.Logf("%.6f -> %.6f (%+.3g%%)", golden, p.Objective, 100*(p.Objective/golden-1))
		})
	}
}

package mech

import (
	"fmt"
	"math"
	"testing"
	"time"

	"idldp/internal/bitvec"
	"idldp/internal/budget"
	"idldp/internal/cpuid"
	"idldp/internal/notion"
	"idldp/internal/opt"
	"idldp/internal/rng"
)

// sectionVII builds the IDUE mechanism of the paper's §VII setting, the
// one the repository's benchmark runs: m = 1024, budget.Default(1.0)
// randomly assigned, Opt0 parameters.
func sectionVII(tb testing.TB) *UE {
	tb.Helper()
	asgn, err := budget.Assign(1024, budget.Default(1.0), rng.New(1))
	if err != nil {
		tb.Fatal(err)
	}
	p, err := opt.Solve(opt.Opt0, asgn.LevelEpsAll(), asgn.LevelCounts(), notion.MinID{}, 1)
	if err != nil {
		tb.Fatal(err)
	}
	u, err := NewIDUE(p, asgn)
	if err != nil {
		tb.Fatal(err)
	}
	return u
}

// replan returns a copy of u whose plan was built with another threshold:
// 0 puts every run in the bit planes, 1 samples every run by skip.
func replan(u *UE, skipBelow float64) *UE {
	v := &UE{A: u.A, B: u.B}
	v.buildPlan(skipBelow)
	return v
}

// BenchmarkPerturbItem measures PerturbItemInto under the plan the
// constructor chose and under the all-planes and all-skip plans, at the
// §VII IDUE setting and along the OUE ε axis where the flip rate falls
// from 0.27 to 0.0003, and asserts what skipBelow stands for. The want
// column is the cost model's winner at m = 1024 — planes ~190 ns per
// report at any b on the AVX2 kernel, skip 418 / 333 / 274 / 222 / 179 ns
// at b = 0.047 / 0.037 / 0.029 / 0.022 / 0.017, equal at b = 0.017 — so
// ε = 2.5 (b = 0.076), ε = 3 (b = 0.047) and, on the kernel, ε = 3.5
// (b = 0.029: 194 against 308 ns, 1.6×) are the planes', and ε = 5
// (b = 0.0067) is skip's by far; the constructor must agree. Timed, the
// chosen plan is never more than 20% slower than the other one (on the Go
// twin, ~370 ns, ε = 3 still holds at 1.13×), and at §VII it is at least
// 5.1× the skip-only sampler (measured 13.8× on the kernel, 200 ns against
// 2,750, and 7.4× on the twin; the floor is three quarters of the 6.6× one
// stream per report measured).
func BenchmarkPerturbItem(b *testing.B) {
	const planes, skip = 0, 1
	names := [2]string{planes: "planes", skip: "skip"}
	type point struct {
		name string
		u    *UE
		want int     // the plan the cost model says wins here
		gain float64 // how many times faster than the other plan it must be
	}
	points := []point{{"idue-VII", sectionVII(b), planes, 5.1}}
	type oue struct {
		eps  float64
		want int
	}
	oues := []oue{{1, planes}, {2.5, planes}, {3, planes}, {5, skip}, {8, skip}}
	if cpuid.Level != cpuid.Go {
		// Just above the crossover, where only the kernel's planes win.
		oues = append(oues, oue{3.5, planes})
	}
	for _, oue := range oues {
		u, err := NewOUE(oue.eps, 1024)
		if err != nil {
			b.Fatal(err)
		}
		points = append(points, point{fmt.Sprintf("oue-eps=%g", oue.eps), u, oue.want, 1 / 1.2})
	}
	for _, pt := range points {
		pure := [2]*UE{planes: replan(pt.u, 0), skip: replan(pt.u, 1)}
		for _, row := range []struct {
			name string
			u    *UE
		}{{"fast", pt.u}, {names[planes], pure[planes]}, {names[skip], pure[skip]}} {
			u := row.u
			b.Run(pt.name+"/"+row.name, func(b *testing.B) {
				r, out := rng.New(2), bitvec.New(1024)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					u.PerturbItemInto(i%1024, r, out)
				}
			})
		}

		// Every point here is one run, so the constructor chose one of the
		// two pure plans outright. They are timed on fixed batches, turn
		// and turn about (best of nine, so a busy neighbour slows both or
		// neither), independent of -benchtime: the 1x bench smoke in CI
		// makes the assertions too.
		chosen := planes
		if pt.u.planes == nil {
			chosen = skip
		} else if len(pt.u.skips) != 0 {
			b.Fatalf("%s: the plan mixes planes and %d skip runs", pt.name, len(pt.u.skips))
		}
		if chosen != pt.want {
			b.Fatalf("%s: the constructor chose %s, the cost model says %s", pt.name, names[chosen], names[pt.want])
		}
		const batch = 2048
		best := [2]time.Duration{math.MaxInt64, math.MaxInt64}
		r, out := rng.New(2), bitvec.New(1024)
		for rep := 0; rep < 9; rep++ {
			for pl, u := range pure {
				start := time.Now()
				for i := 0; i < batch; i++ {
					u.PerturbItemInto(i%1024, r, out)
				}
				best[pl] = min(best[pl], time.Since(start))
			}
		}
		if gain := float64(best[1-chosen]) / float64(best[chosen]); gain < pt.gain {
			b.Fatalf("%s: the chosen plan, %s, takes %v per %d reports and %s %v: %.2f× as fast, want ≥ %.2f×",
				pt.name, names[chosen], best[chosen], batch, names[1-chosen], best[1-chosen], gain, pt.gain)
		}
	}
}

// BenchmarkFill times fill alone on a §VII report, through each plane
// kernel and through the Go twin, the sampler of every CPU without AVX2.
func BenchmarkFill(b *testing.B) {
	u := sectionVII(b)
	for _, level := range []int{cpuid.AVX512, cpuid.AVX2, cpuid.Go} {
		b.Run([...]string{"twin", "avx2", "avx512"}[level], func(b *testing.B) {
			if level > cpuid.Level {
				b.Skip("not on this CPU")
			}
			r, w := rng.New(2), make([]uint64, 16)
			for b.Loop() {
				u.fill(r, w, level)
			}
		})
	}
}

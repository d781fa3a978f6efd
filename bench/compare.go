package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// quartiles returns the three cut points Python's
// statistics.quantiles(values, n=4) gives (the exclusive method), which
// is what the driver's spread rule uses.
func quartiles(values []float64) (q1, q2, q3 float64) {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	ld := len(data)
	if ld < 2 {
		if ld == 1 {
			return data[0], data[0], data[0]
		}
		return math.NaN(), math.NaN(), math.NaN()
	}
	cut := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := float64(i*m - j*4)
		return (data[j-1]*(4-delta) + data[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(values []float64) float64 {
	q1, _, q3 := quartiles(values)
	return (q3 - q1) / median(values)
}

func loadRunSet(path string) (*runSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs runSet
	if err := json.Unmarshal(data, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rs, nil
}

// valuesOf collects one metric's values over a workload's untraced runs.
func valuesOf(rs *runSet, workload, metric string) []float64 {
	var out []float64
	for _, r := range rs.Runs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload && r.Trace == 0 {
			out = append(out, v)
		}
	}
	return out
}

// verdict applies one end-to-end metric's bound to two sets of runs:
// "regressed" when b's median is worse than a's by more than the bound,
// "unresolved" when either set's own spread is wider than the bound
// (unless every run of b beats every run of a), else "ok".
func verdict(d metricDef, a, b []float64) (string, float64, float64) {
	ma, mb := median(a), median(b)
	worse := (mb - ma) / ma
	lo, hi := b, a // lower is better: b dominates when max(b) < min(a)
	if d.Better == "higher" {
		worse = -worse
		lo, hi = a, b
	}
	sp := math.Max(spread(a), spread(b))
	if len(a) < 2 || len(b) < 2 {
		sp = 0
	}
	switch {
	case sp > d.Bound:
		sort.Float64s(lo)
		sort.Float64s(hi)
		if worse < 0 && lo[len(lo)-1] < hi[0] {
			return "ok (every run better)", worse, sp
		}
		return "unresolved", worse, sp
	case worse > d.Bound:
		return "regressed", worse, sp
	}
	return "ok", worse, sp
}

// compareFiles prints one row per (end-to-end metric, workload) with
// its verdict, informational rows for the natively measured per-layer
// headline metrics, and whether the exact counts of runs sharing a
// workload and seed are equal. It returns 1 if anything regressed or
// an exact count differs.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, err := loadRunSet(pathA)
	if err == nil {
		var b *runSet
		if b, err = loadRunSet(pathB); err == nil {
			return compareSets(w, a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "bench -compare:", err)
	return 2
}

func compareSets(w io.Writer, a, b *runSet) int {
	status := 0
	counts := map[string]int{}
	fmt.Fprintf(w, "%-14s %-24s %12s %12s %8s %8s %7s  %s\n", "workload", "metric", "median a", "median b", "worse", "spread", "bound", "verdict")
	for _, wl := range workloads {
		for _, d := range catalog {
			va, vb := valuesOf(a, wl.Name, d.Name), valuesOf(b, wl.Name, d.Name)
			if len(va) == 0 || len(vb) == 0 || !(d.E2E || nativeTo(d, wl.Name)) {
				continue
			}
			if !d.E2E {
				sp := math.Max(spread(va), spread(vb))
				fmt.Fprintf(w, "%-14s %-24s %12.6g %12.6g %8s %7.1f%% %7s  info (per-layer, no bound)\n",
					wl.Name, d.Name, median(va), median(vb), "", sp*100, "")
				continue
			}
			v, worse, sp := verdict(d, va, vb)
			counts[v]++
			if v == "regressed" {
				status = 1
			}
			fmt.Fprintf(w, "%-14s %-24s %12.6g %12.6g %+7.1f%% %7.1f%% %6.0f%%  %s\n",
				wl.Name, d.Name, median(va), median(vb), worse*100, sp*100, d.Bound*100, v)
		}
	}
	type key struct {
		workload string
		seed     uint64
	}
	exactA := map[key]map[string]string{}
	for _, r := range a.Runs {
		exactA[key{r.Workload, r.Seed}] = r.Exact
	}
	equal, differ := 0, 0
	for _, r := range b.Runs {
		ea, ok := exactA[key{r.Workload, r.Seed}]
		if !ok {
			continue
		}
		same := len(ea) == len(r.Exact)
		for k, v := range r.Exact {
			same = same && ea[k] == v
		}
		if same {
			equal++
		} else {
			differ++
			status = 1
			fmt.Fprintf(w, "exact counts DIFFER: %s seed %d: %v vs %v\n", r.Workload, r.Seed, ea, r.Exact)
		}
	}
	fmt.Fprintf(w, "exact counts: %d (workload, seed) pairs equal, %d differ\n", equal, differ)
	fmt.Fprintf(w, "rows: %d ok, %d regressed, %d unresolved\n",
		counts["ok"]+counts["ok (every run better)"], counts["regressed"], counts["unresolved"])
	return status
}

package idldp

// Benchmarks regenerating every table and figure of the paper's evaluation
// (§VII), one per artifact, at CI-reduced sizes (use cmd/idldp-bench
// -scale paper for the published n and m). Each figure bench reports the
// headline utility metric alongside timing so regressions in either show
// up in -benchmem output. Micro-benchmarks for the mechanism hot paths
// follow.

import (
	"fmt"
	"runtime"
	"testing"

	"idldp/internal/bitvec"
	"idldp/internal/budget"
	"idldp/internal/core"
	"idldp/internal/exp"
	"idldp/internal/notion"
	"idldp/internal/opt"
	"idldp/internal/rng"
	"idldp/internal/server"
)

// BenchmarkTableI regenerates the prior–posterior leakage-bound table.
func BenchmarkTableI(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := exp.TableI([]float64{1, 1.2, 2, 4}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableII regenerates the toy-example utility comparison,
// including the opt0 solve.
func BenchmarkTableII(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := exp.TableII(); err != nil {
			b.Fatal(err)
		}
	}
}

func reportCurves(b *testing.B, s *exp.Series, metric map[string]string) {
	b.Helper()
	for curve, name := range metric {
		ys := s.Curve(curve)
		if ys == nil {
			b.Fatalf("curve %q missing", curve)
		}
		b.ReportMetric(ys[len(ys)/2], name)
	}
}

// BenchmarkFig3PowerLaw regenerates the left panel of Fig. 3 (power-law
// synthetic data) and reports the mid-ε MSE of IDUE and OUE.
func BenchmarkFig3PowerLaw(b *testing.B) {
	c := exp.DefaultFig3("powerlaw")
	c.N, c.M = 5000, 32
	c.EpsValues = []float64{1, 2, 3}
	var s *exp.Series
	var err error
	for i := 0; i < b.N; i++ {
		if s, err = exp.Fig3(c); err != nil {
			b.Fatal(err)
		}
	}
	reportCurves(b, s, map[string]string{"MinLDP-opt0": "idue-mse", "OUE": "oue-mse"})
}

// BenchmarkFig3Uniform regenerates the right panel of Fig. 3 (uniform
// synthetic data).
func BenchmarkFig3Uniform(b *testing.B) {
	c := exp.DefaultFig3("uniform")
	c.N, c.M = 5000, 64
	c.EpsValues = []float64{1, 2, 3}
	var s *exp.Series
	var err error
	for i := 0; i < b.N; i++ {
		if s, err = exp.Fig3(c); err != nil {
			b.Fatal(err)
		}
	}
	reportCurves(b, s, map[string]string{"MinLDP-opt0": "idue-mse", "OUE": "oue-mse"})
}

// BenchmarkFig4aKosarak regenerates the Fig. 4(a) budget-distribution
// sweep on the simulated Kosarak single-item projection.
func BenchmarkFig4aKosarak(b *testing.B) {
	c := exp.DefaultFig4a()
	c.Kosarak.Users = 5000
	c.Kosarak.Pages = 400
	c.TopM = 32
	c.EpsValues = []float64{1, 2, 3}
	var s *exp.Series
	var err error
	for i := 0; i < b.N; i++ {
		if s, err = exp.Fig4a(c); err != nil {
			b.Fatal(err)
		}
	}
	reportCurves(b, s, map[string]string{"RAPPOR": "rappor-mse", "OUE": "oue-mse"})
}

// BenchmarkFig4bRetail regenerates the Fig. 4(b) item-set sweep on the
// simulated Retail dataset, including the t=20 solve.
func BenchmarkFig4bRetail(b *testing.B) {
	c := exp.DefaultFig4b()
	c.Retail.Users = 4000
	c.Retail.Items = 400
	c.TopM = 32
	c.EpsValues = []float64{2, 4}
	c.Ell = 3
	var s *exp.Series
	var err error
	for i := 0; i < b.N; i++ {
		if s, err = exp.Fig4b(c); err != nil {
			b.Fatal(err)
		}
	}
	reportCurves(b, s, map[string]string{"IDUE-PS (t=4)": "idue-ps-mse", "OUE-PS": "oue-ps-mse"})
}

// BenchmarkFig5Retail regenerates the Retail column of Fig. 5 (padding
// length sweep, total and top-5 panels).
func BenchmarkFig5Retail(b *testing.B) {
	c := exp.DefaultFig5("retail")
	c.Retail.Users = 4000
	c.Retail.Items = 400
	c.TopM = 32
	c.Ells = []int{2, 4, 6}
	var r *exp.Fig5Result
	var err error
	for i := 0; i < b.N; i++ {
		if r, err = exp.Fig5(c); err != nil {
			b.Fatal(err)
		}
	}
	reportCurves(b, r.Total, map[string]string{"IDUE-PS": "idue-ps-mse"})
	reportCurves(b, r.TopK, map[string]string{"IDUE-PS": "idue-ps-top5-mse"})
}

// BenchmarkFig5MSNBC regenerates the MSNBC column of Fig. 5.
func BenchmarkFig5MSNBC(b *testing.B) {
	c := exp.DefaultFig5("msnbc")
	c.MSNBC.Users = 5000
	c.Ells = []int{2, 4, 6}
	var r *exp.Fig5Result
	var err error
	for i := 0; i < b.N; i++ {
		if r, err = exp.Fig5(c); err != nil {
			b.Fatal(err)
		}
	}
	reportCurves(b, r.Total, map[string]string{"IDUE-PS": "idue-ps-mse"})
	reportCurves(b, r.TopK, map[string]string{"IDUE-PS": "idue-ps-top5-mse"})
}

// --- Ablation benchmarks (design choices called out in DESIGN.md) ---

// BenchmarkAblationGRR quantifies GRR's deterioration with domain size
// against the UE family (why the paper builds on unary encoding).
func BenchmarkAblationGRR(b *testing.B) {
	var s *exp.Series
	var err error
	for i := 0; i < b.N; i++ {
		if s, err = exp.AblationGRR(1, []int{4, 16, 64}, 20000, 1); err != nil {
			b.Fatal(err)
		}
	}
	reportCurves(b, s, map[string]string{"GRR": "grr-mse", "IDUE-opt0": "idue-mse"})
}

// BenchmarkAblationNotion compares MinID/AvgID/MaxID worst-case
// objectives.
func BenchmarkAblationNotion(b *testing.B) {
	var s *exp.Series
	var err error
	for i := 0; i < b.N; i++ {
		if s, err = exp.AblationNotion([]float64{1, 2}, 1); err != nil {
			b.Fatal(err)
		}
	}
	reportCurves(b, s, map[string]string{"MinID-LDP": "minid-obj", "AvgID-LDP": "avgid-obj"})
}

// BenchmarkAblationModels compares opt0/opt1/opt2 across budget skew.
func BenchmarkAblationModels(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.AblationModels(1, []float64{0.4, 0.85}, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationDirect compares the §V-A direct matrix formulation
// against GRR and IDUE on a tiny domain.
func BenchmarkAblationDirect(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.AblationDirect(3, 1, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Mechanism and solver micro-benchmarks ---

func benchEngine(b *testing.B, m, ell int) *core.Engine {
	b.Helper()
	asgn, err := budget.Assign(m, budget.Default(2), rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	e, err := core.New(core.Config{Budgets: asgn, Model: opt.Opt1, PaddingLength: ell, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return e
}

// reportsPerSec adds a reports/s metric so client-side throughput reads
// directly off the benchmark output instead of inverting ns/op.
func reportsPerSec(b *testing.B) {
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "reports/s")
}

// BenchmarkPerturbItem measures one IDUE report over a 1024-item domain:
// the planned fast path (bit planes at these flip rates) into a reused
// buffer (the production shape, 0 allocs/op), the allocating fast path,
// and the per-bit O(m) reference loop. internal/mech's benchmark of the
// same name times the two samplers of the plan against each other and
// asserts the choice between them.
func BenchmarkPerturbItem(b *testing.B) {
	e := benchEngine(b, 1024, 0)
	b.Run("fast", func(b *testing.B) {
		r := rng.New(2)
		buf := e.NewReport()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.PerturbItemInto(i%1024, r, buf)
		}
		reportsPerSec(b)
	})
	b.Run("fast-alloc", func(b *testing.B) {
		r := rng.New(2)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.PerturbItem(i%1024, r)
		}
		reportsPerSec(b)
	})
	b.Run("reference", func(b *testing.B) {
		r := rng.New(2)
		u := e.UE()
		x := bitvec.New(1024)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			x.Set(i % 1024)
			u.PerturbReference(x, r)
			x.Clear(i % 1024)
		}
		reportsPerSec(b)
	})
}

// BenchmarkPerturbSet measures one IDUE-PS report over a 1024-item domain
// with padding length 8.
func BenchmarkPerturbSet(b *testing.B) {
	e := benchEngine(b, 1024, 8)
	set := []int{1, 5, 99, 500, 1023}
	b.Run("fast", func(b *testing.B) {
		r := rng.New(2)
		buf := e.NewSetReport()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.PerturbSetInto(set, r, buf)
		}
		reportsPerSec(b)
	})
	b.Run("fast-alloc", func(b *testing.B) {
		r := rng.New(2)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.PerturbSet(set, r)
		}
		reportsPerSec(b)
	})
}

// BenchmarkSolveOpt1 measures the convex RAPPOR-structured solve at t=4.
func BenchmarkSolveOpt1(b *testing.B) {
	eps := []float64{1, 1.2, 2, 4}
	counts := []int{5, 5, 5, 85}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := opt.SolveOpt1(eps, counts, notion.MinID{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveOpt2 measures the convex OUE-structured solve at t=4.
func BenchmarkSolveOpt2(b *testing.B) {
	eps := []float64{1, 1.2, 2, 4}
	counts := []int{5, 5, 5, 85}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := opt.SolveOpt2(eps, counts, notion.MinID{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveOpt0 measures the non-convex worst-case solve at t=4 and
// at Fig. 4(b)'s t=20 levels, Exponential(2, 20) over 128 items, where 6
// of the 20 levels are empty.
func BenchmarkSolveOpt0(b *testing.B) {
	asgn, err := budget.Assign(128, budget.Exponential(2, 20), rng.New(6))
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		eps    []float64
		counts []int
	}{
		{"t=4", []float64{1, 1.2, 2, 4}, []int{5, 5, 5, 85}},
		{"t=20", asgn.LevelEpsAll(), asgn.LevelCounts()},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := opt.SolveOpt0(c.eps, c.counts, notion.MinID{}, uint64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkShardedIngest measures the sharded ingestion runtime under
// concurrent producers, comparing 1 shard against GOMAXPROCS shards so
// throughput scaling shows up directly in the ns/op columns. The direct
// variant ships one frame per report (the HTTP API's path, worker-bound);
// the batched variant accumulates per-bit counts producer-side first (the
// TCP transport's path).
func BenchmarkShardedIngest(b *testing.B) {
	const m = 1024
	r := rng.New(9)
	reports := make([]*bitvec.Vector, 512)
	for i := range reports {
		v := bitvec.New(m)
		for j := 0; j < m; j++ {
			if r.Bernoulli(0.5) {
				v.Set(j)
			}
		}
		reports[i] = v
	}
	shardCounts := []int{1, runtime.GOMAXPROCS(0)}
	for i, shards := range shardCounts {
		if i > 0 && shards == shardCounts[0] {
			break // single-core machine: the comparison collapses
		}
		b.Run(fmt.Sprintf("direct/shards=%d", shards), func(b *testing.B) {
			s, err := server.New(m, server.WithShards(shards), server.WithQueueDepth(64))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					if err := s.Add(reports[i%len(reports)]); err != nil {
						b.Error(err)
						return
					}
					i++
				}
			})
			b.StopTimer()
			if err := s.Close(); err != nil {
				b.Fatal(err)
			}
		})
		b.Run(fmt.Sprintf("batched/shards=%d", shards), func(b *testing.B) {
			s, err := server.New(m, server.WithShards(shards))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				batcher := s.NewBatcher()
				i := 0
				for pb.Next() {
					if err := batcher.Add(reports[i%len(reports)]); err != nil {
						b.Error(err)
						return
					}
					i++
				}
				if err := batcher.Flush(); err != nil {
					b.Error(err)
				}
			})
			b.StopTimer()
			if err := s.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkCollectEstimate measures the server-side pipeline: collecting
// 10k reports over 256 bits and calibrating.
func BenchmarkCollectEstimate(b *testing.B) {
	e := benchEngine(b, 256, 0)
	r := rng.New(3)
	reports := make([]Report, 10000)
	client := &Client{engine: e}
	for u := range reports {
		reports[u] = client.ReportItem(r.IntN(256), uint64(u))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv := client.NewServer()
		for _, rep := range reports {
			if err := srv.Collect(rep); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := srv.Estimates(); err != nil {
			b.Fatal(err)
		}
	}
}

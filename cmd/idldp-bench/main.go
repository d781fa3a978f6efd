// Command idldp-bench regenerates the paper's tables and figures plus the
// repository's ablations.
//
// Usage:
//
//	idldp-bench -exp table1|table2|fig3|fig4a|fig4b|fig5a|fig5b|ablations|load|sweep|all
//	            [-scale ci|paper] [-reps N] [-seed S] [-csv dir] [-json] [-out file]
//
// The ci scale (default) runs reduced domain/user counts that finish in
// seconds; the paper scale matches the published n and m (minutes). The
// output is one aligned text table per experiment, with the same rows and
// series the paper reports; -csv additionally writes each artifact as a
// CSV file for plotting.
//
// Two experiments are operational rather than statistical. load drives a
// flow-controlled collection run against a saturated sink and records the
// shed/retry/backoff counters per repetition; -json emits that artifact
// as JSON. sweep (not part of all) is the saturation sweep: an open-loop
// load generator steps offered load through fractions of calibrated
// capacity against an in-process tiered fleet with federated telemetry,
// emits one JSON line per step to stdout, and writes the full artifact —
// per-stage p50/p99/p999, throughput per core, availability, SLO burn
// verdicts, and the federation bit-exactness bit — to -out
// (BENCH_PR9.json). At paper scale it simulates >= 1.05M clients.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"idldp/internal/exp"
)

func main() {
	var (
		which   = flag.String("exp", "all", "experiment: table1, table2, fig3, fig4a, fig4b, fig5a, fig5b, ablations, load, sweep, or all (every one but sweep)")
		scale   = flag.String("scale", "ci", "ci (fast, reduced sizes) or paper (published sizes)")
		reps    = flag.Int("reps", 1, "collection repetitions to average per point")
		seed    = flag.Uint64("seed", 1, "experiment seed")
		csvDir  = flag.String("csv", "", "also write each artifact as CSV into this directory")
		jsonOut = flag.Bool("json", false, "emit the load experiment's artifact as JSON on stdout")
		outPath = flag.String("out", "BENCH_PR9.json", "sweep artifact path")
	)
	flag.Parse()
	if err := run(*which, *scale, *reps, *seed, *csvDir, *jsonOut, *outPath); err != nil {
		fmt.Fprintln(os.Stderr, "idldp-bench:", err)
		os.Exit(1)
	}
}

// emitter prints artifacts and optionally mirrors them to CSV files.
type emitter struct {
	csvDir string
}

func (e emitter) table(name string, t *exp.Table) error {
	fmt.Println(t.Render())
	if e.csvDir == "" {
		return nil
	}
	return e.writeCSV(name, t.WriteCSV)
}

func (e emitter) series(name string, s *exp.Series) error {
	fmt.Println(s.Render())
	if e.csvDir == "" {
		return nil
	}
	return e.writeCSV(name, s.WriteCSV)
}

func (e emitter) writeCSV(name string, write func(w io.Writer) error) error {
	if err := os.MkdirAll(e.csvDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(e.csvDir, name+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	return write(f)
}

func run(which, scale string, reps int, seed uint64, csvDir string, jsonOut bool, outPath string) error {
	paper := scale == "paper"
	if !paper && scale != "ci" {
		return fmt.Errorf("unknown scale %q", scale)
	}
	em := emitter{csvDir: csvDir}
	experiments := []string{"table1", "table2", "fig3", "fig4a", "fig4b", "fig5a", "fig5b", "ablations", "load"}
	if which != "all" {
		experiments = []string{which}
	}
	for _, e := range experiments {
		start := time.Now()
		var err error
		switch e {
		case "table1":
			err = runTable1(em)
		case "table2":
			err = runTable2(em)
		case "fig3":
			err = runFig3(em, paper, reps, seed)
		case "fig4a":
			err = runFig4a(em, paper, reps, seed)
		case "fig4b":
			err = runFig4b(em, paper, reps, seed)
		case "fig5a":
			err = runFig5(em, "retail", paper, reps, seed)
		case "fig5b":
			err = runFig5(em, "msnbc", paper, reps, seed)
		case "ablations":
			err = runAblations(em, seed)
		case "load":
			err = runLoad(em, paper, reps, seed, jsonOut)
		case "sweep":
			err = runSweep(paper, seed, outPath)
		default:
			err = fmt.Errorf("unknown experiment %q", e)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", e, err)
		}
		fmt.Printf("[%s completed in %v]\n\n", e, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

func runTable1(em emitter) error {
	t, err := exp.TableI([]float64{1, 1.2, 2, 4})
	if err != nil {
		return err
	}
	return em.table("table1", t)
}

func runTable2(em emitter) error {
	t, err := exp.TableII()
	if err != nil {
		return err
	}
	if err := em.table("table2", t); err != nil {
		return err
	}
	l, err := exp.TableIILeakage()
	if err != nil {
		return err
	}
	return em.table("table2_leakage", l)
}

func runFig3(em emitter, paper bool, reps int, seed uint64) error {
	for _, ds := range []string{"powerlaw", "uniform"} {
		c := exp.DefaultFig3(ds)
		if paper {
			c = c.PaperScale()
		}
		c.Reps = reps
		c.Seed = seed
		s, err := exp.Fig3(c)
		if err != nil {
			return err
		}
		if err := em.series("fig3_"+ds, s); err != nil {
			return err
		}
	}
	return nil
}

func runFig4a(em emitter, paper bool, reps int, seed uint64) error {
	c := exp.DefaultFig4a()
	if paper {
		c.Kosarak = c.Kosarak.FullScale()
		c.TopM = 1024
	}
	c.Reps = reps
	c.Seed = seed
	s, err := exp.Fig4a(c)
	if err != nil {
		return err
	}
	return em.series("fig4a", s)
}

func runFig4b(em emitter, paper bool, reps int, seed uint64) error {
	c := exp.DefaultFig4b()
	if paper {
		c.Retail = c.Retail.FullScale()
		c.TopM = 1024
	}
	c.Reps = reps
	c.Seed = seed
	s, err := exp.Fig4b(c)
	if err != nil {
		return err
	}
	return em.series("fig4b", s)
}

func runFig5(em emitter, ds string, paper bool, reps int, seed uint64) error {
	c := exp.DefaultFig5(ds)
	if paper {
		c.Retail = c.Retail.FullScale()
		c.MSNBC = c.MSNBC.FullScale()
		c.TopM = 1024
	}
	c.Reps = reps
	c.Seed = seed
	r, err := exp.Fig5(c)
	if err != nil {
		return err
	}
	if err := em.series("fig5_"+ds+"_total", r.Total); err != nil {
		return err
	}
	return em.series("fig5_"+ds+"_top", r.TopK)
}

func runAblations(em emitter, seed uint64) error {
	grr, err := exp.AblationGRR(1, []int{4, 8, 16, 32, 64, 128}, 50000, seed)
	if err != nil {
		return err
	}
	if err := em.series("ablation_grr", grr); err != nil {
		return err
	}
	notions, err := exp.AblationNotion([]float64{1, 1.5, 2, 2.5, 3}, seed)
	if err != nil {
		return err
	}
	if err := em.series("ablation_notion", notions); err != nil {
		return err
	}
	models, err := exp.AblationModels(1, []float64{0.25, 0.4, 0.55, 0.7, 0.85, 0.97}, seed)
	if err != nil {
		return err
	}
	if err := em.series("ablation_models", models); err != nil {
		return err
	}
	comm, err := exp.AblationCommunication(1, []int{16, 256, 4096}, 100000, seed)
	if err != nil {
		return err
	}
	if err := em.table("ablation_communication", comm); err != nil {
		return err
	}
	policy, err := exp.AblationPolicyGraph([]float64{0.5, 1, 1.5, 2}, seed)
	if err != nil {
		return err
	}
	if err := em.series("ablation_policy", policy); err != nil {
		return err
	}
	ellCfg := exp.DefaultFig5("msnbc")
	ellCfg.Seed = seed
	adaptive, chosen, err := exp.AblationAdaptiveEll(ellCfg, 0.5)
	if err != nil {
		return err
	}
	fmt.Printf("(private ell selection chose %d)\n", chosen)
	if err := em.table("ablation_adaptive_ell", adaptive); err != nil {
		return err
	}
	for _, m := range []int{3, 4, 5} {
		direct, err := exp.AblationDirect(m, 1, seed)
		if err != nil {
			return err
		}
		if err := em.table(fmt.Sprintf("ablation_direct_m%d", m), direct); err != nil {
			return err
		}
	}
	return nil
}

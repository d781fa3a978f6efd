// Command bench is the repository's benchmark: four workloads over the
// ID-LDP collector (two paper batch campaigns, a tiered-fleet ingest
// run, a read-heavy node run), their end-to-end metrics, and on a
// traced run the per-layer metrics and the fleet_ingest waterfall.
//
//	go run ./bench                              # all four workloads, end to end
//	go run ./bench -trace 1                     # per-layer metrics, spans, waterfall
//	go run ./bench -runs 10 -out a.json         # a set of runs for -compare
//	go run ./bench -compare a.json b.json       # apply BENCHMARK.json's bounds
//	go run ./bench --workload fleet_ingest --seed 7 --seconds 12 --trace 0
//
// The last form is what the driver runs (through bench/run.sh); its
// final stdout line is one JSON object {correct, attempted, failed,
// metrics}. See bench/README.md.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

const (
	defaultSeconds = 12.0
	devSeed        = 1
	setupRepeats   = 5
	outDir         = "bench/out"
)

// env is what one pass of a workload gets: the generated-input seed,
// the length of its timed section, its scale and where to keep files.
type env struct {
	workload string
	seed     uint64
	seconds  float64
	smoke    bool // 1/100 scale: tests, and the fill-in passes of a traced run
	tr       *tracer
	tmp      string // private temp dir, removed when the pass ends
}

// outcome is what one pass produced.
type outcome struct {
	m         *measured
	attempted int64
	failed    int64
	checks    []check
	exact     map[string]string
}

func newOutcome() *outcome {
	return &outcome{m: newMeasured(), exact: map[string]string{}}
}

func (o *outcome) check(name string, ok bool, detail string) {
	o.checks = append(o.checks, check{Name: name, OK: ok, Detail: detail})
}

// section brackets a timed section with the runtime's own counters.
type section struct{ before runtime.MemStats }

func beginSection() *section {
	s := &section{}
	runtime.ReadMemStats(&s.before)
	return s
}

// end returns the GC pause total (ms) and bytes allocated in between.
func (s *section) end() (gcPauseMS, allocBytes float64) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return float64(after.PauseTotalNs-s.before.PauseTotalNs) / 1e6,
		float64(after.TotalAlloc - s.before.TotalAlloc)
}

// workloadImpl is one workload: setup generates the inputs from the
// seed and brings the system up (timed as setup_s), run is the timed
// section plus its checks. A setup state with a Close method is closed
// when the pass ends.
type workloadImpl struct {
	setup   func(*env) (any, error)
	run     func(*env, any) (*outcome, error)
	primary string // the rate bench.trace_overhead_pct compares
}

var impls = map[string]workloadImpl{
	wlBatchItem: {setupBatch, runBatch, "reports_per_s"},
	wlBatchSet:  {setupBatch, runBatch, "reports_per_s"},
	wlFleet:     {setupFleet, runFleet, "reports_per_s"},
	wlNode:      {setupNode, runNode, "reads_per_s"},
}

// pass sets a workload up (repeats times, keeping the last; setup_s is
// the median), runs it once and tears it down.
func pass(e env, repeats int, tmpRoot string) (*outcome, error) {
	impl, ok := impls[e.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", e.workload)
	}
	var setups []float64
	var state any
	closeState := func() {
		if c, ok := state.(io.Closer); ok {
			_ = c.Close() // teardown of a pass that already reported
		}
		if e.tmp != "" {
			os.RemoveAll(e.tmp)
		}
	}
	for i := 0; i < repeats; i++ {
		if i > 0 {
			closeState()
		}
		tmp, err := os.MkdirTemp(tmpRoot, e.workload+"-*")
		if err != nil {
			return nil, err
		}
		e.tmp = tmp
		runtime.GC() // each setup starts from a settled heap
		t0 := time.Now()
		state, err = impl.setup(&e)
		if err != nil {
			os.RemoveAll(tmp)
			return nil, fmt.Errorf("%s setup: %w", e.workload, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer closeState()
	debug.FreeOSMemory() // set-up garbage is not the timed section's memory
	rss := sampleRSS()
	out, err := impl.run(&e, state)
	peak := rss.stop()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", e.workload, err)
	}
	out.m.set("peak_rss_mb", peak)
	out.m.setN("setup_s", median(setups), len(setups))
	if out.attempted > 0 {
		out.m.set("failed_ratio", float64(out.failed)/float64(out.attempted))
	}
	return out, nil
}

// runRecord is one run of one workload as -out stores it and -compare
// reads it.
type runRecord struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Trace     int                `json:"trace"`
	Seconds   float64            `json:"seconds"`
	Correct   bool               `json:"correct"`
	Valid     bool               `json:"valid"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Samples   map[string]int     `json:"samples,omitempty"`
	Exact     map[string]string  `json:"exact,omitempty"`
	Checks    []check            `json:"checks"`
	WallS     float64            `json:"wall_s"`
}

// runWorkload is one driver-style run: a single workload in this
// process, end to end (trace 0) or traced (trace 1).
func runWorkload(workload string, seed uint64, seconds float64, trace int, smoke bool, tmpRoot, traceDir string) (*runRecord, error) {
	t0 := time.Now()
	rec := &runRecord{Workload: workload, Seed: seed, Trace: trace, Seconds: seconds}
	base := env{workload: workload, seed: seed, seconds: seconds, smoke: smoke}
	repeats := setupRepeats
	if smoke {
		repeats = 1
	}
	var out *outcome
	var err error
	if trace == 0 {
		base.tr = newTracer(false)
		out, err = pass(base, repeats, tmpRoot)
	} else {
		out, err = tracedRun(base, repeats, tmpRoot, traceDir)
	}
	if err != nil {
		return nil, err
	}
	rec.Attempted, rec.Failed = out.attempted, out.failed
	rec.Checks, rec.Exact = out.checks, out.exact
	rec.Metrics, rec.Samples = out.m.values, out.m.samples
	rec.Correct, rec.Valid = true, true
	for _, c := range out.checks {
		if !c.OK {
			rec.Valid = false
			if !strings.HasPrefix(c.Name, "generator:") {
				rec.Correct = false
			}
		}
	}
	rec.WallS = time.Since(t0).Seconds()
	return rec, nil
}

// tracedRun measures the selected workload twice — spans off, then
// spans on, half the timed section each — runs the layer walk, and
// fills every metric the workload does not measure itself from a
// smoke-scale pass of a workload that does.
func tracedRun(base env, repeats int, tmpRoot, traceDir string) (*outcome, error) {
	half := base
	half.seconds = base.seconds / 2
	half.tr = newTracer(false)
	plain, err := pass(half, repeats, tmpRoot)
	if err != nil {
		return nil, err
	}
	half.tr = newTracer(true)
	out, err := pass(half, 1, tmpRoot)
	if err != nil {
		return nil, err
	}
	out.m.setN("setup_s", plain.m.values["setup_s"], plain.m.samples["setup_s"])
	path, err := half.tr.write(traceDir, base.workload)
	if err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("spans: %d written to %s\n", len(half.tr.spans), path)
	primary := impls[base.workload].primary
	if u, t := plain.m.values[primary], out.m.values[primary]; u > 0 {
		out.m.set("bench.trace_overhead_pct", (u-t)/u*100)
	}
	printSelfTimes(half.tr.spans)

	// The waterfall's budget is fleet_ingest's untraced saturate rate:
	// this run's own, or the fill-in pass's.
	fleetRate := plain.m.values["reports_per_s"]
	for _, w := range workloads {
		if w.Name == base.workload {
			continue
		}
		fill := env{workload: w.Name, seed: base.seed, seconds: smokeSeconds, smoke: true, tr: newTracer(false)}
		o, err := pass(fill, 1, tmpRoot)
		if err != nil {
			return nil, fmt.Errorf("fill-in pass: %w", err)
		}
		if w.Name == wlFleet {
			fleetRate = o.m.values["reports_per_s"]
		}
		for _, d := range catalog {
			_, have := out.m.values[d.Name]
			if v, ok := o.m.values[d.Name]; ok && !have && len(d.Native) > 0 && d.Native[0] == w.Name {
				out.m.setN(d.Name, v, o.m.samples[d.Name])
			}
		}
	}
	wm, err := layerWalk(base.seed, base.smoke, tmpRoot, fleetRate)
	if err != nil {
		return nil, fmt.Errorf("layer walk: %w", err)
	}
	for k, v := range wm.values {
		out.m.setN(k, v, wm.samples[k])
	}
	return out, nil
}

func printSelfTimes(spans []span) {
	self, count := selfByName(spans)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Println("span self time (bench-side calls into each layer):")
	for _, n := range names {
		fmt.Printf("  %-28s %10.3f ms over %d spans\n", n, float64(self[n])/1e6, count[n])
	}
}

// rssSampler tracks the resident set over one timed section: its peak
// there, after set-up's garbage was handed back, is a property of the
// workload; the process's all-time high-water mark (VmHWM) mostly says
// when the collector happened to run during set-up.
type rssSampler struct {
	stopCh chan struct{}
	done   chan float64
}

func sampleRSS() *rssSampler {
	r := &rssSampler{stopCh: make(chan struct{}), done: make(chan float64)}
	go func() {
		peak := rssMB()
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				peak = max(peak, rssMB())
			case <-r.stopCh:
				r.done <- max(peak, rssMB())
				return
			}
		}
	}()
	return r
}

func (r *rssSampler) stop() float64 {
	close(r.stopCh)
	return <-r.done
}

// rssMB reads the resident set size from /proc/self/statm.
func rssMB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseFloat(f[1], 64)
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// finalLine is the contract's last stdout line.
func finalLine(rec *runRecord) ([]byte, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]mv{}
	var missing []string
	for _, d := range catalog {
		if d.E2E != (rec.Trace == 0) {
			continue
		}
		v, ok := rec.Metrics[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		metrics[d.Name] = mv{v, d.Unit}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("%s did not measure %s", rec.Workload, strings.Join(missing, ", "))
	}
	return json.Marshal(map[string]any{
		"correct": rec.Correct, "attempted": rec.Attempted, "failed": rec.Failed, "metrics": metrics,
	})
}

func printRecord(w io.Writer, rec *runRecord) {
	byName := catalogByName()
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		a, b := byName[names[i]], byName[names[j]]
		if a.E2E != b.E2E {
			return a.E2E
		}
		return names[i] < names[j]
	})
	fmt.Fprintf(w, "== %s seed=%d trace=%d seconds=%g wall=%.1fs\n", rec.Workload, rec.Seed, rec.Trace, rec.Seconds, rec.WallS)
	for _, n := range names {
		d, known := byName[n]
		if !known || (rec.Trace == 0 && !d.E2E && !nativeTo(d, rec.Workload)) {
			continue
		}
		kind := "layer"
		if d.E2E {
			kind = "e2e  "
		}
		samples := ""
		if k := rec.Samples[n]; k > 0 {
			samples = fmt.Sprintf("  (n=%d)", k)
			if q, named := namedPercentile(n); named {
				if top, ok := highestPercentile(k); !ok || q > top {
					samples = fmt.Sprintf("  (n=%d, under-sampled: fewer than 10 samples beyond it)", k)
				}
			}
		}
		fmt.Fprintf(w, "  %s %-36s %14.6g %-10s%s\n", kind, n, rec.Metrics[n], d.Unit, samples)
	}
	for k, v := range rec.Exact {
		fmt.Fprintf(w, "  exact %-35s %s\n", k, v)
	}
	for _, c := range rec.Checks {
		verdict := "ok  "
		if !c.OK {
			verdict = "FAIL"
		}
		fmt.Fprintf(w, "  check %s %s: %s\n", verdict, c.Name, c.Detail)
	}
}

var percentileRE = regexp.MustCompile(`_p(\d+)_`)

// namedPercentile reads the tail percentile a metric is named after
// (ack_p95_ms -> 0.95); medians are not tails.
func namedPercentile(name string) (float64, bool) {
	m := percentileRE.FindStringSubmatch(name)
	if m == nil || m[1] == "50" {
		return 0, false
	}
	v, err := strconv.ParseFloat("0."+m[1], 64)
	return v, err == nil
}

func header(w io.Writer, seed uint64) {
	fmt.Fprintf(w, "idldp bench: %s GOMAXPROCS=%d nproc=%d cpu=%q commit=%s seed=%d\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), commit(), seed)
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "model name") {
			if _, v, ok := strings.Cut(line, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return "unknown"
}

func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown" // the driver's checkout is not a repository
	}
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runSet is what -out writes: every run of an invocation.
type runSet struct {
	GoVersion  string      `json:"go_version"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	NumCPU     int         `json:"nproc"`
	CPU        string      `json:"cpu"`
	Commit     string      `json:"commit"`
	Runs       []runRecord `json:"runs"`
}

const recordPrefix = "run-record: "

// runAll runs every workload, each in a fresh child process so one
// workload's heap, goroutines and page cache never meet the next's.
func runAll(names []string, seed uint64, seconds float64, trace, runs int, outPath string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	header(os.Stdout, seed)
	set := runSet{GoVersion: runtime.Version(), GOMAXPROCS: procs(), NumCPU: runtime.NumCPU(), CPU: cpuModel(), Commit: commit()}
	status := 0
	for r := 0; r < runs; r++ {
		for _, name := range names {
			cmd := exec.Command(exe, "--workload", name, "--seed", fmt.Sprint(seed+uint64(r)),
				"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace))
			var stdout bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
			err := cmd.Run()
			var rec *runRecord
			sc := bufio.NewScanner(&stdout)
			sc.Buffer(nil, 1<<24)
			for sc.Scan() {
				if rest, ok := strings.CutPrefix(sc.Text(), recordPrefix); ok {
					rec = &runRecord{}
					if jerr := json.Unmarshal([]byte(rest), rec); jerr != nil {
						rec = nil
					}
				}
			}
			if rec == nil {
				fmt.Fprintf(os.Stderr, "bench: %s produced no record (%v)\n%s", name, err, stdout.String())
				status = 1
				continue
			}
			printRecord(os.Stdout, rec)
			if err != nil || !rec.Valid {
				status = 1
			}
			set.Runs = append(set.Runs, *rec)
		}
	}
	if outPath != "" {
		data, err := json.MarshalIndent(set, "", " ")
		if err == nil {
			err = os.WriteFile(outPath, data, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	return status
}

// procs is the GOMAXPROCS every workload process runs at.
func procs() int { return min(runtime.NumCPU(), 2) }

func realMain() int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "all", "one workload, run in this process; or all / a comma-separated list / any with -runs or -out: each run in a child process")
	seed := fs.Uint64("seed", devSeed, "seed of the generated inputs")
	seconds := fs.Float64("seconds", defaultSeconds, "length of each timed section")
	trace := fs.Int("trace", 0, "1: traced run (spans, per-layer metrics, layer walk, waterfall)")
	runs := fs.Int("runs", 1, "runs per workload, seeds seed..seed+runs-1")
	outPath := fs.String("out", "", "write every run's record to this file (for -compare)")
	compare := fs.Bool("compare", false, "compare two -out files: bench -compare a.json b.json")
	manifest := fs.Bool("manifest", false, "print BENCHMARK.json generated from the metric catalog")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	switch {
	case *manifest:
		os.Stdout.Write(manifestJSON())
		return 0
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.json b.json")
			return 2
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	case *workload == "all":
		return runAll(allWorkloads, *seed, *seconds, *trace, *runs, *outPath)
	case strings.Contains(*workload, ",") || *runs > 1 || *outPath != "":
		return runAll(strings.Split(*workload, ","), *seed, *seconds, *trace, *runs, *outPath)
	}

	runtime.GOMAXPROCS(procs())
	header(os.Stdout, *seed)
	tmpRoot := filepath.Join(outDir, "tmp")
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	rec, err := runWorkload(*workload, *seed, *seconds, *trace, false, tmpRoot, outDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	printRecord(os.Stdout, rec)
	if data, err := json.Marshal(rec); err == nil {
		fmt.Printf("%s%s\n", recordPrefix, data)
	}
	line, err := finalLine(rec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Printf("%s\n", line)
	if !rec.Valid {
		return 1
	}
	return 0
}

func main() { os.Exit(realMain()) }

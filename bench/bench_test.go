package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestHighestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{99, 0, false},
		{100, 0.90, true},
		{199, 0.90, true},
		{200, 0.95, true},
		{999, 0.95, true},
		{1000, 0.99, true},
		{9999, 0.99, true},
		{10000, 0.999, true},
	}
	for _, c := range cases {
		got, ok := highestPercentile(c.n)
		if ok != c.ok || got != c.want {
			t.Errorf("highestPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for q, want := range map[float64]float64{0.5: 5, 0.9: 9, 0.95: 10, 0.01: 1} {
		if got := quantile(s, q); got != want {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
}

// An open-loop schedule does not move when the caller is late: the due
// time is start+k*every, and how late the caller ran is recorded.
func TestPacerTimesFromDueAndReportsLateness(t *testing.T) {
	start := time.Now().Add(-50 * time.Millisecond) // the generator is already 50 ms behind
	p := newPacer(start, 10*time.Millisecond)
	due := p.wait(2)
	if want := start.Add(20 * time.Millisecond); !due.Equal(want) {
		t.Fatalf("due = %v, want %v", due, want)
	}
	if len(p.late) != 1 || p.late[0] < 30*time.Millisecond {
		t.Fatalf("lateness = %v, want one sample >= 30ms", p.late)
	}
	ahead := newPacer(time.Now(), 5*time.Millisecond)
	t0 := time.Now()
	ahead.wait(2)
	if waited := time.Since(t0); waited < 9*time.Millisecond {
		t.Fatalf("wait(2) returned after %v, before the operation was due", waited)
	}
	if got := ahead.scheduled(12 * time.Millisecond); got != 3 {
		t.Fatalf("scheduled(12ms) at 5ms = %d, want 3", got)
	}
}

// A result carrying n = base+V is timed from the send-complete instant
// of the sender's V-th report.
func TestLagMapsResultToItsLastReport(t *testing.T) {
	base := time.Now()
	log := newSendLog(base, 4)
	for _, ms := range []int{10, 20, 30} {
		log.sent(base.Add(time.Duration(ms) * time.Millisecond))
	}
	s := &lagSampler{}
	s.onEvent(1, 102, base.Add(40*time.Millisecond)) // not armed yet: ignored
	s.arm(log, 100)
	s.onEvent(2, 100, base.Add(40*time.Millisecond)) // nothing of ours in it
	s.onEvent(3, 102, base.Add(27*time.Millisecond)) // last contributing report: the 2nd, sent at 20 ms
	s.onEvent(4, 103, base.Add(31*time.Millisecond))
	s.onEvent(5, 104, base.Add(50*time.Millisecond)) // beyond what was sent: ignored
	got := s.samples()
	if len(got) != 2 || got[0] != 7*time.Millisecond || got[1] != time.Millisecond {
		t.Fatalf("lags = %v, want [7ms 1ms]", got)
	}
}

func TestParseEventHead(t *testing.T) {
	seq, n, ok := parseEventHead([]byte(`data: {"seq":412,"n":1748800,"window_n":32000,"estimates":[1.5,2]}`))
	if !ok || seq != 412 || n != 1748800 {
		t.Fatalf("parseEventHead = %d, %d, %v", seq, n, ok)
	}
	if _, _, ok := parseEventHead([]byte(`data: {"error":"x"}`)); ok {
		t.Fatal("an error event parsed as an estimate")
	}
}

// Self time is a span's duration minus what its children cover, with
// overlapping children counted once.
func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "frame", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "b", Parent: 0, Start: 30, End: 60},  // overlaps a by 10
		{Name: "c", Parent: 1, Start: 15, End: 20},  // grandchild: only a's concern
		{Name: "d", Parent: 0, Start: 90, End: 120}, // clipped to the parent
	}
	want := []int64{100 - 50 - 10, 30 - 5, 30, 5, 30}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self[%s] = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	tr := newTracer(false)
	if h := tr.begin("x", 1, -1); h != -1 || len(tr.spans) != 0 {
		t.Fatal("a disabled tracer recorded a span")
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
	q1, q2, q3 = quartiles([]float64{3, 1, 4, 1, 5})
	if q1 != 1 || q2 != 3 || q3 != 4.5 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
}

func TestVerdictAppliesTheBound(t *testing.T) {
	lower := metricDef{Name: "x", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "y", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(steady))
		for i, v := range steady {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, c := range []struct {
		d    metricDef
		a, b []float64
		want string
	}{
		{lower, steady, scale(1.05), "ok"},
		{lower, steady, scale(1.2), "regressed"},
		{lower, steady, scale(0.5), "ok"},
		{higher, steady, scale(0.8), "regressed"},
		{higher, steady, scale(1.3), "ok"},
		{lower, steady, noisy, "unresolved"},
		{lower, scale(3), noisy, "ok (every run better)"},
	} {
		if got, _, _ := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("verdict(%s, %v -> %v) = %q, want %q", c.d.Better, median(c.a), median(c.b), got, c.want)
		}
	}
}

func TestCompareFlagsUnequalExactCounts(t *testing.T) {
	run := func(fnv string, rate float64) runSet {
		return runSet{Runs: []runRecord{{Workload: wlBatchItem, Seed: 1, Metrics: map[string]float64{"reports_per_s": rate},
			Exact: map[string]string{"counts_fnv": fnv}}}}
	}
	var out bytes.Buffer
	a, same, other := run("aa", 100), run("aa", 101), run("bb", 100)
	if status := compareSets(&out, &a, &same); status != 0 {
		t.Fatalf("equal sets compared as %d:\n%s", status, out.String())
	}
	if status := compareSets(&out, &a, &other); status != 1 || !strings.Contains(out.String(), "DIFFER") {
		t.Fatalf("unequal counts compared as %d:\n%s", status, out.String())
	}
}

// nameRE is the contract's name syntax.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// BENCHMARK.json is generated from the catalog; this keeps the two
// equal and inside the contract's limits.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	disk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(disk, manifestJSON()) {
		t.Fatal("BENCHMARK.json differs from the catalog: regenerate it with `go run ./bench -manifest > BENCHMARK.json`")
	}
	var e2es, layers int
	seen := map[string]bool{}
	for _, d := range catalog {
		if !nameRE.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is malformed or repeated", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
		if d.E2E {
			e2es++
			if d.Bound <= 0 || d.Bound > 0.25 || len(d.Native) != len(workloads) {
				t.Errorf("%s: an end-to-end metric needs a bound in (0, 0.25] and all four workloads", d.Name)
			}
		} else {
			layers++
		}
	}
	if e2es < 1 || e2es > 16 || layers < 1 || layers > 128 || !seen["setup_s"] {
		t.Errorf("%d end-to-end and %d per-layer metrics", e2es, layers)
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
	}
}

// A 1/100-scale pass of all four workloads with their exactness checks:
// each prints every end-to-end metric, and a traced run prints every
// per-layer metric (the three other workloads and the layer walk run
// inside it as fill-in passes).
func TestSmokeAllWorkloads(t *testing.T) {
	check := func(rec *runRecord) {
		t.Helper()
		for _, c := range rec.Checks {
			if !c.OK && !strings.HasPrefix(c.Name, "generator:") { // a loaded test box may pace late
				t.Errorf("%s: check failed: %s: %s", rec.Workload, c.Name, c.Detail)
			}
		}
		if !rec.Correct || rec.Attempted < 1 || rec.Failed != 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", rec.Workload, rec.Correct, rec.Attempted, rec.Failed)
		}
		line, err := finalLine(rec)
		if err != nil {
			t.Fatalf("%s: %v", rec.Workload, err)
		}
		var got struct {
			Metrics map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal(line, &got); err != nil {
			t.Fatal(err)
		}
		for _, d := range catalog {
			if d.E2E != (rec.Trace == 0) {
				continue
			}
			v, ok := got.Metrics[d.Name]
			if !ok || v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s trace=%d: metric %s = %+v (present=%v)", rec.Workload, rec.Trace, d.Name, v, ok)
			}
			if d.E2E && v.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", rec.Workload, d.Name, v.Value)
			}
		}
	}
	for _, w := range []string{wlBatchSet, wlFleet, wlNode} {
		rec, err := runWorkload(w, devSeed, smokeSeconds, 0, true, t.TempDir(), t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		check(rec)
	}
	traceDir := t.TempDir()
	rec, err := runWorkload(wlBatchItem, devSeed, smokeSeconds, 1, true, t.TempDir(), traceDir)
	if err != nil {
		t.Fatal(err)
	}
	check(rec)
	data, err := os.ReadFile(traceDir + "/trace-" + wlBatchItem + ".json")
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil || len(spans) == 0 {
		t.Fatalf("span file: %d spans, %v", len(spans), err)
	}
}

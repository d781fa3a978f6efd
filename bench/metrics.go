package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"time"
)

// The four workloads, in run order.
const (
	wlBatchItem = "batch_item"
	wlBatchSet  = "batch_set"
	wlFleet     = "fleet_ingest"
	wlNode      = "node_reads"
)

type workloadDef struct {
	Name string
	Why  string // one line, copied into BENCHMARK.json
}

var workloads = []workloadDef{
	{wlBatchItem, "paper single-item campaign (IDUE), one thread: all work is in core/mech/rng/bitvec/agg/estimate, every service layer idle"},
	{wlBatchSet, "same campaign for item-set input (IDUE-PS, padding-and-sampling over m+l bits): a gain for IDUE that costs IDUE-PS shows as its own row"},
	{wlFleet, "write-heavy service path: gob-TCP ingest into 2 leaves -> mid -> top registry with HMAC pushes, checkpoints and history; read handlers nearly idle"},
	{wlNode, "read-heavy single node: cached live, windowed and time-travel HTTP reads beside paced HTTP writes; transport/registry/varpack idle"},
}

var (
	batchWorkloads   = []string{wlBatchItem, wlBatchSet}
	serviceWorkloads = []string{wlFleet, wlNode}
	allWorkloads     = []string{wlBatchItem, wlBatchSet, wlFleet, wlNode}
	fleetOnly        = []string{wlFleet}
	nodeOnly         = []string{wlNode}
)

// metricDef is one row of the catalog. Native lists the workloads that
// measure the metric themselves; nil means the layer walk measures it
// (the same procedure whatever the workload). On a traced run a metric
// that is not native to the selected workload is taken from a
// smoke-scale pass of its first native workload, so every per-layer
// metric is a real measurement on every workload.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median
	E2E    bool
	Native []string
}

func e2e(name, unit, better string, bound float64) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better, Bound: bound, E2E: true, Native: allWorkloads}
}

func live(name, unit, better string, native []string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better, Native: native}
}

func walk(name, unit, better string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better}
}

// catalog is the single source of the metric names: BENCHMARK.json is
// generated from it (bench -manifest) and a test keeps the two equal.
//
// The contract prints every end-to-end metric on every workload, so
// only metrics all four workloads measure natively are end-to-end; the
// issue's service-only headline metrics (ack, tail lag, history reads,
// write latency, wire bytes) keep their names as per-layer metrics.
var catalog = []metricDef{
	e2e("setup_s", "s", "lower", 0.25),
	e2e("reports_per_s", "reports/s", "higher", 0.20),
	e2e("reads_per_s", "reads/s", "higher", 0.25),
	e2e("peak_rss_mb", "MB", "lower", 0.25),

	// Demoted end-to-end metrics (service workloads only, or too noisy
	// to hold a bound on this sandbox); names as in the issue.
	live("visible_lag_p50_ms", "ms", "lower", allWorkloads),
	live("visible_lag_p95_ms", "ms", "lower", serviceWorkloads),
	live("ack_p50_ms", "ms", "lower", fleetOnly),
	live("ack_p95_ms", "ms", "lower", fleetOnly),
	live("wire_bytes_per_report", "bytes", "lower", fleetOnly),
	live("read_live_p50_us", "us", "lower", allWorkloads),
	live("read_live_p99_us", "us", "lower", allWorkloads),
	live("read_history_p50_us", "us", "lower", nodeOnly),
	live("read_history_p99_us", "us", "lower", nodeOnly),
	live("write_p95_us", "us", "lower", nodeOnly),
	live("failed_ratio", "ratio", "lower", allWorkloads),

	// core mech ps collect agg bitvec
	walk("core.perturb_item_ns", "ns", "lower"),
	walk("core.perturb_item_p99_ns", "ns", "lower"),
	walk("core.perturb_set_ns", "ns", "lower"),
	walk("core.perturb_set_p99_ns", "ns", "lower"),
	walk("core.perturb_allocs", "count", "lower"),
	walk("mech.bits_set_per_report", "count", "lower"),
	walk("ps.sample_ns", "ns", "lower"),
	live("collect.run_ns_per_report", "ns", "lower", batchWorkloads),
	walk("agg.add_ns", "ns", "lower"),
	walk("bitvec.accumulate_ns", "ns", "lower"),
	// opt dataset
	walk("opt.solve_opt0_ms", "ms", "lower"),
	walk("opt.solve_opt1_ms", "ms", "lower"),
	walk("opt.solve_opt2_ms", "ms", "lower"),
	walk("dataset.gen_ms", "ms", "lower"),
	// estimate
	walk("estimate.calibrate_us", "us", "lower"),
	live("estimate.mse_ratio", "ratio", "lower", allWorkloads),
	// transport flow
	walk("transport.send_report_ns", "ns", "lower"),
	walk("transport.send_ack_rtt_us", "us", "lower"),
	walk("transport.encode_ns", "ns", "lower"),
	walk("transport.decode_ns", "ns", "lower"),
	walk("transport.bytes_per_report", "bytes", "lower"),
	walk("transport.snapshot_us", "us", "lower"),
	live("flow.retries", "count", "lower", fleetOnly),
	live("flow.sheds", "count", "lower", fleetOnly),
	live("flow.backoff_ms", "ms", "lower", fleetOnly),
	// server
	walk("server.batcher_add_ns", "ns", "lower"),
	walk("server.flush_us", "us", "lower"),
	live("server.queue_wait_p50_us", "us", "lower", serviceWorkloads),
	live("server.queue_wait_p99_us", "us", "lower", serviceWorkloads),
	live("server.shard_fold_p50_us", "us", "lower", serviceWorkloads),
	live("server.shard_fold_p99_us", "us", "lower", serviceWorkloads),
	live("server.frames", "count", "lower", serviceWorkloads),
	live("server.reports_per_frame", "count", "higher", serviceWorkloads),
	live("server.shed_reports", "count", "lower", serviceWorkloads),
	live("server.shed_reject_reports", "count", "lower", serviceWorkloads),
	walk("server.snapshot_us", "us", "lower"),
	live("server.checkpoint_write_p50_ms", "ms", "lower", fleetOnly),
	live("server.restore_ms", "ms", "lower", fleetOnly),
	live("server.drain_ms", "ms", "lower", fleetOnly),
	// stream
	walk("stream.publish_us", "us", "lower"),
	walk("stream.window_push_us", "us", "lower"),
	walk("stream.updater_apply_us", "us", "lower"),
	live("stream.generations", "count", "higher", serviceWorkloads),
	live("stream.resyncs", "count", "lower", serviceWorkloads),
	// varpack
	walk("varpack.pack_us", "us", "lower"),
	walk("varpack.unpack_us", "us", "lower"),
	walk("varpack.pack_delta_us", "us", "lower"),
	walk("varpack.unpack_delta_us", "us", "lower"),
	walk("varpack.delta_bytes", "bytes", "lower"),
	// registry telemetry
	walk("registry.sign_verify_us", "us", "lower"),
	walk("registry.push_us", "us", "lower"),
	live("registry.push_rtt_p50_us", "us", "lower", fleetOnly),
	live("registry.push_rtt_p99_us", "us", "lower", fleetOnly),
	live("registry.pushes", "count", "lower", fleetOnly),
	live("registry.resyncs", "count", "lower", fleetOnly),
	live("registry.rejects", "count", "lower", fleetOnly),
	live("registry.delta_bytes", "bytes", "lower", fleetOnly),
	live("registry.poll_equiv_bytes", "bytes", "lower", fleetOnly),
	walk("telemetry.observe_ns", "ns", "lower"),
	walk("telemetry.snapshot_pack_us", "us", "lower"),
	walk("telemetry.heartbeat_bytes", "bytes", "lower"),
	// checkpoint history
	walk("checkpoint.save_ms", "ms", "lower"),
	walk("checkpoint.load_ms", "ms", "lower"),
	walk("checkpoint.bytes", "bytes", "lower"),
	walk("history.append_us", "us", "lower"),
	walk("history.append_bytes", "bytes", "lower"),
	walk("history.open_ms", "ms", "lower"),
	walk("history.cumulative_at_us", "us", "lower"),
	walk("history.range_us", "us", "lower"),
	walk("history.segments", "count", "lower"),
	// httpapi readcache
	walk("httpapi.post_report_us", "us", "lower"),
	walk("httpapi.post_batch_us", "us", "lower"),
	walk("httpapi.get_live_us", "us", "lower"),
	walk("httpapi.get_window_us", "us", "lower"),
	walk("httpapi.get_at_us", "us", "lower"),
	walk("httpapi.get_range_us", "us", "lower"),
	live("httpapi.calibration_p50_us", "us", "lower", serviceWorkloads),
	live("httpapi.sse_publish_p50_us", "us", "lower", serviceWorkloads),
	live("httpapi.calibrations_per_generation", "ratio", "lower", serviceWorkloads),
	live("httpapi.sse_event_bytes", "bytes", "lower", serviceWorkloads),
	walk("readcache.get_ns", "ns", "lower"),
	walk("readcache.put_ns", "ns", "lower"),
	live("readcache.hit_ratio", "ratio", "higher", serviceWorkloads),
	// bench: validity of the run itself
	live("bench.gen_late_p95_ms", "ms", "lower", serviceWorkloads),
	live("bench.trace_overhead_pct", "%", "lower", allWorkloads),
	walk("bench.residual_pct", "%", "lower"),
	live("bench.gc_pause_ms", "ms", "lower", allWorkloads),
	live("bench.alloc_bytes_per_report", "bytes", "lower", allWorkloads),
}

// manifestJSON renders BENCHMARK.json from the catalog, in the schema
// of the driver's contract.
func manifestJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2eRow struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layerRow struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var (
		wls    []wl
		e2es   []e2eRow
		layers []layerRow
	)
	for _, w := range workloads {
		wls = append(wls, wl{w.Name, w.Why})
	}
	for _, d := range catalog {
		if d.E2E {
			e2es = append(e2es, e2eRow{d.Name, d.Unit, d.Better, d.Bound})
		} else {
			layers = append(layers, layerRow{d.Name, d.Unit, d.Better})
		}
	}
	out, err := json.MarshalIndent(map[string]any{
		"command":     []string{"bash", "bench/run.sh"},
		"paths":       []string{"bench"},
		"run_seconds": int(defaultSeconds),
		"workloads":   wls,
		"end_to_end":  e2es,
		"per_layer":   layers,
	}, "", "  ")
	if err != nil {
		panic(err) // static data: cannot fail
	}
	return append(out, '\n')
}

func catalogByName() map[string]metricDef {
	m := make(map[string]metricDef, len(catalog))
	for _, d := range catalog {
		m[d.Name] = d
	}
	return m
}

func nativeTo(d metricDef, workload string) bool {
	for _, w := range d.Native {
		if w == workload {
			return true
		}
	}
	return false
}

// measured is what one pass of a workload (or the walk) produced:
// values by metric name, and how many samples stand behind each timing.
type measured struct {
	values  map[string]float64
	samples map[string]int
}

func newMeasured() *measured {
	return &measured{values: map[string]float64{}, samples: map[string]int{}}
}

func (m *measured) set(name string, v float64) { m.values[name] = v }

func (m *measured) setN(name string, v float64, n int) {
	m.values[name] = v
	m.samples[name] = n
}

// check is one correctness or generator-health verdict of a run.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// quantile returns the nearest-rank q-quantile of sorted (ascending).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// tailPercentiles are the candidates of the reporting rule, ascending.
var tailPercentiles = []float64{0.90, 0.95, 0.99, 0.999}

// highestPercentile applies the reporting rule: the highest percentile
// that still has at least ten samples beyond it. ok is false when even
// p90 is not supported (fewer than 100 samples).
func highestPercentile(n int) (q float64, ok bool) {
	for _, p := range tailPercentiles {
		if float64(n)*(1-p) >= 10-1e-9 {
			q, ok = p, true
		}
	}
	return q, ok
}

// durations is a sample of latencies with the quantile helpers the
// workloads need.
type durations []time.Duration

func (d durations) sortedIn(unit time.Duration) []float64 {
	out := make([]float64, len(d))
	for i, x := range d {
		out[i] = float64(x) / float64(unit)
	}
	sort.Float64s(out)
	return out
}

// put records q-quantiles of d under the given names, in unit.
func (d durations) put(m *measured, unit time.Duration, names map[float64]string) {
	if len(d) == 0 {
		return
	}
	s := d.sortedIn(unit)
	for q, name := range names {
		m.setN(name, quantile(s, q), len(s))
	}
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// fnv64 hashes a counts vector (FNV-1a over the little-endian bytes) so
// two runs of one seed can be compared for exact equality by one token.
func fnv64(counts []int64, n int64) string {
	h := fnv.New64a()
	var b [8]byte
	for _, c := range append(counts[:len(counts):len(counts)], n) {
		binary.LittleEndian.PutUint64(b[:], uint64(c))
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"idldp/internal/core"
	"idldp/internal/history"
	"idldp/internal/httpapi"
	"idldp/internal/server"
	"idldp/internal/stream"
	"idldp/internal/telemetry"
)

// nodeScale sizes node_reads: the pre-filled history, the report pool
// the writer cycles through and the writer's rate.
type nodeScale struct {
	generations int     // history pre-filled through Store.Append
	perGen      int     // reports per pre-filled generation
	segment     int     // history records per segment
	rangeSpan   int     // generations a ?from&to read spans; every rangeSpan-th keeps reference counts
	pool        int     // distinct reports the writer POSTs
	writeRate   float64 // POST /v1/report per second
}

func nodeScaleFor(smoke bool) nodeScale {
	if smoke {
		return nodeScale{generations: 128, perGen: 8, segment: 32, rangeSpan: 16, pool: 256, writeRate: 500}
	}
	return nodeScale{generations: 2048, perGen: 40, segment: 128, rangeSpan: 64, pool: 8192, writeRate: 250}
}

// genRef is the reference state of one pre-filled generation: what a
// time-travel read of it must calibrate to, bit for bit.
type genRef struct {
	counts []int64
	n      int64
}

// nodeState is node_reads set up: one streaming node with a pre-filled,
// resumed history log, served on a loopback port.
type nodeState struct {
	eng    *core.Engine
	bodies [][]byte // pre-marshaled POST /v1/report bodies of the pool
	refs   map[uint64]genRef
	baseN  int64 // reports behind the pre-filled generations
	baseG  uint64
	// Seed-determined facts of the input: the hash of the pre-filled
	// counts, and the pool's utility ratio (see poolMSERatio).
	baseFNV  string
	mseRatio float64

	tel     *telemetry.Registry
	sink    *server.Server
	hist    *history.Store
	handler *httpapi.Handler
	http    *httpService
}

func (st *nodeState) Close() error {
	if st.http != nil {
		st.http.Close()
	}
	if st.handler != nil {
		st.handler.Close() // closes the sink it owns
	}
	if st.hist != nil {
		st.hist.Close()
	}
	return nil
}

func setupNode(e *env) (any, error) {
	sc := nodeScaleFor(e.smoke)
	users := sc.generations*sc.perGen + sc.pool
	in, err := setupItem(e.seed, users)
	if err != nil {
		return nil, err
	}
	reports := perturbPool(in.eng, in.items, e.seed+1)
	bits := in.eng.M()
	st := &nodeState{eng: in.eng, refs: map[uint64]genRef{}, tel: telemetry.NewRegistry("idldp")}
	ok := false
	defer func() {
		if !ok {
			st.Close()
		}
	}()

	// Pre-fill: publish one cumulative snapshot per generation through a
	// stream.Publisher and append the frames it emits, exactly what a
	// live node's consumer would have spilled.
	dir := filepath.Join(e.tmp, "node-history")
	cfg := history.Config{SegmentRecords: sc.segment, KeepSegments: 4 * sc.generations / sc.segment}
	fill := cfg
	fill.NoSync = true // a past life's log: its fsyncs are not this run's cost
	hist, err := history.Open(dir, bits, fill)
	if err != nil {
		return nil, err
	}
	pub, err := stream.NewPublisher(bits)
	if err != nil {
		return nil, err
	}
	sub, err := pub.Subscribe(4)
	if err != nil {
		return nil, err
	}
	<-sub.C() // the subscription's opening resync of the empty state
	cum := make([]int64, bits)
	var n int64
	for g := 0; g < sc.generations; g++ {
		for _, v := range reports[g*sc.perGen : (g+1)*sc.perGen] {
			v.AccumulateInto(cum)
		}
		n += int64(sc.perGen)
		if err := pub.Publish(append([]int64(nil), cum...), n); err != nil {
			return nil, err
		}
		d := <-sub.C()
		if err := hist.Append(d); err != nil {
			return nil, fmt.Errorf("prefill generation %d: %w", g, err)
		}
		if d.Seq%uint64(sc.rangeSpan) == 0 {
			st.refs[d.Seq] = genRef{counts: append([]int64(nil), cum...), n: n}
		}
	}
	sub.Close()
	pub.Close()
	if err := hist.Close(); err != nil {
		return nil, err
	}

	// The node's present life: reopen the log, resume the publisher's
	// numbering from it and restore the counts, as a restart would.
	if st.hist, err = history.Open(dir, bits, cfg); err != nil {
		return nil, err
	}
	counts, hn, seq := st.hist.State()
	if hn != n || !equalCounts(counts, cum) {
		return nil, fmt.Errorf("reopened history holds n=%d, pre-filled n=%d", hn, n)
	}
	st.baseN, st.baseG, st.baseFNV = hn, seq, fnv64(counts, hn)
	if st.mseRatio, err = poolMSERatio(in.eng, in.items, reports); err != nil {
		return nil, err
	}
	st.sink, err = server.New(bits, server.WithShards(1), server.WithStream(streamInterval),
		server.WithStreamResume(counts, hn, seq), server.WithTelemetry(st.tel))
	if err != nil {
		return nil, err
	}
	if err := st.sink.AddCounts(append([]int64(nil), counts...), hn); err != nil {
		st.sink.Close()
		return nil, err
	}
	st.handler, err = httpapi.NewSinkStreaming(st.sink, in.eng.EstimateSingle,
		httpapi.StreamConfig{Interval: streamInterval, Window: liveWindow, History: st.hist})
	if err != nil {
		return nil, err
	}
	st.handler.SetTelemetry(st.tel)
	if st.http, err = serveHTTP(st.handler); err != nil {
		return nil, err
	}

	for _, v := range reports[sc.generations*sc.perGen:] {
		body, err := json.Marshal(map[string]any{"words": v.Words(), "bits": v.Len()})
		if err != nil {
			return nil, err
		}
		st.bodies = append(st.bodies, body)
	}
	ok = true
	return st, nil
}

// readKind is one of the reader's request shapes.
type readKind int

const (
	readLive readKind = iota
	readWindow
	readAt
	readRange
)

// readCycle is the reader's fixed mix: 5 live, 1 windowed, 1 ?at, 1 ?from&to.
var readCycle = []readKind{readLive, readLive, readLive, readLive, readLive, readWindow, readAt, readRange}

// reader is the closed-loop analyst of node_reads.
type reader struct {
	st     *nodeState
	sc     nodeScale
	obs    *sseObserver
	client *http.Client
	buf    bytes.Buffer // reused response body
	tr     *tracer

	live, hist         durations
	rate               *rateWindows
	reads, failed      int64
	liveSeen           map[int64]uint64 // reports n -> hash of the live body seen at it
	atChecked, atWrong int
	refChecked         int
	refWrong           []string
}

func bodyHash(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// reportsOf reads the trailing "reports":N of an estimates body.
func reportsOf(body []byte) (int64, bool) {
	key := []byte(`"reports":`)
	i := bytes.LastIndex(body, key)
	if i < 0 {
		return 0, false
	}
	j := i + len(key)
	k := j
	for k < len(body) && body[k] >= '0' && body[k] <= '9' {
		k++
	}
	n, err := strconv.ParseInt(string(body[j:k]), 10, 64)
	return n, err == nil
}

// run cycles the read mix until stop closes.
func (r *reader) run(stop <-chan struct{}) {
	base := r.st.http.base + "/v1/estimates"
	refSeqs := make([]uint64, 0, len(r.st.refs))
	for g := uint64(r.sc.rangeSpan); g <= r.st.baseG; g += uint64(r.sc.rangeSpan) {
		if _, ok := r.st.refs[g]; ok {
			refSeqs = append(refSeqs, g)
		}
	}
	for k := 0; ; k++ {
		select {
		case <-stop:
			return
		default:
		}
		kind := readCycle[k%len(readCycle)]
		url, name := base, "httpapi.GET live"
		var refTo uint64 // set when the answer has a bench-side reference
		recent := k/len(readCycle)%2 == 0
		switch kind {
		case readWindow:
			url, name = base+"?window=8", "httpapi.GET window"
		case readAt:
			name = "httpapi.GET at"
			if seq := r.obs.lastSeq.Load(); recent && seq > r.st.baseG+2 {
				url = fmt.Sprintf("%s?at=%d", base, seq-1-uint64(k/len(readCycle)%4))
			} else {
				refTo = refSeqs[k/len(readCycle)%len(refSeqs)]
				url = fmt.Sprintf("%s?at=%d", base, refTo)
			}
		case readRange:
			name = "httpapi.GET range"
			to := r.obs.lastSeq.Load()
			if !recent || to <= r.st.baseG {
				// Both ends on reference generations, one span apart.
				i := 1 + k/len(readCycle)%(len(refSeqs)-1)
				to, refTo = refSeqs[i], refSeqs[i]
			}
			url = fmt.Sprintf("%s?from=%d&to=%d", base, to-uint64(r.sc.rangeSpan), to)
		}
		h := r.tr.begin(name, uint64(k), -1)
		t0 := time.Now()
		status, err := getInto(r.client, url, &r.buf)
		d := time.Since(t0)
		body := r.buf.Bytes()
		r.tr.end(h)
		r.reads++
		if err != nil || status/100 != 2 {
			r.failed++
			continue
		}
		r.rate.add(1)
		switch kind {
		case readLive:
			r.live = append(r.live, d)
			if n, ok := reportsOf(body); ok {
				r.liveSeen[n] = bodyHash(body)
			}
		case readWindow:
			r.live = append(r.live, d)
		case readAt:
			r.hist = append(r.hist, d)
			if refTo != 0 {
				r.checkRef(body, r.st.refs[refTo], genRef{}, url)
			} else if n, ok := reportsOf(body); ok {
				if seen, ok := r.liveSeen[n]; ok {
					r.atChecked++
					if seen != bodyHash(body) {
						r.atWrong++
					}
				}
			}
		case readRange:
			r.hist = append(r.hist, d)
			if refTo != 0 {
				r.checkRef(body, r.st.refs[refTo], r.st.refs[refTo-uint64(r.sc.rangeSpan)], url)
			}
		}
	}
}

// checkRef compares a time-travel answer over a pre-filled span with a
// direct calibration of the reference counts to-from, bit for bit (a
// zero from means the cumulative state at to).
func (r *reader) checkRef(body []byte, to, from genRef, url string) {
	var v struct {
		Estimates []float64 `json:"estimates"`
		Reports   int64     `json:"reports"`
	}
	r.refChecked++
	if err := json.Unmarshal(body, &v); err != nil {
		r.refWrong = append(r.refWrong, url+": "+err.Error())
		return
	}
	diff := append([]int64(nil), to.counts...)
	for i, c := range from.counts {
		diff[i] -= c
	}
	want, err := r.st.eng.EstimateSingle(diff, int(to.n-from.n))
	if err != nil || v.Reports != to.n-from.n || !equalFloats(v.Estimates, want) {
		r.refWrong = append(r.refWrong, fmt.Sprintf("%s: reports=%d want %d (%v)", url, v.Reports, to.n-from.n, err))
	}
}

func runNode(e *env, state any) (*outcome, error) {
	st := state.(*nodeState)
	sc := nodeScaleFor(e.smoke)
	out := newOutcome()
	m := out.m

	lagS := &lagSampler{}
	obs, err := observeSSE(st.http.base+"/v1/estimates/stream", lagS.onEvent)
	if err != nil {
		return nil, err
	}
	defer obs.close()
	genSub, err := st.sink.Subscribe(64)
	if err != nil {
		return nil, err
	}
	gens := countGenerations(genSub)
	telBefore := st.tel.Snapshot()
	section := beginSection()

	limit := time.Duration(e.seconds * float64(time.Second))
	start := time.Now()
	pc := newPacer(start, time.Duration(float64(time.Second)/sc.writeRate))
	scheduled := pc.scheduled(limit)
	log := newSendLog(start, scheduled)
	lagS.arm(log, st.baseN)

	stop := make(chan struct{})
	rd := &reader{st: st, sc: sc, obs: obs, client: &http.Client{}, tr: e.tr, liveSeen: map[int64]uint64{}, rate: newRateWindows(start)}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rd.run(stop)
	}()

	// The writer: open loop on its own keep-alive connection, so the
	// generations keep invalidating the read cache at a fixed pace.
	writer := &http.Client{}
	var writes durations
	var posted, writeFailed int64
	for k := 0; k < scheduled && time.Since(start) < limit; k++ {
		due := pc.wait(k)
		h := e.tr.begin("httpapi.POST /v1/report", uint64(k), -1)
		resp, err := writer.Post(st.http.base+"/v1/report", "application/json", bytes.NewReader(st.bodies[k%len(st.bodies)]))
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
			resp.Body.Close()
		}
		e.tr.end(h)
		if err != nil || resp.StatusCode/100 != 2 {
			writeFailed++
			continue
		}
		now := time.Now()
		log.sent(now)
		writes = append(writes, now.Sub(due))
		posted++
	}
	elapsed := time.Since(start)
	close(stop)
	wg.Wait()
	sawLast := obs.waitN(st.baseN+posted, 5*time.Second)
	gcPause, alloc := section.end()
	writer.CloseIdleConnections()
	rd.client.CloseIdleConnections()

	m.set("reports_per_s", float64(posted)/elapsed.Seconds())
	// The reader's rate is its median 250 ms window (see rateWindows).
	rate, windows := rd.rate.median(start.Add(limit))
	m.setN("reads_per_s", rate, windows)
	rd.live.put(m, time.Microsecond, map[float64]string{0.5: "read_live_p50_us", 0.99: "read_live_p99_us"})
	rd.hist.put(m, time.Microsecond, map[float64]string{0.5: "read_history_p50_us", 0.99: "read_history_p99_us"})
	writes.put(m, time.Microsecond, map[float64]string{0.95: "write_p95_us"})
	lagS.samples().put(m, time.Millisecond, map[float64]string{0.5: "visible_lag_p50_ms", 0.95: "visible_lag_p95_ms"})
	pc.late.put(m, time.Millisecond, map[float64]string{0.95: "bench.gen_late_p95_ms"})
	m.set("bench.gc_pause_ms", gcPause)
	m.set("bench.alloc_bytes_per_report", alloc/float64(max(posted, 1)))

	tel := st.tel.Snapshot().Sub(telBefore)
	putHist(m, tel, "ingest_queue_wait", time.Microsecond, map[float64]string{0.5: "server.queue_wait_p50_us", 0.99: "server.queue_wait_p99_us"})
	putHist(m, tel, "shard_fold", time.Microsecond, map[float64]string{0.5: "server.shard_fold_p50_us", 0.99: "server.shard_fold_p99_us"})
	putHist(m, tel, "incremental_calibration", time.Microsecond, map[float64]string{0.5: "httpapi.calibration_p50_us"})
	putHist(m, tel, "sse_publish", time.Microsecond, map[float64]string{0.5: "httpapi.sse_publish_p50_us"})
	ss := st.sink.Stats()
	m.set("server.frames", float64(ss.Frames))
	if ss.Frames > 0 {
		m.set("server.reports_per_frame", float64(ss.Reports)/float64(ss.Frames))
	}
	m.set("server.shed_reports", float64(ss.ShedReports))
	m.set("server.shed_reject_reports", float64(ss.ShedRejectReports))
	if err := readPathStats(m, st.http.base); err != nil {
		return nil, err
	}
	if ev := obs.events.Load(); ev > 0 {
		m.set("httpapi.sse_event_bytes", float64(obs.bytes.Load())/float64(ev))
	}
	g, rs := gens.stop()
	m.set("stream.generations", float64(g))
	m.set("stream.resyncs", float64(rs))

	m.set("estimate.mse_ratio", st.mseRatio)
	_, n := st.sink.Snapshot()
	out.check("node n == pre-filled + posted", n == st.baseN+posted, fmt.Sprintf("n=%d want %d", n, st.baseN+posted))
	out.exact["counts_fnv"] = st.baseFNV

	out.check("every response 2xx", rd.failed == 0 && writeFailed == 0,
		fmt.Sprintf("%d reads and %d writes failed", rd.failed, writeFailed))
	out.check("?at=g body == live body seen at generation g", rd.atChecked > 0 && rd.atWrong == 0,
		fmt.Sprintf("%d compared, %d differ", rd.atChecked, rd.atWrong))
	out.check("?at / ?from&to over pre-filled history == direct calibration", rd.refChecked > 0 && len(rd.refWrong) == 0,
		fmt.Sprintf("%d compared, %d differ %v", rd.refChecked, len(rd.refWrong), firstN(rd.refWrong, 2)))
	out.check("observer saw the last posted report", sawLast, fmt.Sprintf("last n=%d want %d", obs.lastN.Load(), st.baseN+posted))
	// No lateness guard here: the closed-loop reader keeps both cores
	// busy by design, so how late the writer runs (reported as
	// bench.gen_late_p95_ms and charged to write_p95_us) is a result of
	// the node, not a fault of the generator. Falling behind the
	// schedule altogether still invalidates the run.
	out.check("generator: writer sent >= 99% of scheduled posts", posted*100 >= int64(scheduled)*99, fmt.Sprintf("%d of %d", posted, scheduled))

	out.attempted = int64(scheduled) + rd.reads
	out.failed = writeFailed + rd.failed + ss.ShedReports + ss.ShedRejectReports
	return out, nil
}

func firstN(s []string, n int) []string {
	if len(s) > n {
		return s[:n]
	}
	return s
}

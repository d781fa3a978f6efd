package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"idldp/internal/bitvec"
	"idldp/internal/core"
	"idldp/internal/flow"
	"idldp/internal/history"
	"idldp/internal/httpapi"
	"idldp/internal/registry"
	"idldp/internal/server"
	"idldp/internal/stream"
	"idldp/internal/telemetry"
	"idldp/internal/transport"
)

const (
	fleetToken     = "bench-fleet"
	streamInterval = 20 * time.Millisecond
	frameReports   = 64 // every 64th report is acked; a paced frame is 64 reports
	liveWindow     = 32
	convergeWait   = 30 * time.Second
)

// fleetScale sizes fleet_ingest: the pre-perturbed pool the senders
// cycle through, the paced phase's rate, and the analyst's poll rate.
type fleetScale struct {
	pool      int
	pacedRate float64 // reports/s into leaf-0
	pollRate  float64 // GET /v1/estimates per second on the top
}

func fleetScaleFor(smoke bool) fleetScale {
	if smoke {
		return fleetScale{pool: 1024, pacedRate: 5_000, pollRate: 50}
	}
	return fleetScale{pool: 32_768, pacedRate: 25_000, pollRate: 100}
}

// leaf is one collector node: a durable streaming sink behind a
// byte-counting gob-TCP listener, announcing to the mid tier.
type leaf struct {
	name string
	opts []server.Option
	tel  *telemetry.Registry
	sink *server.Server
	lis  *countingListener
	srv  *transport.Server
	ann  *registry.Announcer
	addr string
}

// merger is one registry tier with its control-plane listener.
type merger struct {
	tel *telemetry.Registry
	reg *registry.Registry
	srv *transport.RegistryServer
	up  *registry.Announcer // nil on the top
}

// fleetState is fleet_ingest set up: generated inputs plus the running
// topology 2 leaves -> mid -> top, with the top's live read surface and
// history log.
type fleetState struct {
	eng   *core.Engine
	pool  []*bitvec.Vector
	items []int
	auth  *registry.Authenticator

	leaves  []*leaf
	mid     *merger
	top     *merger
	hist    *history.Store
	histDir string
	live    *httpapi.LiveHandler
	http    *httpService
}

func (st *fleetState) Close() error {
	for _, l := range st.leaves {
		if l.srv != nil {
			l.srv.Close()
		}
		if l.sink != nil {
			l.sink.Close()
		}
		if l.ann != nil {
			l.ann.Close()
		}
	}
	if st.mid != nil {
		st.mid.up.Close()
		st.mid.srv.Close()
		st.mid.reg.Close()
	}
	if st.http != nil {
		st.http.Close()
	}
	if st.live != nil {
		st.live.Close()
	}
	if st.top != nil {
		st.top.srv.Close()
		st.top.reg.Close()
	}
	if st.hist != nil {
		st.hist.Close()
	}
	return nil
}

func newMerger(bits int, auth *registry.Authenticator) (*merger, error) {
	tel := telemetry.NewRegistry("idldp")
	reg, err := registry.New(bits, registry.WithAuth(auth),
		registry.WithHeartbeat(200*time.Millisecond, 25), registry.WithTelemetry(tel))
	if err != nil {
		return nil, err
	}
	srv, err := transport.ServeRegistry("127.0.0.1:0", reg)
	if err != nil {
		reg.Close()
		return nil, err
	}
	return &merger{tel: tel, reg: reg, srv: srv}, nil
}

func dialRegistry(addr string) func(context.Context) (registry.Conn, error) {
	return func(ctx context.Context) (registry.Conn, error) { return transport.DialRegistry(ctx, addr) }
}

func (l *leaf) start(bits int, auth *registry.Authenticator, midAddr string) error {
	var err error
	if l.sink, err = server.New(bits, l.opts...); err != nil {
		return err
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	l.lis = &countingListener{Listener: lis}
	l.addr = lis.Addr().String()
	l.srv = transport.ServeSinkListener(l.lis, l.sink)
	l.ann, err = registry.Announce(registry.AnnounceConfig{
		Name: l.name, Bits: bits, Kind: "node", Auth: auth,
		Dial: dialRegistry(midAddr), Subscribe: l.sink.Subscribe,
		Telemetry: l.tel, SnapshotTelemetry: l.tel.Snapshot,
		Backoff: 10 * time.Millisecond,
	})
	return err
}

func waitFor(what string, d time.Duration, cond func() bool) error {
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out after %v waiting for %s", d, what)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

func registered(reg *registry.Registry, want int) bool {
	n := 0
	for _, m := range reg.Status() {
		if m.Registered && !m.NeedResync {
			n++
		}
	}
	return n >= want
}

func setupFleet(e *env) (any, error) {
	sc := fleetScaleFor(e.smoke)
	in, err := setupItem(e.seed, sc.pool)
	if err != nil {
		return nil, err
	}
	st := &fleetState{eng: in.eng, items: in.items, pool: perturbPool(in.eng, in.items, e.seed+1)}
	ok := false
	defer func() {
		if !ok {
			st.Close()
		}
	}()
	if st.auth, err = registry.NewAuthenticator(fleetToken); err != nil {
		return nil, err
	}
	bits := in.eng.M()
	if st.top, err = newMerger(bits, st.auth); err != nil {
		return nil, err
	}
	st.histDir = filepath.Join(e.tmp, "top-history")
	if st.hist, err = history.Open(st.histDir, bits, history.Config{}); err != nil {
		return nil, err
	}
	sub, err := st.top.reg.Subscribe(64)
	if err != nil {
		return nil, err
	}
	if st.live, err = httpapi.NewLiveWithHistory(sub, bits, in.eng.EstimateSingle, liveWindow, st.hist); err != nil {
		return nil, err
	}
	st.live.SetTelemetry(st.top.tel)
	if st.http, err = serveHTTP(st.live); err != nil {
		return nil, err
	}
	if st.mid, err = newMerger(bits, st.auth); err != nil {
		return nil, err
	}
	mid := st.mid
	mid.up, err = registry.Announce(registry.AnnounceConfig{
		Name: "mid-0", Bits: bits, Kind: "merger", Auth: st.auth,
		Dial: dialRegistry(st.top.srv.Addr()), Subscribe: mid.reg.Subscribe,
		Telemetry:         mid.tel,
		SnapshotTelemetry: func() *telemetry.Snapshot { return mid.reg.Federation().Merged() },
		Backoff:           10 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < 2; i++ {
		tel := telemetry.NewRegistry("idldp")
		l := &leaf{name: fmt.Sprintf("leaf-%d", i), tel: tel, opts: []server.Option{
			server.WithShards(1), server.WithStream(streamInterval),
			server.WithCheckpoint(filepath.Join(e.tmp, fmt.Sprintf("leaf-%d-ckpt", i)), time.Second),
			server.WithTelemetry(tel),
		}}
		st.leaves = append(st.leaves, l)
		if err := l.start(bits, st.auth, mid.srv.Addr()); err != nil {
			return nil, err
		}
	}
	if err := waitFor("fleet registration", convergeWait, func() bool {
		return registered(mid.reg, 2) && registered(st.top.reg, 1)
	}); err != nil {
		return nil, err
	}
	ok = true
	return st, nil
}

// sendFrame streams one 64-report frame from the pool starting at
// index at: 63 plain reports, then one acked report (the ack promises
// fold and flush). after, when set, runs after every report is sent.
func sendFrame(ctx context.Context, c *transport.Client, pool []*bitvec.Vector, at int, after func()) error {
	for i := 0; i < frameReports; i++ {
		v := pool[(at+i)%len(pool)]
		var err error
		if i == frameReports-1 {
			err = c.SendReportAck(ctx, v)
		} else {
			err = c.SendReport(v)
		}
		if err != nil {
			return err
		}
		if after != nil {
			after()
		}
	}
	return nil
}

// genCounter passively counts a delta stream's generations and resyncs
// (beyond the subscription's opening one) until the stream closes.
type genCounter struct {
	sub          *stream.Sub
	done         chan struct{}
	gens, resync int64 // owned by the goroutine until done closes
}

func countGenerations(sub *stream.Sub) *genCounter {
	g := &genCounter{sub: sub, done: make(chan struct{})}
	go func() {
		defer close(g.done)
		first := true
		for d := range sub.C() {
			if d.Resync && !first {
				g.resync++
			}
			if !d.Empty() {
				g.gens++
			}
			first = false
		}
	}()
	return g
}

func (g *genCounter) stop() (gens, resyncs int64) {
	g.sub.Close()
	<-g.done
	return g.gens, g.resync
}

// putHist records quantiles of one telemetry histogram, when it has
// observations.
func putHist(m *measured, s *telemetry.Snapshot, hist string, unit time.Duration, names map[float64]string) {
	h := s.Hist(hist + "_seconds")
	if h == nil || h.Count == 0 {
		return
	}
	for q, name := range names {
		m.setN(name, float64(h.Quantile(q))/float64(unit), int(h.Count))
	}
}

// telBaseline is the daemons' registries as the timed section starts.
type telBaseline struct {
	leaves   []*telemetry.Snapshot
	mid, top *telemetry.Snapshot
}

func (st *fleetState) telemetryNow() telBaseline {
	b := telBaseline{mid: st.mid.tel.Snapshot(), top: st.top.tel.Snapshot()}
	for _, l := range st.leaves {
		b.leaves = append(b.leaves, l.tel.Snapshot())
	}
	return b
}

func (st *fleetState) wireBytes() (n int64) {
	for _, l := range st.leaves {
		n += l.lis.read.Load()
	}
	return n
}

// visibleAtTop waits until the top merger's counts hold n reports.
func (st *fleetState) visibleAtTop(what string, n int64) error {
	return waitFor(what+" visible at the top", convergeWait, func() bool {
		_, got := st.top.reg.Counts()
		return got == n
	})
}

// saturate is the closed-loop phase: one connection per generator, each
// streaming pool reports as fast as its leaf takes them for d; it ends
// when every report sent is visible in the top merger's counts. It
// counts what it sent into uses and returns the total.
func (st *fleetState) saturate(e *env, m *measured, d time.Duration, uses []int64, fs *flow.Stats) (int64, error) {
	type sender struct {
		frames int64
		at     int // first pool index
		fs     flow.Stats
		rate   *rateWindows
		err    error
	}
	ctx := context.Background()
	senders := make([]sender, procs())
	wireBefore := st.wireBytes()
	var wg sync.WaitGroup
	start := time.Now()
	for i := range senders {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := &senders[i]
			r.at = i * len(st.pool) / len(senders)
			r.rate = newRateWindows(start)
			c, err := transport.Dial(ctx, st.leaves[i%len(st.leaves)].addr)
			if err != nil {
				r.err = err
				return
			}
			defer c.Close()
			for time.Since(start) < d {
				h := e.tr.begin("transport.SendFrame", uint64(i)<<32|uint64(r.frames), -1)
				err := sendFrame(ctx, c, st.pool, r.at+int(r.frames)*frameReports, nil)
				e.tr.end(h)
				if err != nil {
					r.err = err
					return
				}
				r.frames++
				r.rate.add(frameReports)
			}
			r.fs = c.FlowStats()
		}(i)
	}
	wg.Wait()
	var reports int64
	rate := newRateWindows(start)
	for i, r := range senders {
		if r.err != nil {
			return 0, fmt.Errorf("saturate sender %d: %w", i, r.err)
		}
		for k := 0; k < int(r.frames)*frameReports; k++ {
			uses[(r.at+k)%len(uses)]++
		}
		reports += r.frames * frameReports
		fs.Merge(r.fs)
		rate.merge(r.rate)
	}
	if err := st.visibleAtTop("saturate reports", reports); err != nil {
		return 0, err
	}
	// Sustained ingest: the median 250 ms window of acked frames (every
	// frame's last report is acked, so the senders never run further
	// ahead of the leaves than one frame plus the socket buffers).
	perSecond, windows := rate.median(start.Add(d))
	m.setN("reports_per_s", perSecond, windows)
	m.set("wire_bytes_per_report", float64(st.wireBytes()-wireBefore)/float64(reports))
	return reports, nil
}

// paced is the open-loop phase: one connection to leaf-0 at a fixed
// rate in 64-report frames for d, acks timed from each frame's due time,
// while one light analyst polls the top. Events the SSE observer sees
// are turned into lag samples by lagS. It returns the reports sent.
func (st *fleetState) paced(e *env, out *outcome, sc fleetScale, d time.Duration, base int64,
	lagS *lagSampler, uses []int64, fs *flow.Stats) (int64, error) {
	ctx := context.Background()
	start := time.Now()
	pc := newPacer(start, time.Duration(float64(frameReports)/sc.pacedRate*float64(time.Second)))
	frames := pc.scheduled(d)
	log := newSendLog(start, frames*frameReports)
	lagS.arm(log, base)

	stopPoll := make(chan struct{})
	pollDone := make(chan pollResult, 1)
	go func() {
		pollDone <- pollEstimates(st.http.base+"/v1/estimates", sc.pollRate, start, stopPoll, e.tr)
	}()
	endPoll := func() pollResult { close(stopPoll); return <-pollDone }

	c, err := transport.Dial(ctx, st.leaves[0].addr)
	if err != nil {
		endPoll()
		return 0, err
	}
	var acks durations
	at := len(st.pool) / 3
	sent := 0
	for ; sent < frames && time.Since(start) < d; sent++ {
		due := pc.wait(sent)
		h := e.tr.begin("transport.SendFrame", uint64(sent), -1)
		err := sendFrame(ctx, c, st.pool, at+sent*frameReports, func() { log.sent(time.Now()) })
		e.tr.end(h)
		if err != nil {
			endPoll()
			c.Close()
			return 0, fmt.Errorf("paced frame %d: %w", sent, err)
		}
		acks = append(acks, time.Since(due))
	}
	reports := int64(sent) * frameReports
	for k := 0; k < int(reports); k++ {
		uses[(at+k)%len(uses)]++
	}
	fs.Merge(c.FlowStats())
	// A leaf folds a connection's unacked reports in batches of 256 and
	// flushes the remainder when the connection ends.
	c.Close()
	err = st.visibleAtTop("paced reports", base+reports)
	poll := endPoll()
	if err != nil {
		return 0, err
	}

	m := out.m
	acks.put(m, time.Millisecond, map[float64]string{0.5: "ack_p50_ms", 0.95: "ack_p95_ms"})
	pc.late.put(m, time.Millisecond, map[float64]string{0.95: "bench.gen_late_p95_ms"})
	poll.lat.put(m, time.Microsecond, map[float64]string{0.5: "read_live_p50_us", 0.99: "read_live_p99_us"})
	m.set("reads_per_s", float64(len(poll.lat))/poll.elapsed.Seconds())
	out.check("generator: paced phase sent >= 99% of scheduled frames", sent*100 >= frames*99,
		fmt.Sprintf("%d of %d", sent, frames))
	late := m.values["bench.gen_late_p95_ms"]
	out.check("generator: lateness p95 <= 1 ms", late <= 1, fmt.Sprintf("%.3f ms", late))
	out.check("every analyst poll answered 2xx", poll.failed == 0,
		fmt.Sprintf("%d of %d failed", poll.failed, int64(len(poll.lat))+poll.failed))
	out.attempted += reports + int64(len(poll.lat)) + poll.failed
	out.failed += poll.failed
	return reports, nil
}

// serviceMetrics reads the service-side figures from the daemons' own
// registries and counters around the timed section.
func (st *fleetState) serviceMetrics(m *measured, before telBaseline, reports int64) (shed int64, err error) {
	leafTel := &telemetry.Snapshot{}
	var frames, shedReject int64
	for i, l := range st.leaves {
		// One checkpoint on demand, so even a run shorter than the
		// periodic interval has a write to time.
		if _, err := l.sink.CheckpointNow(); err != nil {
			return 0, fmt.Errorf("checkpoint %s: %w", l.name, err)
		}
		leafTel.Merge(l.tel.Snapshot().Sub(before.leaves[i]))
		s := l.sink.Stats()
		frames += s.Frames
		shed += s.ShedReports
		shedReject += s.ShedRejectReports
	}
	putHist(m, leafTel, "ingest_queue_wait", time.Microsecond, map[float64]string{0.5: "server.queue_wait_p50_us", 0.99: "server.queue_wait_p99_us"})
	putHist(m, leafTel, "shard_fold", time.Microsecond, map[float64]string{0.5: "server.shard_fold_p50_us", 0.99: "server.shard_fold_p99_us"})
	putHist(m, leafTel, "checkpoint_write", time.Millisecond, map[float64]string{0.5: "server.checkpoint_write_p50_ms"})
	pushTel := leafTel.Clone().Merge(st.mid.tel.Snapshot().Sub(before.mid))
	putHist(m, pushTel, "delta_push_rtt", time.Microsecond, map[float64]string{0.5: "registry.push_rtt_p50_us", 0.99: "registry.push_rtt_p99_us"})
	topTel := st.top.tel.Snapshot().Sub(before.top)
	putHist(m, topTel, "incremental_calibration", time.Microsecond, map[float64]string{0.5: "httpapi.calibration_p50_us"})
	putHist(m, topTel, "sse_publish", time.Microsecond, map[float64]string{0.5: "httpapi.sse_publish_p50_us"})
	m.set("server.frames", float64(frames))
	if frames > 0 {
		m.set("server.reports_per_frame", float64(reports)/float64(frames))
	}
	m.set("server.shed_reports", float64(shed))
	m.set("server.shed_reject_reports", float64(shedReject))
	var pushes, resyncs, rejects, deltaBytes, pollBytes int64
	for _, reg := range []*registry.Registry{st.mid.reg, st.top.reg} {
		for _, ms := range reg.Status() {
			pushes += ms.Pushes
			resyncs += ms.Resyncs
			rejects += ms.Rejects
			deltaBytes += ms.DeltaBytes
			pollBytes += ms.PollEquivBytes
		}
	}
	m.set("registry.pushes", float64(pushes))
	m.set("registry.resyncs", float64(resyncs))
	m.set("registry.rejects", float64(rejects))
	m.set("registry.delta_bytes", float64(deltaBytes))
	m.set("registry.poll_equiv_bytes", float64(pollBytes))
	return shed + shedReject, readPathStats(m, st.http.base)
}

func runFleet(e *env, state any) (*outcome, error) {
	st := state.(*fleetState)
	sc := fleetScaleFor(e.smoke)
	out := newOutcome()
	m := out.m

	lagS := &lagSampler{}
	obs, err := observeSSE(st.http.base+"/v1/estimates/stream", lagS.onEvent)
	if err != nil {
		return nil, err
	}
	defer obs.close()
	genSub, err := st.top.reg.Subscribe(64)
	if err != nil {
		return nil, err
	}
	gens := countGenerations(genSub)
	before := st.telemetryNow()
	section := beginSection()
	seconds := func(share float64) time.Duration { return time.Duration(share * e.seconds * float64(time.Second)) }

	uses := make([]int64, len(st.pool))
	var flowStats flow.Stats
	satReports, err := st.saturate(e, m, seconds(0.4), uses, &flowStats)
	if err != nil {
		return nil, err
	}
	out.attempted += satReports
	pacedReports, err := st.paced(e, out, sc, seconds(0.5), satReports, lagS, uses, &flowStats)
	if err != nil {
		return nil, err
	}
	total := satReports + pacedReports
	sawLast := obs.waitN(total, 5*time.Second)
	gcPause, alloc := section.end()

	lagS.samples().put(m, time.Millisecond, map[float64]string{0.5: "visible_lag_p50_ms", 0.95: "visible_lag_p95_ms"})
	m.set("bench.gc_pause_ms", gcPause)
	m.set("bench.alloc_bytes_per_report", alloc/float64(total))
	m.set("flow.retries", float64(flowStats.Retries))
	m.set("flow.sheds", float64(flowStats.Sheds))
	m.set("flow.backoff_ms", float64(flowStats.Backoff)/float64(time.Millisecond))
	shed, err := st.serviceMetrics(m, before, total)
	if err != nil {
		return nil, err
	}
	if ev := obs.events.Load(); ev > 0 {
		m.set("httpapi.sse_event_bytes", float64(obs.bytes.Load())/float64(ev))
	}
	g, rs := gens.stop()
	m.set("stream.generations", float64(g))
	m.set("stream.resyncs", float64(rs))

	// Exactness: the top's merged counts equal the flat sum of every
	// pool report sent, and its estimates equal a direct calibration of
	// that sum bit for bit.
	flat, flatN := poolSum(st.pool, uses)
	topCounts, topN := st.top.reg.Counts()
	out.check("top counts == flat sum of reports sent", topN == flatN && equalCounts(topCounts, flat),
		fmt.Sprintf("top n=%d flat n=%d", topN, flatN))
	out.exact["counts_fnv"] = fnv64(pool0Counts(st.pool, frameReports), frameReports)
	want, err := st.eng.EstimateSingle(flat, int(flatN))
	if err != nil {
		return nil, err
	}
	got, gotN, err := getEstimates(st.http.base + "/v1/estimates")
	if err != nil {
		return nil, err
	}
	out.check("top /v1/estimates == EstimateSingle(flat) bit for bit", gotN == flatN && equalFloats(got, want),
		fmt.Sprintf("reports=%d", gotN))
	out.check("observer saw the last paced report", sawLast, fmt.Sprintf("last n=%d of %d", obs.lastN.Load(), total))
	ratio, err := poolMSERatio(st.eng, st.items, st.pool)
	if err != nil {
		return nil, err
	}
	m.set("estimate.mse_ratio", ratio)
	out.failed += shed + (flatN - topN)

	if err := st.restartPhase(e, out, st.eng.M()); err != nil {
		return nil, err
	}
	return out, nil
}

// restartPhase closes leaf-0 (final checkpoint) and restores it, then
// closes the top's history store and opens it again: per-layer timings
// and exactness only.
func (st *fleetState) restartPhase(e *env, out *outcome, bits int) error {
	l := st.leaves[0]
	h := e.tr.begin("server.Close", 0, -1)
	t0 := time.Now()
	if err := l.sink.Close(); err != nil {
		return fmt.Errorf("close leaf-0: %w", err)
	}
	out.m.set("server.drain_ms", float64(time.Since(t0))/float64(time.Millisecond))
	e.tr.end(h)
	<-l.ann.Done()
	l.ann.Close()
	l.srv.Close()
	preCounts, preN := l.sink.Snapshot()
	h = e.tr.begin("server.Restore", 0, -1)
	t0 = time.Now()
	restored, restoredN, err := server.Restore(bits, l.opts...)
	if err != nil {
		return fmt.Errorf("restore leaf-0: %w", err)
	}
	out.m.set("server.restore_ms", float64(time.Since(t0))/float64(time.Millisecond))
	e.tr.end(h)
	gotCounts, gotN := restored.Snapshot()
	out.check("restored leaf-0 Snapshot == pre-close state", restoredN == preN && gotN == preN && equalCounts(gotCounts, preCounts),
		fmt.Sprintf("restored n=%d pre-close n=%d", gotN, preN))
	l.sink, l.ann, l.srv = restored, nil, nil

	st.http.Close()
	st.live.Close()
	st.http, st.live = nil, nil
	preCounts, preN, preSeq := st.hist.State()
	if err := st.hist.Close(); err != nil {
		return fmt.Errorf("close top history: %w", err)
	}
	h = e.tr.begin("history.Open", 0, -1)
	reopened, err := history.Open(st.histDir, bits, history.Config{})
	e.tr.end(h)
	if err != nil {
		return fmt.Errorf("reopen top history: %w", err)
	}
	st.hist = reopened
	gotCounts, gotN, gotSeq := reopened.State()
	out.check("reopened top history State == pre-close state", gotN == preN && gotSeq == preSeq && equalCounts(gotCounts, preCounts),
		fmt.Sprintf("n=%d seq=%d (pre-close n=%d seq=%d)", gotN, gotSeq, preN, preSeq))
	return nil
}

// pollResult is what one open-loop analyst saw.
type pollResult struct {
	lat     durations
	failed  int64
	elapsed time.Duration
}

// pollEstimates GETs url at rate per second on one keep-alive
// connection until stop closes, timing each read from its due time.
func pollEstimates(url string, rate float64, start time.Time, stop <-chan struct{}, tr *tracer) pollResult {
	var r pollResult
	pc := newPacer(start, time.Duration(float64(time.Second)/rate))
	client := &http.Client{}
	defer client.CloseIdleConnections()
	var buf bytes.Buffer
	for k := 0; ; k++ {
		select {
		case <-stop:
			r.elapsed = time.Since(start)
			return r
		default:
		}
		due := pc.wait(k)
		h := tr.begin("httpapi.GET /v1/estimates", uint64(k), -1)
		status, err := getInto(client, url, &buf)
		tr.end(h)
		if err != nil || status/100 != 2 {
			r.failed++
			continue
		}
		r.lat = append(r.lat, time.Since(due))
	}
}

// get reads one response in full.
func get(client *http.Client, url string) (body []byte, status int, err error) {
	var buf bytes.Buffer
	status, err = getInto(client, url, &buf)
	return buf.Bytes(), status, err
}

// getInto reads one response in full into buf (reset first), so a
// closed-loop reader reuses one buffer instead of feeding the collector
// a fresh 20-40 KB slice per read.
func getInto(client *http.Client, url string, buf *bytes.Buffer) (status int, err error) {
	buf.Reset()
	resp, err := client.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

func getEstimates(url string) ([]float64, int64, error) {
	body, status, err := get(http.DefaultClient, url)
	if err != nil {
		return nil, 0, err
	}
	if status != http.StatusOK {
		return nil, 0, fmt.Errorf("GET %s: status %d", url, status)
	}
	var v struct {
		Estimates []float64 `json:"estimates"`
		Reports   int64     `json:"reports"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		return nil, 0, err
	}
	return v.Estimates, v.Reports, nil
}

// readPathStats records the cached read path's ratios from
// GET /v1/readstats.
func readPathStats(m *measured, base string) error {
	body, status, err := get(http.DefaultClient, base+"/v1/readstats")
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET /v1/readstats: status %d", status)
	}
	var rs struct {
		Generation   float64 `json:"generation"`
		Calibrations float64 `json:"calibrations"`
		Cache        struct {
			Hits   float64 `json:"hits"`
			Misses float64 `json:"misses"`
		} `json:"cache"`
	}
	if err := json.Unmarshal(body, &rs); err != nil {
		return fmt.Errorf("readstats: %w", err)
	}
	if rs.Generation > 0 {
		m.set("httpapi.calibrations_per_generation", rs.Calibrations/rs.Generation)
	}
	if reads := rs.Cache.Hits + rs.Cache.Misses; reads > 0 {
		m.set("readcache.hit_ratio", rs.Cache.Hits/reads)
	}
	return nil
}

func equalCounts(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// pool0Counts folds the first k pool reports: a value that depends on
// the seed alone, whatever the box's speed let the senders send.
func pool0Counts(pool []*bitvec.Vector, k int) []int64 {
	counts := make([]int64, pool[0].Len())
	for _, v := range pool[:k] {
		v.AccumulateInto(counts)
	}
	return counts
}

// poolMSERatio is the utility check of a service run's input: the
// empirical total squared error of calibrating the distinct pool
// reports against the items behind them, over the analytic total MSE.
// (The senders reuse pool reports, so the run's own counts are not
// independent draws; the pool is.)
func poolMSERatio(eng *core.Engine, items []int, pool []*bitvec.Vector) (float64, error) {
	ones := make([]int64, len(pool))
	truth := make([]float64, eng.M())
	for i, it := range items {
		ones[i] = 1
		truth[it]++
	}
	counts, n := poolSum(pool, ones)
	est, err := eng.EstimateSingle(counts, int(n))
	if err != nil {
		return 0, err
	}
	var emp float64
	for i := range est {
		d := est[i] - truth[i]
		emp += d * d
	}
	theo, err := eng.TheoreticalTotalMSE(truth, int(n))
	if err != nil {
		return 0, err
	}
	if theo == 0 {
		return 0, errors.New("theoretical MSE is zero")
	}
	return emp / theo, nil
}

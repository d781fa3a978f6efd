package main

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"idldp/internal/agg"
	"idldp/internal/bitvec"
	"idldp/internal/checkpoint"
	"idldp/internal/dataset"
	"idldp/internal/estimate"
	"idldp/internal/history"
	"idldp/internal/notion"
	"idldp/internal/opt"
	"idldp/internal/ps"
	"idldp/internal/readcache"
	"idldp/internal/registry"
	"idldp/internal/rng"
	"idldp/internal/server"
	"idldp/internal/stream"
	"idldp/internal/telemetry"
	"idldp/internal/transport"
	"idldp/internal/varpack"
)

// smokeSeconds is the timed section of a smoke-scale pass.
const smokeSeconds = 0.6

// timeEach runs fn n times and returns the mean cost in nanoseconds.
func timeEach(n int, fn func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// timedEach runs fn n times and keeps every call's duration.
func timedEach(n int, fn func(i int)) durations {
	each := make(durations, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		fn(i)
		each[i] = time.Since(t0)
	}
	return each
}

func p99ns(d durations) float64 { return quantile(d.sortedIn(time.Nanosecond), 0.99) }

// layerWalk drives one report's path through the stack stage by stage,
// the bench itself calling each layer's public function for a fixed
// number of 64-report frames of generated input, one child span per
// stage, plus the off-path layers on the side. It returns every
// walk-sourced per-layer metric and prints the fleet_ingest waterfall:
// the per-report stage costs against the core time one report has at
// fleetRate reports/s, with the unattributed residual.
func layerWalk(seed uint64, smoke bool, tmpRoot string, fleetRate float64) (*measured, error) {
	frames, micro := 4096, 20_000
	if smoke {
		frames, micro = 64, 500
	}
	tmp, err := os.MkdirTemp(tmpRoot, "walk-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	m := newMeasured()

	// Inputs and their set-up layers (opt, dataset).
	t0 := time.Now()
	dataset.PowerLawSingle(1_000_000, domainM, alphaZipf, seed)
	m.set("dataset.gen_ms", msSince(t0))
	asgn, err := assignment(seed)
	if err != nil {
		return nil, err
	}
	solvers := map[string]func() (opt.LevelParams, error){
		"opt.solve_opt0_ms": func() (opt.LevelParams, error) {
			return opt.SolveOpt0(asgn.LevelEpsAll(), asgn.LevelCounts(), notion.MinID{}, seed)
		},
		"opt.solve_opt1_ms": func() (opt.LevelParams, error) {
			return opt.SolveOpt1(asgn.LevelEpsAll(), asgn.LevelCounts(), notion.MinID{})
		},
		"opt.solve_opt2_ms": func() (opt.LevelParams, error) {
			return opt.SolveOpt2(asgn.LevelEpsAll(), asgn.LevelCounts(), notion.MinID{})
		},
	}
	for name, solve := range solvers {
		var ms []float64
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			if _, err := solve(); err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			ms = append(ms, msSince(t0))
		}
		m.setN(name, median(ms), len(ms))
	}
	in, err := setupItem(seed, frames*frameReports)
	if err != nil {
		return nil, err
	}
	eng, items, bits := in.eng, in.items, in.eng.M()
	setIn, err := setupSet(seed, max(micro/4, 500))
	if err != nil {
		return nil, err
	}

	// Device side: perturbation and what it leans on.
	root, ur := rng.New(seed+2), rng.New(0)
	buf := eng.NewReport()
	each := timedEach(micro, func(i int) {
		root.SplitNInto(i, ur)
		eng.PerturbItemInto(items[i%len(items)], ur, buf)
	})
	m.setN("core.perturb_item_p99_ns", p99ns(each), micro)
	setBuf := setIn.eng.NewSetReport()
	each = timedEach(micro, func(i int) {
		root.SplitNInto(i, ur)
		setIn.eng.PerturbSetInto(setIn.sets[i%len(setIn.sets)], ur, setBuf)
	})
	m.setN("core.perturb_set_p99_ns", p99ns(each), micro)
	m.setN("core.perturb_set_ns", timeEach(micro, func(i int) {
		root.SplitNInto(i, ur)
		setIn.eng.PerturbSetInto(setIn.sets[i%len(setIn.sets)], ur, setBuf)
	}), micro)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < micro; i++ {
		root.SplitNInto(i, ur)
		eng.PerturbItemInto(items[i%len(items)], ur, buf)
	}
	runtime.ReadMemStats(&ms1)
	m.set("core.perturb_allocs", float64(ms1.Mallocs-ms0.Mallocs)/float64(micro))
	m.setN("ps.sample_ns", timeEach(micro, func(i int) {
		ps.Sample(setIn.sets[i%len(setIn.sets)], domainM, setEll, ur)
	}), micro)

	// The walk proper.
	w := &walker{m: m, tr: newTracer(true), frames: frames, bits: bits}
	if err := w.run(in, tmp); err != nil {
		return nil, err
	}

	// agg / bitvec on the walk's own reports.
	a := agg.New(bits)
	m.setN("agg.add_ns", timeEach(len(w.reports), func(i int) { a.Add(w.reports[i]) }), len(w.reports))
	counts := make([]int64, bits)
	m.setN("bitvec.accumulate_ns", timeEach(len(w.reports), func(i int) { w.reports[i].AccumulateInto(counts) }), len(w.reports))
	var ones int
	for _, v := range w.reports {
		ones += v.Count()
	}
	m.set("mech.bits_set_per_report", float64(ones)/float64(len(w.reports)))

	if err := walkTransport(m, w.reports, bits, smoke); err != nil {
		return nil, fmt.Errorf("transport: %w", err)
	}
	if err := walkNode(m, seed, smoke, tmp); err != nil {
		return nil, fmt.Errorf("node surface: %w", err)
	}
	h := &telemetry.Histogram{}
	m.setN("telemetry.observe_ns", timeEach(1_000_000, func(i int) { h.Observe(time.Duration(i)) }), 1_000_000)

	w.waterfall(fleetRate)
	return m, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// walker holds the objects one frame passes through.
type walker struct {
	m       *measured
	tr      *tracer
	frames  int
	bits    int
	reports []*bitvec.Vector
	cur     int // the running stage's span, parent of any span fn opens
}

// stage runs fn as one child span of the current frame.
func (w *walker) stage(name string, frame uint64, parent int, fn func() error) error {
	h := w.tr.begin(name, frame, parent)
	w.cur = h
	err := fn()
	w.tr.end(h)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

func (w *walker) run(in *itemInputs, tmp string) error {
	eng, bits := in.eng, w.bits
	ue := eng.UE()
	auth, err := registry.NewAuthenticator(fleetToken)
	if err != nil {
		return err
	}
	tel := telemetry.NewRegistry("idldp")
	sink, err := server.New(bits, server.WithShards(1), server.WithTelemetry(tel))
	if err != nil {
		return err
	}
	defer sink.Close()
	batcher := sink.NewBlockingBatcher()
	var wire bytes.Buffer
	enc, dec := gob.NewEncoder(&wire), gob.NewDecoder(&wire)
	pub, err := stream.NewPublisher(bits)
	if err != nil {
		return err
	}
	defer pub.Close()
	psub, err := pub.Subscribe(4)
	if err != nil {
		return err
	}
	reg, err := registry.New(bits, registry.WithAuth(auth))
	if err != nil {
		return err
	}
	defer reg.Close()
	rr := registry.RegisterRequest{Name: "walk", Bits: bits, Kind: "node"}
	rr.SignRegister(auth, time.Now())
	grant, err := reg.Register(rr)
	if err != nil {
		return err
	}
	rsub, err := reg.Subscribe(4)
	if err != nil {
		return err
	}
	defer rsub.Close()
	<-rsub.C() // opening resync of the empty merge
	win, err := stream.NewWindow(bits, liveWindow)
	if err != nil {
		return err
	}
	upd, err := stream.NewUpdater(ue.A, ue.B, 1)
	if err != nil {
		return err
	}
	cache, hub := readcache.New(), readcache.NewHub()
	ckpt, err := checkpoint.NewStore(filepath.Join(tmp, "ckpt"), 3)
	if err != nil {
		return err
	}
	histDir := filepath.Join(tmp, "history")
	hist, err := history.Open(histDir, bits, history.Config{SegmentRecords: 128, KeepSegments: 1 << 20})
	if err != nil {
		return err
	}
	defer func() { hist.Close() }()

	// The session's first push must be a full resync: the publisher's
	// opening frame, packed whole.
	open := <-psub.C()
	first := registry.Push{Name: "walk", Session: grant.Session, Frame: registry.PushFrame{
		Seq: open.Seq, Resync: true, Packed: varpack.Pack(open.Counts), N: open.N}}
	first.SignPush(auth, time.Now())
	if err := reg.Push(first); err != nil {
		return fmt.Errorf("opening resync: %w", err)
	}

	root, ur := rng.New(1), rng.New(0)
	w.reports = make([]*bitvec.Vector, w.frames*frameReports)
	for i := range w.reports {
		w.reports[i] = eng.NewReport()
	}
	type step struct {
		name string
		fn   func() error
	}
	var (
		k                     int // frame index
		fs                    int // the frame's span
		reports               []*bitvec.Vector
		wireBytes, deltaBytes int64
		packed, payload       []byte
		d, md                 stream.Delta
		counts                []int64
		n                     int64
		est                   []float64
	)
	path := []step{
		{"core.PerturbItemInto", func() error {
			for i, v := range reports {
				root.SplitNInto(k*frameReports+i, ur)
				eng.PerturbItemInto(in.items[k*frameReports+i], ur, v)
			}
			return nil
		}},
		{"transport.gob encode", func() error {
			before := wire.Len()
			for _, v := range reports {
				if err := enc.Encode(transport.Frame{Kind: transport.FrameReport, Words: v.Words(), Bits: v.Len()}); err != nil {
					return err
				}
			}
			wireBytes += int64(wire.Len() - before)
			return nil
		}},
		{"leaf ingest", func() error {
			for range reports {
				var frame transport.Frame
				h := w.tr.begin("transport.gob decode", uint64(k), w.cur)
				err := dec.Decode(&frame)
				w.tr.end(h)
				if err != nil {
					return err
				}
				h = w.tr.begin("server.Batcher.AddWords", uint64(k), w.cur)
				err = batcher.AddWords(frame.Words, frame.Bits)
				w.tr.end(h)
				if err != nil {
					return err
				}
			}
			return nil
		}},
		{"server.Batcher.Flush", batcher.Flush},
		{"server.Snapshot", func() error { counts, n = sink.Snapshot(); return nil }},
		{"stream.Publisher.Publish", func() error {
			if err := pub.Publish(counts, n); err != nil {
				return err
			}
			d = <-psub.C()
			return nil
		}},
		{"varpack.PackDelta", func() (err error) { packed, err = varpack.PackDelta(d.Bits, d.Inc); return err }},
		{"registry.SignPush + Registry.Push", func() error {
			deltaBytes += int64(len(packed))
			p := registry.Push{Name: "walk", Session: grant.Session, Frame: registry.PushFrame{
				Seq: d.Seq, Packed: packed, DN: d.DN, N: d.N}}
			p.SignPush(auth, time.Now())
			if err := reg.Push(p); err != nil {
				return err
			}
			md = <-rsub.C()
			return nil
		}},
		{"varpack.UnpackDelta", func() error { _, _, err := varpack.UnpackDelta(packed); return err }},
		{"stream.Window.Push", func() error { return win.Push(md) }},
		{"stream.Updater.Apply", func() error { return upd.Apply(md) }},
		{"estimate.Calibrate", func() (err error) {
			_, _, c, cn, _ := win.View()
			est, err = estimate.Calibrate(c, int(cn), ue.A, ue.B, 1)
			return err
		}},
		{"json.Marshal", func() (err error) {
			payload, err = json.Marshal(map[string]any{"estimates": est, "reports": n})
			return err
		}},
		{"readcache.Cache.Put", func() error {
			cache.Put(readcache.Key{Kind: readcache.Cumulative}, readcache.Value{Gen: md.Seq, N: n, Estimates: est, Payload: payload})
			return nil
		}},
		{"readcache.Cache.Get", func() error {
			if _, ok := cache.Get(md.Seq, readcache.Key{Kind: readcache.Cumulative}); !ok {
				return fmt.Errorf("generation %d missed", md.Seq)
			}
			return nil
		}},
		{"readcache.Hub.Publish", func() error { hub.Publish(md.Seq, payload, false); return nil }},
		{"history.Store.Append", func() error { return hist.Append(md) }},
	}
	// Off the report's path, every 64th frame: a checkpoint is written
	// once a second and a heartbeat sent every 200 ms, not per frame.
	side := []step{
		{"checkpoint.Store.Save", func() error { _, err := ckpt.Save(counts, n); return err }},
		{"checkpoint.Store.Latest", func() error {
			_, ok, err := ckpt.Latest()
			if err == nil && !ok {
				err = fmt.Errorf("no checkpoint found")
			}
			return err
		}},
		{"telemetry.Snapshot.Pack", func() error {
			w.m.set("telemetry.heartbeat_bytes", float64(len(tel.Snapshot().Pack())))
			return nil
		}},
	}
	for k = 0; k < w.frames; k++ {
		reports = w.reports[k*frameReports : (k+1)*frameReports]
		fs = w.tr.begin("frame", uint64(k), -1)
		steps := path
		if k%64 == 0 {
			steps = append(steps[:len(steps):len(steps)], side...)
		}
		for _, s := range steps {
			if err := w.stage(s.name, uint64(k), fs, s.fn); err != nil {
				return fmt.Errorf("frame %d: %w", k, err)
			}
		}
		w.tr.end(fs)
	}

	// Exactness of the walk itself: what came out of the far end equals
	// a flat fold of the reports that went in.
	flat := make([]int64, bits)
	for _, v := range w.reports {
		v.AccumulateInto(flat)
	}
	merged, mergedN := reg.Counts()
	if mergedN != int64(len(w.reports)) || !equalCounts(merged, flat) {
		return fmt.Errorf("walk is not exact: merged n=%d, sent %d", mergedN, len(w.reports))
	}

	reportsN := float64(len(w.reports))
	self, count := selfByName(w.tr.spans)
	per := func(span string) float64 { return float64(self[span]) / float64(max(count[span], 1)) }
	m := w.m
	m.setN("core.perturb_item_ns", float64(self["core.PerturbItemInto"])/reportsN, len(w.reports))
	m.setN("transport.encode_ns", float64(self["transport.gob encode"])/reportsN, len(w.reports))
	m.setN("transport.decode_ns", per("transport.gob decode"), count["transport.gob decode"])
	m.set("transport.bytes_per_report", float64(wireBytes)/reportsN)
	m.setN("server.batcher_add_ns", per("server.Batcher.AddWords"), count["server.Batcher.AddWords"])
	us := func(name, span string) { m.setN(name, per(span)/1e3, count[span]) }
	us("server.flush_us", "server.Batcher.Flush")
	us("server.snapshot_us", "server.Snapshot")
	us("stream.publish_us", "stream.Publisher.Publish")
	us("stream.window_push_us", "stream.Window.Push")
	us("stream.updater_apply_us", "stream.Updater.Apply")
	us("varpack.pack_delta_us", "varpack.PackDelta")
	us("varpack.unpack_delta_us", "varpack.UnpackDelta")
	m.set("varpack.delta_bytes", float64(deltaBytes)/float64(w.frames))
	us("registry.push_us", "registry.SignPush + Registry.Push")
	us("estimate.calibrate_us", "estimate.Calibrate")
	m.setN("readcache.put_ns", per("readcache.Cache.Put"), count["readcache.Cache.Put"])
	m.setN("readcache.get_ns", per("readcache.Cache.Get"), count["readcache.Cache.Get"])
	us("history.append_us", "history.Store.Append")
	us("telemetry.snapshot_pack_us", "telemetry.Snapshot.Pack")
	m.setN("checkpoint.save_ms", per("checkpoint.Store.Save")/1e6, count["checkpoint.Store.Save"])
	m.setN("checkpoint.load_ms", per("checkpoint.Store.Latest")/1e6, count["checkpoint.Store.Latest"])
	m.set("checkpoint.bytes", float64(newestFileSize(ckpt.Dir())))
	hs := hist.Stats()
	m.set("history.append_bytes", float64(hs.Bytes)/float64(max(hs.Appends, 1)))
	m.set("history.segments", float64(hs.Segments))

	// varpack full-state codec and the control plane's MAC, off-chain.
	full := varpack.Pack(merged)
	reps := max(w.frames/4, 16)
	m.setN("varpack.pack_us", timeEach(reps, func(int) { varpack.Pack(merged) })/1e3, reps)
	m.setN("varpack.unpack_us", timeEach(reps, func(int) { _, _ = varpack.Unpack(full) })/1e3, reps)
	now := time.Now()
	m.setN("registry.sign_verify_us", timeEach(reps, func(int) {
		mac := auth.Sign(registry.KindDelta, "walk", grant.Session, now.UnixNano(), packed)
		_ = auth.Verify(mac, registry.KindDelta, "walk", grant.Session, now.UnixNano(), packed, now)
	})/1e3, reps)

	// History reads and reopen on the log the walk just wrote.
	last := hist.LastSeq()
	span := uint64(64)
	if last <= span {
		span = last / 2
	}
	m.setN("history.cumulative_at_us", timeEach(reps, func(i int) {
		_, _, _, _ = hist.CumulativeAt(1 + uint64(i*7919)%last)
	})/1e3, reps)
	m.setN("history.range_us", timeEach(reps, func(i int) {
		to := span + 1 + uint64(i*7919)%(last-span)
		_, _, _, _, _, _ = hist.Range(to-span, to)
	})/1e3, reps)
	var opens []float64
	for i := 0; i < 3; i++ {
		if err := hist.Close(); err != nil {
			return err
		}
		t0 := time.Now()
		if hist, err = history.Open(histDir, bits, history.Config{SegmentRecords: 128, KeepSegments: 1 << 20}); err != nil {
			return err
		}
		opens = append(opens, msSince(t0))
	}
	m.setN("history.open_ms", median(opens), len(opens))
	return nil
}

// newestFileSize returns the size of the last file in dir by name
// (checkpoint frames are named by zero-padded sequence).
func newestFileSize(dir string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) == 0 {
		return 0
	}
	fi, err := entries[len(entries)-1].Info()
	if err != nil {
		return 0
	}
	return fi.Size()
}

// walkTransport measures the gob-TCP client against a real loopback
// listener: streamed sends, acked round trips and snapshot reads.
func walkTransport(m *measured, reports []*bitvec.Vector, bits int, smoke bool) error {
	sink, err := server.New(bits, server.WithShards(1))
	if err != nil {
		return err
	}
	srv, err := transport.ServeSink("127.0.0.1:0", sink)
	if err != nil {
		sink.Close()
		return err
	}
	defer srv.Close()
	ctx := context.Background()
	c, err := transport.Dial(ctx, srv.Addr())
	if err != nil {
		return err
	}
	defer c.Close()
	var sendErr error
	m.setN("transport.send_report_ns", timeEach(len(reports), func(i int) {
		if err := c.SendReport(reports[i]); err != nil {
			sendErr = err
		}
	}), len(reports))
	if sendErr != nil {
		return sendErr
	}
	acks := 1000
	if smoke {
		acks = 50
	}
	m.setN("transport.send_ack_rtt_us", timeEach(acks, func(i int) {
		if err := c.SendReportAck(ctx, reports[i%len(reports)]); err != nil {
			sendErr = err
		}
	})/1e3, acks)
	snaps := acks / 10
	m.setN("transport.snapshot_us", timeEach(snaps, func(int) {
		if _, _, _, err := c.Snapshot(); err != nil {
			sendErr = err
		}
	})/1e3, snaps)
	return sendErr
}

// walkNode measures the HTTP handlers in process (ServeHTTP against a
// recorder, no socket) on a node set up as node_reads sets one up.
func walkNode(m *measured, seed uint64, smoke bool, tmp string) error {
	e := &env{workload: wlNode, seed: seed, smoke: smoke, tmp: tmp, tr: newTracer(false)}
	state, err := setupNode(e)
	if err != nil {
		return err
	}
	st := state.(*nodeState)
	defer st.Close()
	sc := nodeScaleFor(smoke)
	reps := 1000
	if smoke {
		reps = 50
	}
	var failed error
	serve := func(method, target string, body []byte) {
		req := httptest.NewRequest(method, target, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		st.handler.ServeHTTP(rec, req)
		if rec.Code/100 != 2 {
			failed = fmt.Errorf("%s %s: status %d: %s", method, target, rec.Code, rec.Body.String())
		}
	}
	m.setN("httpapi.post_report_us", timeEach(reps, func(i int) {
		serve(http.MethodPost, "/v1/report", st.bodies[i%len(st.bodies)])
	})/1e3, reps)
	batch, err := json.Marshal(map[string]any{"counts": st.refs[uint64(sc.rangeSpan)].counts, "n": st.refs[uint64(sc.rangeSpan)].n})
	if err != nil {
		return err
	}
	m.setN("httpapi.post_batch_us", timeEach(reps/10, func(int) { serve(http.MethodPost, "/v1/batch", batch) })/1e3, reps/10)
	// Reads need a live generation: wait for the posts to be published.
	if err := waitFor("a live generation", convergeWait, func() bool {
		rec := httptest.NewRecorder()
		st.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/estimates", nil))
		n, ok := reportsOf(rec.Body.Bytes())
		return ok && n > st.baseN
	}); err != nil {
		return err
	}
	m.setN("httpapi.get_live_us", timeEach(reps, func(int) { serve(http.MethodGet, "/v1/estimates", nil) })/1e3, reps)
	m.setN("httpapi.get_window_us", timeEach(reps, func(int) { serve(http.MethodGet, "/v1/estimates?window=8", nil) })/1e3, reps)
	g := uint64(sc.generations)
	m.setN("httpapi.get_at_us", timeEach(reps, func(i int) {
		serve(http.MethodGet, fmt.Sprintf("/v1/estimates?at=%d", 2+uint64(i*7919)%(g-2)), nil)
	})/1e3, reps)
	span := uint64(sc.rangeSpan)
	m.setN("httpapi.get_range_us", timeEach(reps, func(i int) {
		to := span + 2 + uint64(i*7919)%(g-span-2)
		serve(http.MethodGet, fmt.Sprintf("/v1/estimates?from=%d&to=%d", to-span, to), nil)
	})/1e3, reps)
	return failed
}

// waterfall prints the fleet_ingest budget: what one report costs in
// each stage on its way from a sender to the top merger's read
// surface, against the core time one report has at the measured
// saturate rate. Per-generation stages are spread over the reports one
// 20 ms interval carries at that rate. What the stages do not explain
// (syscalls, scheduling, GC, idle cores) is bench.residual_pct.
func (w *walker) waterfall(fleetRate float64) {
	m := w.m
	if fleetRate <= 0 {
		return
	}
	perGen := fleetRate * streamInterval.Seconds() // reports per generation, fleet-wide
	type row struct {
		stage string
		ns    float64 // per report
		basis string
	}
	gen := func(stage, metric string, times float64) row {
		return row{stage, m.values[metric] * 1e3 * times / perGen, fmt.Sprintf("%gx per generation", times)}
	}
	rows := []row{
		{"transport send (client)", m.values["transport.send_report_ns"], "per report"},
		{"transport decode (leaf)", m.values["transport.decode_ns"], "per report"},
		{"server batcher add", m.values["server.batcher_add_ns"], "per report"},
		{"server flush", m.values["server.flush_us"] * 1e3 / frameReports, "per 64-report frame"},
		// Two leaves snapshot, publish, pack and push; the mid pushes on
		// each; the top unpacks, folds the window, calibrates twice
		// (cumulative and window), marshals, caches, publishes, appends.
		gen("server snapshot", "server.snapshot_us", 2),
		gen("stream publish", "stream.publish_us", 2),
		gen("varpack pack delta", "varpack.pack_delta_us", 4),
		gen("registry sign + push", "registry.push_us", 4),
		gen("varpack unpack delta", "varpack.unpack_delta_us", 4),
		gen("stream window push", "stream.window_push_us", 2),
		gen("estimate calibrate", "estimate.calibrate_us", 4),
		gen("history append", "history.append_us", 2),
	}
	budget := float64(procs()) * 1e9 / fleetRate
	var sum float64
	fmt.Printf("fleet_ingest waterfall at %.0f reports/s on %d cores: %.0f core-ns per report\n", fleetRate, procs(), budget)
	for _, r := range rows {
		sum += r.ns
		fmt.Printf("  %-28s %9.1f ns/report  %5.1f%%  (%s)\n", r.stage, r.ns, r.ns/budget*100, r.basis)
	}
	residual := (budget - sum) / budget * 100
	fmt.Printf("  %-28s %9.1f ns/report  %5.1f%%\n", "unattributed residual", budget-sum, residual)
	m.set("bench.residual_pct", residual)
}

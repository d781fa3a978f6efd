package httpapi

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"time"

	"idldp/internal/history"
	"idldp/internal/readcache"
	"idldp/internal/stream"
	"idldp/internal/telemetry"
)

// StreamConfig configures a Handler's live-estimates surface: the read
// routes over the delta stream of its ingestion runtime
// (server.WithStream, which NewStreaming enables).
type StreamConfig struct {
	// Interval paces the runtime's delta publisher (<= 0 selects
	// server.DefaultStreamInterval).
	Interval time.Duration
	// Window is the sliding-window capacity in intervals (<= 0 selects
	// DefaultWindow).
	Window int
	// History, when set, makes the read path durable: every consumed
	// frame is spilled to the interval log (and a telemetry snapshot is
	// journaled alongside it once a registry is attached), the window is
	// replayed from the log at construction so the ring recovers
	// bit-exactly across restarts, and GET /v1/estimates grows the
	// at/from/to time-travel parameters plus GET /v1/metrics/history.
	// The handler does not own the store; the caller Closes it after the
	// handler.
	History *history.Store
}

// DefaultWindow retains one minute of one-second intervals.
const DefaultWindow = 60

// sseKeepAlive paces comment lines on an idle SSE stream so proxies and
// clients can tell a quiet campaign from a dead connection.
const sseKeepAlive = 15 * time.Second

// liveState is the live view of a delta stream behind the read routes of
// a Handler or a LiveHandler, and the heart of the read-path scale-out:
// one consumer goroutine folds frames into the sliding window (whose
// cumulative shadow doubles as the all-time accumulator), calibrates
// ONCE per generation, pre-marshals the response bodies, and stamps them
// into a generation-keyed cache.
// Readers — GET /v1/estimates, windowed queries, and every SSE client —
// then cost a mutex acquisition and a byte copy, not a calibration:
// N dashboard readers share one calibration per publish interval.
//
// The stream seq is the data generation. A cached result computed at
// seq g is bit-for-bit exact until the next frame arrives, so entries
// are invalidated by generation comparison (readcache), never by TTL;
// read staleness is bounded by the publish interval because the
// periodic flushLoop keeps pooled reports moving — reads never call
// flushAll, which would serialize the read path against ingest.
type liveState struct {
	win   *stream.Window
	cache *readcache.Cache
	hub   *readcache.Hub
	est   Estimator
	// hist, when non-nil, is the durable interval + telemetry log the
	// consumer spills every frame into and the time-travel endpoints
	// read from (see history.go). Set before consume starts, immutable
	// after.
	hist *history.Store

	mu      sync.Mutex
	seq     uint64  // newest fully-processed generation
	n       int64   // cumulative report count at seq
	wN      int64   // full-window report count at seq
	counts  []int64 // cumulative counts at seq (read-only once stored)
	wCounts []int64 // full-window counts at seq (read-only once stored)
	top1    int     // argmax of the cumulative estimates at seq
	estErr  error   // last calibration failure, cleared on success
	closed  bool

	calibrations int64 // Estimator invocations across all read surfaces

	// Per-stage latency histograms, set under mu by registerMetrics and
	// nil-safe no-ops until then.
	hCalib *telemetry.Histogram
	hSSE   *telemetry.Histogram

	// telReg is the registry whose snapshots the consumer journals into
	// hist, one per consumed generation — set under mu by
	// registerMetrics; nil (no journaling) until then.
	telReg *telemetry.Registry
}

// registerMetrics exposes the cached read path on reg: calibration and
// SSE fan-out latency histograms plus scrape-time views of the cache
// and hub counters.
func (ls *liveState) registerMetrics(reg *telemetry.Registry) {
	hCalib := reg.Histogram("incremental_calibration", "Latency of one estimator calibration (per generation or windowed read).")
	hSSE := reg.Histogram("sse_publish", "Latency of broadcasting one pre-marshaled event to the SSE hub.")
	ls.mu.Lock()
	ls.hCalib, ls.hSSE = hCalib, hSSE
	ls.telReg = reg
	ls.mu.Unlock()
	reg.CounterFunc("readcache_hits", "Reads answered from a current-generation cache entry.",
		func() int64 { return ls.cache.Stats().Hits })
	reg.CounterFunc("readcache_misses", "Reads that found no current-generation cache entry.",
		func() int64 { return ls.cache.Stats().Misses })
	reg.GaugeFunc("readcache_entries", "Live read-cache entries.",
		func() float64 { return float64(ls.cache.Stats().Entries) })
	reg.GaugeFunc("readcache_bytes", "Payload bytes held for immutable time-travel answers (bounded).",
		func() float64 { return float64(ls.cache.Stats().Bytes) })
	reg.GaugeFunc("sse_subscribers", "Attached SSE stream clients.",
		func() float64 { return float64(ls.hub.Stats().Subscribers) })
	reg.CounterFunc("sse_events", "Event payloads broadcast to SSE clients.",
		func() int64 { return ls.hub.Stats().Published })
	reg.GaugeFunc("read_generation", "Newest fully-processed stream generation.",
		func() float64 { ls.mu.Lock(); defer ls.mu.Unlock(); return float64(ls.seq) })
	reg.CounterFunc("calibrations", "Estimator invocations across all read surfaces.",
		func() int64 { ls.mu.Lock(); defer ls.mu.Unlock(); return ls.calibrations })
	if ls.hist != nil {
		reg.GaugeFunc("history_segments", "Retained history log segments.",
			func() float64 { return float64(ls.hist.Stats().Segments) })
		reg.GaugeFunc("history_bytes", "On-disk bytes of the retained history log.",
			func() float64 { return float64(ls.hist.Stats().Bytes) })
		reg.GaugeFunc("history_resident_bytes", "In-memory bytes of the retained history log: record payloads plus segment anchors.",
			func() float64 { return float64(ls.hist.Stats().ResidentBytes) })
		reg.GaugeFunc("history_oldest_generation", "Oldest generation the history log can still answer for.",
			func() float64 { return float64(ls.hist.Stats().OldestSeq) })
		reg.CounterFunc("history_replay_hits", "Range, at and replay queries served from the history log.",
			func() int64 { return ls.hist.Stats().Queries })
		reg.CounterFunc("history_append_errors", "History appends failed by a write or sync error; each leaves the log one interval short until a resync.",
			func() int64 { return ls.hist.Stats().AppendErrors })
		reg.CounterFunc("history_torn_tail", "Segments the history log cut short at a torn or corrupt record when it was opened.",
			func() int64 { return ls.hist.Stats().TornTails })
		reg.CounterFunc("history_chain_break", "Times opening the history log discarded everything older than a base its predecessor did not lead to.",
			func() int64 { return ls.hist.Stats().ChainBreaks })
	}
}

// newLiveState is the one constructor of a read surface, for the node
// Handler and LiveHandler alike: a window of the given capacity (<= 0
// selects DefaultWindow) over an m-bit domain, the retained history
// replayed into it when hist is non-nil, and then the consumer folding
// sub. Replaying before consuming makes the ring hold the pre-restart
// intervals bit-exactly with the live feed appended after them: the
// stream feeding sub must have been resumed from the same log
// (server.WithStreamResume, the startSeq of fleet.New), so its initial
// resync equals the replayed state and folds into an empty implied
// delta. The consumer ends when sub closes.
func newLiveState(sub *stream.Sub, bits int, est Estimator, window int, hist *history.Store) (*liveState, error) {
	if est == nil {
		return nil, fmt.Errorf("httpapi: estimator is required")
	}
	if window <= 0 {
		window = DefaultWindow
	}
	win, err := stream.NewWindow(bits, window)
	if err != nil {
		return nil, fmt.Errorf("httpapi: %w", err)
	}
	if hist != nil {
		if err := hist.Replay(window, win.Push); err != nil {
			return nil, fmt.Errorf("httpapi: history replay: %w", err)
		}
	}
	ls := &liveState{win: win, cache: readcache.New(), hub: readcache.NewHub(), est: est, hist: hist}
	go ls.consume(sub)
	return ls, nil
}

// mount registers the read routes on mux: one table for the node
// Handler and LiveHandler.
func (ls *liveState) mount(mux *http.ServeMux) {
	mux.HandleFunc("GET /v1/estimates", ls.handleEstimates)
	mux.HandleFunc("GET /v1/estimates/stream", ls.serveSSE)
	mux.HandleFunc("GET /v1/readstats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, ls.readStats())
	})
	mux.HandleFunc("GET /v1/metrics/history", ls.serveMetricsHistory)
}

// consume is the central subscriber: one goroutine per liveState that
// absorbs each frame, snapshots the windowed and cumulative state in a
// single critical section (Window.View — pairing them across separate
// calls can tear, matching seq N's cumulative counts with seq N+1's
// window), refreshes the cached read results, and broadcasts the
// pre-marshaled SSE payload. All calibration for the generation happens
// here, under ls.mu, before any reader can observe the new seq.
func (ls *liveState) consume(sub *stream.Sub) {
	histFailing := false // inside a streak of failed appends, logged at its first
	for d := range sub.C() {
		// Spill the frame to the durable log BEFORE the window absorbs
		// it: once a reader can observe generation d.Seq live, the
		// time-travel answer for at=d.Seq already exists. Non-advancing
		// frames (the initial resync of a resumed stream) are refused by
		// the store — by design, they carry nothing the log lacks; an
		// advancing frame the store could not write is a hole in the log
		// (see history.Store.Append) and is said so, once per streak.
		if ls.hist != nil {
			if err := ls.hist.Append(d); err == nil {
				histFailing = false
			} else if d.Seq > ls.hist.LastSeq() && !histFailing {
				histFailing = true
				slog.Error("history append failed: the log misses intervals until the next resync frame", "generation", d.Seq, "err", err)
			}
		}
		ls.mu.Lock()
		// ErrOutOfSync cannot persist: the publisher's drop-and-resync
		// contract guarantees a healing resync follows any gap.
		_ = ls.win.Push(d)
		wCounts, wN, counts, n, seq := ls.win.View()
		ls.seq, ls.n, ls.wN = seq, n, wN
		ls.counts, ls.wCounts = counts, wCounts
		var chunk []byte
		var fatal bool
		if n > 0 {
			chunk, fatal = ls.refreshLocked(seq, counts, n, wCounts, wN)
		}
		hSSE := ls.hSSE
		telReg := ls.telReg
		ls.mu.Unlock()
		if chunk != nil {
			start := time.Now()
			ls.hub.Publish(seq, chunk, fatal)
			hSSE.ObserveSince(start)
		}
		// Journal a telemetry snapshot on the same cadence as the
		// interval spill, stamped with the generation it was current at.
		if ls.hist != nil && telReg != nil {
			_ = ls.hist.AppendTelemetry(seq, d.Time, telReg.Snapshot().Pack())
		}
	}
	ls.mu.Lock()
	ls.closed = true
	ls.mu.Unlock()
	ls.hub.Close()
}

// refreshLocked recomputes every cached read result for a new
// generation: the cumulative estimates (and their pre-marshaled
// GET /v1/estimates body), the full-window estimates (the pre-marshaled
// ?window=capacity body), the heavy-hitter probe, and the shared SSE
// event chunk. Caller holds ls.mu.
func (ls *liveState) refreshLocked(seq uint64, counts []int64, n int64, wCounts []int64, wN int64) (chunk []byte, fatal bool) {
	start := time.Now()
	est, err := ls.est(counts, int(n))
	ls.hCalib.ObserveSince(start)
	ls.calibrations++
	if err != nil {
		ls.estErr = err
		return sseChunk("error", seq, jsonError(err)), true
	}
	ls.estErr = nil
	body, err := estimatesBody(est, n, noWindow)
	if err != nil {
		ls.estErr = err
		return sseChunk("error", seq, jsonError(err)), true
	}
	ls.cache.Put(readcache.Key{Kind: readcache.Cumulative},
		readcache.Value{Gen: seq, N: n, Estimates: est, Payload: body})
	ev := estimateEvent{Seq: seq, N: n, WindowN: wN, Estimates: est, Top1: argmax(est)}
	ls.top1 = ev.Top1
	// The heavy-hitter set here is the argmax probe dashboards read from
	// the event; analytics surfaces with larger sets reuse the same key.
	ls.cache.Put(readcache.Key{Kind: readcache.HeavyHitters},
		readcache.Value{Gen: seq, N: n, Estimates: []float64{float64(ev.Top1)}})
	if wN > 0 {
		wStart := time.Now()
		wEst, werr := ls.est(wCounts, int(wN))
		ls.hCalib.ObserveSince(wStart)
		ls.calibrations++
		if werr == nil {
			ev.WindowEstimates = wEst
			if wBody, merr := estimatesBody(wEst, wN, ls.win.Cap()); merr == nil {
				ls.cache.Put(readcache.Key{Kind: readcache.Windowed, K: ls.win.Cap()},
					readcache.Value{Gen: seq, N: wN, Estimates: wEst, Payload: wBody})
			}
		}
	}
	data, err := json.Marshal(ev)
	if err != nil {
		return nil, false
	}
	return sseChunk("estimate", seq, data), false
}

// estimateEvent is one SSE data payload.
type estimateEvent struct {
	Seq uint64 `json:"seq"`
	// N is the all-time report count, WindowN the count inside the
	// sliding window.
	N       int64 `json:"n"`
	WindowN int64 `json:"window_n"`
	// Estimates are the all-time calibrated estimates; WindowEstimates
	// cover the sliding window (absent until the window has data).
	Estimates       []float64 `json:"estimates"`
	WindowEstimates []float64 `json:"window_estimates,omitempty"`
	// Top1 is the index of the largest all-time estimate — the cheap
	// "is the ranking stable" probe dashboards and smoke tests read.
	Top1 int `json:"top1"`
}

// sseChunk frames one complete SSE event, ready to write verbatim. The
// consume goroutine builds it once per generation; every client ships
// the same bytes. id > 0 stamps the generation as the SSE event id, so
// a reconnecting client's Last-Event-ID names the exact frame it last
// absorbed and the handler can backfill from history instead of
// resyncing.
func sseChunk(event string, id uint64, data []byte) []byte {
	b := make([]byte, 0, len(event)+len(data)+40)
	if id > 0 {
		b = append(b, "id: "...)
		b = strconv.AppendUint(b, id, 10)
		b = append(b, '\n')
	}
	b = append(b, "event: "...)
	b = append(b, event...)
	b = append(b, "\ndata: "...)
	b = append(b, data...)
	b = append(b, "\n\n"...)
	return b
}

// handleEstimates answers GET /v1/estimates from the cached read path:
// the plain query serves the pre-marshaled cumulative body, ?window=k
// the windowed variant, and ?at / ?from&to the time-travel variants:
// resolved against the history log, then served from the bounded cache
// of immutable answers or reconstructed (see history.go).
func (ls *liveState) handleEstimates(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	if q.Get("at") != "" || q.Get("from") != "" || q.Get("to") != "" {
		if ls.hist == nil {
			httpError(w, http.StatusNotImplemented, "history is not enabled on this server")
			return
		}
		if at := q.Get("at"); at != "" {
			ls.serveHistoryAt(w, at)
			return
		}
		ls.serveHistoryRange(w, q.Get("from"), q.Get("to"))
		return
	}
	if raw := q.Get("window"); raw != "" {
		k, err := strconv.Atoi(raw)
		if err != nil || k <= 0 {
			httpError(w, http.StatusBadRequest, "window must be a positive interval count")
			return
		}
		ls.serveWindowed(w, k)
		return
	}
	ls.serveCumulative(w)
}

// serveCumulative writes the current generation's pre-marshaled
// estimates body — no flush, no calibration, no encode. An empty
// campaign is not an error: it answers 200 with zero reports.
func (ls *liveState) serveCumulative(w http.ResponseWriter) {
	ls.mu.Lock()
	gen, n, estErr := ls.seq, ls.n, ls.estErr
	var v readcache.Value
	var ok bool
	if n > 0 {
		v, ok = ls.cache.Get(gen, readcache.Key{Kind: readcache.Cumulative})
	}
	ls.mu.Unlock()
	if n == 0 {
		writeBody(w, emptyBody(noWindow))
		return
	}
	if !ok {
		// n > 0 without a cached body means the generation's calibration
		// failed; estErr says why.
		msg := "estimates unavailable"
		if estErr != nil {
			msg = estErr.Error()
		}
		httpError(w, http.StatusInternalServerError, msg)
		return
	}
	writeBody(w, v.Payload)
}

// serveWindowed answers ?window=k from the sliding window (k intervals,
// capped at the configured capacity). The first reader of a (gen, k)
// pair computes and caches under ls.mu — single-flight by lock
// discipline — and every later reader of the generation writes the same
// cached bytes.
func (ls *liveState) serveWindowed(w http.ResponseWriter, k int) {
	if c := ls.win.Cap(); k > c {
		k = c
	}
	key := readcache.Key{Kind: readcache.Windowed, K: k}
	ls.mu.Lock()
	gen := ls.seq
	v, ok := ls.cache.Get(gen, key)
	if !ok {
		counts, n, err := ls.win.LastCounts(k)
		if err != nil {
			ls.mu.Unlock()
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		if n == 0 {
			ls.mu.Unlock()
			writeBody(w, emptyBody(k))
			return
		}
		start := time.Now()
		est, err := ls.est(counts, int(n))
		ls.hCalib.ObserveSince(start)
		ls.calibrations++
		if err != nil {
			ls.mu.Unlock()
			httpError(w, http.StatusInternalServerError, err.Error())
			return
		}
		body, err := estimatesBody(est, n, k)
		if err != nil {
			ls.mu.Unlock()
			httpError(w, http.StatusInternalServerError, err.Error())
			return
		}
		v = readcache.Value{Gen: gen, N: n, Estimates: est, Payload: body}
		ls.cache.Put(key, v)
	}
	ls.mu.Unlock()
	writeBody(w, v.Payload)
}

// serveSSE serves GET /v1/estimates/stream: a Server-Sent Events feed
// with one "estimate" event per published interval. Every client writes
// the same hub-broadcast bytes, so a thousand dashboards cost one
// calibration and one marshal per generation; a slow reader sees fewer,
// fresher events rather than a growing backlog. Write and flush errors
// end the loop — a dead client must not keep burning keepalives after
// its connection is gone but before its context fires.
func (ls *liveState) serveSSE(w http.ResponseWriter, r *http.Request) {
	rc := http.NewResponseController(w)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	if err := rc.Flush(); err != nil {
		// The writer cannot stream (or the client is already gone).
		return
	}
	ls.hub.Add()
	defer ls.hub.Done()
	keep := time.NewTicker(sseKeepAlive)
	defer keep.Stop()
	var seen uint64
	sent := false
	// A reconnecting client names the last generation it absorbed
	// (Last-Event-ID header, or ?last_event_id for clients that cannot
	// set headers). When history retains the gap, replay it as ordinary
	// estimate events so the client resumes without a visible reset;
	// when it does not (or history is off), fall through to the live
	// feed — every estimate event carries full state, so the next one
	// is itself the resync.
	if last, ok := ls.sseBackfill(w, rc, r); ok {
		seen, sent = last, true
	} else if last == sseBackfillFailed {
		return
	}
	for {
		seq, payload, fatal, closed, next := ls.hub.Latest()
		if payload != nil && (!sent || seq != seen) {
			if _, err := w.Write(payload); err != nil {
				return
			}
			if err := rc.Flush(); err != nil {
				return
			}
			seen, sent = seq, true
			if fatal {
				return
			}
		}
		if closed {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-next:
		case <-keep.C:
			if _, err := io.WriteString(w, ": keepalive\n\n"); err != nil {
				return
			}
			if err := rc.Flush(); err != nil {
				return
			}
		}
	}
}

// readStats is the observability view of the cached read path, served
// at GET /v1/readstats: how many calibrations the generation refreshes
// have cost versus how many reads the cache absorbed.
func (ls *liveState) readStats() map[string]any {
	cs := ls.cache.Stats()
	hs := ls.hub.Stats()
	ls.mu.Lock()
	gen, n, cal, top1 := ls.seq, ls.n, ls.calibrations, ls.top1
	ls.mu.Unlock()
	out := map[string]any{
		"generation":   gen,
		"reports":      n,
		"calibrations": cal,
		"top1":         top1,
		"cache":        map[string]any{"hits": cs.Hits, "misses": cs.Misses, "entries": cs.Entries, "bytes": cs.Bytes},
		"sse":          map[string]any{"subscribers": hs.Subscribers, "events": hs.Published},
	}
	if ls.hist != nil {
		out["history"] = ls.hist.Stats()
	}
	return out
}

func argmax(xs []float64) int {
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}

func jsonError(err error) []byte {
	data, _ := json.Marshal(map[string]string{"error": err.Error()})
	return data
}

// LiveHandler is the standalone read-only face of a merged delta
// stream: the read routes a Handler serves, minus the ingest endpoints.
// idldp-merge mounts one over the fleet's merged stream so fleet-wide
// dashboards scale exactly like single-node ones.
type LiveHandler struct {
	ls   *liveState
	sub  *stream.Sub
	mux  *http.ServeMux
	once sync.Once
}

// NewLiveWithHistory builds a read-only live surface over any
// delta-stream subscription (fleet.Subscribe, Publisher.Subscribe, …)
// for an m-bit domain; window <= 0 selects DefaultWindow. With a non-nil
// hist, frames are spilled into it, the window is replayed from it at
// construction so the ring survives restarts, and the time-travel reads
// answer; the stream feeding sub must then have been resumed past
// hist.LastSeq() (see stream.WithResume / the startSeq of fleet.New) so
// the log's generations never regress. The handler owns sub: Close
// closes it, which stops the consumer. It does not own hist; the caller
// Closes it after the handler.
func NewLiveWithHistory(sub *stream.Sub, bits int, est Estimator, window int, hist *history.Store) (*LiveHandler, error) {
	if sub == nil {
		return nil, fmt.Errorf("httpapi: subscription is required")
	}
	ls, err := newLiveState(sub, bits, est, window, hist)
	if err != nil {
		return nil, err
	}
	lh := &LiveHandler{ls: ls, sub: sub, mux: http.NewServeMux()}
	ls.mount(lh.mux)
	return lh, nil
}

// ServeHTTP implements http.Handler.
func (lh *LiveHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) { lh.mux.ServeHTTP(w, r) }

// SetTelemetry registers the read-path metric views on reg; the caller
// mounts reg.Handler() wherever /metrics should live. Nil is a no-op.
func (lh *LiveHandler) SetTelemetry(reg *telemetry.Registry) {
	if reg != nil {
		lh.ls.registerMetrics(reg)
	}
}

// Close unsubscribes from the stream, stopping the consumer and closing
// the SSE hub (connected clients are hung up).
func (lh *LiveHandler) Close() error {
	lh.once.Do(lh.sub.Close)
	return nil
}

// Package httpapi serves the collection pipeline to HTTP/JSON clients
// that cannot speak the framed TCP protocol (browsers, mobile SDKs,
// dashboards). Fleet peers never use it: register, heartbeat, delta
// push and snapshot poll all run over framed TCP (internal/transport).
// Endpoints:
//
//	POST /v1/report            {"words": [..], "bits": n}   one perturbed report
//	POST /v1/batch             {"counts": [..], "n": k}     pre-summed batch
//	GET  /v1/estimates         calibrated estimates; ?window=k restricts to the
//	                           last k stream intervals; ?at=<seq|time> and
//	                           ?from=..&to=.. answer from the history log, 410
//	                           past retention; a generation or settled span read
//	                           before is served from a bounded cache of
//	                           immutable bodies (history-enabled handlers only)
//	GET  /v1/estimates/stream  Server-Sent Events: one "estimate" event per
//	                           published interval; Last-Event-ID resumes via a
//	                           history backfill
//	GET  /v1/metrics/history   journaled telemetry snapshots over a generation
//	                           range, counters healed monotone across restarts
//	                           (history-enabled handlers only)
//	GET  /v1/readstats         read-path cache/hub counters: generation,
//	                           calibrations, hits/misses/bytes, SSE subscribers
//	GET  /v1/status            {"reports": k, "bits": m}
//	GET  /v1/stats             runtime metrics (server.Stats)
//	GET  /v1/healthz           liveness: 200 while the process serves HTTP
//	GET  /v1/readyz            readiness: 200 while new reports are admitted,
//	                           503 while draining, saturated, or closed
//
// The four read routes (estimates, stream, readstats, metrics/history)
// are one table over one live state (see stream.go), mounted both by the
// node Handler here and by the merger's LiveHandler over a fleet's
// merged stream. A merger additionally serves GET /v1/fleet (registry.go).
//
// Ingest endpoints are flow-controlled: a draining or saturated runtime
// answers 429 Too Many Requests with a Retry-After hint instead of
// silently dropping — the client still owns the report and re-sends
// after backing off (see internal/flow).
//
// As with the TCP transport, only perturbed data crosses the wire; the
// server is untrusted with raw inputs by construction.
//
// Ingestion runs on the sharded runtime of internal/server. HTTP gives no
// per-client stream to batch over, so the handler keeps a pool of
// batchers shared across requests: each accepted report is decoded into a
// pooled buffer and folded into a pooled Batcher via the word-level
// zero-allocation path (Batcher.AddWords), never materializing a
// bitvec.Vector. A status read flushes every pooled batcher first, so it
// counts every accepted report; the pool is also flushed once per publish
// interval. Estimates reads serve a generation-stamped cache refreshed
// once per published interval (see stream.go) — they never take batcher
// locks, so heavy dashboard read traffic cannot serialize against
// ingest, and their staleness is bounded by the publish interval. Tune
// the runtime with server.Option values passed to NewStreaming, and
// Close the handler to stop the shard workers.
package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"idldp/internal/server"
	"idldp/internal/telemetry"
)

// Estimator calibrates aggregated counts; satisfied by closures over
// core.Engine or raw parameter slices.
type Estimator func(counts []int64, n int) ([]float64, error)

// lockedBatcher serializes a pooled Batcher between the request that
// checked it out and the flush-on-read sweep.
type lockedBatcher struct {
	mu sync.Mutex
	b  *server.Batcher
}

// Handler serves the collection API for an m-bit report domain: ingest
// into a sharded runtime, and the read routes over its delta stream.
type Handler struct {
	bits   int
	sink   *server.Server
	stream *liveState
	mux    *http.ServeMux

	closed    atomic.Bool
	flushStop chan struct{} // ends flushLoop; closed by the first Close

	// Reused request-body buffers for the report fast path.
	bodies sync.Pool // *reportBody

	// Batcher free list. A plain stack, not a sync.Pool: pool victims
	// would be evicted by GC while still registered in batchers, growing
	// the registry without bound. The stack caps the population at the
	// peak request concurrency; batchers remembers every one ever created
	// so reads can flush them all.
	bmu      sync.Mutex
	free     []*lockedBatcher
	batchers []*lockedBatcher
}

// NewStreaming returns a handler for m-bit reports calibrated by est,
// over an ingestion runtime built with opts (e.g. server.WithShards)
// plus server.WithStream at cfg.Interval.
func NewStreaming(bits int, est Estimator, cfg StreamConfig, opts ...server.Option) (*Handler, error) {
	sink, err := server.New(bits, append(opts, server.WithStream(cfg.Interval))...)
	if err != nil {
		return nil, fmt.Errorf("httpapi: %w", err)
	}
	return NewSinkStreaming(sink, est, cfg)
}

// NewSinkStreaming wraps an already-built ingestion runtime — the hook
// for runtimes constructed with server.Restore. The sink must have been
// built with server.WithStream. The handler takes ownership of sink:
// Close closes it, and so does a failed construction.
func NewSinkStreaming(sink *server.Server, est Estimator, cfg StreamConfig) (*Handler, error) {
	sub, err := sink.Subscribe(16)
	if err != nil {
		sink.Close()
		return nil, fmt.Errorf("httpapi: %w", err)
	}
	live, err := newLiveState(sub, sink.Bits(), est, cfg.Window, cfg.History)
	if err != nil {
		sink.Close() // and with it sub
		return nil, err
	}
	h := &Handler{bits: sink.Bits(), sink: sink, stream: live, mux: http.NewServeMux(), flushStop: make(chan struct{})}
	h.bodies.New = func() any { return new(reportBody) }
	h.mux.HandleFunc("POST /v1/report", h.handleReport)
	h.mux.HandleFunc("POST /v1/batch", h.handleBatch)
	h.mux.HandleFunc("GET /v1/status", h.handleStatus)
	h.mux.HandleFunc("GET /v1/stats", h.handleStats)
	health := NewHealth(h.ready)
	h.mux.Handle("/v1/healthz", health)
	h.mux.Handle("/v1/readyz", health)
	live.mount(h.mux)
	// Without other readers, reports POSTed to /v1/report sit in the
	// pooled batchers below the batch threshold and the runtime's
	// publisher never sees them. Flush on the publish cadence so
	// HTTP-ingested reports reach the live feed within ~two intervals.
	interval := cfg.Interval
	if interval <= 0 {
		interval = server.DefaultStreamInterval
	}
	go h.flushLoop(interval)
	return h, nil
}

// flushLoop pushes the pooled batchers' pending reports into the
// runtime every interval until Close.
func (h *Handler) flushLoop(interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			h.flushAll()
		case <-h.flushStop:
			return
		}
	}
}

// BeginDrain flips the ingestion runtime into graceful-drain mode: new
// reports are answered 429 with Retry-After (readyz goes 503) while
// reads and the final flush keep working. First step of the SIGTERM
// sequence; see server.BeginDrain.
func (h *Handler) BeginDrain() { h.sink.BeginDrain() }

// SetTelemetry mounts the Prometheus exposition page at GET /metrics on
// the handler's mux and registers the cached-read-path metric views (nil
// reg is a no-op). The ingestion runtime's own metrics appear when the
// sink was built with server.WithTelemetry on the same registry. Call
// before serving.
func (h *Handler) SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	h.mux.Handle("GET /metrics", reg.Handler())
	h.stream.registerMetrics(reg)
}

// SetSLO mounts an SLO report endpoint (slo.Engine.Handler) at
// GET /v1/slo on the handler's mux. Call before serving; nil is a
// no-op.
func (h *Handler) SetSLO(report http.Handler) {
	if report == nil {
		return
	}
	h.mux.Handle("GET /v1/slo", report)
}

// Close flushes the pooled batchers and stops the ingestion runtime.
// Ingestion requests after Close are answered with 503; status and
// estimates keep serving the drained final state.
func (h *Handler) Close() error {
	if !h.closed.Swap(true) {
		close(h.flushStop)
		h.flushAll()
	}
	return h.sink.Close()
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) { h.mux.ServeHTTP(w, r) }

// reportBody is the POST /v1/report payload.
type reportBody struct {
	Words []uint64 `json:"words"`
	Bits  int      `json:"bits"`
}

// batchBody is the POST /v1/batch payload.
type batchBody struct {
	Counts []int64 `json:"counts"`
	N      int64   `json:"n"`
}

func (h *Handler) handleReport(w http.ResponseWriter, r *http.Request) {
	if h.closed.Load() {
		// Reject up front: a pooled batcher would silently buffer the
		// report and only notice the closed runtime at the next flush.
		httpError(w, http.StatusServiceUnavailable, server.ErrClosed.Error())
		return
	}
	// Flow control: a draining or saturated runtime pushes back with 429
	// + Retry-After instead of silently dropping — the client still owns
	// the report and re-sends after backing off.
	if err := h.sink.Admit(1); err != nil {
		writeShed(w, err)
		return
	}
	h.sink.NoteTrace(telemetry.TraceFromRequest(r))
	body := h.bodies.Get().(*reportBody)
	defer h.bodies.Put(body)
	// Reset in place, keeping the words capacity: json.Unmarshal reuses
	// the backing array, so the steady-state decode allocates nothing.
	body.Words, body.Bits = body.Words[:0], 0
	if err := decodeJSON(w, r, body); err != nil {
		return
	}
	lb := h.getBatcher()
	lb.mu.Lock()
	err := lb.b.AddWords(body.Words, body.Bits)
	if err == nil && h.closed.Load() {
		// Close raced past the up-front check and may already have swept
		// the batchers; push the report through (or learn the sink is
		// closed) before acknowledging, so a 202 is never silently lost.
		err = lb.b.Flush()
	}
	lb.mu.Unlock()
	h.putBatcher(lb)
	if err != nil {
		httpError(w, statusFor(err), err.Error())
		return
	}
	w.WriteHeader(http.StatusAccepted)
}

// getBatcher pops a free batcher or registers a new one.
func (h *Handler) getBatcher() *lockedBatcher {
	h.bmu.Lock()
	defer h.bmu.Unlock()
	if n := len(h.free); n > 0 {
		lb := h.free[n-1]
		h.free = h.free[:n-1]
		return lb
	}
	// Blocking mode: an accepted (202) report must never be silently
	// shed at a later flush — overload is refused up front with 429 by
	// the Admit gate instead.
	lb := &lockedBatcher{b: h.sink.NewBlockingBatcher()}
	h.batchers = append(h.batchers, lb)
	return lb
}

func (h *Handler) putBatcher(lb *lockedBatcher) {
	h.bmu.Lock()
	h.free = append(h.free, lb)
	h.bmu.Unlock()
}

func (h *Handler) handleBatch(w http.ResponseWriter, r *http.Request) {
	var body batchBody
	if err := decodeJSON(w, r, &body); err != nil {
		return
	}
	if err := h.sink.Admit(body.N); err != nil {
		writeShed(w, err)
		return
	}
	h.sink.NoteTrace(telemetry.TraceFromRequest(r))
	// The sink takes ownership of the counts slice, so the batch path
	// cannot pool its body; batching clients amortize the cost anyway.
	// Blocking placement: the batch was admitted, so it must land.
	if err := h.sink.AddCountsBlocking(body.Counts, body.N); err != nil {
		httpError(w, statusFor(err), err.Error())
		return
	}
	w.WriteHeader(http.StatusAccepted)
}

// snapshot returns the runtime state consistent with every accepted
// report: pooled batchers are flushed first (skipped once closed — the
// sink then serves its drained final state).
func (h *Handler) snapshot() (counts []int64, n int64) {
	if !h.closed.Load() {
		h.flushAll()
	}
	return h.sink.Snapshot()
}

func (h *Handler) flushAll() {
	h.bmu.Lock()
	lbs := append([]*lockedBatcher(nil), h.batchers...)
	h.bmu.Unlock()
	for _, lb := range lbs {
		lb.mu.Lock()
		_ = lb.b.Flush()
		lb.mu.Unlock()
	}
}

func (h *Handler) handleStatus(w http.ResponseWriter, r *http.Request) {
	_, n := h.snapshot()
	writeJSON(w, map[string]any{"reports": n, "bits": h.bits})
}

func (h *Handler) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, h.sink.Stats())
}

// handleHealthz is liveness: the process is up and serving HTTP. It
// stays 200 during drain — a draining process is alive, just not ready.
func handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]any{"ok": true})
}

// ready is readiness: true while the collector admits new reports,
// false once it is draining, saturated, or closed — the signal load
// balancers and orchestrators use to route traffic away BEFORE the
// listener stops.
func (h *Handler) ready() (bool, string) {
	switch {
	case h.closed.Load():
		return false, "closed"
	case h.sink.Draining():
		return false, "draining"
	case h.sink.Saturated():
		return false, "saturated"
	}
	return true, ""
}

// NewHealth returns a health surface — GET /v1/healthz (liveness, always
// 200) and GET /v1/readyz (200 while ready reports true, 503 with the
// reason otherwise). The node Handler mounts one over its runtime's
// readiness; the merger daemon mounts one over its own.
func NewHealth(ready func() (bool, string)) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", handleHealthz)
	mux.HandleFunc("GET /v1/readyz", func(w http.ResponseWriter, r *http.Request) {
		if ok, reason := ready(); !ok {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			_ = json.NewEncoder(w).Encode(map[string]any{"ready": false, "reason": reason})
			return
		}
		writeJSON(w, map[string]any{"ready": true})
	})
	return mux
}

// statusFor maps ingestion errors to HTTP statuses: a closed runtime is a
// service condition, anything else a bad request.
func statusFor(err error) int {
	if errors.Is(err, server.ErrClosed) {
		return http.StatusServiceUnavailable
	}
	return http.StatusBadRequest
}

func decodeJSON(w http.ResponseWriter, r *http.Request, dst any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 16<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		httpError(w, http.StatusBadRequest, "malformed JSON: "+err.Error())
		return err
	}
	return nil
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// noWindow is the window argument of an estimates body that has no
// "window" field (the cumulative answers).
const noWindow = -1

// estimatesBody renders the one body every /v1/estimates answer uses —
// {"estimates":[..],"reports":n} plus "window":k for windowed and range
// answers — newline-terminated. Live, cached and time-travel answers
// are byte-identical because they all come through here.
func estimatesBody(est []float64, n int64, window int) ([]byte, error) {
	v := struct {
		Estimates []float64 `json:"estimates"`
		Reports   int64     `json:"reports"`
		Window    *int      `json:"window,omitempty"`
	}{Estimates: est, Reports: n}
	if window != noWindow {
		v.Window = &window
	}
	body, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(body, '\n'), nil
}

// emptyBody is the answer over zero reports: 200 with no estimates.
func emptyBody(window int) []byte {
	body, _ := estimatesBody([]float64{}, 0, window) // no float to refuse
	return body
}

// writeBody sends a complete pre-marshaled JSON body. The length is
// known, so it is declared: net/http would otherwise chunk-encode
// anything past its 2 KB sniff buffer.
func writeBody(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	_, _ = w.Write(body)
}

// writeShed answers a pushed-back ingest request: 429 Too Many
// Requests with a Retry-After hint (whole seconds, minimum 1, per RFC
// 9110) plus the precise hint in the body for clients that can do
// better than second granularity.
func writeShed(w http.ResponseWriter, err error) {
	retry := server.DefaultRetryAfter
	secs := int(retry / time.Second)
	if retry%time.Second != 0 {
		secs++
	}
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusTooManyRequests)
	_ = json.NewEncoder(w).Encode(map[string]any{
		"error":          err.Error(),
		"shed":           true,
		"retry_after_ms": retry.Milliseconds(),
	})
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// Time-travel read surface: GET /v1/estimates?at / ?from&to answered
// from the history log (internal/history), GET /v1/metrics/history
// replaying the telemetry journal, and the SSE Last-Event-ID backfill.
//
// The exactness contract mirrors the live path deliberately: a
// historical answer is reconstructed from the same integer sums the
// live window folded, calibrated through the same Estimator, and
// marshaled by the same estimatesBody — so /v1/estimates?at=g is
// byte-identical to what /v1/estimates answered while generation g was
// current, and a range [from,to] is byte-identical to the windowed
// payload of span to-from published at generation to. Query metadata
// (the clamped span, the generation actually answered) rides response
// headers, never the body, to keep that identity exact.
package httpapi

import (
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"strconv"
	"time"

	"idldp/internal/history"
	"idldp/internal/readcache"
	"idldp/internal/slo"
	"idldp/internal/telemetry"
)

// maxSSEBackfill caps how many generations a reconnecting SSE client is
// backfilled; estimate events carry full state, so skipping further
// back would only replay what the next event supersedes anyway.
const maxSSEBackfill = 128

// sseBackfillFailed is the sentinel sseBackfill returns when a write to
// the client failed — the caller hangs up instead of entering the live
// loop.
const sseBackfillFailed = ^uint64(0)

// calibrate runs the estimator under ls.mu with the same latency and
// count accounting as the live refresh.
func (ls *liveState) calibrate(counts []int64, n int64) ([]float64, error) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	start := time.Now()
	est, err := ls.est(counts, int(n))
	ls.hCalib.ObserveSince(start)
	ls.calibrations++
	return est, err
}

// resolveSeq parses a query value naming a generation: either a
// sequence number or an RFC 3339 timestamp (resolved to the newest
// generation recorded at or before it).
func (ls *liveState) resolveSeq(raw string) (uint64, error) {
	if v, err := strconv.ParseUint(raw, 10, 64); err == nil {
		return v, nil
	}
	t, err := time.Parse(time.RFC3339Nano, raw)
	if err != nil {
		if t, err = time.Parse(time.RFC3339, raw); err != nil {
			return 0, errors.New("want a sequence number or an RFC 3339 time")
		}
	}
	// ok=false means every record is newer than t: seq 0 falls below the
	// retention horizon downstream, which is exactly what it is.
	seq, _ := ls.hist.SeqAtTime(t)
	return seq, nil
}

// writeHistoryErr renders a history query failure: a range past the
// retention horizon is 410 Gone with the oldest still-answerable
// generation, anything else a 500.
func writeHistoryErr(w http.ResponseWriter, err error) {
	var te *history.TruncatedError
	if errors.As(err, &te) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusGone)
		_ = json.NewEncoder(w).Encode(map[string]any{
			"error":      "history truncated",
			"oldest_seq": te.Oldest,
			"truncated":  true,
		})
		return
	}
	httpError(w, http.StatusInternalServerError, err.Error())
}

// finishPast is the shared tail of a time-travel read that missed the
// cache: calibrate the reconstructed sums, marshal the one estimates
// body, keep it under key when the answer can never change, send it.
// window is the body's "window" field (noWindow for ?at). An answer
// over zero reports is never kept.
func (ls *liveState) finishPast(w http.ResponseWriter, key readcache.Past, immutable bool, counts []int64, n int64, window int) {
	if n == 0 {
		writeBody(w, emptyBody(window))
		return
	}
	est, err := ls.calibrate(counts, n)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	body, err := estimatesBody(est, n, window)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if immutable {
		ls.cache.PutPast(key, body)
	}
	writeBody(w, body)
}

// serveHistoryAt answers GET /v1/estimates?at=<seq|time>: the
// cumulative estimates exactly as the live endpoint answered them while
// that generation was current. The read is resolved against the store
// first — retention decides 410 before the cache is consulted — and the
// generation actually answered (at clamps down to the newest recorded
// one) rides X-Idldp-Generation and keys the cached body, so ?at=<seq>,
// ?at=<future> and ?at=<time> landing on one generation share an entry.
func (ls *liveState) serveHistoryAt(w http.ResponseWriter, raw string) {
	at, err := ls.resolveSeq(raw)
	if err != nil {
		httpError(w, http.StatusBadRequest, "at: "+err.Error())
		return
	}
	seq, n, err := ls.hist.ResolveAt(at)
	if err != nil {
		writeHistoryErr(w, err)
		return
	}
	key := readcache.Past{To: seq}
	if n > 0 {
		if body, ok := ls.cache.GetPast(key); ok {
			w.Header().Set("X-Idldp-Generation", strconv.FormatUint(seq, 10))
			writeBody(w, body)
			return
		}
	}
	// A resolved generation resolves to itself, so seq is unchanged here
	// unless a prune got in between, which is the 410.
	counts, n, seq, err := ls.hist.CumulativeAt(seq)
	if err != nil {
		writeHistoryErr(w, err)
		return
	}
	w.Header().Set("X-Idldp-Generation", strconv.FormatUint(seq, 10))
	ls.finishPast(w, key, true, counts, n, noWindow)
}

// serveHistoryRange answers GET /v1/estimates?from=..&to=..: the
// estimates over exactly the intervals from < seq <= to, the historical
// analogue of ?window=k (and byte-identical to it when the span
// matches). A from past retention clamps up to the horizon —
// X-Idldp-From/To report the span actually summed and X-Idldp-Clamped
// whether it was narrowed; a range entirely past retention is 410.
// Only a settled, unclamped, non-empty span is kept in the cache: one
// reaching past the newest generation still grows, and a clamped one
// depends on what has been pruned (so it is not even looked up — the
// body under its key would be the answer from before the prune).
func (ls *liveState) serveHistoryRange(w http.ResponseWriter, fromRaw, toRaw string) {
	var from, to uint64
	var err error
	if fromRaw != "" {
		if from, err = ls.resolveSeq(fromRaw); err != nil {
			httpError(w, http.StatusBadRequest, "from: "+err.Error())
			return
		}
	}
	if toRaw != "" {
		if to, err = ls.resolveSeq(toRaw); err != nil {
			httpError(w, http.StatusBadRequest, "to: "+err.Error())
			return
		}
	} else {
		to = ls.hist.LastSeq()
	}
	if to < from {
		httpError(w, http.StatusBadRequest, "from must not exceed to")
		return
	}
	bounds := func(sp history.Span) {
		w.Header().Set("X-Idldp-From", strconv.FormatUint(sp.From, 10))
		w.Header().Set("X-Idldp-To", strconv.FormatUint(sp.To, 10))
		w.Header().Set("X-Idldp-Clamped", strconv.FormatBool(sp.Clamped))
	}
	resolved, err := ls.hist.ResolveRange(from, to)
	if err != nil {
		writeHistoryErr(w, err)
		return
	}
	key := readcache.Past{Span: true, From: from, To: to}
	if !resolved.Clamped {
		if body, ok := ls.cache.GetPast(key); ok {
			bounds(resolved)
			writeBody(w, body)
			return
		}
	}
	// The header and the window field come from the span this very sum
	// used, not from a horizon read before or after it.
	sp, err := ls.hist.Sum(from, to)
	if err != nil {
		writeHistoryErr(w, err)
		return
	}
	bounds(sp)
	ls.finishPast(w, key, sp.Settled && !sp.Clamped, sp.Counts, sp.DN, int(sp.To-sp.From))
}

// sseBackfill replays the generations a reconnecting SSE client missed
// (its Last-Event-ID header, or ?last_event_id) as ordinary estimate
// events reconstructed from history. Returns (lastDelivered, true) when
// at least one event shipped; (sseBackfillFailed, false) when the
// client went away mid-backfill; (0, false) when there is nothing to do
// — no resume id, no history, gap past retention (the live feed's next
// event carries full state and is itself the resync).
func (ls *liveState) sseBackfill(w http.ResponseWriter, rc *http.ResponseController, r *http.Request) (uint64, bool) {
	if ls.hist == nil {
		return 0, false
	}
	raw := r.Header.Get("Last-Event-ID")
	if raw == "" {
		raw = r.URL.Query().Get("last_event_id")
	}
	if raw == "" {
		return 0, false
	}
	from, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		return 0, false
	}
	to := ls.hist.LastSeq()
	if to <= from {
		return 0, false
	}
	if to-from > maxSSEBackfill {
		from = to - maxSSEBackfill
	}
	var last uint64
	failed := false
	err = ls.hist.ReplayRange(from, to, func(seq uint64, at time.Time, counts []int64, n int64) error {
		est, cerr := ls.calibrate(counts, n)
		if cerr != nil {
			return cerr
		}
		data, merr := json.Marshal(estimateEvent{Seq: seq, N: n, Estimates: est, Top1: argmax(est)})
		if merr != nil {
			return merr
		}
		if _, werr := w.Write(sseChunk("estimate", seq, data)); werr != nil {
			failed = true
			return werr
		}
		if werr := rc.Flush(); werr != nil {
			failed = true
			return werr
		}
		last = seq
		return nil
	})
	if failed {
		return sseBackfillFailed, false
	}
	if err != nil {
		// Truncated (or a calibration hiccup): deliver nothing more and
		// let the live feed resync; whatever already shipped is exact.
		return last, last > 0
	}
	return last, last > 0
}

// serveMetricsHistory answers GET /v1/metrics/history?from=..&to=..:
// the journaled telemetry snapshots over the generation range, with
// counters and histogram totals healed across process restarts
// (per-series offsets, rate()-style: a value that regresses marks a
// reset, and the pre-reset total is carried forward so every series
// stays monotone). Optional ?good=&bad=&target= recomputes the SLO
// burn rate per entry from the named counters' interval deltas using
// the live engine's arithmetic (slo.Burn). Without a history log it
// answers 501.
func (ls *liveState) serveMetricsHistory(w http.ResponseWriter, r *http.Request) {
	if ls.hist == nil {
		httpError(w, http.StatusNotImplemented, "history is not enabled on this server")
		return
	}
	q := r.URL.Query()
	var from uint64
	to := uint64(math.MaxUint64)
	var err error
	if raw := q.Get("from"); raw != "" {
		if from, err = ls.resolveSeq(raw); err != nil {
			httpError(w, http.StatusBadRequest, "from: "+err.Error())
			return
		}
	}
	if raw := q.Get("to"); raw != "" {
		if to, err = ls.resolveSeq(raw); err != nil {
			httpError(w, http.StatusBadRequest, "to: "+err.Error())
			return
		}
	}
	if to < from {
		httpError(w, http.StatusBadRequest, "from must not exceed to")
		return
	}
	goodName, badName := q.Get("good"), q.Get("bad")
	var target float64
	wantBurn := badName != ""
	if wantBurn {
		target, err = strconv.ParseFloat(q.Get("target"), 64)
		if err != nil || target <= 0 || target >= 1 {
			httpError(w, http.StatusBadRequest, "target must be in (0, 1)")
			return
		}
	}
	recs, err := ls.hist.Telemetry(from, to)
	if err != nil {
		writeHistoryErr(w, err)
		return
	}
	type histTotals struct {
		Count uint64  `json:"count"`
		Sum   float64 `json:"sum_seconds"`
	}
	// Reset healing: offsets carry each monotone series across restarts.
	cOffset := map[string]int64{}
	cLast := map[string]int64{}
	hcOffset := map[string]uint64{}
	hcLast := map[string]uint64{}
	hsOffset := map[string]int64{}
	hsLast := map[string]int64{}
	var prevGood, prevBad int64
	havePrev := false
	skipped := 0
	entries := make([]map[string]any, 0, len(recs))
	for _, rec := range recs {
		snap, uerr := telemetry.UnpackSnapshot(rec.Payload)
		if uerr != nil {
			skipped++
			continue
		}
		counters := map[string]int64{}
		gauges := map[string]float64{}
		hists := map[string]histTotals{}
		for i := range snap.Metrics {
			m := &snap.Metrics[i]
			key := m.Name + m.Labels
			switch m.Kind {
			case telemetry.SnapCounter:
				if m.Counter < cLast[key] {
					cOffset[key] += cLast[key]
				}
				cLast[key] = m.Counter
				counters[key] = cOffset[key] + m.Counter
			case telemetry.SnapGauge:
				gauges[key] = m.Gauge
			case telemetry.SnapHistogram:
				var count uint64
				var sum int64
				if m.Hist != nil {
					count, sum = m.Hist.Count, m.Hist.SumNano
				}
				if count < hcLast[key] {
					hcOffset[key] += hcLast[key]
					hsOffset[key] += hsLast[key]
				}
				hcLast[key], hsLast[key] = count, sum
				hists[key] = histTotals{
					Count: hcOffset[key] + count,
					Sum:   float64(hsOffset[key]+sum) / 1e9,
				}
			}
		}
		entry := map[string]any{
			"seq":        rec.Seq,
			"time":       rec.Time.UTC().Format(time.RFC3339Nano),
			"counters":   counters,
			"gauges":     gauges,
			"histograms": hists,
		}
		if wantBurn {
			good, bad := counters[goodName], counters[badName]
			dGood, dBad := good, bad
			if havePrev {
				dGood, dBad = good-prevGood, bad-prevBad
			}
			entry["burn"] = slo.Burn(dGood+dBad, dBad, target)
			prevGood, prevBad, havePrev = good, bad, true
		}
		entries = append(entries, entry)
	}
	writeJSON(w, map[string]any{
		"entries": entries,
		"count":   len(entries),
		"skipped": skipped,
	})
}

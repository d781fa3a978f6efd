package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"idldp/internal/history"
	"idldp/internal/readcache"
	"idldp/internal/telemetry"
)

// readStats is the part of /v1/readstats the cache-rule tests read.
type readStatsView struct {
	Calibrations int64 `json:"calibrations"`
	Cache        struct {
		Hits    int64 `json:"hits"`
		Misses  int64 `json:"misses"`
		Entries int   `json:"entries"`
		Bytes   int64 `json:"bytes"`
	} `json:"cache"`
}

func (h *histHarness) readStats() readStatsView {
	h.t.Helper()
	var rs readStatsView
	_, _, body := h.get("/v1/readstats")
	if err := json.Unmarshal(body, &rs); err != nil {
		h.t.Fatalf("readstats %s: %v", body, err)
	}
	return rs
}

// answer is everything a time-travel response says.
type answer struct {
	code int
	body []byte
	meta string // the generation / span / length headers, in one string
}

func (h *histHarness) answer(path string) answer {
	h.t.Helper()
	code, hdr, body := h.get(path)
	var meta []string
	for _, k := range []string{"Content-Type", "Content-Length", "X-Idldp-Generation", "X-Idldp-From", "X-Idldp-To", "X-Idldp-Clamped"} {
		meta = append(meta, k+"="+hdr.Get(k))
	}
	return answer{code, body, strings.Join(meta, " ")}
}

func (a answer) same(b answer) bool {
	return a.code == b.code && a.meta == b.meta && bytes.Equal(a.body, b.body)
}

// TestTimeTravelRereadsCostNoCalibration: two dashboards on two
// generations (and two spans) alternate. The first round reconstructs
// and calibrates; every later round is served from the cache — zero
// calibrations — with the same bytes and the same headers.
func TestTimeTravelRereadsCostNoCalibration(t *testing.T) {
	h := newHistHarness(t, t.TempDir(), 6, 16, history.Config{})
	h.publish3()
	paths := []string{"/v1/estimates?at=3", "/v1/estimates?at=4", "/v1/estimates?from=2&to=4", "/v1/estimates?from=2&to=3"}
	before := h.readStats()
	first := map[string]answer{}
	for _, p := range paths {
		first[p] = h.answer(p)
		if first[p].code != 200 || !strings.Contains(first[p].meta, fmt.Sprintf("Content-Length=%d", len(first[p].body))) {
			t.Fatalf("%s: %d %s (%d body bytes)", p, first[p].code, first[p].meta, len(first[p].body))
		}
	}
	warm := h.readStats()
	if got := warm.Calibrations - before.Calibrations; got != int64(len(paths)) {
		t.Fatalf("first round cost %d calibrations, want %d", got, len(paths))
	}
	if got := warm.Cache.Misses - before.Cache.Misses; got != int64(len(paths)) {
		t.Fatalf("first round counted %d misses, want %d (range reads included)", got, len(paths))
	}
	for round := 2; round <= 4; round++ {
		for _, p := range paths {
			if again := h.answer(p); !again.same(first[p]) {
				t.Fatalf("round %d %s:\n first %d %s %s\n again %d %s %s", round, p,
					first[p].code, first[p].meta, first[p].body, again.code, again.meta, again.body)
			}
		}
	}
	after := h.readStats()
	if after.Calibrations != warm.Calibrations {
		t.Fatalf("re-reads cost %d calibrations, want 0", after.Calibrations-warm.Calibrations)
	}
	if got := after.Cache.Hits - warm.Cache.Hits; got != int64(3*len(paths)) {
		t.Fatalf("re-reads counted %d hits, want %d", got, 3*len(paths))
	}
	if after.Cache.Bytes <= 0 || after.Cache.Bytes > readcache.PastBudget {
		t.Fatalf("cache bytes = %d", after.Cache.Bytes)
	}
}

// TestTimeTravelKeysOnTheResolvedGeneration: a sequence number, a
// future sequence number and a wall-clock instant that all land on
// generation 4 are one cached answer, not three.
func TestTimeTravelKeysOnTheResolvedGeneration(t *testing.T) {
	h := newHistHarness(t, t.TempDir(), 6, 16, history.Config{})
	h.publish3()
	before := h.readStats()
	stamp := url.QueryEscape(time.Now().Add(time.Hour).UTC().Format(time.RFC3339))
	first := h.answer("/v1/estimates?at=4")
	for _, p := range []string{"/v1/estimates?at=999999", "/v1/estimates?at=" + stamp} {
		if a := h.answer(p); !a.same(first) {
			t.Fatalf("%s answered %d %s, ?at=4 answered %d %s", p, a.code, a.meta, first.code, first.meta)
		}
	}
	after := h.readStats()
	if after.Cache.Entries-before.Cache.Entries != 1 || after.Calibrations-before.Calibrations != 1 {
		t.Fatalf("three spellings of one generation: %d new entries, %d calibrations; want 1, 1",
			after.Cache.Entries-before.Cache.Entries, after.Calibrations-before.Calibrations)
	}
}

// TestGrowingRangeIsNeverCached: a span reaching past the newest
// generation gains records as the campaign goes on, so it is recomputed
// on every read and changes when the next generation lands.
func TestGrowingRangeIsNeverCached(t *testing.T) {
	h := newHistHarness(t, t.TempDir(), 6, 16, history.Config{})
	h.publish3() // newest generation 4
	before := h.readStats()
	first := h.answer("/v1/estimates?from=2&to=6")
	again := h.answer("/v1/estimates?from=2&to=6")
	mid := h.readStats()
	if first.code != 200 || !again.same(first) {
		t.Fatalf("open-ended range: %d then %d", first.code, again.code)
	}
	if mid.Calibrations-before.Calibrations != 2 || mid.Cache.Entries != before.Cache.Entries {
		t.Fatalf("open-ended range read twice: %d calibrations, %d new entries; want 2, 0",
			mid.Calibrations-before.Calibrations, mid.Cache.Entries-before.Cache.Entries)
	}
	if err := h.pub.Publish([]int64{9, 6, 2, 3, 2, 2}, 25); err != nil {
		t.Fatal(err)
	}
	h.waitGen(5)
	grown := h.answer("/v1/estimates?from=2&to=6")
	if grown.code != 200 || bytes.Equal(grown.body, first.body) || !bytes.Contains(grown.body, []byte(`"reports":17`)) {
		t.Fatalf("after generation 5 the range answered %s (was %s)", grown.body, first.body)
	}
	// An empty answer is not kept either, settled and unclamped as it is.
	entries := h.readStats().Cache.Entries
	if a := h.answer("/v1/estimates?from=4&to=4"); a.code != 200 || !bytes.Equal(a.body, []byte(`{"estimates":[],"reports":0,"window":0}`+"\n")) {
		t.Fatalf("empty span answered %d %s", a.code, a.body)
	}
	if got := h.readStats().Cache.Entries; got != entries {
		t.Fatalf("empty answer was cached (%d -> %d entries)", entries, got)
	}
}

// TestRetentionOutranksTheCache: once retention prunes a generation its
// cached body is unreachable — ?at answers 410 — and a span that is now
// clamped is summed afresh over what is left, on every read.
func TestRetentionOutranksTheCache(t *testing.T) {
	h := newHistHarness(t, t.TempDir(), 6, 16, history.Config{KeepSegments: 2, SegmentRecords: 2})
	counts := make([]int64, 6)
	var n int64
	publish := func(gen uint64) {
		t.Helper()
		counts[gen%6] += int64(gen)
		n += int64(gen)
		if err := h.pub.Publish(counts, n); err != nil {
			t.Fatal(err)
		}
		h.waitGen(gen)
	}
	for gen := uint64(2); gen <= 5; gen++ {
		publish(gen)
	}
	// Both answers are inside retention, settled, and now cached.
	at2, span := h.answer("/v1/estimates?at=2"), h.answer("/v1/estimates?from=2&to=5")
	if at2.code != 200 || span.code != 200 || !strings.Contains(span.meta, "X-Idldp-From=2 X-Idldp-To=5 X-Idldp-Clamped=false") {
		t.Fatalf("before the prune: ?at=2 %d, span %d %s", at2.code, span.code, span.meta)
	}
	warm := h.readStats()
	if !h.answer("/v1/estimates?at=2").same(at2) || !h.answer("/v1/estimates?from=2&to=5").same(span) ||
		h.readStats().Calibrations != warm.Calibrations {
		t.Fatal("answers were not cached before the prune")
	}

	publish(6) // rotates to a third segment; retention drops the first
	oldest := h.hist.OldestSeq()
	if oldest <= 2 || oldest >= 5 {
		t.Fatalf("oldest retained generation %d, want inside (2, 5)", oldest)
	}
	if a := h.answer("/v1/estimates?at=2"); a.code != http.StatusGone || bytes.Equal(a.body, at2.body) {
		t.Fatalf("pruned generation answered %d %s", a.code, a.body)
	}
	before := h.readStats()
	clamped := h.answer("/v1/estimates?from=2&to=5")
	wantMeta := fmt.Sprintf("X-Idldp-From=%d X-Idldp-To=5 X-Idldp-Clamped=true", oldest)
	if clamped.code != 200 || !strings.Contains(clamped.meta, wantMeta) || bytes.Equal(clamped.body, span.body) {
		t.Fatalf("clamped span answered %d %s (want %s), body changed: %v",
			clamped.code, clamped.meta, wantMeta, !bytes.Equal(clamped.body, span.body))
	}
	if !bytes.Contains(clamped.body, []byte(fmt.Sprintf(`"window":%d`, 5-oldest))) {
		t.Fatalf("clamped span body %s does not carry window %d", clamped.body, 5-oldest)
	}
	// It equals the unclamped span over what is left, and is recomputed
	// each time it is asked for.
	if direct := h.answer(fmt.Sprintf("/v1/estimates?from=%d&to=5", oldest)); !bytes.Equal(direct.body, clamped.body) {
		t.Fatalf("clamped span %s differs from the span over (%d, 5] %s", clamped.body, oldest, direct.body)
	}
	if !h.answer("/v1/estimates?from=2&to=5").same(clamped) {
		t.Fatal("clamped span changed between two reads")
	}
	if got := h.readStats().Calibrations - before.Calibrations; got != 3 {
		t.Fatalf("two clamped reads and one direct read cost %d calibrations, want 3", got)
	}
}

// TestPastCacheStaysWithinItsBudget reads more distinct generations
// than the byte budget holds: the bytes reported never pass it, the
// oldest reads have been evicted, the newest are hits, and the gauge is
// on the metrics page.
func TestPastCacheStaysWithinItsBudget(t *testing.T) {
	const bits, generations = 1024, 220
	h := newHistHarness(t, t.TempDir(), bits, 4, history.Config{})
	reg := telemetry.NewRegistry("idldp")
	h.lh.SetTelemetry(reg)
	counts := make([]int64, bits)
	var n int64
	for g := 0; g < generations; g++ {
		for i := range counts {
			counts[i] += int64(1_000_003*(g+1)+7919*i) % 100_000
		}
		n += 1_000_001
		if err := h.pub.Publish(counts, n); err != nil {
			t.Fatal(err)
		}
		h.waitGen(uint64(g + 2)) // in step: a lagging subscriber would be resynced past generations
	}
	newest := uint64(generations + 1)
	var bodyBytes int64
	smallest := int64(readcache.PastBudget)
	for g := uint64(2); g <= newest; g++ {
		a := h.answer(fmt.Sprintf("/v1/estimates?at=%d", g))
		if a.code != 200 {
			t.Fatalf("?at=%d answered %d", g, a.code)
		}
		bodyBytes += int64(len(a.body))
		smallest = min(smallest, int64(len(a.body)))
		// Entries also counts the three live keys of the generation cache.
		if rs := h.readStats(); rs.Cache.Bytes > readcache.PastBudget || int64(rs.Cache.Entries) > 3+readcache.PastBudget/smallest {
			t.Fatalf("after ?at=%d: %d bytes in %d entries, budget %d", g, rs.Cache.Bytes, rs.Cache.Entries, readcache.PastBudget)
		}
	}
	if bodyBytes <= readcache.PastBudget {
		t.Fatalf("the test read only %d body bytes, budget %d: nothing had to be evicted", bodyBytes, readcache.PastBudget)
	}
	before := h.readStats()
	h.answer(fmt.Sprintf("/v1/estimates?at=%d", newest)) // most recently used: held
	held := h.readStats()
	h.answer("/v1/estimates?at=2") // first read of all: evicted long ago
	evicted := h.readStats()
	if held.Calibrations != before.Calibrations || evicted.Calibrations != held.Calibrations+1 {
		t.Fatalf("newest re-read cost %d calibrations (want 0), oldest %d (want 1)",
			held.Calibrations-before.Calibrations, evicted.Calibrations-held.Calibrations)
	}
	rec := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	_, line, _ := strings.Cut(rec.Body.String(), "\nidldp_readcache_bytes ")
	line, _, _ = strings.Cut(line, "\n")
	if v, err := strconv.ParseFloat(line, 64); err != nil || int64(v) != evicted.Cache.Bytes {
		t.Fatalf("idldp_readcache_bytes on the metrics page = %q, readstats says %d", line, evicted.Cache.Bytes)
	}
}

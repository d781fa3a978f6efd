package httpapi

import (
	"bufio"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"idldp/internal/estimate"
	"idldp/internal/server"
)

// newStreamingHandler builds a streaming handler over a synthetic
// uniform mechanism (a=0.75, b=0.25) with a fast publish interval.
func newStreamingHandler(t *testing.T, bits, window int) *Handler {
	t.Helper()
	a, b := make([]float64, bits), make([]float64, bits)
	for i := range a {
		a[i], b[i] = 0.75, 0.25
	}
	est := func(counts []int64, n int) ([]float64, error) {
		return estimate.Calibrate(counts, n, a, b, 1)
	}
	h, err := NewStreaming(bits, est, StreamConfig{Interval: 2 * time.Millisecond, Window: window},
		server.WithShards(2), server.WithBatchSize(4))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.Close() })
	return h
}

func postBatch(t *testing.T, ts *httptest.Server, counts []int64, n int64) {
	t.Helper()
	body, _ := json.Marshal(map[string]any{"counts": counts, "n": n})
	resp, err := ts.Client().Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 202 {
		t.Fatalf("batch returned %d", resp.StatusCode)
	}
}

// TestSSEStreamDeliversMonotoneEvents: the SSE endpoint yields estimate
// events whose n never decreases and whose estimates match the
// handler's own /v1/estimates answer at the same n.
func TestSSEStreamDeliversMonotoneEvents(t *testing.T) {
	const bits = 6
	h := newStreamingHandler(t, bits, 8)
	ts := httptest.NewServer(h)
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/v1/estimates/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("stream returned %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	// Drive three ingest rounds spaced across publish intervals; the
	// test waits for the producer before tearing the server down.
	stop := make(chan struct{})
	done := make(chan struct{})
	defer func() { close(stop); <-done }()
	go func() {
		defer close(done)
		for round := int64(1); round <= 3; round++ {
			postBatch(t, ts, []int64{2 * round, round, 0, 0, round, 0}, 10*round)
			select {
			case <-stop:
				return
			case <-time.After(10 * time.Millisecond):
			}
		}
	}()

	sc := bufio.NewScanner(resp.Body)
	var events []estimateEvent
	for len(events) < 2 && sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev estimateEvent
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad event %q: %v", line, err)
		}
		events = append(events, ev)
	}
	if len(events) < 2 {
		t.Fatalf("saw %d events, want >= 2 (scan err %v)", len(events), sc.Err())
	}
	var lastN int64
	for i, ev := range events {
		if ev.N < lastN {
			t.Fatalf("event %d: n regressed %d -> %d", i, lastN, ev.N)
		}
		lastN = ev.N
		if len(ev.Estimates) != bits {
			t.Fatalf("event %d: %d estimates for %d bits", i, len(ev.Estimates), bits)
		}
		if ev.Top1 != 0 {
			t.Fatalf("event %d: top1 = %d, want 0 (bit 0 dominates)", i, ev.Top1)
		}
		if ev.WindowN <= 0 || ev.WindowN > ev.N {
			t.Fatalf("event %d: window_n %d outside (0, %d]", i, ev.WindowN, ev.N)
		}
	}
}

// TestWindowedEstimatesEquivalence: ?window=k with the whole campaign
// inside the window must equal the all-time estimates bit for bit.
func TestWindowedEstimatesEquivalence(t *testing.T) {
	const bits = 5
	h := newStreamingHandler(t, bits, 32)
	ts := httptest.NewServer(h)
	defer ts.Close()
	postBatch(t, ts, []int64{7, 3, 1, 0, 2}, 20)
	// Wait for the publisher tick to land in the window.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if st := h.stream.win.Stats(); st.N == 20 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("window never absorbed the batch: %+v", h.stream.win.Stats())
		}
		time.Sleep(2 * time.Millisecond)
	}

	var all, windowed struct {
		Estimates []float64 `json:"estimates"`
		Reports   int64     `json:"reports"`
	}
	for _, q := range []struct {
		url string
		dst any
	}{
		{ts.URL + "/v1/estimates", &all},
		{ts.URL + "/v1/estimates?window=32", &windowed},
	} {
		resp, err := ts.Client().Get(q.url)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("%s returned %d", q.url, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(q.dst); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	if all.Reports != 20 || windowed.Reports != 20 {
		t.Fatalf("reports: all-time %d, windowed %d, want 20", all.Reports, windowed.Reports)
	}
	for i := range all.Estimates {
		if all.Estimates[i] != windowed.Estimates[i] {
			t.Fatalf("estimate %d: windowed %v != all-time %v", i, windowed.Estimates[i], all.Estimates[i])
		}
	}

	// Malformed and out-of-scope window queries are rejected cleanly.
	for url, want := range map[string]int{
		ts.URL + "/v1/estimates?window=0":   400,
		ts.URL + "/v1/estimates?window=abc": 400,
	} {
		resp, err := ts.Client().Get(url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("%s returned %d, want %d", url, resp.StatusCode, want)
		}
	}
}

// TestHistoryDisabledSurfaces: the time-travel reads answer 501 on a
// handler without a history log.
func TestHistoryDisabledSurfaces(t *testing.T) {
	ts := httptest.NewServer(newStreamingHandler(t, 3, 4))
	defer ts.Close()
	for _, path := range []string{"/v1/metrics/history", "/v1/estimates?at=1", "/v1/estimates?from=0&to=1"} {
		if code, _ := getBody(t, ts, path); code != 501 {
			t.Fatalf("%s returned %d, want 501", path, code)
		}
	}
}

// TestStreamSeesPooledReports: reports POSTed to /v1/report below the
// batch threshold must still reach the live stream state (the handler
// flushes its pooled batchers on the publish cadence).
func TestStreamSeesPooledReports(t *testing.T) {
	h := newStreamingHandler(t, 4, 8) // batch size 4: three reports stay pooled
	ts := httptest.NewServer(h)
	defer ts.Close()
	for i := 0; i < 3; i++ {
		body := `{"words":[1],"bits":4}`
		resp, err := ts.Client().Post(ts.URL+"/v1/report", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 202 {
			t.Fatalf("report returned %d", resp.StatusCode)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		h.stream.mu.Lock()
		n := h.stream.n
		h.stream.mu.Unlock()
		if n == 3 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("stream state saw n=%d, want 3 (pooled reports never flushed)", n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

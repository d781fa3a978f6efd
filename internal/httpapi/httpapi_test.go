package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"idldp/internal/budget"
	"idldp/internal/core"
	"idldp/internal/rng"
	"idldp/internal/server"
	"idldp/internal/telemetry"
)

// fastStream publishes a generation every 2 ms.
var fastStream = StreamConfig{Interval: 2 * time.Millisecond}

func newServer(t *testing.T) (*httptest.Server, *Handler, *core.Engine) {
	t.Helper()
	e, err := core.New(core.Config{Budgets: budget.ToyExample(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewStreaming(e.M(), e.EstimateSingle, fastStream, server.WithShards(2), server.WithBatchSize(16))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	t.Cleanup(func() { h.Close() })
	return srv, h, e
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func TestNewValidation(t *testing.T) {
	if _, err := NewStreaming(0, func([]int64, int) ([]float64, error) { return nil, nil }, fastStream); err == nil {
		t.Error("bits=0 accepted")
	}
	if _, err := NewStreaming(5, nil, fastStream); err == nil {
		t.Error("nil estimator accepted")
	}
}

func TestReportAndEstimates(t *testing.T) {
	srv, h, e := newServer(t)
	r := rng.New(2)
	const n = 8000
	truth := make([]float64, 5)
	for u := 0; u < n; u++ {
		item := u % 5
		truth[item]++
		v := e.PerturbItem(item, r)
		resp := postJSON(t, srv.URL+"/v1/report", reportBody{Words: v.Words(), Bits: v.Len()})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("report status %d", resp.StatusCode)
		}
	}
	waitStreamN(t, h.stream, n)
	resp, err := http.Get(srv.URL + "/v1/estimates")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Estimates []float64 `json:"estimates"`
		Reports   int64     `json:"reports"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Reports != n || len(out.Estimates) != 5 {
		t.Fatalf("reports=%d estimates=%d", out.Reports, len(out.Estimates))
	}
	for i := range truth {
		if math.Abs(out.Estimates[i]-truth[i]) > 0.3*truth[i]+300 {
			t.Errorf("item %d estimate %v truth %v", i, out.Estimates[i], truth[i])
		}
	}
}

func TestBatchEndpoint(t *testing.T) {
	srv, _, _ := newServer(t)
	resp := postJSON(t, srv.URL+"/v1/batch", batchBody{Counts: []int64{5, 4, 3, 2, 1}, N: 10})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	st, err := http.Get(srv.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Body.Close()
	var status struct {
		Reports int64 `json:"reports"`
		Bits    int   `json:"bits"`
	}
	if err := json.NewDecoder(st.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	if status.Reports != 10 || status.Bits != 5 {
		t.Fatalf("status %+v", status)
	}
}

func TestRejectsMalformedRequests(t *testing.T) {
	srv, _, _ := newServer(t)
	cases := []struct {
		path string
		body string
		want int
	}{
		{"/v1/report", `{"words":[1],"bits":9}`, http.StatusBadRequest},
		{"/v1/report", `{"words":[1],"bits":5,"extra":1}`, http.StatusBadRequest},
		{"/v1/report", `not json`, http.StatusBadRequest},
		{"/v1/batch", `{"counts":[1,2],"n":5}`, http.StatusBadRequest},
		{"/v1/batch", `{"counts":[9,0,0,0,0],"n":5}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, err := http.Post(srv.URL+c.path, "application/json", bytes.NewBufferString(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s %q: status %d want %d", c.path, c.body, resp.StatusCode, c.want)
		}
	}
}

// TestEstimatesBeforeReports: an empty campaign is not an error — the
// estimates endpoint answers 200 with zero reports and no estimates.
func TestEstimatesBeforeReports(t *testing.T) {
	srv, _, _ := newServer(t)
	resp, err := http.Get(srv.URL + "/v1/estimates")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d want 200", resp.StatusCode)
	}
	var body struct {
		Estimates []float64 `json:"estimates"`
		Reports   int64     `json:"reports"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Reports != 0 || len(body.Estimates) != 0 {
		t.Fatalf("empty campaign answered reports=%d estimates=%v", body.Reports, body.Estimates)
	}
}

func TestClosedHandlerRefusesIngestKeepsReads(t *testing.T) {
	e, err := core.New(core.Config{Budgets: budget.ToyExample(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewStreaming(e.M(), e.EstimateSingle, fastStream)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	defer srv.Close()
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	v := e.PerturbItem(0, rng.New(1))
	resp := postJSON(t, srv.URL+"/v1/report", reportBody{Words: v.Words(), Bits: v.Len()})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("report on closed handler: status %d want 503", resp.StatusCode)
	}
	// Reads keep serving the drained state after Close.
	st, err := http.Get(srv.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Body.Close()
	if st.StatusCode != http.StatusOK {
		t.Fatalf("status on closed handler: %d want 200", st.StatusCode)
	}
	var status struct {
		Reports int64 `json:"reports"`
	}
	if err := json.NewDecoder(st.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	if status.Reports != 0 {
		t.Fatalf("drained reports = %d, want 0", status.Reports)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	srv, _, _ := newServer(t)
	resp, err := http.Get(srv.URL + "/v1/report")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/report status %d want 405", resp.StatusCode)
	}
}

func TestEstimatorErrorSurfaces(t *testing.T) {
	h, err := NewStreaming(3, func([]int64, int) ([]float64, error) {
		return nil, fmt.Errorf("boom")
	}, fastStream)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	srv := httptest.NewServer(h)
	defer srv.Close()
	postJSON(t, srv.URL+"/v1/batch", batchBody{Counts: []int64{1, 1, 1}, N: 2})
	waitStreamN(t, h.stream, 2)
	resp, err := http.Get(srv.URL + "/v1/estimates")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d want 500", resp.StatusCode)
	}
}

// TestStatsEndpoint checks /v1/stats surfaces the runtime metrics, and
// that a status read flushes a report still sitting in a pooled batcher
// (batch size 16) into the runtime.
func TestStatsEndpoint(t *testing.T) {
	srv, _, e := newServer(t)
	r := rng.New(6)
	v := e.PerturbItem(1, r)
	postJSON(t, srv.URL+"/v1/report", map[string]any{"words": v.Words(), "bits": v.Len()})
	// Force the pooled batcher to flush so the report is counted.
	if _, err := http.Get(srv.URL + "/v1/status"); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Shards     int     `json:"shards"`
		BatchSize  int     `json:"batch_size"`
		Reports    int64   `json:"reports"`
		Frames     int64   `json:"frames"`
		QueueDepth []int64 `json:"queue_depth"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Shards != 2 || st.BatchSize != 16 {
		t.Fatalf("stats config echo: %+v", st)
	}
	if st.Reports != 1 || st.Frames == 0 {
		t.Fatalf("stats counters: %+v", st)
	}
	if len(st.QueueDepth) != 2 {
		t.Fatalf("queue depth: %+v", st)
	}
}

// TestMetricsEndpointAndTraceHeader: mounting a telemetry registry on
// the handler serves Prometheus text at GET /metrics with the ingest
// counters live, and a valid X-Idldp-Trace header on a report is
// absorbed as the sink's representative trace (an invalid one is not).
func TestMetricsEndpointAndTraceHeader(t *testing.T) {
	e, err := core.New(core.Config{Budgets: budget.ToyExample(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tel := telemetry.NewRegistry("idldp")
	h, err := NewStreaming(e.M(), e.EstimateSingle, fastStream,
		server.WithShards(2), server.WithBatchSize(4), server.WithTelemetry(tel))
	if err != nil {
		t.Fatal(err)
	}
	h.SetTelemetry(tel)
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	t.Cleanup(func() { h.Close() })

	v := e.PerturbItem(1, rng.New(7))
	buf, err := json.Marshal(reportBody{Words: v.Words(), Bits: v.Len()})
	if err != nil {
		t.Fatal(err)
	}
	trace := telemetry.NewTraceID()
	for _, hdr := range []string{trace, "not hex!"} {
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/report", bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(telemetry.TraceHeader, hdr)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("report status %d", resp.StatusCode)
		}
	}
	if got := h.sink.LastTrace(); got != trace {
		t.Fatalf("sink last trace = %q, want %q (invalid header must not overwrite)", got, trace)
	}

	scrape := func() string {
		resp, err := http.Get(srv.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("metrics status %d", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Fatalf("metrics content type %q", ct)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	// Reports buffer in pooled batchers until a flush; the status read
	// forces one, then the scrape is polled until the shard consumers
	// fold the flushed frames in.
	if resp, err := http.Get(srv.URL + "/v1/status"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	var text string
	for {
		text = scrape()
		if strings.Contains(text, "idldp_ingest_reports_total 2") || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, want := range []string{
		"idldp_ingest_reports_total 2",
		"idldp_ingest_frames_total",
		"# TYPE idldp_ingest_queue_wait_seconds histogram",
		"idldp_ingest_queue_wait_seconds_bucket",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q\nscrape:\n%s", want, text)
		}
	}
}

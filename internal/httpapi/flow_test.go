package httpapi

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func flowHandler(t *testing.T) *Handler {
	t.Helper()
	h, err := NewStreaming(8, func(counts []int64, n int) ([]float64, error) {
		out := make([]float64, len(counts))
		for i, c := range counts {
			out[i] = float64(c) / float64(n)
		}
		return out, nil
	}, fastStream)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.Close() })
	return h
}

func postReport(h http.Handler) *httptest.ResponseRecorder {
	req := httptest.NewRequest("POST", "/v1/report", strings.NewReader(`{"words":[5],"bits":8}`))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func get(h http.Handler, path string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec
}

func TestIngestPushbackWith429(t *testing.T) {
	h := flowHandler(t)
	if rec := postReport(h); rec.Code != http.StatusAccepted {
		t.Fatalf("idle report status = %d, want 202", rec.Code)
	}
	h.sink.ForceSaturation(true)
	rec := postReport(h)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated report status = %d, want 429", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After header")
	}
	if !strings.Contains(rec.Body.String(), `"shed":true`) {
		t.Fatalf("shed body = %s, want shed flag", rec.Body.String())
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/batch", strings.NewReader(`{"counts":[1,0,0,0,0,0,0,0],"n":1}`)))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated batch status = %d, want 429", rec.Code)
	}
	h.sink.ForceSaturation(false)
	if rec := postReport(h); rec.Code != http.StatusAccepted {
		t.Fatalf("post-pressure report status = %d, want 202", rec.Code)
	}
	if st := h.sink.Stats(); st.ShedRejectFrames != 2 {
		t.Fatalf("ShedRejectFrames = %d, want 2", st.ShedRejectFrames)
	}
}

func TestHealthzAndReadyz(t *testing.T) {
	h := flowHandler(t)
	if rec := get(h, "/v1/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", rec.Code)
	}
	if rec := get(h, "/v1/readyz"); rec.Code != http.StatusOK {
		t.Fatalf("idle readyz = %d, want 200", rec.Code)
	}
	h.sink.ForceSaturation(true)
	if rec := get(h, "/v1/readyz"); rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "saturated") {
		t.Fatalf("saturated readyz = %d %q, want 503 saturated", rec.Code, rec.Body.String())
	}
	h.sink.ForceSaturation(false)
	h.BeginDrain()
	if rec := get(h, "/v1/readyz"); rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "draining") {
		t.Fatalf("draining readyz = %d %q, want 503 draining", rec.Code, rec.Body.String())
	}
	// Liveness is unaffected by drain, and reads keep serving.
	if rec := get(h, "/v1/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("draining healthz = %d, want 200", rec.Code)
	}
	if rec := get(h, "/v1/status"); rec.Code != http.StatusOK {
		t.Fatalf("draining status read = %d, want 200", rec.Code)
	}
	if rec := postReport(h); rec.Code != http.StatusTooManyRequests {
		t.Fatalf("draining report = %d, want 429", rec.Code)
	}
}

func TestNewHealthStandalone(t *testing.T) {
	ready := true
	h := NewHealth(func() (bool, string) {
		if ready {
			return true, ""
		}
		return false, "draining"
	})
	if rec := get(h, "/v1/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("healthz = %d", rec.Code)
	}
	if rec := get(h, "/v1/readyz"); rec.Code != http.StatusOK {
		t.Fatalf("ready readyz = %d", rec.Code)
	}
	ready = false
	if rec := get(h, "/v1/readyz"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("unready readyz = %d", rec.Code)
	}
}

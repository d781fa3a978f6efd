package httpapi

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"idldp/internal/estimate"
	"idldp/internal/history"
	"idldp/internal/server"
	"idldp/internal/stream"
)

// synthEstimator returns a calibrating estimator over a uniform
// synthetic mechanism (a=0.75, b=0.25).
func synthEstimator(bits int) Estimator {
	a, b := make([]float64, bits), make([]float64, bits)
	for i := range a {
		a[i], b[i] = 0.75, 0.25
	}
	return func(counts []int64, n int) ([]float64, error) {
		return estimate.Calibrate(counts, n, a, b, 1)
	}
}

// waitStreamN polls until a live state has absorbed n reports.
func waitStreamN(t testing.TB, ls *liveState, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		ls.mu.Lock()
		got := ls.n
		ls.mu.Unlock()
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("live state saw n=%d, want %d", got, n)
		}
		time.Sleep(time.Millisecond)
	}
}

func getBody(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestCachedEstimatesBitIdenticalPerGeneration: at every generation the
// cached GET /v1/estimates body must be bit-for-bit what a direct,
// uncached calibration of the same state marshals to — the cache trades
// no exactness for its speed. The test knows the exact cumulative
// counts (it posted them), so the expected body is computed
// independently of the handler.
func TestCachedEstimatesBitIdenticalPerGeneration(t *testing.T) {
	const bits = 16
	est := synthEstimator(bits)
	h, err := NewStreaming(bits, est, StreamConfig{Interval: 2 * time.Millisecond, Window: 64},
		server.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	ts := httptest.NewServer(h)
	defer ts.Close()

	cum := make([]int64, bits)
	var cumN int64
	for round := int64(1); round <= 12; round++ {
		batch := make([]int64, bits)
		for i := range batch {
			batch[i] = (round + int64(i)) % 5
			cum[i] += batch[i]
		}
		postBatch(t, ts, batch, 10)
		cumN += 10
		waitStreamN(t, h.stream, cumN)

		want, err := est(cum, int(cumN))
		if err != nil {
			t.Fatal(err)
		}
		wantBody, _ := json.Marshal(map[string]any{"estimates": want, "reports": cumN})
		wantBody = append(wantBody, '\n')

		// Both the all-time body and the full-span windowed body must be
		// exact; ask twice to cover the cached-hit path explicitly.
		for i := 0; i < 2; i++ {
			code, body := getBody(t, ts, "/v1/estimates")
			if code != 200 {
				t.Fatalf("round %d: estimates returned %d", round, code)
			}
			if string(body) != string(wantBody) {
				t.Fatalf("round %d read %d: cached body diverged\n got %s want %s", round, i, body, wantBody)
			}
		}
		wantWin, _ := json.Marshal(map[string]any{"estimates": want, "reports": cumN, "window": 64})
		wantWin = append(wantWin, '\n')
		code, body := getBody(t, ts, "/v1/estimates?window=999") // clamped to capacity
		if code != 200 {
			t.Fatalf("round %d: windowed returned %d", round, code)
		}
		if string(body) != string(wantWin) {
			t.Fatalf("round %d: windowed body diverged\n got %s want %s", round, body, wantWin)
		}
	}
	// The read path never flushed or recalibrated per request: readstats
	// must report far fewer calibrations than the 48+ reads above.
	code, body := getBody(t, ts, "/v1/readstats")
	if code != 200 {
		t.Fatalf("readstats returned %d", code)
	}
	var rs struct {
		Generation   uint64 `json:"generation"`
		Calibrations int64  `json:"calibrations"`
	}
	if err := json.Unmarshal(body, &rs); err != nil {
		t.Fatal(err)
	}
	if rs.Generation == 0 {
		t.Fatal("readstats reports generation 0 after 12 rounds")
	}
	if rs.Calibrations > 2*int64(rs.Generation)+2 {
		t.Fatalf("%d calibrations for %d generations — read path is recalibrating per request",
			rs.Calibrations, rs.Generation)
	}
}

// TestWindowedEmptyState: an empty window, like an empty campaign, is
// 200 with zero reports — not a conflict.
func TestWindowedEmptyState(t *testing.T) {
	h := newStreamingHandler(t, 4, 8)
	ts := httptest.NewServer(h)
	defer ts.Close()
	for path, wantWindow := range map[string]int{
		"/v1/estimates?window=3":   3,
		"/v1/estimates?window=999": 8, // clamped to the configured capacity
	} {
		code, body := getBody(t, ts, path)
		if code != 200 {
			t.Fatalf("%s returned %d, want 200", path, code)
		}
		var got struct {
			Estimates []float64 `json:"estimates"`
			Reports   int64     `json:"reports"`
			Window    int       `json:"window"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		if got.Reports != 0 || len(got.Estimates) != 0 || got.Window != wantWindow {
			t.Fatalf("%s answered %+v", path, got)
		}
	}
}

// failingWriter is an SSE client whose connection dies after `ok`
// successful writes — but whose request context never fires, the case
// the write-error check exists for.
type failingWriter struct {
	mu      sync.Mutex
	ok      int
	writes  int
	flushes int
}

func (f *failingWriter) Header() http.Header { return http.Header{} }
func (f *failingWriter) WriteHeader(int)     {}
func (f *failingWriter) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.writes++
	if f.writes > f.ok {
		return 0, fmt.Errorf("connection reset")
	}
	return len(p), nil
}
func (f *failingWriter) Flush() {
	f.mu.Lock()
	f.flushes++
	f.mu.Unlock()
}

// TestDeadSSEClientExits: a client whose writes fail must drop out of
// the event loop instead of spinning on keepalives and wake-ups until
// its context fires.
func TestDeadSSEClientExits(t *testing.T) {
	h := newStreamingHandler(t, 4, 8)
	ts := httptest.NewServer(h)
	defer ts.Close()
	postBatch(t, ts, []int64{3, 1, 0, 0}, 5)
	waitStreamN(t, h.stream, 5)

	fw := &failingWriter{ok: 0} // every payload write fails
	req := httptest.NewRequest(http.MethodGet, "/v1/estimates/stream", nil)
	done := make(chan struct{})
	go func() {
		h.stream.serveSSE(fw, req)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("serveSSE kept running after the client's writes started failing")
	}
	if subs := h.stream.hub.Stats().Subscribers; subs != 0 {
		t.Fatalf("dead client still counted as subscriber (%d)", subs)
	}
}

// TestReadPathStress is the -race scale-out check: many concurrent SSE
// subscribers and windowed/all-time HTTP readers against live ingest.
// It asserts (a) calibration work is bounded by the generation count,
// never the reader count; (b) every SSE client sees the same bytes for
// the same generation; (c) no event tears window_n against n; and
// (d) the final cached body is bit-identical to an uncached calibration
// of the runtime snapshot.
func TestReadPathStress(t *testing.T) {
	const (
		bits    = 32
		sseSubs = 8
		getters = 8
	)
	base := synthEstimator(bits)
	var calibrations atomic.Int64
	est := func(counts []int64, n int) ([]float64, error) {
		calibrations.Add(1)
		return base(counts, n)
	}
	h, err := NewStreaming(bits, est, StreamConfig{Interval: time.Millisecond, Window: 16},
		server.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	ts := httptest.NewServer(h)
	defer ts.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Live ingest: one batch per publish interval.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for round := int64(1); ; round++ {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
			counts := make([]int64, bits)
			for i := range counts {
				counts[i] = (round + int64(i)) % 3
			}
			body, _ := json.Marshal(map[string]any{"counts": counts, "n": 7})
			resp, err := ts.Client().Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(string(body)))
			if err != nil {
				return
			}
			resp.Body.Close()
		}
	}()

	// SSE subscribers: record data bytes per seq, check window_n <= n.
	type seqData struct {
		mu   sync.Mutex
		data map[uint64]string
	}
	records := make([]*seqData, sseSubs)
	for s := 0; s < sseSubs; s++ {
		rec := &seqData{data: make(map[uint64]string)}
		records[s] = rec
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			go func() { <-stop; cancel() }()
			req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/estimates/stream", nil)
			resp, err := ts.Client().Do(req)
			if err != nil {
				return
			}
			defer resp.Body.Close()
			sc := bufio.NewScanner(resp.Body)
			for sc.Scan() {
				line := sc.Text()
				if !strings.HasPrefix(line, "data: ") {
					continue
				}
				payload := strings.TrimPrefix(line, "data: ")
				var ev estimateEvent
				if json.Unmarshal([]byte(payload), &ev) != nil {
					continue
				}
				if ev.WindowN > ev.N {
					t.Errorf("torn event: window_n %d > n %d at seq %d", ev.WindowN, ev.N, ev.Seq)
					return
				}
				rec.mu.Lock()
				rec.data[ev.Seq] = payload
				rec.mu.Unlock()
			}
		}()
	}

	// HTTP readers hammering the cached surfaces.
	var reads atomic.Int64
	for g := 0; g < getters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			paths := []string{"/v1/estimates", "/v1/estimates?window=4", "/v1/estimates?window=16"}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := ts.Client().Get(ts.URL + paths[(g+i)%len(paths)])
				if err != nil {
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 {
					t.Errorf("read returned %d", resp.StatusCode)
					return
				}
				reads.Add(1)
			}
		}(g)
	}

	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()

	published := h.stream.hub.Stats().Published
	cal := calibrations.Load()
	if published == 0 || reads.Load() == 0 {
		t.Fatalf("stress did no work: %d generations, %d reads", published, reads.Load())
	}
	// Per generation: cumulative + full-window refresh (2) plus at most
	// one first-reader compute per distinct windowed span (window=4;
	// window=16 is the refreshed full span). Anything beyond that means
	// readers are calibrating.
	if limit := 3*published + 4; cal > limit {
		t.Fatalf("%d calibrations for %d generations and %d reads — want <= %d (reader-independent)",
			cal, published, reads.Load(), limit)
	}
	// Every client that saw a generation saw the same bytes.
	for s := 1; s < sseSubs; s++ {
		for seq, payload := range records[s].data {
			if ref, ok := records[0].data[seq]; ok && ref != payload {
				t.Fatalf("seq %d: client 0 and client %d received different payloads", seq, s)
			}
		}
	}
	// Quiesce, then the cached body must match an uncached calibration
	// of the authoritative runtime snapshot bit for bit.
	counts, n := h.snapshot()
	waitStreamN(t, h.stream, n)
	want, err := base(counts, int(n))
	if err != nil {
		t.Fatal(err)
	}
	wantBody, _ := json.Marshal(map[string]any{"estimates": want, "reports": n})
	wantBody = append(wantBody, '\n')
	code, body := getBody(t, ts, "/v1/estimates")
	if code != 200 {
		t.Fatalf("final estimates returned %d", code)
	}
	if string(body) != string(wantBody) {
		t.Fatalf("cached != uncached after quiesce\n got %s want %s", body, wantBody)
	}
}

// TestLiveHandlerOverMergedStream: NewLiveWithHistory serves the cached
// read surface over a bare publisher — the shape idldp-merge mounts over
// the fleet's merged stream.
func TestLiveHandlerOverMergedStream(t *testing.T) {
	const bits = 8
	pub, err := stream.NewPublisher(bits)
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	sub, err := pub.Subscribe(16)
	if err != nil {
		t.Fatal(err)
	}
	est := synthEstimator(bits)
	lh, err := NewLiveWithHistory(sub, bits, est, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer lh.Close()
	ts := httptest.NewServer(lh)
	defer ts.Close()

	// Empty merged stream: 200 with zero reports.
	code, body := getBody(t, ts, "/v1/estimates")
	if code != 200 || !strings.Contains(string(body), `"reports":0`) {
		t.Fatalf("empty live surface answered %d %s", code, body)
	}

	counts := []int64{9, 4, 0, 0, 2, 0, 0, 1}
	if err := pub.Publish(counts, 16); err != nil {
		t.Fatal(err)
	}
	waitStreamN(t, lh.ls, 16)
	want, err := est(counts, 16)
	if err != nil {
		t.Fatal(err)
	}
	wantBody, _ := json.Marshal(map[string]any{"estimates": want, "reports": int64(16)})
	wantBody = append(wantBody, '\n')
	code, body = getBody(t, ts, "/v1/estimates")
	if code != 200 || string(body) != string(wantBody) {
		t.Fatalf("live estimates: %d %s, want %s", code, body, wantBody)
	}
	code, body = getBody(t, ts, "/v1/readstats")
	if code != 200 || !strings.Contains(string(body), `"calibrations"`) {
		t.Fatalf("readstats: %d %s", code, body)
	}
}

// TestHandlerAndLiveHandlerShareReadRoutes: a node Handler and a
// LiveHandler over the same delta stream answer the read routes
// byte-identically at one generation: one route table over one kind of
// live state, whichever handler mounts it.
func TestHandlerAndLiveHandlerShareReadRoutes(t *testing.T) {
	const bits = 8
	est := synthEstimator(bits)
	openHist := func() *history.Store {
		hist, err := history.Open(t.TempDir(), bits, history.Config{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { hist.Close() })
		return hist
	}
	sink, err := server.New(bits, server.WithShards(2), server.WithStream(2*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	sub, err := sink.Subscribe(16)
	if err != nil {
		t.Fatal(err)
	}
	lh, err := NewLiveWithHistory(sub, bits, est, 8, openHist())
	if err != nil {
		t.Fatal(err)
	}
	defer lh.Close()
	h, err := NewSinkStreaming(sink, est, StreamConfig{Interval: 2 * time.Millisecond, Window: 8, History: openHist()})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	node, live := httptest.NewServer(h), httptest.NewServer(lh)
	defer node.Close()
	defer live.Close()

	gen := func(ls *liveState) uint64 { ls.mu.Lock(); defer ls.mu.Unlock(); return ls.seq }
	var at uint64
	for round := int64(1); round <= 4; round++ {
		postBatch(t, node, []int64{round, 2, 0, round % 3, 1, 0, 4, round}, 5)
		waitStreamN(t, h.stream, 5*round)
		waitStreamN(t, lh.ls, 5*round)
		if round == 2 {
			at = gen(h.stream)
		}
	}
	if g, lg := gen(h.stream), gen(lh.ls); g != lg {
		t.Fatalf("node at generation %d, live handler at %d", g, lg)
	}
	for _, path := range []string{"/v1/estimates", "/v1/estimates?window=3", "/v1/estimates?at=" + strconv.FormatUint(at, 10)} {
		code, want := getBody(t, node, path)
		if got, body := getBody(t, live, path); code != 200 || got != 200 || string(body) != string(want) {
			t.Fatalf("%s: node %d %s, live handler %d %s", path, code, want, got, body)
		}
	}
}

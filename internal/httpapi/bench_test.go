package httpapi

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	"idldp/internal/history"
	"idldp/internal/server"
	"idldp/internal/stream"
)

// discardWriter is the cheapest possible ResponseWriter, so the
// benchmarks measure handler cost, not recorder bookkeeping.
type discardWriter struct{ h http.Header }

func (d *discardWriter) Header() http.Header {
	if d.h == nil {
		d.h = make(http.Header, 2)
	}
	return d.h
}
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardWriter) WriteHeader(int)             {}
func (d *discardWriter) Flush()                      {}

// benchReaders drives b.N requests through fn split across `readers`
// concurrent goroutines — the many-dashboards shape.
func benchReaders(b *testing.B, readers int, fn func()) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	per := b.N / readers
	extra := b.N % readers
	for r := 0; r < readers; r++ {
		iters := per
		if r < extra {
			iters++
		}
		wg.Add(1)
		go func(iters int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				fn()
			}
		}(iters)
	}
	wg.Wait()
}

// BenchmarkEstimatesRead times the generation-stamped cached read path
// (one pre-marshaled payload per publish interval) at 1 and 64
// concurrent readers over a 1024-bit domain.
func BenchmarkEstimatesRead(b *testing.B) {
	const bits = 1024
	est := synthEstimator(bits)
	counts := make([]int64, bits)
	for i := range counts {
		counts[i] = int64(1000 + i%97)
	}

	for _, readers := range []int{1, 64} {
		b.Run(fmt.Sprintf("cached/readers=%d", readers), func(b *testing.B) {
			h, err := NewStreaming(bits, est, StreamConfig{Interval: time.Millisecond, Window: 16},
				server.WithShards(2))
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { h.Close() })
			if err := h.sink.AddCounts(append([]int64(nil), counts...), 100000); err != nil {
				b.Fatal(err)
			}
			waitStreamN(b, h.stream, 100000)
			benchReaders(b, readers, func() {
				h.ServeHTTP(&discardWriter{}, httptest.NewRequest(http.MethodGet, "/v1/estimates", nil))
			})
		})
	}
}

// BenchmarkTimeTravelRead times GET /v1/estimates?at and ?from&to
// through ServeHTTP over a node_reads-shaped log (m = 1024, 128-record
// segments, 2,048 dense generations): a miss reconstructs, calibrates
// and marshals, a hit copies a cached body. It asserts the floors the
// time-travel read path is built on — a cached ?at at least 5× a
// reconstructed one, Store.CumulativeAt in the second half of a segment
// (where it subtracts back from the segment's final) at least 1.5× the
// forward-only walk from the base kept below as the reference, and, now
// that the store folds records from their packed bytes, CumulativeAt in
// the middle of a segment (64 records either way, the most it ever
// folds) at most 2.2× that walk, which folds deltas kept decoded — and
// reports what a generation costs the store in memory.
func BenchmarkTimeTravelRead(b *testing.B) {
	const bits, segment, generations, span = 1024, 128, 2048, 64
	hist, err := history.Open(b.TempDir(), bits, history.Config{SegmentRecords: segment, KeepSegments: 4 * generations / segment, NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	defer hist.Close()
	// The fill, kept for the reference walk: every delta, and the
	// cumulative counts at each segment boundary.
	all := make([]int, bits)
	for i := range all {
		all[i] = i
	}
	deltas := make([]stream.Delta, generations+1)
	bases := [][]int64{make([]int64, bits)}
	cum := make([]int64, bits)
	for g := 1; g <= generations; g++ {
		inc := make([]int64, bits)
		for i := range inc {
			inc[i] = int64(1 + (g*31+i*17)%23)
			cum[i] += inc[i]
		}
		deltas[g] = stream.Delta{Seq: uint64(g), Time: time.Unix(int64(g), 0), Bits: all, Inc: inc, DN: 40}
		if err := hist.Append(deltas[g]); err != nil {
			b.Fatal(err)
		}
		if g%segment == 0 {
			bases = append(bases, slices.Clone(cum))
		}
	}
	forwardWalk := func(g int) []int64 {
		k := (g - 1) / segment // segment k: base at generation k*segment
		counts := slices.Clone(bases[k])
		for _, d := range deltas[k*segment+1 : g+1] {
			for j, i := range d.Bits {
				counts[i] += d.Inc[j]
			}
		}
		return counts
	}

	counts, n, seq := hist.State()
	pub, err := stream.NewPublisher(bits, stream.WithResume(counts, n, seq))
	if err != nil {
		b.Fatal(err)
	}
	defer pub.Close()
	sub, err := pub.Subscribe(16)
	if err != nil {
		b.Fatal(err)
	}
	lh, err := NewLiveWithHistory(sub, bits, synthEstimator(bits), 16, hist)
	if err != nil {
		b.Fatal(err)
	}
	defer lh.Close()
	get := func(url string) {
		w := &discardWriter{}
		lh.ServeHTTP(w, httptest.NewRequest(http.MethodGet, url, nil))
	}
	// A miss visits every generation in turn: the cache holds far fewer
	// bodies than there are generations, so by the time one comes round
	// again it has been evicted. A hit alternates between two.
	at := func(i int) string { return fmt.Sprintf("/v1/estimates?at=%d", 1+i%generations) }
	ranged := func(i int) string {
		to := span + 1 + i%(generations-span)
		return fmt.Sprintf("/v1/estimates?from=%d&to=%d", to-span, to)
	}
	next := 0
	for _, bench := range []struct {
		name string
		url  func(i int) string
	}{
		{"at/miss", func(int) string { next++; return at(next) }},
		{"at/hit", func(i int) string { return at(1000 + i%2) }},
		{"range/miss", func(int) string { next++; return ranged(next) }},
		{"range/hit", func(i int) string { return ranged(1000 + i%2) }},
	} {
		b.Run(bench.name, func(b *testing.B) {
			get(bench.url(0))
			get(bench.url(1))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				get(bench.url(i))
			}
			b.ReportMetric(float64(hist.Stats().ResidentBytes)/generations, "resident-B/gen")
		})
	}

	// The floors are timed on fixed batches (best of five), independent
	// of -benchtime, so the 1x bench smoke in CI asserts them too.
	best := func(fn func()) time.Duration {
		d := time.Duration(1<<63 - 1)
		for rep := 0; rep < 5; rep++ {
			start := time.Now()
			fn()
			d = min(d, time.Since(start))
		}
		return d
	}
	const batch = 256
	miss := best(func() {
		for i := 0; i < batch; i++ {
			next++
			get(at(next))
		}
	})
	hit := best(func() {
		for i := 0; i < batch; i++ {
			get(at(1000 + i%2))
		}
	})
	if ratio := float64(miss) / float64(hit); ratio < 5 {
		b.Fatalf("a cached ?at is %.1f× a reconstructed one (%v vs %v per %d reads), want ≥ 5×", ratio, hit, miss, batch)
	}
	// Targets in the last quarter of their segment, spread over the log.
	late := func(i int) int { return (i*7%(generations/segment))*segment + segment - i%(segment/4) }
	for i := 0; i < batch; i++ {
		got, _, _, err := hist.CumulativeAt(uint64(late(i)))
		if err != nil || !slices.Equal(got, forwardWalk(late(i))) {
			b.Fatalf("CumulativeAt(%d) differs from the forward walk (err %v)", late(i), err)
		}
	}
	forward := best(func() {
		for i := 0; i < batch; i++ {
			forwardWalk(late(i))
		}
	})
	nearer := best(func() {
		for i := 0; i < batch; i++ {
			_, _, _, _ = hist.CumulativeAt(uint64(late(i)))
		}
	})
	if ratio := float64(forward) / float64(nearer); ratio < 1.5 {
		b.Fatalf("CumulativeAt late in a segment is %.1f× the forward walk (%v vs %v per %d), want ≥ 1.5×", ratio, nearer, forward, batch)
	}
	// Targets in the middle of their segment: both sides fold segment/2
	// records onto the same base, one from packed bytes, one from slices.
	mid := func(i int) int { return (i*7%(generations/segment))*segment + segment/2 }
	decoded := best(func() {
		for i := 0; i < batch; i++ {
			forwardWalk(mid(i))
		}
	})
	packed := best(func() {
		for i := 0; i < batch; i++ {
			_, _, _, _ = hist.CumulativeAt(uint64(mid(i)))
		}
	})
	ratio := float64(packed) / float64(decoded)
	b.Logf("CumulativeAt mid-segment costs %.2f× the same fold over decoded deltas (%v vs %v per %d)", ratio, packed, decoded, batch)
	if ratio > 2.2 {
		b.Fatalf("CumulativeAt mid-segment costs %.2f× the same fold over decoded deltas, want ≤ 2.2×", ratio)
	}
}

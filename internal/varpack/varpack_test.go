package varpack

import (
	"runtime"
	"testing"

	"idldp/internal/rng"
)

func roundTrip(t *testing.T, counts []int64) {
	t.Helper()
	for name, payload := range map[string][]byte{"varint": Pack(counts), "fixed": PackFixed(counts)} {
		got, err := Unpack(payload)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got) != len(counts) {
			t.Fatalf("%s: %d elements, want %d", name, len(got), len(counts))
		}
		for i := range counts {
			if got[i] != counts[i] {
				t.Fatalf("%s: element %d = %d, want %d", name, i, got[i], counts[i])
			}
		}
	}
}

func TestRoundTrip(t *testing.T) {
	roundTrip(t, nil)
	roundTrip(t, []int64{0})
	roundTrip(t, []int64{1, -1, 127, -128, 1 << 40, -(1 << 40), 9_223_372_036_854_775_807, -9_223_372_036_854_775_808})
	r := rng.New(99)
	big := make([]int64, 4096)
	for i := range big {
		big[i] = int64(r.IntN(1_000_000)) - 500_000
	}
	roundTrip(t, big)
}

func TestUnpackIntoReuses(t *testing.T) {
	counts := []int64{5, 0, 12, 3}
	buf := make([]int64, 0, 16)
	got, err := UnpackInto(Pack(counts), buf)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &buf[:1][0] {
		t.Fatal("UnpackInto allocated despite sufficient capacity")
	}
	for i := range counts {
		if got[i] != counts[i] {
			t.Fatalf("element %d = %d, want %d", i, got[i], counts[i])
		}
	}
}

// TestDeltaShrinks: the satellite's acceptance bar — mostly-small delta
// counts must pack >4x smaller than the fixed 8-byte form.
func TestDeltaShrinks(t *testing.T) {
	r := rng.New(7)
	delta := make([]int64, 1024)
	for i := range delta {
		// A typical interval delta: most bits moved by a handful.
		if r.Bernoulli(0.8) {
			delta[i] = int64(r.IntN(100))
		}
	}
	packed, fixed := Pack(delta), PackFixed(delta)
	if 4*len(packed) > len(fixed) {
		t.Fatalf("packed delta is %d bytes vs fixed %d — less than 4x smaller", len(packed), len(fixed))
	}
}

func TestPackedSizeMatchesPack(t *testing.T) {
	r := rng.New(3)
	for _, counts := range [][]int64{
		nil,
		{0},
		{1, -1, 127, -128, 1 << 40, -(1 << 40)},
	} {
		if got, want := PackedSize(counts), len(Pack(counts)); got != want {
			t.Errorf("PackedSize(%v) = %d, len(Pack) = %d", counts, got, want)
		}
	}
	big := make([]int64, 2048)
	for i := range big {
		big[i] = int64(r.IntN(1 << 30))
	}
	if got, want := PackedSize(big), len(Pack(big)); got != want {
		t.Fatalf("PackedSize = %d, len(Pack) = %d", got, want)
	}
}

func TestDeltaRoundTrip(t *testing.T) {
	cases := [][2][]int64{
		{{}, {}},
		{{0}, {7}},
		{{0, 1, 5, 1023}, {1, 2, 3, 1 << 40}},
		{{3, 17, 999}, {-1, 0, 42}},
	}
	for _, c := range cases {
		bits := make([]int, len(c[0]))
		for i, b := range c[0] {
			bits[i] = int(b)
		}
		payload, err := PackDelta(bits, c[1])
		if err != nil {
			t.Fatal(err)
		}
		gotBits, gotInc, err := UnpackDelta(payload)
		if err != nil {
			t.Fatal(err)
		}
		if len(gotBits) != len(bits) {
			t.Fatalf("decoded %d elements, want %d", len(gotBits), len(bits))
		}
		for i := range bits {
			if gotBits[i] != bits[i] || gotInc[i] != c[1][i] {
				t.Fatalf("element %d = (%d,%d), want (%d,%d)", i, gotBits[i], gotInc[i], bits[i], c[1][i])
			}
		}
	}
}

func TestDeltaRejectsMalformed(t *testing.T) {
	if _, err := PackDelta([]int{1, 2}, []int64{1}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := PackDelta([]int{5, 5}, []int64{1, 1}); err == nil {
		t.Error("non-ascending indices accepted")
	}
	good, err := PackDelta([]int{0, 9}, []int64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":         nil,
		"wrong version": Pack([]int64{1, 2}),
		"no count":      {VersionSparse},
		"truncated gap": good[:len(good)-2],
		"zero gap":      {VersionSparse, 1, 0, 2},
		"trailing":      append(append([]byte(nil), good...), 9),
	}
	for name, payload := range cases {
		if _, _, err := UnpackDelta(payload); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// TestDeltaPushCheaperThanPolling is the PR's bandwidth claim in one
// place: at m=1024 with <5% of bits changing per interval, the sparse
// delta payload is at least 4x smaller than polling the full snapshot —
// even against the already-varint-packed snapshot form.
func TestDeltaPushCheaperThanPolling(t *testing.T) {
	r := rng.New(11)
	const m = 1024
	counts := make([]int64, m)
	for i := range counts {
		counts[i] = int64(r.IntN(1_000_000)) // a mature campaign's cumulative counts
	}
	var bits []int
	var inc []int64
	for i := 0; i < m; i++ {
		if r.Bernoulli(0.04) { // <5% of bits move in a steady-state interval
			bits = append(bits, i)
			inc = append(inc, int64(1+r.IntN(50)))
		}
	}
	delta, err := PackDelta(bits, inc)
	if err != nil {
		t.Fatal(err)
	}
	poll := PackedSize(counts)
	if 4*len(delta) > poll {
		t.Fatalf("delta push %d bytes vs snapshot poll %d — less than 4x smaller", len(delta), poll)
	}
	t.Logf("steady-state interval: delta push %d bytes, packed snapshot poll %d bytes (%.1fx), fixed-width poll %d bytes (%.1fx)",
		len(delta), poll, float64(poll)/float64(len(delta)),
		len(PackFixed(counts)), float64(len(PackFixed(counts)))/float64(len(delta)))
}

// BenchmarkDeltaPushVsPoll times the steady-state per-interval encode
// and reports the wire sizes: one sparse delta frame vs the packed full
// snapshot a poller would fetch (m=1024, ~4% of bits changing).
func BenchmarkDeltaPushVsPoll(b *testing.B) {
	r := rng.New(11)
	const m = 1024
	counts := make([]int64, m)
	for i := range counts {
		counts[i] = int64(r.IntN(1_000_000))
	}
	var bits []int
	var inc []int64
	for i := 0; i < m; i++ {
		if r.Bernoulli(0.04) {
			bits = append(bits, i)
			inc = append(inc, int64(1+r.IntN(50)))
		}
	}
	b.Run("delta-push", func(b *testing.B) {
		var size int
		for i := 0; i < b.N; i++ {
			payload, err := PackDelta(bits, inc)
			if err != nil {
				b.Fatal(err)
			}
			size = len(payload)
		}
		b.ReportMetric(float64(size), "bytes/interval")
	})
	b.Run("snapshot-poll", func(b *testing.B) {
		var size int
		for i := 0; i < b.N; i++ {
			size = len(Pack(counts))
		}
		b.ReportMetric(float64(size), "bytes/interval")
	})
}

// BenchmarkFoldDelta folds one dense m = 1024 interval of a few dozen
// reports (every pair two bytes, walked four at a time) from its packed
// bytes, against the same fold over the slices UnpackDelta returns.
func BenchmarkFoldDelta(b *testing.B) {
	const m = 1024
	bits, inc := make([]int, m), make([]int64, m)
	for i := range bits {
		bits[i], inc[i] = i, 1+int64(i*17%23)
	}
	payload, err := PackDelta(bits, inc)
	if err != nil {
		b.Fatal(err)
	}
	counts := make([]int64, m)
	b.Run("packed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := FoldDelta(payload, counts, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decoded", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j, i := range bits {
				counts[i] += inc[j]
			}
		}
	})
}

func TestRejectsMalformed(t *testing.T) {
	cases := map[string][]byte{
		"empty":            nil,
		"no count":         {VersionVarint},
		"bad version":      {42, 1, 0},
		"truncated varint": append(Pack([]int64{1, 2, 3})[:4], 0x80),
		"short fixed":      {VersionFixed64, 2, 1, 2, 3},
		"huge count":       {VersionVarint, 0xff, 0xff, 0xff, 0xff, 0xff, 0x0f},
		"trailing":         append(Pack([]int64{1}), 9),
	}
	for name, payload := range cases {
		if _, err := Unpack(payload); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// TestDeclaredCountCannotOutgrowPayload: an element count at the cap in
// a five-byte payload is refused before it sizes an allocation (it used
// to make 2 GB slices and then report the truncation).
func TestDeclaredCountCannotOutgrowPayload(t *testing.T) {
	atCap := []byte{0x80, 0x80, 0x80, 0x80, 0x01} // uvarint MaxCounts
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Unpack(append([]byte{VersionVarint}, atCap...)); err == nil {
		t.Error("dense payload with no elements decoded")
	}
	if _, _, err := UnpackDelta(append([]byte{VersionSparse}, atCap...)); err == nil {
		t.Error("sparse payload with no elements decoded")
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
		t.Errorf("refusing two six-byte payloads allocated %d bytes", got)
	}
}

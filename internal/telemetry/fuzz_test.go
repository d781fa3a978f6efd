package telemetry

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"time"
)

// fuzzSeed is one named input of the committed corpus:
// testdata/fuzz/FuzzUnpackSnapshot/<name> holds the same bytes, which
// TestFuzzCorpusCommitted checks.
type fuzzSeed struct {
	name string
	data []byte
}

// validSnapshot packs a registry holding every metric kind: labelled and
// unlabelled series, an empty histogram and a populated one.
func validSnapshot() []byte {
	reg := NewRegistry("fz")
	reg.Counter("reports_total", "x").Add(12345)
	reg.Counter("labeled_total", "x", Label{"shard", "3"}).Add(1)
	reg.Gauge("depth", "x").Set(-2.5)
	reg.Histogram("empty", "x")
	h := reg.Histogram("lat", "x")
	for i := 0; i < 40; i++ {
		h.Observe(time.Duration(i*i) * time.Microsecond)
	}
	return reg.Snapshot().Pack()
}

// histPayload is a one-histogram snapshot whose buckets are written as the
// given gaps, each bucket holding one observation.
func histPayload(gaps ...uint64) []byte {
	b := []byte{snapshotVersion, 1, byte(SnapHistogram), 1, 'h', 0}
	b = binary.AppendUvarint(b, uint64(len(gaps))) // count
	b = binary.AppendVarint(b, 0)                  // sum
	b = binary.AppendUvarint(b, uint64(len(gaps)))
	for _, g := range gaps {
		b = binary.AppendUvarint(b, g)
		b = binary.AppendUvarint(b, 1)
	}
	return b
}

func seedSnapshot() []fuzzSeed {
	valid := validSnapshot()
	return []fuzzSeed{
		{"valid", valid},
		{"valid-empty", (&Snapshot{}).Pack()},
		{"one-bucket", histPayload(1)},
		{"last-bucket", histPayload(histBuckets)},
		{"empty", nil},
		{"bad-version", append([]byte{snapshotVersion + 1}, valid[1:]...)},
		{"truncated", valid[:len(valid)/2]},
		{"trailing", append(slices.Clone(valid), 0)},
		{"zero-gap", histPayload(1, 0)},
		{"gap-past-last-bucket", histPayload(histBuckets + 1)},
		// A nine-byte gap far past the last bucket, then a stray byte: one
		// high bit away from a ten-byte gap, which a fuzzer rarely builds.
		{"far-gap-then-stray-byte", append(histPayload(1<<62), 1)},
		// What the fuzzer found, kept as regressions: a count the payload
		// cannot back, a gap that wraps to a negative index, and a value
		// written longer than Pack writes it.
		{"count-beyond-payload", countBeyondPayload},
		{"gap-overflows-int", histPayload(math.MaxUint64)},
		{"overlong-varint", []byte{snapshotVersion, 1, byte(SnapCounter), 1, 'c', 0, 0xc4, 0x00}},
	}
}

// countBeyondPayload is four bytes claiming 65,536 metrics.
var countBeyondPayload = binary.AppendUvarint([]byte{snapshotVersion}, maxSnapshotMetrics)

// allocated is the heap the process allocated while fn ran.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// allocBound is what UnpackSnapshot may allocate for an input of n bytes:
// the decoded snapshot is at most 16 bytes per input byte, plus 64 KB for
// whatever the fuzz worker's own goroutines allocate meanwhile.
func allocBound(n int) uint64 { return uint64(16*n) + 64<<10 }

// FuzzUnpackSnapshot: arbitrary bytes never panic the decoder of the
// telemetry a peer's heartbeat carries, a declared count never sizes an
// allocation the payload cannot back, and whatever decodes packs back to
// exactly the bytes it was read from.
func FuzzUnpackSnapshot(f *testing.F) {
	for _, s := range seedSnapshot() {
		f.Add(s.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var s *Snapshot
		var err error
		if got := allocated(func() { s, err = UnpackSnapshot(data) }); got > allocBound(len(data)) {
			t.Fatalf("%d input bytes made UnpackSnapshot allocate %d", len(data), got)
		}
		if err != nil {
			if s != nil {
				t.Fatalf("error %v came with a snapshot", err)
			}
			return
		}
		if again := s.Pack(); !bytes.Equal(again, data) {
			t.Fatalf("accepted payload packs back differently\n read  %x\n wrote %x", data, again)
		}
	})
}

// TestFuzzCorpusCommitted keeps testdata/fuzz equal to the seed list, so
// the CI fuzz smoke and a plain `go test` start from the same named inputs.
func TestFuzzCorpusCommitted(t *testing.T) {
	for _, s := range seedSnapshot() {
		path := filepath.Join("testdata", "fuzz", "FuzzUnpackSnapshot", s.name)
		want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", s.data)
		if got, err := os.ReadFile(path); err != nil || string(got) != want {
			t.Errorf("%s (err %v) should hold:\n%s", path, err, want)
		}
	}
}

// TestUnpackSnapshotBoundsClaimedCount is the fuzzer's first find: a
// payload may not claim more metrics than its bytes could hold, and the
// refusal allocates nothing like the 4 MB the claim would size.
func TestUnpackSnapshotBoundsClaimedCount(t *testing.T) {
	if len(countBeyondPayload) != 4 {
		t.Fatalf("the regression payload is %d bytes, want 4", len(countBeyondPayload))
	}
	var err error
	if got := allocated(func() { _, err = UnpackSnapshot(countBeyondPayload) }); got > 4<<10 {
		t.Errorf("a 4-byte payload claiming %d metrics allocated %d bytes", maxSnapshotMetrics, got)
	}
	if err == nil {
		t.Fatal("a 4-byte payload claiming 65,536 metrics was accepted")
	}
	// A count the bytes can hold still decodes: five one-byte-named
	// counters of value zero, five bytes each.
	s := &Snapshot{}
	for _, name := range "abcde" {
		s.Metrics = append(s.Metrics, SnapMetric{Kind: SnapCounter, Name: string(name)})
	}
	if packed := s.Pack(); len(packed) != 2+5*minSnapshotMetric {
		t.Fatalf("five minimal counters pack to %d bytes", len(packed))
	} else if _, err := UnpackSnapshot(packed); err != nil {
		t.Fatalf("five minimal counters rejected: %v", err)
	}
}

// TestUnpackSnapshotRejectsBucketGapOutOfRange is the second: every gap
// must land in [prev+1, histBuckets). A gap of 2⁶⁴−1 used to wrap to
// bucket 4,294,967,294, which Pack, Quantile and Merge then carried on.
func TestUnpackSnapshotRejectsBucketGapOutOfRange(t *testing.T) {
	for _, c := range []struct {
		gaps []uint64
		ok   bool
	}{
		{[]uint64{math.MaxUint64}, false},
		{[]uint64{1 << 63}, false},
		{[]uint64{5, math.MaxUint64 - 4}, false},
		{[]uint64{histBuckets + 1}, false},
		{[]uint64{histBuckets}, true},
		{[]uint64{histBuckets - 1, 1}, true},
		{[]uint64{histBuckets - 1, 2}, false},
	} {
		s, err := UnpackSnapshot(histPayload(c.gaps...))
		if (err == nil) != c.ok {
			t.Errorf("gaps %v: accepted %v (%v), want %v", c.gaps, err == nil, err, c.ok)
			continue
		}
		if err == nil {
			for _, ix := range s.Metrics[0].Hist.Idx {
				if ix >= histBuckets {
					t.Errorf("gaps %v: decoded bucket %d", c.gaps, ix)
				}
			}
		}
	}
}

// TestUnpackSnapshotRejectsOverlongVarint is the third: a value written in
// more bytes than Pack writes it is refused, in every varint field, so an
// accepted payload always packs back to itself.
func TestUnpackSnapshotRejectsOverlongVarint(t *testing.T) {
	valid := histPayload(3)
	if _, err := UnpackSnapshot(valid); err != nil {
		t.Fatal(err)
	}
	// Every one-byte varint of the payload, rewritten in two bytes.
	for _, at := range []int{1, 3, 5, 6, 7, 8, 9, 10} {
		long := slices.Concat(valid[:at], []byte{valid[at] | 0x80, 0}, valid[at+1:])
		if _, err := UnpackSnapshot(long); err == nil {
			t.Errorf("byte %d written overlong was accepted: %x", at, long)
		}
	}
}

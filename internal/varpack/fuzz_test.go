package varpack

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
)

// fuzzSeed is one named input of the committed corpus:
// testdata/fuzz/<target>/<name> holds the same bytes, which
// TestFuzzCorpusCommitted checks.
type fuzzSeed struct {
	name string
	data []byte
}

// atCap is uvarint MaxCounts: the largest element count a header may
// declare, here with no elements behind it.
var atCap = binary.AppendUvarint(nil, MaxCounts)

func seedDense() []fuzzSeed {
	counts := []int64{3, 0, -1, 300, 0, 0, math.MaxInt64, math.MinInt64}
	return []fuzzSeed{
		{"valid-varint", Pack(counts)},
		{"valid-fixed", PackFixed(counts)},
		{"valid-empty", Pack(nil)},
		{"overlong-varint", []byte{VersionVarint, 2, 0x80, 0x00, 0x81, 0x00}},
		{"overlong-count", []byte{VersionFixed64, 0x81, 0x00, 1, 0, 0, 0, 0, 0, 0, 0}},
		{"empty", nil},
		{"no-count", []byte{VersionVarint}},
		{"bad-version", []byte{42, 1, 0}},
		{"sparse-version", []byte{VersionSparse, 1, 1, 2}},
		{"truncated-varint", append(Pack([]int64{1, 2, 3})[:4], 0x80)},
		{"short-fixed", []byte{VersionFixed64, 2, 1, 2, 3}},
		{"count-at-cap", append([]byte{VersionVarint}, atCap...)},
		{"count-over-cap", []byte{VersionFixed64, 0xff, 0xff, 0xff, 0xff, 0xff, 0x0f}},
		{"count-overflows-uvarint", append([]byte{VersionVarint}, bytes.Repeat([]byte{0xff}, 11)...)},
		{"trailing", append(Pack([]int64{1}), 9)},
	}
}

func seedSparse() []fuzzSeed {
	valid, err := PackDelta([]int{0, 7, 8, 1023}, []int64{2, -1, 40000, 1})
	if err != nil {
		panic(err)
	}
	return []fuzzSeed{
		{"valid", valid},
		{"valid-empty", []byte{VersionSparse, 0}},
		{"overlong-gap", []byte{VersionSparse, 1, 0x85, 0x00, 2}},
		{"empty", nil},
		{"dense-version", Pack([]int64{1, 2})},
		{"no-count", []byte{VersionSparse}},
		{"zero-gap", []byte{VersionSparse, 2, 1, 2, 0, 2}},
		{"truncated-gap", []byte{VersionSparse, 1, 0x80, 0x80}},
		{"truncated-increment", []byte{VersionSparse, 2, 1, 2, 5, 0x80}},
		{"count-at-cap", append([]byte{VersionSparse}, atCap...)},
		{"count-over-cap", []byte{VersionSparse, 0xff, 0xff, 0xff, 0xff, 0xff, 0x0f}},
		{"gap-over-cap", append(append([]byte{VersionSparse, 1}, binary.AppendUvarint(nil, MaxCounts+1)...), 2)},
		{"index-past-cap", slices.Concat([]byte{VersionSparse, 2}, atCap, []byte{2}, atCap, []byte{2})},
		{"gap-overflows-int", append(append([]byte{VersionSparse, 1}, binary.AppendUvarint(nil, math.MaxUint64)...), 2)},
		{"trailing", append(slices.Clone(valid), 9)},
	}
}

// allocated is the heap the process allocated while fn ran.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// allocBound is what a decoder may allocate for an input of n bytes: its
// output (at most 8 bytes per input byte, also when split over the two
// slices of a delta) rounded up by the allocator, plus 64 KB for whatever
// the fuzz worker's own goroutines allocate meanwhile (a few KB now and
// then). A count that sizes an allocation on its own asks for up to 2 GB.
func allocBound(n int) uint64 { return uint64(16*n) + 64<<10 }

// FuzzUnpack: arbitrary bytes never panic the dense decoder, a declared
// element count never sizes an allocation the payload cannot back, and
// whatever decodes survives a round trip through both dense encodings —
// byte for byte when the input was canonical.
func FuzzUnpack(f *testing.F) {
	for _, s := range seedDense() {
		f.Add(s.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var counts []int64
		var err error
		if got := allocated(func() { counts, err = Unpack(data) }); got > allocBound(len(data)) {
			t.Fatalf("%d input bytes made Unpack allocate %d", len(data), got)
		}
		if err != nil {
			if counts != nil {
				t.Fatalf("error %v came with %d counts", err, len(counts))
			}
			return
		}
		if cap(counts) > len(data) {
			t.Fatalf("%d input bytes decoded into %d counts", len(data), cap(counts))
		}
		packed, fixed := Pack(counts), PackFixed(counts)
		if PackedSize(counts) != len(packed) {
			t.Fatalf("PackedSize %d, Pack wrote %d bytes", PackedSize(counts), len(packed))
		}
		for _, again := range [][]byte{packed, fixed} {
			back, err := UnpackInto(again, make([]int64, 0, len(counts)))
			if err != nil || !slices.Equal(back, counts) {
				t.Fatalf("round trip of %v through version %d: %v, %v", counts, again[0], back, err)
			}
		}
		if canon := map[byte][]byte{VersionVarint: packed, VersionFixed64: fixed}[data[0]]; len(canon) == len(data) && !bytes.Equal(canon, data) {
			t.Fatalf("re-encode changed a canonical payload\n read  %x\n wrote %x", data, canon)
		}
	})
}

// FuzzUnpackDelta: the same for the sparse delta decoder, whose output
// must also be something PackDelta accepts — strictly ascending indices
// within the cap.
func FuzzUnpackDelta(f *testing.F) {
	for _, s := range seedSparse() {
		f.Add(s.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var idx []int
		var inc []int64
		var err error
		if got := allocated(func() { idx, inc, err = UnpackDelta(data) }); got > allocBound(len(data)) {
			t.Fatalf("%d input bytes made UnpackDelta allocate %d", len(data), got)
		}
		if err != nil {
			if idx != nil || inc != nil {
				t.Fatalf("error %v came with %d indices, %d increments", err, len(idx), len(inc))
			}
			return
		}
		if len(idx) != len(inc) || 2*cap(idx) > len(data) || 2*cap(inc) > len(data) {
			t.Fatalf("%d input bytes decoded into %d indices, %d increments", len(data), cap(idx), cap(inc))
		}
		for j, i := range idx {
			if i < 0 || i > MaxCounts || (j > 0 && i <= idx[j-1]) {
				t.Fatalf("index %d at %d after %v", i, j, idx[:j])
			}
		}
		again, err := PackDelta(idx, inc)
		if err != nil {
			t.Fatalf("PackDelta refused decoded output: %v", err)
		}
		idx2, inc2, err := UnpackDelta(again)
		if err != nil || !slices.Equal(idx2, idx) || !slices.Equal(inc2, inc) {
			t.Fatalf("round trip of %v/%v: %v/%v, %v", idx, inc, idx2, inc2, err)
		}
		if len(again) == len(data) && !bytes.Equal(again, data) {
			t.Fatalf("re-encode changed a canonical payload\n read  %x\n wrote %x", data, again)
		}
	})
}

// TestFuzzCorpusCommitted keeps testdata/fuzz equal to the seed lists, so
// the CI fuzz smoke and a plain `go test` start from the same named inputs.
func TestFuzzCorpusCommitted(t *testing.T) {
	for target, seeds := range map[string][]fuzzSeed{"FuzzUnpack": seedDense(), "FuzzUnpackDelta": seedSparse()} {
		for _, s := range seeds {
			path := filepath.Join("testdata", "fuzz", target, s.name)
			want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", s.data)
			if got, err := os.ReadFile(path); err != nil || string(got) != want {
				t.Errorf("%s (err %v) should hold:\n%s", path, err, want)
			}
		}
	}
}

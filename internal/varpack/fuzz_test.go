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

// seedFold are the inputs aimed at the walker's own seams, beside
// seedSparse: where a run of two-byte pairs starts, stops and resumes,
// and the refusals that fall inside one. The fuzz domains are 16 and
// 1024 bits.
func seedFold() []fuzzSeed {
	pack := func(bits []int, inc []int64) []byte {
		p, err := PackDelta(bits, inc)
		if err != nil {
			panic(err)
		}
		return p
	}
	short := []byte{1, 2, 1, 1, 1, 126, 1, 127} // +1, -1, +63, -64, each on the next bit
	return []fuzzSeed{
		{"dense-run", pack([]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, []int64{1, -1, 63, -64, 0, 7, 7, 7, 2, 3, 4, 5})},
		{"run-with-tail", pack([]int{0, 1, 2, 3, 4, 5, 6}, []int64{1, 2, 3, 4, 5, 6, 7})},
		{"long-pairs-mid-run", pack([]int{0, 1, 2, 3, 4, 205, 206, 207, 208, 209, 210, 211}, []int64{1, 1, 300, 1, 1, 1, 1, 1, -65, 1, 1, 1})},
		{"overlong-increment-in-run", slices.Concat([]byte{VersionSparse, 5}, short[:4], []byte{1, 0x82, 0x00}, short[:4])},
		{"zero-gap-in-run", slices.Concat([]byte{VersionSparse, 8}, short, []byte{1, 2, 0, 2, 1, 2, 1, 2})},
		{"leaves-small-domain-in-run", slices.Concat([]byte{VersionSparse, 8}, short, []byte{1, 2, 1, 2, 100, 2, 1, 2})},
		{"leaves-both-domains", slices.Concat([]byte{VersionSparse, 12}, bytes.Repeat([]byte{127, 2}, 12))},
		{"run-longer-than-count", slices.Concat([]byte{VersionSparse, 3}, short)},
		{"count-longer-than-run", slices.Concat([]byte{VersionSparse, 5}, short)},
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

// FuzzFoldDelta: the walker against UnpackDelta, on two domain sizes. It
// accepts exactly the payloads UnpackDelta accepts whose indices fit the
// domain; CheckDelta and FoldDelta agree, so a payload checked first
// never half-lands; folding with sign 1 gives the sums of the decoded
// pairs and sign -1 takes them back; and none of it allocates.
func FuzzFoldDelta(f *testing.F) {
	for _, s := range slices.Concat(seedSparse(), seedFold()) {
		f.Add(s.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		idx, inc, unpackErr := UnpackDelta(data)
		for _, m := range []int{16, 1024} {
			fits := unpackErr == nil && (len(idx) == 0 || idx[len(idx)-1] < m)
			counts, unchecked := make([]int64, m), make([]int64, m)
			var check, add, sub, blind error
			// Five runs: a stray allocation by the fuzz worker's own
			// goroutines averages away, one per call does not.
			allocs := testing.AllocsPerRun(5, func() {
				if check = CheckDelta(data, m); check == nil {
					add = FoldDelta(data, counts, 1)
					sub = FoldDelta(data, counts, -1)
				}
				blind = FoldDelta(data, unchecked, 1)
			})
			if allocs != 0 {
				t.Fatalf("m=%d: the walker allocated %v times per input", m, allocs)
			}
			if (check == nil) != fits || (blind == nil) != fits {
				t.Fatalf("m=%d: CheckDelta %v, FoldDelta %v; UnpackDelta %v with indices %v", m, check, blind, unpackErr, idx)
			}
			if !fits {
				continue
			}
			if add != nil || sub != nil {
				t.Fatalf("m=%d: checked payload refused by the fold: +1 %v, -1 %v", m, add, sub)
			}
			if slices.ContainsFunc(counts, func(c int64) bool { return c != 0 }) {
				t.Fatalf("m=%d: folding with sign -1 did not take back sign 1: %v", m, counts)
			}
			want := make([]int64, m)
			for j, i := range idx {
				want[i] += inc[j]
			}
			if err := FoldDelta(data, counts, 1); err != nil || !slices.Equal(counts, want) {
				t.Fatalf("m=%d: folded %v (err %v), decoded pairs sum to %v", m, counts, err, want)
			}
		}
	})
}

// TestFuzzCorpusCommitted keeps testdata/fuzz equal to the seed lists, so
// the CI fuzz smoke and a plain `go test` start from the same named inputs.
func TestFuzzCorpusCommitted(t *testing.T) {
	for target, seeds := range map[string][]fuzzSeed{"FuzzUnpack": seedDense(), "FuzzUnpackDelta": seedSparse(), "FuzzFoldDelta": seedFold()} {
		for _, s := range seeds {
			path := filepath.Join("testdata", "fuzz", target, s.name)
			want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", s.data)
			if got, err := os.ReadFile(path); err != nil || string(got) != want {
				t.Errorf("%s (err %v) should hold:\n%s", path, err, want)
			}
		}
	}
}

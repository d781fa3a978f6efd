package history

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"idldp/internal/varpack"
)

// fuzzSeed is one named input of the committed corpus
// (testdata/fuzz/<target>/<name> holds the same bytes).
type fuzzSeed struct {
	name string
	data []byte
}

func mustPackDelta(bits []int, inc []int64) []byte {
	p, err := varpack.PackDelta(bits, inc)
	if err != nil {
		panic(err)
	}
	return p
}

// hostileCount is a sparse-delta payload declaring 2^28 elements in
// five bytes.
var hostileCount = append([]byte{varpack.VersionSparse}, binary.AppendUvarint(nil, varpack.MaxCounts)...)

// seedRecords are single records: the three valid kinds and the ways a
// record goes wrong before its payload is looked at.
func seedRecords() []fuzzSeed {
	base := encodeRecord(kindBase, 4, 1_700_000_004e9, 9, 0, varpack.Pack([]int64{3, 0, 1, 0, 0, 5, 0, 0}))
	delta := encodeRecord(kindDelta, 5, 1_700_000_005e9, 12, 3, mustPackDelta([]int{1, 6}, []int64{2, 1}))
	tel := encodeRecord(kindTelemetry, 5, 1_700_000_005e9, 0, 0, []byte("packed snapshot"))
	badCRC := slices.Clone(delta)
	badCRC[len(badCRC)-1] ^= 0x40
	overCap := slices.Clone(delta)
	binary.LittleEndian.PutUint32(overCap[40:], maxPayload+1)
	allOnes := slices.Clone(delta)
	binary.LittleEndian.PutUint32(allOnes[40:], ^uint32(0))
	badMagic := slices.Clone(base)
	badMagic[0] = 'X'
	return []fuzzSeed{
		{"valid-base", base},
		{"valid-delta", delta},
		{"valid-telemetry", tel},
		{"truncated-header", delta[:recHeaderSize-7]},
		{"truncated-payload", delta[:len(delta)-6]},
		{"bad-crc", badCRC},
		{"over-cap-length", overCap},
		{"length-all-ones", allOnes},
		{"bad-magic", badMagic},
		{"empty", nil},
	}
}

// seedSegments are whole segment files: a valid one, and CRC-correct
// records that contradict the running state.
func seedSegments() []fuzzSeed {
	base := encodeRecord(kindBase, 4, 1_700_000_004e9, 9, 0, varpack.Pack([]int64{3, 0, 1, 0, 0, 5, 0, 0}))
	d5 := encodeRecord(kindDelta, 5, 1_700_000_005e9, 12, 3, mustPackDelta([]int{1, 6}, []int64{2, 1}))
	tel := encodeRecord(kindTelemetry, 2, 1_700_000_005e9, 0, 0, []byte("packed snapshot"))
	d7 := encodeRecord(kindDelta, 7, 1_700_000_007e9, 13, 1, mustPackDelta([]int{0}, []int64{1}))
	valid := slices.Concat(base, d5, tel, d7)
	badCRC := slices.Clone(valid)
	badCRC[len(badCRC)-9] ^= 0x01
	return []fuzzSeed{
		{"valid", valid},
		{"truncated-header", slices.Concat(base, d5, d7[:20])},
		{"bad-crc-tail", badCRC},
		{"over-cap-length", slices.Concat(base, d5, encodeRecord(kindDelta, 7, 0, 13, 1, nil)[:40], binary.LittleEndian.AppendUint32(nil, ^uint32(0)), make([]byte, 16))},
		{"non-advancing-seq", slices.Concat(base, d5, encodeRecord(kindDelta, 5, 0, 13, 1, mustPackDelta([]int{0}, []int64{1})))},
		{"out-of-range-bit", slices.Concat(base, d5, encodeRecord(kindDelta, 7, 0, 13, 1, mustPackDelta([]int{testBits}, []int64{1})))},
		{"n-chain-broken", slices.Concat(base, d5, encodeRecord(kindDelta, 7, 0, 99, 1, mustPackDelta([]int{0}, []int64{1})))},
		{"hostile-element-count", slices.Concat(base, encodeRecord(kindDelta, 5, 0, 10, 1, hostileCount))},
		{"unknown-kind", slices.Concat(base, encodeRecord(9, 5, 0, 0, 0, nil), d5)},
		{"base-wrong-width", encodeRecord(kindBase, 4, 0, 9, 0, varpack.Pack([]int64{1, 2, 3}))},
		{"delta-first", d5},
	}
}

// reseal rewrites each record's CRC in place (walking by the declared
// lengths for as long as they fit), so mutated header fields and
// payloads reach the checks the CRC would otherwise shield.
func reseal(data []byte) []byte {
	out := slices.Clone(data)
	for off := 0; len(out)-off >= recHeaderSize+recTrailerSize; {
		plen := binary.LittleEndian.Uint32(out[off+40:])
		if plen > maxPayload {
			break
		}
		end := off + recHeaderSize + int(plen)
		if end+recTrailerSize > len(out) {
			break
		}
		binary.LittleEndian.PutUint32(out[end:], crc32.Checksum(out[off:end], castagnoli))
		off = end + recTrailerSize
	}
	return out
}

// TestHugeDeclaredLengthIsAnError pins what crashed 32-bit builds: a
// declared payload length of 2³¹ or more, which an int of 32 bits reads
// as negative, is over the cap on every platform. The record decodes to an
// error, and a segment that holds one loads as its valid prefix, torn.
func TestHugeDeclaredLengthIsAnError(t *testing.T) {
	base := encodeRecord(kindBase, 4, 1_700_000_004e9, 9, 0, varpack.Pack([]int64{3, 0, 1, 0, 0, 5, 0, 0}))
	for _, plen := range []uint32{1 << 31, 0xfffffffc, ^uint32(0)} {
		rec := encodeRecord(kindDelta, 5, 1_700_000_005e9, 12, 3, make([]byte, 16))
		binary.LittleEndian.PutUint32(rec[40:], plen)
		if _, _, err := decodeRecord(rec); err == nil {
			t.Errorf("length %#x: decoded without error", plen)
		}
		sg, torn := parseSegment(slices.Concat(base, rec), "huge", 1, testBits)
		if sg == nil || !torn || sg.bytes != int64(len(base)) {
			t.Errorf("length %#x: segment loaded %v, torn=%v; want the base record alone, torn", plen, sg, torn)
		}
	}
}

// FuzzDecodeRecord: arbitrary bytes never panic the record decoder, the
// payload it hands back is never more than the input it aliases, and
// whatever decodes re-encodes to the very bytes it was read from.
func FuzzDecodeRecord(f *testing.F) {
	for _, s := range seedRecords() {
		f.Add(s.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, reseal(data)} {
			r, consumed, err := decodeRecord(in)
			if cap(r.payload) > len(in) {
				t.Fatalf("%d input bytes left the decoder holding %d", len(in), cap(r.payload))
			}
			if err != nil {
				continue
			}
			if consumed < recHeaderSize+recTrailerSize || consumed > len(in) {
				t.Fatalf("consumed %d of %d bytes", consumed, len(in))
			}
			if back := encodeRecord(r.kind, r.seq, r.time, r.n, r.dn, r.payload); !bytes.Equal(back, in[:consumed]) {
				t.Fatalf("re-encode changed the record\n read  %x\n wrote %x", in[:consumed], back)
			}
		}
	})
}

// FuzzLoadSegment: arbitrary bytes load as a self-consistent segment or
// not at all; whatever follows the last valid record is reported torn
// and changes nothing; beyond the input itself, which the payloads
// alias, a loaded segment holds its anchors and one struct per record.
func FuzzLoadSegment(f *testing.F) {
	for _, s := range seedSegments() {
		f.Add(s.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, reseal(data)} {
			sg, torn := parseSegment(in, "fuzz", 1, testBits)
			if sg == nil {
				if !torn && len(in) != 0 {
					t.Fatalf("%d bytes loaded as nothing, not torn", len(in))
				}
				continue
			}
			checkLoaded(t, in, sg, torn)

			// The valid prefix alone is the same segment, whole.
			prefix := in[:sg.bytes]
			again, tornAgain := parseSegment(prefix, "fuzz", 1, testBits)
			if tornAgain || !sameSegment(sg, again) {
				t.Fatalf("valid prefix reloaded differently (torn=%v)\n first  %+v\n second %+v", tornAgain, sg, again)
			}
			// ...and so is the prefix followed by a corrupted copy of its
			// own last record, which must be reported torn.
			tail := slices.Clone(prefix[len(prefix)-lastRecordLen(prefix):])
			i := len(in) % len(tail)
			if i >= 40 && i < 44 {
				i = 0 // a shorter declared length moves the CRC; anywhere else one flipped byte is always caught
			}
			tail[i] ^= 0x10
			again, tornAgain = parseSegment(slices.Concat(prefix, tail), "fuzz", 1, testBits)
			if !tornAgain || !sameSegment(sg, again) {
				t.Fatalf("corrupted tail: torn=%v\n first  %+v\n second %+v", tornAgain, sg, again)
			}
		}
	})
}

// lastRecordLen is the length of the last record of a wholly valid,
// non-empty prefix.
func lastRecordLen(prefix []byte) int {
	for off := 0; ; {
		_, n, _ := decodeRecord(prefix[off:])
		if n == 0 || off+n == len(prefix) {
			return len(prefix) - off
		}
		off += n
	}
}

// checkLoaded asserts the invariants every loaded segment carries.
func checkLoaded(t *testing.T, in []byte, sg *segment, torn bool) {
	t.Helper()
	if sg.bytes > int64(len(in)) || torn != (sg.bytes < int64(len(in))) {
		t.Fatalf("loaded %d of %d bytes, torn=%v", sg.bytes, len(in), torn)
	}
	if len(sg.base) != testBits || len(sg.final) != testBits {
		t.Fatalf("base/final widths %d/%d", len(sg.base), len(sg.final))
	}
	sum, seq, n := slices.Clone(sg.base), sg.baseSeq, sg.baseN
	payloads := 0
	for _, r := range sg.deltas {
		if r.seq <= seq || n+r.dn != r.n {
			t.Fatalf("record seq %d n %d dn %d after seq %d n %d", r.seq, r.n, r.dn, seq, n)
		}
		seq, n = r.seq, r.n
		// The reference decode: what the loader accepted must be what
		// UnpackDelta reads, inside the domain.
		bits, inc, err := varpack.UnpackDelta(r.payload)
		if err != nil {
			t.Fatalf("record seq %d holds a payload UnpackDelta refuses: %v", r.seq, err)
		}
		for j, i := range bits {
			if i < 0 || i >= testBits {
				t.Fatalf("record seq %d touches bit %d", r.seq, i)
			}
			sum[i] += inc[j]
		}
		payloads += cap(r.payload)
	}
	for _, r := range sg.tel {
		payloads += cap(r.payload)
	}
	if seq != sg.lastSeq || n != sg.lastN || !slices.Equal(sum, sg.final) {
		t.Fatalf("final %v at %d/%d, records sum to %v at %d/%d", sg.final, sg.lastSeq, sg.lastN, sum, seq, n)
	}
	anchors := int64(8 * (cap(sg.base) + cap(sg.final)))
	if anchors != anchorBytes(testBits) || sg.held != anchors+int64(payloads) {
		t.Fatalf("segment accounts %d held bytes, holds %d of anchors and %d of payloads", sg.held, anchors, payloads)
	}
	if structs := int(unsafe.Sizeof(record{})) * (len(sg.deltas) + len(sg.tel)); payloads+structs > 2*len(in) {
		t.Fatalf("%d input bytes left the loader holding %d of payloads and %d of records beside the anchors", len(in), payloads, structs)
	}
}

func sameRecord(p, q record) bool {
	return p.kind == q.kind && p.seq == q.seq && p.time == q.time && p.n == q.n && p.dn == q.dn &&
		bytes.Equal(p.payload, q.payload)
}

func sameSegment(a, b *segment) bool {
	sameRecs := func(x, y []record) bool { return slices.EqualFunc(x, y, sameRecord) }
	return b != nil && a.baseSeq == b.baseSeq && a.baseN == b.baseN && a.lastSeq == b.lastSeq && a.lastN == b.lastN &&
		a.bytes == b.bytes && slices.Equal(a.base, b.base) && slices.Equal(a.final, b.final) &&
		sameRecs(a.deltas, b.deltas) && sameRecs(a.tel, b.tel)
}

// TestHostileLengthsAllocateLittle pins the two length prefixes a
// corrupt or hostile file controls — the record's payload length and
// the payload's own element count — to the size of the input.
func TestHostileLengthsAllocateLittle(t *testing.T) {
	allocated := func(fn func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	for _, s := range slices.Concat(seedRecords(), seedSegments()) {
		if got := allocated(func() {
			_, _, _ = decodeRecord(s.data)
			_, _ = parseSegment(s.data, s.name, 1, testBits)
		}); got > 64<<10 {
			t.Errorf("%s: %d input bytes made the loader allocate %d", s.name, len(s.data), got)
		}
	}
}

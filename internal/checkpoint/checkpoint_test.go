package checkpoint

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	counts := []int64{0, 5, 17, 2, 9001, 0, 42}
	snap, err := st.Save(counts, 9001)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Seq != 1 {
		t.Fatalf("first seq = %d, want 1", snap.Seq)
	}
	got, ok, err := Latest(dir)
	if err != nil || !ok {
		t.Fatalf("Latest: ok=%v err=%v", ok, err)
	}
	if got.Bits != len(counts) || got.N != 9001 || got.Seq != 1 {
		t.Fatalf("got bits=%d n=%d seq=%d", got.Bits, got.N, got.Seq)
	}
	for i, c := range counts {
		if got.Counts[i] != c {
			t.Fatalf("counts[%d] = %d, want %d", i, got.Counts[i], c)
		}
	}
	if got.Time.IsZero() {
		t.Fatal("snapshot time not recorded")
	}
}

func TestLatestOnEmptyAndMissingDir(t *testing.T) {
	if _, ok, err := Latest(t.TempDir()); ok || err != nil {
		t.Fatalf("empty dir: ok=%v err=%v", ok, err)
	}
	if _, ok, err := Latest(filepath.Join(t.TempDir(), "nope")); ok || err != nil {
		t.Fatalf("missing dir: ok=%v err=%v", ok, err)
	}
}

func TestRetentionKeepsNewestK(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 5; i++ {
		if _, err := st.Save([]int64{i}, i); err != nil {
			t.Fatal(err)
		}
	}
	seqs, err := listSeqs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 2 || seqs[0] != 4 || seqs[1] != 5 {
		t.Fatalf("retained seqs = %v, want [4 5]", seqs)
	}
	snap, ok, err := Latest(dir)
	if err != nil || !ok || snap.N != 5 {
		t.Fatalf("Latest after retention: n=%d ok=%v err=%v", snap.N, ok, err)
	}
}

func TestSeqMonotoneAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	st, _ := NewStore(dir, 3)
	if _, err := st.Save([]int64{1}, 1); err != nil {
		t.Fatal(err)
	}
	st2, err := NewStore(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := st2.Save([]int64{2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Seq != 2 {
		t.Fatalf("reopened store assigned seq %d, want 2", snap.Seq)
	}
}

func TestCorruptNewestFallsBackToOlder(t *testing.T) {
	dir := t.TempDir()
	st, _ := NewStore(dir, 5)
	if _, err := st.Save([]int64{1, 2}, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Save([]int64{3, 4}, 4); err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte of the newest frame; its CRC must catch it.
	newest := filepath.Join(dir, fileName(2))
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	data[headerSize] ^= 0xff
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}
	snap, ok, err := Latest(dir)
	if err != nil || !ok {
		t.Fatalf("Latest: ok=%v err=%v", ok, err)
	}
	if snap.Seq != 1 || snap.N != 2 {
		t.Fatalf("fell back to seq=%d n=%d, want seq=1 n=2", snap.Seq, snap.N)
	}
}

func TestAllCorruptIsAnError(t *testing.T) {
	dir := t.TempDir()
	st, _ := NewStore(dir, 5)
	if _, err := st.Save([]int64{1}, 1); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, fileName(1))
	if err := os.WriteFile(path, []byte("IDCKgarbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := Latest(dir); ok || err == nil {
		t.Fatalf("all-corrupt dir: ok=%v err=%v, want error", ok, err)
	}
}

func TestStrayTempFilesIgnored(t *testing.T) {
	dir := t.TempDir()
	st, _ := NewStore(dir, 3)
	if _, err := st.Save([]int64{7}, 7); err != nil {
		t.Fatal(err)
	}
	// A crash mid-Save leaves a temp file; it must not shadow real frames.
	if err := os.WriteFile(filepath.Join(dir, prefix+"12345.tmp"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	snap, ok, err := Latest(dir)
	if err != nil || !ok || snap.N != 7 {
		t.Fatalf("Latest with stray temp: n=%d ok=%v err=%v", snap.N, ok, err)
	}
}

func TestDecodeRejectsMalformedFrames(t *testing.T) {
	good := encode(Snapshot{Bits: 2, Counts: []int64{1, 2}, N: 2, Seq: 9})
	cases := map[string][]byte{
		"truncated":   good[:headerSize-1],
		"bad magic":   append([]byte("NOPE"), good[4:]...),
		"bad version": func() []byte { b := append([]byte(nil), good...); b[4] = 99; return b }(),
		"short body":  good[:len(good)-8],
	}
	for name, data := range cases {
		if _, err := decode(data); err == nil {
			t.Errorf("%s: decode accepted malformed frame", name)
		}
	}
	if _, err := decode(good); err != nil {
		t.Fatalf("control frame rejected: %v", err)
	}
}

// encodeV1 renders a legacy version-1 frame (fixed 8 bytes per bit) the
// way the pre-compression store wrote it, so the refusal test exercises
// real v1 bytes.
func encodeV1(snap Snapshot) []byte {
	buf := make([]byte, headerSize+8*len(snap.Counts)+trailerSize)
	copy(buf, magic)
	binary.LittleEndian.PutUint16(buf[4:], 1)
	binary.LittleEndian.PutUint32(buf[8:], uint32(len(snap.Counts)))
	binary.LittleEndian.PutUint64(buf[12:], snap.Seq)
	binary.LittleEndian.PutUint64(buf[20:], uint64(snap.N))
	binary.LittleEndian.PutUint64(buf[28:], uint64(snap.Time.UnixNano()))
	off := headerSize
	for _, c := range snap.Counts {
		binary.LittleEndian.PutUint64(buf[off:], uint64(c))
		off += 8
	}
	binary.LittleEndian.PutUint32(buf[off:], crc32.Checksum(buf[:off], castagnoli))
	return buf
}

// TestRefusesLegacyV1Frames: nothing has written a version-1 frame since
// the packed format landed, so the reader is gone — a v1 frame is an
// unsupported version, Latest falls back to the next valid frame like
// for any other bad one, and sequence numbering still continues past it.
func TestRefusesLegacyV1Frames(t *testing.T) {
	dir := t.TempDir()
	counts := []int64{7, 0, 123456, 3}
	st, err := NewStore(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	older, err := st.Save(counts, 123463)
	if err != nil {
		t.Fatal(err)
	}
	v1 := encodeV1(Snapshot{Bits: len(counts), Counts: counts, N: 999999, Seq: older.Seq + 1})
	if _, err := decode(v1); err == nil || !strings.Contains(err.Error(), "unsupported version 1") {
		t.Fatalf("decode of a v1 frame: err = %v, want unsupported version", err)
	}
	if err := os.WriteFile(filepath.Join(dir, fileName(older.Seq+1)), v1, 0o644); err != nil {
		t.Fatal(err)
	}
	snap, ok, err := Latest(dir)
	if err != nil || !ok || snap.Seq != older.Seq || snap.N != 123463 {
		t.Fatalf("Latest past a v1 frame: seq=%d n=%d ok=%v err=%v, want the older v2 frame", snap.Seq, snap.N, ok, err)
	}
	if st, err = NewStore(dir, 3); err != nil {
		t.Fatal(err)
	}
	if next, err := st.Save(counts, 123463); err != nil || next.Seq != older.Seq+2 {
		t.Fatalf("save after the v1 frame: seq=%d err=%v, want seq %d", next.Seq, err, older.Seq+2)
	}
}

// TestPackedFramesShrink: the on-disk compression satellite — typical
// counts pack several times smaller than the legacy fixed-width form.
func TestPackedFramesShrink(t *testing.T) {
	counts := make([]int64, 1024)
	for i := range counts {
		counts[i] = int64(i * 37 % 100000)
	}
	snap := Snapshot{Bits: len(counts), Counts: counts, N: 1 << 20, Seq: 1}
	v2, v1 := encode(snap), encodeV1(snap)
	if 2*len(v2) > len(v1) {
		t.Fatalf("packed frame %d bytes vs fixed %d — less than 2x smaller", len(v2), len(v1))
	}
	got, err := decode(v2)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range counts {
		if got.Counts[i] != c {
			t.Fatalf("count %d = %d, want %d", i, got.Counts[i], c)
		}
	}
}

func TestNewStoreValidation(t *testing.T) {
	if _, err := NewStore("", 3); err == nil || !strings.Contains(err.Error(), "empty") {
		t.Fatalf("empty dir accepted: %v", err)
	}
}

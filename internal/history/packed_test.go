package history

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"idldp/internal/stream"
)

// compatFrame is generation g of the campaign testdata/parent-log holds:
// dense and half-dense intervals, with a two-byte increment and a
// negative one in each, so every path of the payload walker is on disk.
func compatFrame(g uint64) stream.Delta {
	d := stream.Delta{Seq: g, DN: int64(10 + g), Time: t0.Add(time.Duration(g) * time.Second)}
	for i := 0; i < testBits; i++ {
		if g%3 == 0 && i%2 == 1 {
			continue
		}
		inc := int64(1 + (g*5+uint64(i)*3)%11)
		switch i {
		case 2:
			inc = int64(70 + g)
		case 5:
			inc = -int64(1 + g%3)
		}
		d.Bits, d.Inc = append(d.Bits, i), append(d.Inc, inc)
	}
	return d
}

// writeCompat appends the campaign: generations 1-16 but for two quiet
// ones, and a telemetry record beside two of them.
func writeCompat(t *testing.T, s *Store, m *refModel) {
	t.Helper()
	for g := uint64(1); g <= 16; g++ {
		if g == 6 || g == 11 {
			continue
		}
		d := compatFrame(g)
		if err := s.Append(d); err != nil {
			t.Fatal(err)
		}
		m.record(g, d.Bits, d.Inc, d.DN)
		if g == 4 || g == 9 {
			if err := s.AppendTelemetry(g, d.Time, []byte("packed snapshot")); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestParentWrittenLogLoads: the on-disk format did not move when records
// went packed in memory. testdata/parent-log was written by the commit
// before that change (Config{SegmentRecords: 5}, writeCompat's calls);
// it must answer every read as the reference does, and the same campaign
// written today must be the same bytes, so either side opens the other's
// log.
func TestParentWrittenLogLoads(t *testing.T) {
	parent := filepath.Join("testdata", "parent-log")
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(parent)); err != nil {
		t.Fatal(err)
	}
	s := openTest(t, dir, Config{SegmentRecords: 5})
	defer s.Close()

	fresh := t.TempDir()
	today := openTest(t, fresh, Config{SegmentRecords: 5})
	m := newRefModel()
	writeCompat(t, today, m)
	if err := today.Close(); err != nil {
		t.Fatal(err)
	}

	newest := m.snaps[len(m.snaps)-1]
	wantState(t, s, newest.counts, newest.n, newest.seq)
	if st, want := s.Stats(), today.Stats(); st.Dropped != 0 || st.Segments != 4 || st.Records != 14 || st.TelemetryRecords != 2 ||
		st.Bytes != want.Bytes || st.ResidentBytes != want.ResidentBytes {
		t.Fatalf("loaded %+v, the same campaign written today holds %+v", st, want)
	}
	for at := uint64(0); at <= newest.seq+1; at++ {
		for to := at; to <= newest.seq+1; to++ {
			checkQueries(t, s, m, at, to)
		}
	}

	files, err := filepath.Glob(filepath.Join(parent, segPrefix+"*"+segSuffix))
	if err != nil || len(files) != 4 {
		t.Fatalf("parent log has segments %v (err %v)", files, err)
	}
	for _, f := range files {
		then, err1 := os.ReadFile(f)
		now, err2 := os.ReadFile(filepath.Join(fresh, filepath.Base(f)))
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		// A base record is stamped with the wall clock; everything else
		// about it, and every byte after it, must match.
		b1, n1, err1 := decodeRecord(then)
		b2, n2, err2 := decodeRecord(now)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		b1.time = b2.time
		if !sameRecord(b1, b2) || !bytes.Equal(then[n1:], now[n2:]) {
			t.Errorf("%s written today differs from the parent's\n then %x\n now  %x", filepath.Base(f), then, now)
		}
	}
}

// TestResidentBytesPerGeneration: a generation costs about its payload
// in memory, however it got there — appended live, where the store must
// not keep the frame's slices (16 bytes per touched bit), or loaded,
// where the payloads must stay inside the one file image. Measured on
// the heap, not only by the store's own accounting.
func TestResidentBytesPerGeneration(t *testing.T) {
	const bits, generations, perGeneration = 1024, 512, 3500
	heap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	all := make([]int, bits)
	for i := range all {
		all[i] = i
	}
	dir := t.TempDir()

	before := heap()
	s, err := Open(dir, bits, Config{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for g := 1; g <= generations; g++ {
		inc := make([]int64, bits)
		for i := range inc {
			inc[i] = int64(1 + (g*31+i*17)%23)
		}
		if err := s.Append(stream.Delta{Seq: uint64(g), Time: t0, Bits: all, Inc: inc, DN: 40}); err != nil {
			t.Fatal(err)
		}
	}
	appended := heap() - before
	accounted := s.Stats().ResidentBytes
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = nil // the appended store is garbage before the loaded one is measured

	before = heap()
	loaded, err := Open(dir, bits, Config{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	held := heap() - before
	defer loaded.Close()

	if got := loaded.Stats().ResidentBytes; got != accounted {
		t.Errorf("ResidentBytes is %d appended, %d loaded", accounted, got)
	}
	for name, total := range map[string]int64{"Stats.ResidentBytes": accounted, "heap after appends": appended, "heap after Open": held} {
		per := total / generations
		t.Logf("%s: %d bytes per generation", name, per)
		if per <= 0 || per > perGeneration {
			t.Errorf("%s: want at most %d for a dense %d-bit generation", name, perGeneration, bits)
		}
	}
}

package history

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"idldp/internal/faultinject"
	"idldp/internal/stream"
	"idldp/internal/telemetry"
)

const testBits = 8

// t0 anchors record timestamps so SeqAtTime is deterministic.
var t0 = time.Unix(1_700_000_000, 0)

func delta(seq uint64, dn int64, pairs ...int64) stream.Delta {
	d := stream.Delta{Seq: seq, DN: dn, Time: t0.Add(time.Duration(seq) * time.Second)}
	for i := 0; i+1 < len(pairs); i += 2 {
		d.Bits = append(d.Bits, int(pairs[i]))
		d.Inc = append(d.Inc, pairs[i+1])
	}
	return d
}

func openTest(t *testing.T, dir string, cfg Config) *Store {
	t.Helper()
	cfg.NoSync = true
	s, err := Open(dir, testBits, cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func wantState(t *testing.T, s *Store, counts []int64, n int64, seq uint64) {
	t.Helper()
	gc, gn, gseq := s.State()
	if !equalCounts(gc, counts) || gn != n || gseq != seq {
		t.Fatalf("State = %v, %d, %d; want %v, %d, %d", gc, gn, gseq, counts, n, seq)
	}
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Config{SegmentRecords: 3})
	frames := []stream.Delta{
		delta(1, 2, 0, 1, 3, 1),
		delta(2, 1, 3, 1),
		delta(3, 0), // empty: advances seq, no record
		delta(4, 3, 1, 2, 7, 1),
		delta(5, 2, 0, 1, 1, 1),
	}
	for _, d := range frames {
		if err := s.Append(d); err != nil {
			t.Fatalf("Append seq %d: %v", d.Seq, err)
		}
	}
	want := []int64{2, 3, 0, 2, 0, 0, 0, 1}
	wantState(t, s, want, 8, 5)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// A reopened store answers from the same state...
	s2 := openTest(t, dir, Config{SegmentRecords: 3})
	defer s2.Close()
	wantState(t, s2, want, 8, 5)

	// ...and Replay rebuilds a live window ring bit-exactly.
	win, err := stream.NewWindow(testBits, 16)
	if err != nil {
		t.Fatalf("NewWindow: %v", err)
	}
	if err := s2.Replay(win.Cap(), win.Push); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	_, _, counts, n, seq := win.View()
	if !equalCounts(counts, want) || n != 8 || seq != 5 {
		t.Fatalf("replayed window = %v, %d, %d; want %v, 8, 5", counts, n, seq, want)
	}
}

func TestResyncFoldsToImpliedDelta(t *testing.T) {
	s := openTest(t, t.TempDir(), Config{})
	defer s.Close()
	if err := s.Append(delta(1, 2, 0, 1, 1, 1)); err != nil {
		t.Fatal(err)
	}
	// A resync frame carries the full state; the store must log only the
	// difference against its shadow.
	full := []int64{1, 1, 0, 0, 0, 0, 0, 5}
	if err := s.Append(stream.Delta{Seq: 3, Time: t0.Add(3 * time.Second), Resync: true, Counts: full, N: 7}); err != nil {
		t.Fatalf("resync append: %v", err)
	}
	wantState(t, s, full, 7, 3)
	counts, dn, first, last, _, err := s.Range(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if dn != 5 || first != 3 || last != 3 || counts[7] != 5 || counts[0] != 0 {
		t.Fatalf("implied delta wrong: counts=%v dn=%d first=%d last=%d", counts, dn, first, last)
	}
}

func TestRefusesStaleSeq(t *testing.T) {
	s := openTest(t, t.TempDir(), Config{})
	defer s.Close()
	if err := s.Append(delta(5, 1, 0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(delta(5, 1, 1, 1)); err == nil {
		t.Fatal("stale seq accepted")
	}
	if err := s.Append(delta(4, 1, 1, 1)); err == nil {
		t.Fatal("regressing seq accepted")
	}
	if st := s.Stats(); st.Dropped != 2 {
		t.Fatalf("Dropped = %d, want 2", st.Dropped)
	}
	wantState(t, s, []int64{1, 0, 0, 0, 0, 0, 0, 0}, 1, 5)
}

func TestCumulativeAtClampsDown(t *testing.T) {
	s := openTest(t, t.TempDir(), Config{SegmentRecords: 2})
	defer s.Close()
	for _, d := range []stream.Delta{delta(1, 1, 0, 1), delta(2, 1, 1, 1), delta(5, 1, 2, 1), delta(6, 1, 3, 1)} {
		if err := s.Append(d); err != nil {
			t.Fatal(err)
		}
	}
	// Generation 4 was never recorded (3-4 were quiet): clamp to 2.
	counts, n, seq, err := s.CumulativeAt(4)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 2 || n != 2 || counts[0] != 1 || counts[1] != 1 || counts[2] != 0 {
		t.Fatalf("at=4 answered seq=%d n=%d counts=%v; want seq=2 n=2", seq, n, counts)
	}
	if counts, n, seq, err = s.CumulativeAt(1 << 40); err != nil || seq != 6 || n != 4 {
		t.Fatalf("at=huge answered seq=%d n=%d err=%v; want newest", seq, n, err)
	} else if counts[3] != 1 {
		t.Fatalf("at=huge counts = %v", counts)
	}
}

func TestRangeSemantics(t *testing.T) {
	s := openTest(t, t.TempDir(), Config{})
	defer s.Close()
	for seq := uint64(1); seq <= 5; seq++ {
		if err := s.Append(delta(seq, 1, int64(seq%testBits), 1)); err != nil {
			t.Fatal(err)
		}
	}
	// from exclusive, to inclusive.
	counts, dn, first, last, clamped, err := s.Range(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if clamped || dn != 2 || first != 3 || last != 4 {
		t.Fatalf("Range(2,4): dn=%d first=%d last=%d clamped=%v", dn, first, last, clamped)
	}
	if counts[3] != 1 || counts[4] != 1 || counts[2] != 0 {
		t.Fatalf("Range(2,4) counts = %v", counts)
	}
}

func TestRetentionTruncatesOldest(t *testing.T) {
	s := openTest(t, t.TempDir(), Config{KeepSegments: 2, SegmentRecords: 2})
	defer s.Close()
	for seq := uint64(1); seq <= 12; seq++ {
		if err := s.Append(delta(seq, 1, int64(seq%testBits), 1)); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Segments != 2 {
		t.Fatalf("Segments = %d, want 2", st.Segments)
	}
	oldest := s.OldestSeq()
	if oldest == 0 {
		t.Fatal("OldestSeq = 0 after retention")
	}

	// Queries fully past retention fail with ErrTruncated carrying the
	// oldest answerable generation.
	_, _, _, err := s.CumulativeAt(oldest - 1)
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("CumulativeAt past retention: %v", err)
	}
	var te *TruncatedError
	if !errors.As(err, &te) || te.Oldest != oldest {
		t.Fatalf("TruncatedError.Oldest = %v, want %d", err, oldest)
	}
	if _, _, _, _, _, err = s.Range(0, oldest); !errors.Is(err, ErrTruncated) {
		t.Fatalf("Range past retention: %v", err)
	}
	if err := s.ReplayRange(oldest-1, 12, func(uint64, time.Time, []int64, int64) error { return nil }); !errors.Is(err, ErrTruncated) {
		t.Fatalf("ReplayRange past retention: %v", err)
	}

	// A from below the horizon clamps up and reports it.
	_, dn, first, _, clamped, err := s.Range(0, 12)
	if err != nil {
		t.Fatal(err)
	}
	if !clamped || first <= oldest {
		t.Fatalf("Range(0,12): first=%d clamped=%v oldest=%d", first, clamped, oldest)
	}
	if dn != int64(12-first+1) {
		t.Fatalf("Range(0,12) dn = %d, want %d", dn, 12-first+1)
	}
}

func TestPinDefersPrune(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Config{KeepSegments: 1, SegmentRecords: 2})
	defer s.Close()
	for seq := uint64(1); seq <= 4; seq++ {
		if err := s.Append(delta(seq, 1, 0, 1)); err != nil {
			t.Fatal(err)
		}
	}
	release := s.Acquire()
	// Rotations while pinned must not delete covered segments.
	for seq := uint64(5); seq <= 10; seq++ {
		if err := s.Append(delta(seq, 1, 0, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Segments <= 1 {
		t.Fatalf("pinned store pruned to %d segments", st.Segments)
	}
	files, _ := filepath.Glob(filepath.Join(dir, segPrefix+"*"))
	if got, want := len(files), s.Stats().Segments; got != want {
		t.Fatalf("%d segment files on disk, store holds %d", got, want)
	}
	release()
	if st := s.Stats(); st.Segments != 1 {
		t.Fatalf("Segments = %d after release, want 1", st.Segments)
	}
	if files, _ = filepath.Glob(filepath.Join(dir, segPrefix+"*")); len(files) != 1 {
		t.Fatalf("%d segment files after release, want 1", len(files))
	}
}

// newestSegment returns the path of the highest-numbered segment file.
func newestSegment(t *testing.T, dir string) string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
	if err != nil || len(files) == 0 {
		t.Fatalf("no segment files in %s (err=%v)", dir, err)
	}
	return files[len(files)-1]
}

func TestTornTailSkippedNeverMisSummed(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Config{})
	for seq := uint64(1); seq <= 5; seq++ {
		if err := s.Append(delta(seq, 1, int64(seq-1), 1)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	// Tear the CRC off the newest record: the reopened store must answer
	// from generation 4, not half of generation 5.
	if err := faultinject.TruncateTail(newestSegment(t, dir), 3); err != nil {
		t.Fatal(err)
	}
	s2 := openTest(t, dir, Config{})
	defer s2.Close()
	want := []int64{1, 1, 1, 1, 0, 0, 0, 0}
	wantState(t, s2, want, 4, 4)
	if st := s2.Stats(); st.Dropped == 0 {
		t.Fatal("torn tail not counted in Dropped")
	}

	// Appends after the tear start a fresh segment and stay exact.
	if err := s2.Append(delta(6, 1, 5, 1)); err != nil {
		t.Fatal(err)
	}
	counts, n, seq, err := s2.CumulativeAt(6)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 6 || n != 5 || counts[5] != 1 || counts[4] != 0 {
		t.Fatalf("post-tear append: seq=%d n=%d counts=%v", seq, n, counts)
	}
}

func TestCorruptByteStopsChain(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Config{})
	for seq := uint64(1); seq <= 4; seq++ {
		if err := s.Append(delta(seq, 1, int64(seq-1), 1)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	// Flip a byte inside the final record: CRC catches it and the load
	// stops at the last intact record instead of mis-summing.
	if err := faultinject.CorruptByte(newestSegment(t, dir), -10); err != nil {
		t.Fatal(err)
	}
	s2 := openTest(t, dir, Config{})
	defer s2.Close()
	wantState(t, s2, []int64{1, 1, 1, 0, 0, 0, 0, 0}, 3, 3)
}

func TestChainBreakDiscardsOlderSegments(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Config{SegmentRecords: 2})
	for seq := uint64(1); seq <= 6; seq++ {
		if err := s.Append(delta(seq, 1, 0, 1)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	files, _ := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
	if len(files) < 3 {
		t.Fatalf("want >= 3 segments, got %d", len(files))
	}

	// Corrupt the tail of a *middle* segment: its lost records are already
	// summed into the next segment's base, so keeping both would double
	// count. Everything at or before the break must be discarded.
	if err := faultinject.CorruptByte(files[1], -10); err != nil {
		t.Fatal(err)
	}
	s2 := openTest(t, dir, Config{SegmentRecords: 2})
	defer s2.Close()
	wantState(t, s2, []int64{6, 0, 0, 0, 0, 0, 0, 0}, 6, 6)
	if oldest := s2.OldestSeq(); oldest <= 2 {
		t.Fatalf("OldestSeq = %d, want the post-break re-anchor", oldest)
	}
	if _, _, _, err := s2.CumulativeAt(1); !errors.Is(err, ErrTruncated) {
		t.Fatalf("query across the break: %v", err)
	}
}

func TestTelemetryJournalRoundTrip(t *testing.T) {
	s := openTest(t, t.TempDir(), Config{})
	defer s.Close()
	reg := telemetry.NewRegistry("test")
	c := reg.Counter("frames_total", "frames")
	for seq := uint64(1); seq <= 3; seq++ {
		if err := s.Append(delta(seq, 1, 0, 1)); err != nil {
			t.Fatal(err)
		}
		c.Inc()
		if err := s.AppendTelemetry(seq, t0.Add(time.Duration(seq)*time.Second), reg.Snapshot().Pack()); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := s.Telemetry(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Seq != 2 || recs[1].Seq != 3 {
		t.Fatalf("Telemetry(2,3) = %+v", recs)
	}
	snap, err := telemetry.UnpackSnapshot(recs[1].Payload)
	if err != nil {
		t.Fatalf("UnpackSnapshot: %v", err)
	}
	found := false
	for _, m := range snap.Metrics {
		if m.Name == "frames_total" && m.Counter == 3 {
			found = true
		}
	}
	if !found {
		t.Fatalf("journaled snapshot missing frames_total=3: %+v", snap.Metrics)
	}
	if st := s.Stats(); st.TelemetryRecords != 3 || st.TelemetryAppends != 3 {
		t.Fatalf("telemetry stats = %+v", st)
	}
}

func TestSeqAtTime(t *testing.T) {
	s := openTest(t, t.TempDir(), Config{})
	defer s.Close()
	for seq := uint64(1); seq <= 4; seq++ {
		if err := s.Append(delta(seq, 1, 0, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if seq, ok := s.SeqAtTime(t0.Add(2500 * time.Millisecond)); !ok || seq != 2 {
		t.Fatalf("SeqAtTime(mid) = %d, %v; want 2, true", seq, ok)
	}
	if seq, ok := s.SeqAtTime(t0.Add(time.Hour)); !ok || seq != 4 {
		t.Fatalf("SeqAtTime(future) = %d, %v; want 4, true", seq, ok)
	}
	if _, ok := s.SeqAtTime(t0); ok {
		t.Fatal("SeqAtTime before every record reported ok")
	}
}

func TestReplayRangeWalksEveryGeneration(t *testing.T) {
	s := openTest(t, t.TempDir(), Config{SegmentRecords: 2})
	defer s.Close()
	for seq := uint64(1); seq <= 6; seq++ {
		if err := s.Append(delta(seq, 1, int64(seq%testBits), 1)); err != nil {
			t.Fatal(err)
		}
	}
	var seqs []uint64
	var lastN int64
	err := s.ReplayRange(2, 5, func(seq uint64, _ time.Time, counts []int64, n int64) error {
		seqs = append(seqs, seq)
		lastN = n
		// counts must be cumulative as of seq, not the span delta.
		if counts[1] != 1 {
			t.Fatalf("seq %d: cumulative counts %v missing generation 1", seq, counts)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 3 || seqs[0] != 3 || seqs[2] != 5 || lastN != 5 {
		t.Fatalf("ReplayRange(2,5) visited %v, lastN=%d", seqs, lastN)
	}
}

func TestOpenRejectsBadInput(t *testing.T) {
	if _, err := Open("", testBits, Config{}); err == nil {
		t.Fatal("empty dir accepted")
	}
	if _, err := Open(t.TempDir(), 0, Config{}); err == nil {
		t.Fatal("zero bits accepted")
	}
}

func TestClosedStoreRefusesAppends(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Config{})
	if err := s.Append(delta(1, 1, 0, 1)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := s.Append(delta(2, 1, 0, 1)); err == nil {
		t.Fatal("append after Close accepted")
	}
	if err := s.AppendTelemetry(2, t0, nil); err == nil {
		t.Fatal("telemetry append after Close accepted")
	}
	// Reads keep answering from memory.
	if _, _, seq, err := s.CumulativeAt(1); err != nil || seq != 1 {
		t.Fatalf("read after Close: seq=%d err=%v", seq, err)
	}
	// The file was sealed cleanly: a reopen sees the full state.
	s2 := openTest(t, dir, Config{})
	defer s2.Close()
	wantState(t, s2, []int64{1, 0, 0, 0, 0, 0, 0, 0}, 1, 1)
	if _, err := os.Stat(newestSegment(t, dir)); err != nil {
		t.Fatal(err)
	}
}

// TestFailedAppendSealsTheSegment: a write error fails that append only.
// The open handle is swapped for one the kernel refuses writes on, behind
// half a frame such as a short write leaves; the next append must land in
// a fresh segment, and a reopen must return every acknowledged record
// with nothing torn in between.
func TestFailedAppendSealsTheSegment(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Config{})
	for seq := uint64(1); seq <= 2; seq++ {
		if err := s.Append(delta(seq, 1, int64(seq), 1)); err != nil {
			t.Fatal(err)
		}
	}
	path := newestSegment(t, dir)
	half := encodeRecord(kindDelta, 3, 0, 3, 1, mustPackDelta([]int{3}, []int64{1}))
	s.mu.Lock()
	_, err := s.cur.Write(half[:len(half)/2])
	s.cur.Close()
	readOnly, openErr := os.Open(path)
	s.cur = readOnly
	s.mu.Unlock()
	if err != nil || openErr != nil {
		t.Fatal(err, openErr)
	}

	if err := s.Append(delta(3, 1, 3, 1)); err == nil {
		t.Fatal("append through a read-only handle succeeded")
	}
	wantState(t, s, []int64{0, 1, 1, 0, 0, 0, 0, 0}, 2, 2)
	if st := s.Stats(); st.AppendErrors != 1 || st.Segments != 1 || st.Records != 2 {
		t.Fatalf("after the failed append: %+v", st)
	}
	if err := s.Append(delta(4, 1, 4, 1)); err != nil {
		t.Fatalf("append after a failed one: %v", err)
	}
	if st := s.Stats(); st.AppendErrors != 1 || st.Segments != 2 || st.Records != 3 {
		t.Fatalf("after the next append: %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openTest(t, dir, Config{})
	defer s2.Close()
	wantState(t, s2, []int64{0, 1, 1, 0, 1, 0, 0, 0}, 3, 4)
	if st := s2.Stats(); st.Dropped != 0 || st.Records != 3 || st.OldestSeq != 0 {
		t.Fatalf("reopened: %+v", st)
	}
	if counts, n, seq, err := s2.CumulativeAt(3); err != nil || seq != 2 || n != 2 || counts[2] != 1 || counts[4] != 0 {
		t.Fatalf("CumulativeAt(3) = %v, %d, %d, %v; want generation 2", counts, n, seq, err)
	}
}

// TestReplayFollowsTheWindow: whatever the ring's capacity, Replay leaves
// it as the live feed would have, and hands it no more frames than it
// can hold plus the resync they follow.
func TestReplayFollowsTheWindow(t *testing.T) {
	s := openTest(t, t.TempDir(), Config{SegmentRecords: 4})
	defer s.Close()
	var frames []stream.Delta
	for seq := uint64(1); seq <= 23; seq++ {
		if seq%7 == 0 {
			continue // a quiet generation
		}
		lo, hi := int64(seq%testBits), int64((seq+3)%testBits)
		d := delta(seq, int64(1+seq%3), min(lo, hi), int64(seq), max(lo, hi), 1)
		frames = append(frames, d)
		if err := s.Append(d); err != nil {
			t.Fatal(err)
		}
	}
	for _, capacity := range []int{1, 3, 4, 5, 9, len(frames) - 1, len(frames), len(frames) + 1, 64} {
		live, err1 := stream.NewWindow(testBits, capacity)
		replayed, err2 := stream.NewWindow(testBits, capacity)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		for _, d := range frames {
			if err := live.Push(d); err != nil {
				t.Fatal(err)
			}
		}
		pushed := 0
		if err := s.Replay(capacity, func(d stream.Delta) error { pushed++; return replayed.Push(d) }); err != nil {
			t.Fatalf("Replay(%d): %v", capacity, err)
		}
		if pushed > min(capacity, len(frames))+1 {
			t.Errorf("Replay(%d) pushed %d frames of %d retained", capacity, pushed, len(frames))
		}
		wc, wn, c, n, seq := live.View()
		gwc, gwn, gc, gn, gseq := replayed.View()
		if !equalCounts(gwc, wc) || gwn != wn || !equalCounts(gc, c) || gn != n || gseq != seq || replayed.Len() != live.Len() {
			t.Fatalf("capacity %d: replayed window %v/%d over %d intervals, cumulative %v/%d at %d; live %v/%d over %d, %v/%d at %d",
				capacity, gwc, gwn, replayed.Len(), gc, gn, gseq, wc, wn, live.Len(), c, n, seq)
		}
		for k := 0; k <= capacity; k++ {
			want, wantN, _ := live.LastCounts(k)
			got, gotN, _ := replayed.LastCounts(k)
			if !equalCounts(got, want) || gotN != wantN {
				t.Fatalf("capacity %d: last %d intervals %v/%d, live %v/%d", capacity, k, got, gotN, want, wantN)
			}
		}
	}
}

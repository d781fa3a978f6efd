package history

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"idldp/internal/stream"
)

// refSnap is the cumulative state after one recorded generation.
type refSnap struct {
	seq    uint64
	n      int64
	counts []int64
}

// refModel is the reference the store is tested against: every
// recorded generation's cumulative snapshot, ascending, never pruned.
// snaps[0] is the empty state at generation 0.
type refModel struct{ snaps []refSnap }

func newRefModel() *refModel {
	return &refModel{snaps: []refSnap{{counts: make([]int64, testBits)}}}
}

// at is the state as of the newest recorded generation <= seq; after
// is the oldest recorded generation > seq (ok false when there is none).
func (m *refModel) at(seq uint64) refSnap {
	return m.snaps[m.firstAfter(seq)-1]
}

func (m *refModel) after(seq uint64) (refSnap, bool) {
	if i := m.firstAfter(seq); i < len(m.snaps) {
		return m.snaps[i], true
	}
	return refSnap{}, false
}

func (m *refModel) firstAfter(seq uint64) int {
	return sort.Search(len(m.snaps), func(i int) bool { return m.snaps[i].seq > seq })
}

// record appends the state after adding (bits, inc, dn) at seq.
func (m *refModel) record(seq uint64, bits []int, inc []int64, dn int64) {
	last := m.snaps[len(m.snaps)-1]
	next := refSnap{seq: seq, n: last.n + dn, counts: slices.Clone(last.counts)}
	for j, i := range bits {
		next.counts[i] += inc[j]
	}
	m.snaps = append(m.snaps, next)
}

// minus is the span state(to) - state(from).
func minus(to, from refSnap) ([]int64, int64) {
	d := slices.Clone(to.counts)
	for i, c := range from.counts {
		d[i] -= c
	}
	return d, to.n - from.n
}

// anchors reads the retained segment boundaries: every generation a
// read can land on besides a recorded one. The boundaries are where the
// store happened to rotate; what state they hold is checked against the
// reference (checkBases), not trusted.
func anchors(s *Store) (bases []uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sg := range s.segs {
		bases = append(bases, sg.baseSeq)
	}
	return bases
}

// expectAt is what ResolveAt / CumulativeAt must answer for at.
func (m *refModel) expectAt(bases []uint64, at uint64) (refSnap, uint64, error) {
	if len(bases) == 0 {
		return m.snaps[0], 0, nil
	}
	if at < bases[0] {
		return refSnap{}, 0, &TruncatedError{Oldest: bases[0]}
	}
	// The newest generation <= at that is a record or a boundary.
	seq := m.at(at).seq
	for _, b := range bases {
		if b <= at && b > seq {
			seq = b
		}
	}
	if seq < bases[0] {
		seq = bases[0]
	}
	return m.at(seq), seq, nil
}

func sameErr(got, want error) bool {
	var g, w *TruncatedError
	if errors.As(want, &w) {
		return errors.As(got, &g) && g.Oldest == w.Oldest
	}
	return got == nil
}

// checkQueries compares every read surface at one target against the
// reference.
func checkQueries(t *testing.T, s *Store, m *refModel, at, to uint64) {
	t.Helper()
	bases := anchors(s)
	want, wantSeq, wantErr := m.expectAt(bases, at)

	seq, n, err := s.ResolveAt(at)
	if !sameErr(err, wantErr) || (err == nil && (seq != wantSeq || n != want.n)) {
		t.Fatalf("ResolveAt(%d) = %d, %d, %v; want %d, %d, %v", at, seq, n, err, wantSeq, want.n, wantErr)
	}
	counts, n, seq, err := s.CumulativeAt(at)
	if !sameErr(err, wantErr) || (err == nil && (seq != wantSeq || n != want.n || !slices.Equal(counts, want.counts))) {
		t.Fatalf("CumulativeAt(%d) = %v, %d, %d, %v; want %v, %d, %d, %v",
			at, counts, n, seq, err, want.counts, want.n, wantSeq, wantErr)
	}

	// Range over (at, to].
	if to < at {
		at, to = to, at
	}
	var wantSpan Span
	var wantRangeErr error
	switch {
	case len(bases) == 0:
		wantSpan = Span{Counts: make([]int64, testBits), From: at, To: to, Settled: to <= s.LastSeq()}
	case to <= bases[0] && bases[0] > 0:
		wantRangeErr = &TruncatedError{Oldest: bases[0]}
	default:
		wantSpan = Span{From: at, To: to, Settled: to <= s.LastSeq()}
		if at < bases[0] {
			wantSpan.From, wantSpan.Clamped = bases[0], true
		}
		lo, hi := m.at(wantSpan.From), m.at(to)
		wantSpan.Counts, wantSpan.DN = minus(hi, lo)
		if first, ok := m.after(wantSpan.From); ok && first.seq <= to {
			wantSpan.First, wantSpan.Last = first.seq, hi.seq
		}
	}
	sp, err := s.Sum(at, to)
	if !sameErr(err, wantRangeErr) || (err == nil && !equalSpans(sp, wantSpan)) {
		t.Fatalf("Sum(%d,%d) = %+v, %v; want %+v, %v", at, to, sp, err, wantSpan, wantRangeErr)
	}
	rs, err := s.ResolveRange(at, to)
	wantSpan.Counts, wantSpan.DN, wantSpan.First, wantSpan.Last = nil, 0, 0, 0
	if !sameErr(err, wantRangeErr) || (err == nil && !equalSpans(rs, wantSpan)) {
		t.Fatalf("ResolveRange(%d,%d) = %+v, %v; want %+v, %v", at, to, rs, err, wantSpan, wantRangeErr)
	}
	c6, dn, first, last, clamped, err := s.Range(at, to)
	if !sameErr(err, wantRangeErr) || (err == nil && !equalSpans(sp,
		Span{Counts: c6, DN: dn, From: sp.From, To: sp.To, Clamped: clamped, First: first, Last: last, Settled: sp.Settled})) {
		t.Fatalf("Range(%d,%d) = %v, %d, %d, %d, %v, %v disagrees with Sum %+v", at, to, c6, dn, first, last, clamped, err, sp)
	}

	// ReplayRange over (at, to]: every recorded generation, in order.
	var wantReplayErr error
	if len(bases) > 0 && at < bases[0] {
		wantReplayErr = &TruncatedError{Oldest: bases[0]}
	}
	prev := at
	err = s.ReplayRange(at, to, func(seq uint64, _ time.Time, counts []int64, n int64) error {
		w := m.at(seq)
		if seq <= prev || seq > to || w.seq != seq || n != w.n || !slices.Equal(counts, w.counts) {
			return fmt.Errorf("replayed seq %d after %d: %v, %d; want %v, %d", seq, prev, counts, n, w.counts, w.n)
		}
		if skipped := m.at(seq - 1).seq; skipped > prev {
			return fmt.Errorf("replay jumped from %d to %d past recorded %d", prev, seq, skipped)
		}
		prev = seq
		return nil
	})
	if !sameErr(err, wantReplayErr) {
		t.Fatalf("ReplayRange(%d,%d): %v; want %v", at, to, err, wantReplayErr)
	}
	if err == nil && len(bases) > 0 && m.at(to).seq > prev {
		t.Fatalf("ReplayRange(%d,%d) stopped at %d, reference has %d", at, to, prev, m.at(to).seq)
	}
}

func equalSpans(a, b Span) bool {
	return slices.Equal(a.Counts, b.Counts) && a.DN == b.DN && a.From == b.From && a.To == b.To &&
		a.Clamped == b.Clamped && a.First == b.First && a.Last == b.Last && a.Settled == b.Settled
}

// checkBases verifies what the reference takes from the store: each
// retained boundary holds the reference state, retention is honoured,
// and the O(1) Stats totals equal a recount.
func checkBases(t *testing.T, s *Store, m *refModel, keep int) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.segs) > keep {
		t.Fatalf("%d segments retained, KeepSegments %d", len(s.segs), keep)
	}
	var records, tel, bytes int64
	for _, sg := range s.segs {
		w := m.at(sg.baseSeq)
		if sg.baseN != w.n || !slices.Equal(sg.base, w.counts) {
			t.Fatalf("segment %d base at %d = %v, %d; reference %v, %d", sg.index, sg.baseSeq, sg.base, sg.baseN, w.counts, w.n)
		}
		if w = m.at(sg.lastSeq); sg.lastN != w.n || !slices.Equal(sg.final, w.counts) {
			t.Fatalf("segment %d final at %d = %v, %d; reference %v, %d", sg.index, sg.lastSeq, sg.final, sg.lastN, w.counts, w.n)
		}
		records += int64(len(sg.deltas))
		tel += int64(len(sg.tel))
		bytes += sg.bytes
	}
	if s.records != records || s.telRecords != tel || s.bytes != bytes {
		t.Fatalf("running totals %d/%d/%d, recount %d/%d/%d", s.records, s.telRecords, s.bytes, records, tel, bytes)
	}
}

// targets picks the generations worth asking about: each segment
// boundary and its neighbours, a point in each half of each segment,
// below the oldest, the newest, and past it.
func targets(s *Store, rng *rand.Rand) []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := []uint64{0, s.lastSeq, s.lastSeq + 1, s.lastSeq + 1000}
	for _, sg := range s.segs {
		out = append(out, sg.baseSeq, sg.baseSeq+1, sg.lastSeq)
		if sg.baseSeq > 0 {
			out = append(out, sg.baseSeq-1)
		}
		if n := len(sg.deltas); n >= 2 {
			out = append(out, sg.deltas[rng.Intn(n/2)].seq, sg.deltas[n/2+rng.Intn(n-n/2)].seq)
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// randomFrame draws the next frame of the schedule: sparse, dense,
// resync or empty, at a generation one to three past the previous.
func randomFrame(rng *rand.Rand, m *refModel, seq uint64) (d stream.Delta, bits []int, inc []int64, dn int64) {
	d = stream.Delta{Seq: seq, Time: t0.Add(time.Duration(seq) * time.Second)}
	kind := rng.Intn(10)
	if kind == 0 { // empty generation: advances seq, writes nothing
		return d, nil, nil, 0
	}
	for i := 0; i < testBits; i++ {
		if kind >= 7 || rng.Intn(4) == 0 { // 7..9 dense, 1..6 sparse
			bits, inc = append(bits, i), append(inc, int64(1+rng.Intn(5)))
		}
	}
	dn = int64(1 + rng.Intn(9))
	if kind == 9 || kind == 3 { // the same change, delivered as a resync
		last := m.snaps[len(m.snaps)-1]
		d.Resync, d.N, d.Counts = true, last.n+dn, slices.Clone(last.counts)
		for j, i := range bits {
			d.Counts[i] += inc[j]
		}
		return d, bits, inc, dn
	}
	d.Bits, d.Inc, d.DN = bits, inc, dn
	return d, bits, inc, dn
}

// TestStoreMatchesReferenceUnderRandomSchedule drives a seeded schedule
// of appends (sparse, dense, resync, empty), telemetry (any seq),
// rotations at small segments, prunes and reopens, and after every step
// asks every read surface about every interesting generation.
func TestStoreMatchesReferenceUnderRandomSchedule(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 20260928} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			cfg := Config{SegmentRecords: 2 + rng.Intn(6), KeepSegments: 2 + rng.Intn(3)}
			dir := t.TempDir()
			s := openTest(t, dir, cfg)
			defer func() { s.Close() }()
			m := newRefModel()
			var seq uint64
			telemetry := 0
			for step := 0; step < 160; step++ {
				switch op := rng.Intn(12); {
				case op == 0: // reopen: the next append starts a fresh segment
					if err := s.Close(); err != nil {
						t.Fatal(err)
					}
					s = openTest(t, dir, cfg)
					if got := s.LastSeq(); got > seq {
						t.Fatalf("reopened at generation %d, appended through %d", got, seq)
					}
				case op <= 2: // telemetry at any generation, including old ones
					at := uint64(rng.Intn(int(seq) + 3))
					if err := s.AppendTelemetry(at, t0, []byte{byte(step)}); err != nil {
						t.Fatal(err)
					}
					telemetry++
				default:
					seq += uint64(1 + rng.Intn(3))
					d, bits, inc, dn := randomFrame(rng, m, seq)
					if err := s.Append(d); err != nil {
						t.Fatalf("step %d: Append seq %d: %v", step, seq, err)
					}
					if len(bits) > 0 || dn != 0 {
						m.record(seq, bits, inc, dn)
					}
				}
				checkBases(t, s, m, cfg.KeepSegments)
				ts := targets(s, rng)
				for i, at := range ts {
					checkQueries(t, s, m, at, ts[(i+1)%len(ts)])
				}
			}
			if st := s.Stats(); st.TelemetryAppends > int64(telemetry) || st.Records == 0 {
				t.Fatalf("stats after the schedule: %+v (%d telemetry appends issued)", st, telemetry)
			}
			recs, err := s.Telemetry(0, ^uint64(0))
			if err != nil || int64(len(recs)) != s.Stats().TelemetryRecords {
				t.Fatalf("Telemetry returned %d records (err %v), stats say %d", len(recs), err, s.Stats().TelemetryRecords)
			}
		})
	}
}

// TestReadersAgreeWithReferenceDuringAppends runs readers against a
// live appender for a second. Every answer must equal the reference at
// the generation the read itself resolved to — whatever was appended,
// rotated or pruned while it ran.
func TestReadersAgreeWithReferenceDuringAppends(t *testing.T) {
	s := openTest(t, t.TempDir(), Config{SegmentRecords: 8, KeepSegments: 4})
	defer s.Close()
	var mu sync.RWMutex // guards m; the appender records before it appends
	m := newRefModel()
	refAt := func(seq uint64) refSnap {
		mu.RLock()
		defer mu.RUnlock()
		return m.at(seq)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(7))
		for seq := uint64(1); ; seq++ {
			select {
			case <-stop:
				return
			default:
			}
			mu.Lock()
			d, bits, inc, dn := randomFrame(rng, m, seq)
			if len(bits) > 0 || dn != 0 {
				m.record(seq, bits, inc, dn)
			}
			mu.Unlock()
			if err := s.Append(d); err != nil {
				t.Errorf("Append seq %d: %v", seq, err)
				return
			}
			if seq%5 == 0 {
				_ = s.AppendTelemetry(seq/2, t0, []byte{1})
			}
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			reads := 0
			for {
				select {
				case <-stop:
					if reads == 0 {
						t.Errorf("reader %d never completed a read", r)
					}
					return
				default:
				}
				newest := s.LastSeq()
				at := newest - min(newest, uint64(rng.Intn(40)))
				to := at + uint64(rng.Intn(20))
				counts, n, seq, err := s.CumulativeAt(at)
				if err == nil {
					if w := refAt(seq); n != w.n || !slices.Equal(counts, w.counts) {
						t.Errorf("CumulativeAt(%d) -> seq %d: %v, %d; reference %v, %d", at, seq, counts, n, w.counts, w.n)
						return
					}
					if rseq, rn, rerr := s.ResolveAt(seq); rerr == nil && (rseq != seq || rn != n) {
						t.Errorf("ResolveAt(%d) = %d, %d after CumulativeAt answered %d, %d", seq, rseq, rn, seq, n)
						return
					}
				} else if !errors.Is(err, ErrTruncated) {
					t.Errorf("CumulativeAt(%d): %v", at, err)
					return
				}
				sp, err := s.Sum(at, to)
				if err == nil {
					// The span summed ends at Last (to may be ahead of the
					// appender) and starts at the From this call used.
					want, wantDN := make([]int64, testBits), int64(0)
					if sp.Last != 0 {
						want, wantDN = minus(refAt(sp.Last), refAt(sp.From))
					}
					if sp.DN != wantDN || !slices.Equal(sp.Counts, want) {
						t.Errorf("Sum(%d,%d) = %+v; reference %v, %d", at, to, sp, want, wantDN)
						return
					}
				} else if !errors.Is(err, ErrTruncated) {
					t.Errorf("Sum(%d,%d): %v", at, to, err)
					return
				}
				err = s.ReplayRange(at, to, func(seq uint64, _ time.Time, counts []int64, n int64) error {
					if w := refAt(seq); w.seq != seq || n != w.n || !slices.Equal(counts, w.counts) {
						return fmt.Errorf("replayed seq %d: %v, %d; reference %v, %d", seq, counts, n, w.counts, w.n)
					}
					return nil
				})
				if err != nil && !errors.Is(err, ErrTruncated) {
					t.Errorf("ReplayRange(%d,%d): %v", at, to, err)
					return
				}
				reads++
			}
		}(r)
	}
	time.Sleep(time.Second)
	close(stop)
	wg.Wait()
	if st := s.Stats(); st.Segments > 4 || st.Appends == 0 {
		t.Fatalf("stats after the run: %+v", st)
	}
}

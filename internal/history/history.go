// Package history is the time-travel store of the streaming plane: an
// append-only, CRC-checked segment log of closed stream intervals and
// periodic telemetry snapshots, with retention management and range
// queries over both.
//
// The invariant it rides is the same one checkpoints, the fleet merge
// and the delta stream are built on: ID-LDP per-bit counts are
// order-independent integer sums, so a cumulative state plus the sparse
// interval deltas that followed it reconstructs any intermediate
// generation *exactly* — replayed answers are bit-for-bit what the live
// window published at that generation, never an approximation.
//
// Layout: the store writes numbered segment files (seg-<index>.idhl),
// each beginning with a base record that carries the full cumulative
// counts as of the segment boundary, followed by interval records (the
// varpack sparse delta of one stream generation) and telemetry records
// (packed telemetry.Snapshot frames) in append order. Every record is a
// self-describing binary frame in the idiom of internal/checkpoint:
//
//	magic "IDHR" | version u16 | kind u16 | seq u64 | unixNano u64 |
//	n i64 | dn i64 | payloadLen u32 | payload | crc32c u32
//
// All integers are little-endian; the trailing CRC-32 (Castagnoli)
// covers every preceding byte of the record. A torn or bit-rotted tail
// is detected on load and skipped — never silently mis-summed — and
// because each segment opens with a base, a later segment re-anchors
// the chain: load verifies that every segment's base equals the state
// reconstructed from its predecessor and discards everything older than
// the first mismatch.
//
// Retention keeps the newest KeepSegments segments (plus an optional
// MaxAge horizon), pruning whole segments only, so the oldest retained
// generation is always reconstructable. Queries that reach past the
// oldest base fail with ErrTruncated (the HTTP layer answers 410);
// in-flight replays pin the store (Acquire) so GC never deletes a
// segment still covered by an open query.
//
// Memory: what the store holds is what the disk holds. An interval
// record in memory is its frame's header fields plus the varpack sparse
// payload, byte for byte as written — not a decoded (bits, increments)
// pair, which at 16 bytes per touched bit is several times the payload
// once every report sets a quarter of the bits and a delta of a few
// dozen reports touches nearly all of them. A segment adds its two
// anchors (base and final, 8·m bytes each). The payloads of a loaded
// segment are sub-slices of the one file image read at Open, so a
// segment costs its file plus the anchors and nothing per record but a
// slice header; a live Append allocates the frame once, writes it, and
// keeps its payload bytes as the record. Nothing caches a decoded delta:
// a reconstruction decodes the records it folds while it folds them
// (varpack.FoldDelta, allocation-free), and a payload is checked against
// the domain once, when it enters the store. Stats.ResidentBytes is the
// running total, beside Stats.Bytes for the disk.
//
// Reads: what is under the lock and what is not. Store.mu is the mutex
// Append holds across its write and fsync, so a read keeps it only long
// enough to capture a view and reconstructs outside it. A segment keeps
// its interval records (deltas, strictly ascending in seq, which is what
// the binary searches rely on) apart from its telemetry records (tel,
// any seq the caller names). Interval records are immutable once
// appended, so a slice header copied under the lock never sees a later
// append; base and the final of a sealed segment never change, and the
// newest segment's final is copied, not shared. Under the lock a read
// does: binary search for the segment and the cut, copy of one anchor
// (8·m bytes), copy of slice headers. Outside it: every per-record fold,
// decode included.
//
// The anchor rule: the state at a generation is base plus the records up
// to it, and equally final minus the records after it (integer sums, so
// both are exact). A reconstruction copies whichever of the two has
// fewer records between it and the target and folds that side — at most
// half a segment. ResolveAt answers which generation and report total a
// read lands on without reconstructing anything; callers that cache
// immutable answers (internal/httpapi) resolve first and reconstruct
// only on a miss.
package history

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"idldp/internal/checkpoint"
	"idldp/internal/stream"
	"idldp/internal/varpack"
)

const (
	recMagic   = "IDHR"
	recVersion = 1

	kindBase      uint16 = 1
	kindDelta     uint16 = 2
	kindTelemetry uint16 = 3

	// recHeaderSize is magic+version+kind+seq+unixNano+n+dn+payloadLen.
	recHeaderSize  = 4 + 2 + 2 + 8 + 8 + 8 + 8 + 4
	recTrailerSize = 4

	segPrefix = "seg-"
	segSuffix = ".idhl"

	// maxPayload bounds a declared payload length so a corrupt header
	// cannot demand a huge allocation.
	maxPayload = 64 << 20

	// DefaultKeepSegments is the retention depth when Config.KeepSegments
	// is not positive.
	DefaultKeepSegments = 8
	// DefaultSegmentRecords is the per-segment record cap when
	// Config.SegmentRecords is not positive.
	DefaultSegmentRecords = 512
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrTruncated reports that a query reaches past the retention horizon:
// the intervals it needs have been pruned. Matched with errors.Is.
var ErrTruncated = errors.New("history truncated")

// TruncatedError carries the oldest still-reconstructable generation
// alongside ErrTruncated.
type TruncatedError struct {
	// Oldest is the oldest generation the store can still answer for.
	Oldest uint64
}

func (e *TruncatedError) Error() string {
	return fmt.Sprintf("history truncated: oldest retained generation is %d", e.Oldest)
}

// Is makes errors.Is(err, ErrTruncated) work.
func (e *TruncatedError) Is(target error) bool { return target == ErrTruncated }

// Config tunes a Store. The zero value selects every default.
type Config struct {
	// KeepSegments is how many segments retention keeps (<= 0 selects
	// DefaultKeepSegments).
	KeepSegments int
	// SegmentRecords caps how many interval+telemetry records a segment
	// holds before the log rotates (<= 0 selects DefaultSegmentRecords).
	SegmentRecords int
	// MaxAge, when positive, additionally prunes segments whose newest
	// record is older than now-MaxAge (the newest segment always stays).
	MaxAge time.Duration
	// NoSync skips the per-append fsync. Appends stay ordered and
	// CRC-framed, so a crash loses at most the unsynced tail — tests and
	// throwaway campaigns use it; durable deployments keep the sync.
	NoSync bool
}

// record is one log record held in memory: the frame's header fields
// and its payload bytes exactly as the segment file holds them — the
// varpack sparse delta of an interval record (checked against the domain
// when it entered the store, decoded only while a read folds it), the
// packed snapshot of a telemetry record. Records are immutable once
// appended.
type record struct {
	kind    uint16
	seq     uint64
	time    int64 // UnixNano
	n       int64 // cumulative report count after the record (deltas)
	dn      int64
	payload []byte
}

// segment is one log file: a base (full cumulative state at the
// segment boundary) plus the records appended after it.
type segment struct {
	index   uint64
	path    string
	baseSeq uint64
	baseN   int64
	base    []int64
	deltas  []record // interval records, seq strictly ascending
	tel     []record // telemetry records, append order
	bytes   int64    // on disk
	held    int64    // in memory: both anchors plus every record's payload

	// lastSeq/lastN/final are the cumulative state after the newest
	// interval record — what the next segment's base must equal.
	lastSeq uint64
	lastN   int64
	final   []int64
}

// Store is the durable interval + telemetry log for one m-bit domain.
// All methods are safe for concurrent use.
type Store struct {
	dir  string
	bits int
	cfg  Config

	mu   sync.Mutex
	segs []*segment
	cur  *os.File // open handle of the newest segment, nil until an append

	// shadow is the cumulative state after the newest appended interval
	// record — the diff base resyncs are folded against, mirroring
	// stream.Window's shadow accumulator.
	shadow  []int64
	shadowN int64
	lastSeq uint64

	pins         int
	prunePending bool

	// Retained totals behind Stats, adjusted on append, rotate and prune.
	records    int64
	telRecords int64
	bytes      int64
	held       int64

	appends      int64
	telAppends   int64
	appendErrors int64
	queries      int64
	refused      int64 // frames whose seq did not advance
	tornTails    int64 // set in Open
	chainBreaks  int64 // set in Open

	closed bool
}

// Open loads (creating if needed) the history log in dir for an m-bit
// domain. Existing segments are replay-validated: torn tails are
// skipped, and segments older than a chain break are discarded. New
// appends always start a fresh segment, so a damaged tail file is
// sealed off rather than extended.
func Open(dir string, bits int, cfg Config) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("history: empty directory")
	}
	if bits <= 0 {
		return nil, fmt.Errorf("history: report length %d must be positive", bits)
	}
	if cfg.KeepSegments <= 0 {
		cfg.KeepSegments = DefaultKeepSegments
	}
	if cfg.SegmentRecords <= 0 {
		cfg.SegmentRecords = DefaultSegmentRecords
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("history: %w", err)
	}
	idxs, err := checkpoint.ListSeqs(dir, segPrefix, segSuffix)
	if err != nil {
		return nil, fmt.Errorf("history: %w", err)
	}
	s := &Store{dir: dir, bits: bits, cfg: cfg, shadow: make([]int64, bits)}
	for _, idx := range idxs {
		sg, torn := loadSegment(filepath.Join(dir, segFileName(idx)), idx, bits)
		if torn {
			s.tornTails++
		}
		if sg == nil {
			// Unreadable segment: the chain through it is broken, so
			// anything older cannot be verified against newer state.
			s.segs = s.segs[:0]
			continue
		}
		if len(s.segs) > 0 {
			prev := s.segs[len(s.segs)-1]
			// baseSeq may exceed prev.lastSeq (empty generations advance
			// seq without a record); the state equality is what guards
			// against mis-summing across a torn tail.
			if sg.baseSeq < prev.lastSeq || sg.baseN != prev.lastN || !equalCounts(sg.base, prev.final) {
				// prev lost tail records this segment's base already
				// includes; keeping both would mis-sum the gap. The newer
				// base is authoritative — restart the chain at it.
				s.chainBreaks++
				s.segs = s.segs[:0]
			}
		}
		s.segs = append(s.segs, sg)
	}
	for _, sg := range s.segs {
		s.retainLocked(sg, 1)
	}
	if n := len(s.segs); n > 0 {
		last := s.segs[n-1]
		copy(s.shadow, last.final)
		s.shadowN = last.lastN
		s.lastSeq = last.lastSeq
	}
	return s, nil
}

// Dir returns the log directory.
func (s *Store) Dir() string { return s.dir }

// Bits returns the domain size m.
func (s *Store) Bits() int { return s.bits }

// LastSeq returns the newest generation the store has absorbed — the
// value a resumed publisher should continue after.
func (s *Store) LastSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastSeq
}

// State returns a copy of the cumulative counts, report total and
// generation after the newest appended interval — the seed for
// stream.WithResume so a restarted publisher continues the numbering
// the log expects.
func (s *Store) State() (counts []int64, n int64, seq uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int64(nil), s.shadow...), s.shadowN, s.lastSeq
}

// Append absorbs one stream frame as the newest interval record.
// Resync frames are folded into the implied interval delta against the
// store's shadow (exactly as stream.Window does), so the log always
// holds intervals; empty frames advance the generation without writing
// a record. Frames whose seq does not advance are refused — the caller
// must resume the publisher from State() after a restart. The frame's
// slices are not retained.
//
// A write or sync error fails this append only: the segment is sealed
// at its last acknowledged record and the next append rotates onto a
// fresh base, so one bad write neither blocks the log nor hides later
// records behind half a frame; retention moves only when an append
// lands, so a disk that keeps failing costs the appends it fails and
// nothing already retained. What is not healed is the interval
// itself — the store did not absorb it, so the log stays one interval
// short of the live stream until the next resync frame is folded
// against the shadow.
func (s *Store) Append(d stream.Delta) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("history: store closed")
	}
	if d.Seq <= s.lastSeq {
		s.refused++
		return fmt.Errorf("history: frame seq %d does not advance past %d", d.Seq, s.lastSeq)
	}
	var bits []int
	var inc []int64
	var dn int64
	if d.Resync {
		if len(d.Counts) != s.bits {
			return fmt.Errorf("history: resync has %d counts, store wants %d", len(d.Counts), s.bits)
		}
		for i, c := range d.Counts {
			if c != s.shadow[i] {
				bits = append(bits, i)
				inc = append(inc, c-s.shadow[i])
			}
		}
		dn = d.N - s.shadowN
	} else {
		if len(d.Bits) != len(d.Inc) {
			return fmt.Errorf("history: frame has %d bit indices for %d increments", len(d.Bits), len(d.Inc))
		}
		for _, i := range d.Bits {
			if i < 0 || i >= s.bits {
				return fmt.Errorf("history: frame touches bit %d of %d", i, s.bits)
			}
		}
		bits, inc, dn = d.Bits, d.Inc, d.DN
	}
	if len(bits) == 0 && dn == 0 {
		s.lastSeq = d.Seq
		return nil
	}
	payload, err := varpack.PackDelta(bits, inc)
	if err != nil {
		return fmt.Errorf("history: %w", err)
	}
	at := d.Time
	if at.IsZero() {
		at = time.Now()
	}
	rec := record{
		kind:    kindDelta,
		seq:     d.Seq,
		time:    at.UnixNano(),
		n:       s.shadowN + dn,
		dn:      dn,
		payload: payload,
	}
	if err := s.appendRecordLocked(rec); err != nil {
		return err
	}
	for j, i := range bits {
		s.shadow[i] += inc[j]
	}
	s.shadowN += dn
	s.lastSeq = d.Seq
	s.appends++
	sg := s.segs[len(s.segs)-1]
	sg.lastSeq, sg.lastN = d.Seq, rec.n
	copy(sg.final, s.shadow)
	return nil
}

// AppendTelemetry journals one packed telemetry.Snapshot at the given
// generation. The payload is opaque to the store; callers pass
// Registry.Snapshot().Pack() and unpack on read-back.
func (s *Store) AppendTelemetry(seq uint64, at time.Time, packed []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("history: store closed")
	}
	if at.IsZero() {
		at = time.Now()
	}
	rec := record{kind: kindTelemetry, seq: seq, time: at.UnixNano(), payload: packed}
	if err := s.appendRecordLocked(rec); err != nil {
		return err
	}
	s.telAppends++
	return nil
}

// appendRecordLocked rotates to a fresh segment when needed, writes the
// framed record, and mirrors it in memory: the frame is the one
// exact-size allocation per record, and the mirror's payload is the
// frame's own payload bytes, not the caller's. Caller holds s.mu.
func (s *Store) appendRecordLocked(rec record) error {
	rotate := s.cur == nil || len(s.segs) == 0
	if !rotate {
		sg := s.segs[len(s.segs)-1]
		rotate = len(sg.deltas)+len(sg.tel) >= s.cfg.SegmentRecords
	}
	if rotate {
		if err := s.rotateLocked(); err != nil {
			s.appendErrors++
			return err
		}
	}
	sg := s.segs[len(s.segs)-1]
	frame := encodeRecord(rec.kind, rec.seq, rec.time, rec.n, rec.dn, rec.payload)
	_, err := s.cur.Write(frame)
	if err == nil && !s.cfg.NoSync {
		err = s.cur.Sync()
	}
	if err != nil {
		// The handle may be dead (EIO, EBADF) or the file may now end in
		// half a frame (ENOSPC): seal it either way and let the next append
		// rotate. A segment this call started has acknowledged nothing and
		// is taken back whole, so a streak of failures leaves no files
		// behind; any other is cut back to its last acknowledged record
		// where the disk still allows. Where it does not, load treats the
		// leftover as a torn tail or a chain break — never mis-summed.
		s.appendErrors++
		_ = s.cur.Close()
		s.cur = nil
		if len(sg.deltas)+len(sg.tel) == 0 && os.Remove(sg.path) == nil {
			s.retainLocked(sg, -1)
			s.segs = s.segs[:len(s.segs)-1]
		} else {
			_ = os.Truncate(sg.path, sg.bytes)
		}
		return fmt.Errorf("history: %w", err)
	}
	end := recHeaderSize + len(rec.payload)
	rec.payload = frame[recHeaderSize:end:end]
	if rec.kind == kindDelta {
		sg.deltas = append(sg.deltas, rec)
		s.records++
	} else {
		sg.tel = append(sg.tel, rec)
		s.telRecords++
	}
	sg.bytes += int64(len(frame))
	s.bytes += int64(len(frame))
	sg.held += int64(len(rec.payload))
	s.held += int64(len(rec.payload))
	if rotate {
		s.pruneLocked()
	}
	return nil
}

// retainLocked adds (sign 1) or removes (sign -1) one segment's share
// of the retained totals. Caller holds s.mu.
func (s *Store) retainLocked(sg *segment, sign int64) {
	s.records += sign * int64(len(sg.deltas))
	s.telRecords += sign * int64(len(sg.tel))
	s.bytes += sign * sg.bytes
	s.held += sign * sg.held
}

// rotateLocked seals the open segment and starts the next one with a
// base record of the current cumulative state. It prunes nothing: an
// older segment makes way only once the record that caused the rotation
// has landed (appendRecordLocked), so appends that keep failing cannot
// push retained history out.
func (s *Store) rotateLocked() error {
	if s.cur != nil {
		_ = s.cur.Sync()
		_ = s.cur.Close()
		s.cur = nil
	}
	var index uint64 = 1
	if n := len(s.segs); n > 0 {
		index = s.segs[n-1].index + 1
	}
	path := filepath.Join(s.dir, segFileName(index))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("history: %w", err)
	}
	base := encodeRecord(kindBase, s.lastSeq, time.Now().UnixNano(), s.shadowN, 0, varpack.Pack(s.shadow))
	_, err = f.Write(base)
	if err == nil && !s.cfg.NoSync {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		os.Remove(path)
		return fmt.Errorf("history: %w", err)
	}
	s.cur = f
	s.segs = append(s.segs, &segment{
		index:   index,
		path:    path,
		baseSeq: s.lastSeq,
		baseN:   s.shadowN,
		base:    append([]int64(nil), s.shadow...),
		bytes:   int64(len(base)),
		held:    anchorBytes(s.bits),
		lastSeq: s.lastSeq,
		lastN:   s.shadowN,
		final:   append([]int64(nil), s.shadow...),
	})
	s.bytes += int64(len(base))
	s.held += anchorBytes(s.bits)
	return nil
}

// pruneLocked drops whole segments beyond the retention depth (and age
// horizon), oldest first. Deferred while a replay pin is held so GC
// never deletes a segment an open query still covers.
func (s *Store) pruneLocked() {
	if s.pins > 0 {
		s.prunePending = true
		return
	}
	drop := func() {
		sg := s.segs[0]
		os.Remove(sg.path)
		s.retainLocked(sg, -1)
		s.segs = s.segs[1:]
	}
	for len(s.segs) > s.cfg.KeepSegments {
		drop()
	}
	if s.cfg.MaxAge > 0 {
		horizon := time.Now().Add(-s.cfg.MaxAge).UnixNano()
		for len(s.segs) > 1 {
			sg := s.segs[0]
			newest := int64(0)
			if n := len(sg.deltas); n > 0 {
				newest = sg.deltas[n-1].time
			}
			if n := len(sg.tel); n > 0 {
				newest = max(newest, sg.tel[n-1].time)
			}
			if newest >= horizon {
				break
			}
			drop()
		}
	}
}

// Acquire pins the store against pruning and returns the release. An
// open query that walks records outside the store lock (Replay,
// ReplayRange) holds a pin so the segment files it covers survive
// until it finishes; release runs any deferred prune.
func (s *Store) Acquire() (release func()) {
	s.mu.Lock()
	s.pins++
	s.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			s.mu.Lock()
			s.pins--
			if s.pins == 0 && s.prunePending {
				s.prunePending = false
				s.pruneLocked()
			}
			s.mu.Unlock()
		})
	}
}

// OldestSeq returns the oldest generation the store can still answer
// for (0 on an empty store).
func (s *Store) OldestSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.oldestLocked()
}

func (s *Store) oldestLocked() uint64 {
	if len(s.segs) == 0 {
		return 0
	}
	return s.segs[0].baseSeq
}

// locateLocked finds where generation at lands: the newest segment
// whose base is at or before it, and cut, the number of that segment's
// interval records with seq <= at. Caller holds s.mu, has checked that
// the store is not empty and that at is inside retention.
func (s *Store) locateLocked(at uint64) (sg *segment, cut int) {
	i := sort.Search(len(s.segs), func(i int) bool { return s.segs[i].baseSeq > at })
	sg = s.segs[i-1]
	cut = sort.Search(len(sg.deltas), func(j int) bool { return sg.deltas[j].seq > at })
	return sg, cut
}

// answered is the generation and report total a read cut at this index
// of the segment's interval records lands on.
func (sg *segment) answered(cut int) (seq uint64, n int64) {
	if cut == 0 {
		return sg.baseSeq, sg.baseN
	}
	r := sg.deltas[cut-1]
	return r.seq, r.n
}

// ResolveAt reports which generation a read at generation at lands on —
// the newest recorded generation <= at — and the report total there,
// without reconstructing any counts. Clamping and the ErrTruncated rule
// are CumulativeAt's.
func (s *Store) ResolveAt(at uint64) (seq uint64, n int64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.segs) == 0 {
		return 0, 0, nil
	}
	if oldest := s.oldestLocked(); at < oldest {
		return 0, 0, &TruncatedError{Oldest: oldest}
	}
	sg, cut := s.locateLocked(at)
	seq, n = sg.answered(cut)
	return seq, n, nil
}

// view is everything one reconstruction needs, captured under s.mu: a
// private copy of the nearer anchor and the immutable records between
// that anchor and the target.
type view struct {
	counts   []int64  // copy of base (forward) or final (backward)
	recs     []record // the records to fold into counts
	backward bool     // recs are subtracted, not added
	seq      uint64
	n        int64
}

// viewLocked captures the view of generation at. Preconditions are
// locateLocked's.
func (s *Store) viewLocked(at uint64) view {
	sg, cut := s.locateLocked(at)
	return sg.view(cut)
}

// view captures the state after the segment's first cut interval
// records, from whichever anchor is nearer. Caller holds s.mu.
func (sg *segment) view(cut int) view {
	v := view{}
	v.seq, v.n = sg.answered(cut)
	if after := len(sg.deltas) - cut; after < cut {
		v.counts, v.recs, v.backward = slices.Clone(sg.final), sg.deltas[cut:], true
	} else {
		v.counts, v.recs = slices.Clone(sg.base), sg.deltas[:cut]
	}
	return v
}

// reconstruct folds the captured records into the anchor copy and
// returns it: the cumulative counts at v.seq. Runs outside s.mu.
func (v view) reconstruct() []int64 {
	sign := int64(1)
	if v.backward {
		sign = -1
	}
	for _, r := range v.recs {
		r.foldInto(v.counts, sign)
	}
	return v.counts
}

// foldInto adds (sign 1) or subtracts (sign -1) one interval record's
// increments, decoding them from the payload as it goes. Every payload
// a store holds passed CheckDelta (load) or came out of PackDelta
// (append) for this domain, so a refusal here is a bug, not bad input.
func (r *record) foldInto(counts []int64, sign int64) {
	if err := varpack.FoldDelta(r.payload, counts, sign); err != nil {
		panic(fmt.Sprintf("history: record %d no longer decodes: %v", r.seq, err))
	}
}

// anchorBytes is what a segment's base and final hold in memory.
func anchorBytes(bits int) int64 { return 2 * 8 * int64(bits) }

// CumulativeAt reconstructs the cumulative counts and report total as
// of generation at (clamping down to the newest recorded generation
// <= at), returning the generation actually answered. Generations
// older than the oldest retained base fail with ErrTruncated.
func (s *Store) CumulativeAt(at uint64) (counts []int64, n int64, seq uint64, err error) {
	s.mu.Lock()
	s.queries++
	if len(s.segs) == 0 {
		s.mu.Unlock()
		return make([]int64, s.bits), 0, 0, nil
	}
	if oldest := s.oldestLocked(); at < oldest {
		s.mu.Unlock()
		return nil, 0, 0, &TruncatedError{Oldest: oldest}
	}
	v := s.viewLocked(at)
	s.mu.Unlock()
	return v.reconstruct(), v.n, v.seq, nil
}

// spanLocked captures the interval records with from < seq <= to as one
// sub-slice per segment, in order. Caller holds s.mu.
func (s *Store) spanLocked(from, to uint64) [][]record {
	var parts [][]record
	first := sort.Search(len(s.segs), func(i int) bool { return s.segs[i].lastSeq > from })
	for _, sg := range s.segs[first:] {
		if sg.baseSeq >= to {
			break
		}
		lo := sort.Search(len(sg.deltas), func(j int) bool { return sg.deltas[j].seq > from })
		hi := sort.Search(len(sg.deltas), func(j int) bool { return sg.deltas[j].seq > to })
		if lo < hi {
			parts = append(parts, sg.deltas[lo:hi])
		}
	}
	return parts
}

// Span is the answer to one range query.
type Span struct {
	// Counts and DN are the per-bit sums and report total of the interval
	// records with From < seq <= To.
	Counts []int64
	DN     int64
	// From and To bound the span actually summed: From is the requested
	// from, moved up to the retention horizon when Clamped.
	From, To uint64
	Clamped  bool
	// First and Last are the oldest and newest generations summed (0 when
	// the span holds no records).
	First, Last uint64
	// Settled reports that To is at or before the newest absorbed
	// generation: no later append can add a record to the span.
	Settled bool
}

// resolveRangeLocked applies Range's retention rules to (from, to]:
// ErrTruncated when the whole range is past retention, from clamped up
// to the horizon otherwise. Counts stay nil. Caller holds s.mu.
func (s *Store) resolveRangeLocked(from, to uint64) (Span, error) {
	sp := Span{From: from, To: to, Settled: to <= s.lastSeq}
	if len(s.segs) == 0 {
		return sp, nil
	}
	oldest := s.oldestLocked()
	if to <= oldest && oldest > 0 {
		return Span{}, &TruncatedError{Oldest: oldest}
	}
	if from < oldest {
		sp.From, sp.Clamped = oldest, true
	}
	return sp, nil
}

// ResolveRange reports how Sum would bound (from, to] right now — the
// from it would use, whether that is clamped, whether the span is
// settled — without summing anything.
func (s *Store) ResolveRange(from, to uint64) (Span, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.resolveRangeLocked(from, to)
}

// Sum adds up the interval records with from < seq <= to — the counts
// and report total of exactly that span, the historical analogue of a
// live sliding window. A from below the retention horizon clamps up to
// it; a range entirely past retention fails with ErrTruncated. The
// returned Span names the bounds this very call used, so a caller
// labelling the answer never pairs it with a horizon read later.
func (s *Store) Sum(from, to uint64) (Span, error) {
	s.mu.Lock()
	s.queries++
	sp, err := s.resolveRangeLocked(from, to)
	if err != nil {
		s.mu.Unlock()
		return Span{}, err
	}
	parts := s.spanLocked(sp.From, to)
	s.mu.Unlock()
	sp.Counts = make([]int64, s.bits)
	for _, recs := range parts {
		for _, r := range recs {
			r.foldInto(sp.Counts, 1)
			sp.DN += r.dn
		}
	}
	if len(parts) > 0 {
		last := parts[len(parts)-1]
		sp.First, sp.Last = parts[0][0].seq, last[len(last)-1].seq
	}
	return sp, nil
}

// Range is Sum with the answer spread over return values; the from
// actually used is only on Sum's Span.
func (s *Store) Range(from, to uint64) (counts []int64, dn int64, first, last uint64, clamped bool, err error) {
	sp, err := s.Sum(from, to)
	return sp.Counts, sp.DN, sp.First, sp.Last, sp.Clamped, err
}

// TelemetryRecord is one journaled snapshot read back from the log.
type TelemetryRecord struct {
	// Seq is the stream generation current when the snapshot was taken.
	Seq  uint64
	Time time.Time
	// Payload is the packed telemetry.Snapshot (telemetry.UnpackSnapshot
	// decodes it). Read-only.
	Payload []byte
}

// Telemetry returns the journaled snapshots with from <= seq <= to in
// append order. A range entirely past retention fails with
// ErrTruncated.
func (s *Store) Telemetry(from, to uint64) ([]TelemetryRecord, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.queries++
	if len(s.segs) == 0 {
		return nil, nil
	}
	if oldest := s.oldestLocked(); to < oldest {
		return nil, &TruncatedError{Oldest: oldest}
	}
	var out []TelemetryRecord
	for _, sg := range s.segs {
		for _, r := range sg.tel {
			if r.seq < from || r.seq > to {
				continue
			}
			out = append(out, TelemetryRecord{Seq: r.seq, Time: time.Unix(0, r.time), Payload: r.payload})
		}
	}
	return out, nil
}

// SeqAtTime resolves a wall-clock instant to the newest recorded
// generation at or before it; ok is false when every record is newer.
func (s *Store) SeqAtTime(t time.Time) (seq uint64, ok bool) {
	nano := t.UnixNano()
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := len(s.segs) - 1; i >= 0; i-- {
		sg := s.segs[i]
		for j := len(sg.deltas) - 1; j >= 0; j-- {
			if r := sg.deltas[j]; r.time <= nano {
				return r.seq, true
			}
		}
	}
	return 0, false
}

// Replay streams the newest window interval records as stream.Delta
// frames, after one resync carrying the cumulative state they follow
// (the oldest base when fewer are retained) — so a restarted consumer
// rebuilds a stream.Window ring of that capacity exactly as the live
// feed left it, at a cost that follows the ring, not retention. The
// frames' slices are fresh and the consumer's to keep. The store is
// pinned for the duration.
func (s *Store) Replay(window int, fn func(stream.Delta) error) error {
	release := s.Acquire()
	defer release()
	s.mu.Lock()
	if len(s.segs) == 0 {
		s.mu.Unlock()
		return nil
	}
	// Walk back from the newest segment to the one holding the window's
	// oldest record.
	first, need := len(s.segs)-1, max(window, 0)
	for first > 0 && len(s.segs[first].deltas) < need {
		need -= len(s.segs[first].deltas)
		first--
	}
	oldest := s.segs[first]
	cut := max(len(oldest.deltas)-need, 0)
	v := oldest.view(cut)
	parts := [][]record{oldest.deltas[cut:]}
	for _, sg := range s.segs[first+1:] {
		parts = append(parts, sg.deltas)
	}
	s.mu.Unlock()
	resync := stream.Delta{Seq: v.seq, Time: time.Unix(0, 0), Resync: true, Counts: v.reconstruct(), N: v.n}
	if err := fn(resync); err != nil {
		return err
	}
	for _, recs := range parts {
		for _, r := range recs {
			bits, inc, err := varpack.UnpackDelta(r.payload)
			if err != nil {
				return fmt.Errorf("history: record %d: %w", r.seq, err)
			}
			d := stream.Delta{Seq: r.seq, Time: time.Unix(0, r.time), Bits: bits, Inc: inc, DN: r.dn, N: r.n}
			if err := fn(d); err != nil {
				return err
			}
		}
	}
	return nil
}

// ReplayRange walks the cumulative state generation by generation over
// from < seq <= to, invoking fn with the counts and total after each
// recorded interval — the SSE backfill path. counts is reused between
// calls; fn must not retain it. The store is pinned for the duration.
// A from below retention fails with ErrTruncated (callers fall back to
// a plain resync).
func (s *Store) ReplayRange(from, to uint64, fn func(seq uint64, at time.Time, counts []int64, n int64) error) error {
	release := s.Acquire()
	defer release()
	s.mu.Lock()
	if len(s.segs) == 0 {
		s.mu.Unlock()
		return nil
	}
	if oldest := s.oldestLocked(); from < oldest {
		s.mu.Unlock()
		return &TruncatedError{Oldest: oldest}
	}
	v := s.viewLocked(from)
	parts := s.spanLocked(from, to)
	s.queries++
	s.mu.Unlock()
	counts := v.reconstruct()
	for _, recs := range parts {
		for _, r := range recs {
			r.foldInto(counts, 1)
			if err := fn(r.seq, time.Unix(0, r.time), counts, r.n); err != nil {
				return err
			}
		}
	}
	return nil
}

// Stats is a point-in-time view of the store.
type Stats struct {
	// Segments is the retained segment count, Bytes their on-disk size.
	Segments int   `json:"segments"`
	Bytes    int64 `json:"bytes"`
	// Records is the retained interval-record count, TelemetryRecords
	// the retained snapshot count.
	Records          int64 `json:"records"`
	TelemetryRecords int64 `json:"telemetry_records"`
	// OldestSeq is the oldest reconstructable generation, NewestSeq the
	// newest absorbed one.
	OldestSeq uint64 `json:"oldest_seq"`
	NewestSeq uint64 `json:"newest_seq"`
	// ResidentBytes is what the retained log holds in memory: every
	// record's payload plus each segment's two anchors (16·m bytes) — so
	// it follows Bytes, less the framing.
	ResidentBytes int64 `json:"resident_bytes"`
	// Appends and TelemetryAppends count records written this process,
	// AppendErrors the appends a write or sync error failed;
	// Queries counts range/at/replay reads served from the store.
	Appends          int64 `json:"appends"`
	TelemetryAppends int64 `json:"telemetry_appends"`
	AppendErrors     int64 `json:"append_errors"`
	Queries          int64 `json:"replay_hits"`
	// TornTails counts segments Open cut short at a torn or corrupt
	// record, ChainBreaks the times it discarded everything older than a
	// base its predecessor did not lead to; Dropped is their sum plus the
	// frames Append refused for not advancing the generation.
	TornTails   int64 `json:"torn_tails"`
	ChainBreaks int64 `json:"chain_breaks"`
	Dropped     int64 `json:"dropped"`
}

// Stats returns the current counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Segments:         len(s.segs),
		Bytes:            s.bytes,
		Records:          s.records,
		TelemetryRecords: s.telRecords,
		OldestSeq:        s.oldestLocked(),
		NewestSeq:        s.lastSeq,
		ResidentBytes:    s.held,
		Appends:          s.appends,
		TelemetryAppends: s.telAppends,
		AppendErrors:     s.appendErrors,
		Queries:          s.queries,
		TornTails:        s.tornTails,
		ChainBreaks:      s.chainBreaks,
		Dropped:          s.refused + s.tornTails + s.chainBreaks,
	}
}

// Close seals the open segment. Further appends fail; queries keep
// answering from memory.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.cur != nil {
		_ = s.cur.Sync()
		err := s.cur.Close()
		s.cur = nil
		return err
	}
	return nil
}

// encodeRecord renders one framed record.
func encodeRecord(kind uint16, seq uint64, unixNano int64, n, dn int64, payload []byte) []byte {
	buf := make([]byte, recHeaderSize, recHeaderSize+len(payload)+recTrailerSize)
	copy(buf, recMagic)
	binary.LittleEndian.PutUint16(buf[4:], recVersion)
	binary.LittleEndian.PutUint16(buf[6:], kind)
	binary.LittleEndian.PutUint64(buf[8:], seq)
	binary.LittleEndian.PutUint64(buf[16:], uint64(unixNano))
	binary.LittleEndian.PutUint64(buf[24:], uint64(n))
	binary.LittleEndian.PutUint64(buf[32:], uint64(dn))
	binary.LittleEndian.PutUint32(buf[40:], uint32(len(payload)))
	buf = append(buf, payload...)
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
}

// decodeRecord parses one record at the head of data, returning the
// bytes consumed. Any framing or CRC failure is an error — the caller
// treats the rest of the file as a torn tail.
func decodeRecord(data []byte) (record, int, error) {
	if len(data) < recHeaderSize+recTrailerSize {
		return record{}, 0, fmt.Errorf("record truncated at %d bytes", len(data))
	}
	if string(data[:4]) != recMagic {
		return record{}, 0, fmt.Errorf("bad magic %q", data[:4])
	}
	if v := binary.LittleEndian.Uint16(data[4:]); v != recVersion {
		return record{}, 0, fmt.Errorf("unsupported version %d", v)
	}
	plen := int(binary.LittleEndian.Uint32(data[40:]))
	if plen > maxPayload {
		return record{}, 0, fmt.Errorf("payload length %d exceeds cap", plen)
	}
	total := recHeaderSize + plen + recTrailerSize
	if len(data) < total {
		return record{}, 0, fmt.Errorf("record truncated: %d of %d bytes", len(data), total)
	}
	body := data[:total-recTrailerSize]
	if got, want := crc32.Checksum(body, castagnoli), binary.LittleEndian.Uint32(data[total-recTrailerSize:]); got != want {
		return record{}, 0, fmt.Errorf("crc mismatch: computed %08x, stored %08x", got, want)
	}
	r := record{
		kind: binary.LittleEndian.Uint16(data[6:]),
		seq:  binary.LittleEndian.Uint64(data[8:]),
		time: int64(binary.LittleEndian.Uint64(data[16:])),
		n:    int64(binary.LittleEndian.Uint64(data[24:])),
		dn:   int64(binary.LittleEndian.Uint64(data[32:])),
	}
	// The payload aliases data: a loaded segment's records keep its file
	// image alive and hold nothing else.
	r.payload = body[recHeaderSize:len(body):len(body)]
	return r, total, nil
}

// loadSegment reads and validates one segment file. A torn or corrupt
// tail truncates the segment at the last valid record (torn reports
// that); a segment whose base record is unusable returns nil.
func loadSegment(path string, index uint64, bits int) (sg *segment, torn bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, true
	}
	return parseSegment(data, path, index, bits)
}

// parseSegment is loadSegment over the file's bytes.
func parseSegment(data []byte, path string, index uint64, bits int) (sg *segment, torn bool) {
	off := 0
	for off < len(data) {
		r, consumed, err := decodeRecord(data[off:])
		if err != nil {
			torn = true
			break
		}
		if sg == nil {
			if r.kind != kindBase {
				return nil, true
			}
			base, err := varpack.Unpack(r.payload)
			if err != nil || len(base) != bits {
				return nil, true
			}
			sg = &segment{
				index:   index,
				path:    path,
				baseSeq: r.seq,
				baseN:   r.n,
				base:    base,
				bytes:   int64(consumed),
				held:    anchorBytes(bits),
				lastSeq: r.seq,
				lastN:   r.n,
				final:   append([]int64(nil), base...),
			}
			off += consumed
			continue
		}
		switch r.kind {
		case kindDelta:
			if r.seq <= sg.lastSeq || sg.lastN+r.dn != r.n || varpack.CheckDelta(r.payload, bits) != nil {
				// A frame that contradicts the running state or does not
				// decode over this domain is corrupt even if its CRC
				// passed; stop here, before any of it lands in final.
				return sg, true
			}
			r.foldInto(sg.final, 1)
			sg.lastSeq, sg.lastN = r.seq, r.n
			sg.deltas = append(sg.deltas, r)
		case kindTelemetry:
			// Opaque payload; kept as read.
			sg.tel = append(sg.tel, r)
		default:
			return sg, true
		}
		sg.bytes += int64(consumed)
		sg.held += int64(len(r.payload))
		off += consumed
	}
	return sg, torn
}

func equalCounts(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// segFileName renders the canonical segment name for index;
// zero-padding keeps lexical and numeric order aligned.
func segFileName(index uint64) string {
	return fmt.Sprintf("%s%020d%s", segPrefix, index, segSuffix)
}

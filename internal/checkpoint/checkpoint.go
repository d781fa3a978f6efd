// Package checkpoint persists the collection runtime's aggregate state —
// per-bit counts plus the user total — as atomic on-disk snapshots, so a
// restarted collector resumes mid-campaign instead of losing every
// report. Because ID-LDP per-bit counts are order-independent integer
// sums, restoring a snapshot and continuing ingestion is *exact*: the
// final counts are bit-for-bit identical to an uninterrupted run, with
// zero statistical cost.
//
// A checkpoint is one self-describing binary frame:
//
//	magic "IDCK" | version u16 | reserved u16 | bits u32 |
//	seq u64 | n u64 | unixNano u64 | counts | crc32c u32
//
// All integers are little-endian; n is a two's-complement int64 on the
// wire. The counts are a varpack varint payload (version 2) — counts
// are overwhelmingly small, so a frame is several times smaller on disk
// than 8 bytes per bit. Version 1 frames, which carried that fixed-width
// section and were last written before PR 5, are refused as an
// unsupported version; Latest then falls back like for any bad frame.
// The trailing CRC-32 (Castagnoli) covers every preceding byte, so torn
// or bit-rotted files are detected on load.
//
// Durability protocol: each Save writes the frame to a temporary file in
// the same directory, syncs it, and renames it to ckpt-<seq>.idck — the
// rename is atomic on POSIX filesystems, so a crash mid-write leaves at
// worst a stray *.tmp file, never a half-valid checkpoint under the
// final name. Sequence numbers are monotone across process restarts
// (NewStore resumes after the highest seq on disk), and retention keeps
// the newest K frames, deleting older ones after each Save.
package checkpoint

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"idldp/internal/varpack"
)

const (
	magic = "IDCK"
	// versionPacked frames carry the counts as a varpack varint payload;
	// it is the only version written or read.
	versionPacked = 2

	// headerSize is magic+version+reserved+bits+seq+n+unixNano.
	headerSize = 4 + 2 + 2 + 4 + 8 + 8 + 8
	// trailerSize is the CRC.
	trailerSize = 4

	prefix = "ckpt-"
	suffix = ".idck"

	// DefaultKeep is the retention depth when WithKeep-style configuration
	// is absent (keep <= 0 in NewStore).
	DefaultKeep = 3
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Snapshot is one checkpointed aggregate state.
type Snapshot struct {
	// Bits is the report length m.
	Bits int
	// Counts are the per-bit counts, len == Bits.
	Counts []int64
	// N is the number of reports the counts summarize.
	N int64
	// Seq is the store-assigned monotone sequence number.
	Seq uint64
	// Time is when the snapshot was taken.
	Time time.Time
}

// Store writes and reads checkpoints in one directory. All methods are
// safe for concurrent use within a process; concurrent stores on the
// same directory from different processes are not coordinated.
type Store struct {
	dir  string
	keep int

	mu      sync.Mutex
	nextSeq uint64
}

// NewStore opens (creating if needed) a checkpoint directory, keeping
// the newest keep frames (keep <= 0 selects DefaultKeep). Sequence
// numbers continue after the highest already on disk.
func NewStore(dir string, keep int) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("checkpoint: empty directory")
	}
	if keep <= 0 {
		keep = DefaultKeep
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	seqs, err := listSeqs(dir)
	if err != nil {
		return nil, err
	}
	st := &Store{dir: dir, keep: keep, nextSeq: 1}
	if len(seqs) > 0 {
		st.nextSeq = seqs[len(seqs)-1] + 1
	}
	return st, nil
}

// Dir returns the checkpoint directory.
func (st *Store) Dir() string { return st.dir }

// Save atomically writes counts and n as the next checkpoint and prunes
// frames beyond the retention depth. counts is encoded before Save
// returns and never retained.
func (st *Store) Save(counts []int64, n int64) (Snapshot, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	snap := Snapshot{Bits: len(counts), Counts: counts, N: n, Seq: st.nextSeq, Time: time.Now()}
	frame := encode(snap)
	tmp, err := os.CreateTemp(st.dir, prefix+"*.tmp")
	if err != nil {
		return Snapshot{}, fmt.Errorf("checkpoint: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(frame); err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmpName)
		return Snapshot{}, fmt.Errorf("checkpoint: %w", err)
	}
	final := filepath.Join(st.dir, fileName(snap.Seq))
	if err := os.Rename(tmpName, final); err != nil {
		os.Remove(tmpName)
		return Snapshot{}, fmt.Errorf("checkpoint: %w", err)
	}
	st.nextSeq++
	st.prune()
	// The caller's slice was only read; hand back an owned copy so the
	// returned Snapshot is self-contained.
	snap.Counts = append([]int64(nil), counts...)
	return snap, nil
}

// prune removes frames beyond the newest keep. Best-effort: removal
// errors are ignored, a later prune retries.
func (st *Store) prune() {
	seqs, err := listSeqs(st.dir)
	if err != nil || len(seqs) <= st.keep {
		return
	}
	for _, seq := range seqs[:len(seqs)-st.keep] {
		os.Remove(filepath.Join(st.dir, fileName(seq)))
	}
}

// Latest returns the newest valid checkpoint in the store's directory.
// ok is false when the directory holds no checkpoint at all; corrupt
// frames are skipped in favor of the next-newest valid one.
func (st *Store) Latest() (snap Snapshot, ok bool, err error) {
	return Latest(st.dir)
}

// Latest returns the newest valid checkpoint in dir, skipping corrupt
// frames. ok is false when dir holds no checkpoint (including when dir
// does not exist); err is non-nil only when frames exist but none
// decodes.
func Latest(dir string) (snap Snapshot, ok bool, err error) {
	seqs, err := listSeqs(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return Snapshot{}, false, nil
		}
		return Snapshot{}, false, err
	}
	var lastErr error
	for i := len(seqs) - 1; i >= 0; i-- {
		snap, err := Load(filepath.Join(dir, fileName(seqs[i])))
		if err == nil {
			return snap, true, nil
		}
		lastErr = err
	}
	if lastErr != nil {
		return Snapshot{}, false, fmt.Errorf("checkpoint: no valid frame in %s: %w", dir, lastErr)
	}
	return Snapshot{}, false, nil
}

// Load reads and validates one checkpoint frame.
func Load(path string) (Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Snapshot{}, fmt.Errorf("checkpoint: %w", err)
	}
	snap, err := decode(data)
	if err != nil {
		return Snapshot{}, fmt.Errorf("checkpoint: %s: %w", path, err)
	}
	return snap, nil
}

// encode renders snap as one versionPacked frame.
func encode(snap Snapshot) []byte {
	packed := varpack.Pack(snap.Counts)
	buf := make([]byte, headerSize, headerSize+len(packed)+trailerSize)
	copy(buf, magic)
	binary.LittleEndian.PutUint16(buf[4:], versionPacked)
	binary.LittleEndian.PutUint16(buf[6:], 0)
	binary.LittleEndian.PutUint32(buf[8:], uint32(len(snap.Counts)))
	binary.LittleEndian.PutUint64(buf[12:], snap.Seq)
	binary.LittleEndian.PutUint64(buf[20:], uint64(snap.N))
	binary.LittleEndian.PutUint64(buf[28:], uint64(snap.Time.UnixNano()))
	buf = append(buf, packed...)
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
}

// decode parses and validates one frame.
func decode(data []byte) (Snapshot, error) {
	if len(data) < headerSize+trailerSize {
		return Snapshot{}, fmt.Errorf("frame truncated at %d bytes", len(data))
	}
	if string(data[:4]) != magic {
		return Snapshot{}, fmt.Errorf("bad magic %q", data[:4])
	}
	if v := binary.LittleEndian.Uint16(data[4:]); v != versionPacked {
		return Snapshot{}, fmt.Errorf("unsupported version %d", v)
	}
	bits := int(binary.LittleEndian.Uint32(data[8:]))
	body := data[:len(data)-trailerSize]
	if got, wantCRC := crc32.Checksum(body, castagnoli), binary.LittleEndian.Uint32(data[len(body):]); got != wantCRC {
		return Snapshot{}, fmt.Errorf("crc mismatch: computed %08x, stored %08x", got, wantCRC)
	}
	snap := Snapshot{
		Bits: bits,
		Seq:  binary.LittleEndian.Uint64(data[12:]),
		N:    int64(binary.LittleEndian.Uint64(data[20:])),
		Time: time.Unix(0, int64(binary.LittleEndian.Uint64(data[28:]))),
	}
	decoded, err := varpack.Unpack(body[headerSize:])
	if err != nil {
		return Snapshot{}, fmt.Errorf("counts payload: %w", err)
	}
	if len(decoded) != bits {
		return Snapshot{}, fmt.Errorf("counts payload has %d elements for %d bits", len(decoded), bits)
	}
	snap.Counts = decoded
	return snap, nil
}

// fileName renders the canonical frame name for seq; zero-padding keeps
// lexical and numeric order aligned.
func fileName(seq uint64) string {
	return fmt.Sprintf("%s%020d%s", prefix, seq, suffix)
}

// listSeqs returns the sequence numbers of all frame files in dir,
// ascending. Stray files (temporaries, foreign names) are ignored.
func listSeqs(dir string) ([]uint64, error) {
	return ListSeqs(dir, prefix, suffix)
}

// ListSeqs returns the ascending sequence numbers of every
// "<prefix><seq><suffix>" file in dir — the shared discovery half of
// the zero-padded sequence-file naming scheme this package and the
// history segment log use. Stray files (temporaries, foreign names)
// are ignored.
func ListSeqs(dir, prefix, suffix string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	seqs := make([]uint64, 0, len(entries))
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
			continue
		}
		seq, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix), 10, 64)
		if err != nil {
			continue
		}
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

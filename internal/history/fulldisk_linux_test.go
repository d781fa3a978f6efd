package history

import (
	"maps"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"testing"

	"idldp/internal/varpack"
)

// fullDisk makes every write that would take a file past limit bytes
// fail, short where part of it still fits — what a full disk does to an
// appending log: the file is created, the bytes do not land — until the
// returned function, or the end of the test, lifts it. It is the
// process's RLIMIT_FSIZE, so a test under it must not run in parallel
// with one that writes files.
func fullDisk(t *testing.T, limit uint64) (lift func()) {
	t.Helper()
	var old syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
		t.Skipf("no file size limit to set: %v", err)
	}
	signal.Ignore(syscall.SIGXFSZ) // sent with every refused write; by default it ends the process
	lifted := false
	lift = func() {
		if !lifted {
			lifted = true
			_ = syscall.Setrlimit(syscall.RLIMIT_FSIZE, &old)
			signal.Reset(syscall.SIGXFSZ)
		}
	}
	t.Cleanup(lift)
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &syscall.Rlimit{Cur: limit, Max: old.Max}); err != nil {
		t.Skipf("cannot lower the file size limit: %v", err)
	}
	if err := os.WriteFile(filepath.Join(t.TempDir(), "probe"), make([]byte, limit+1), 0o644); err == nil {
		t.Skip("the kernel does not enforce the file size limit")
	}
	return lift
}

// dirImage is every file of dir by name, with its bytes.
func dirImage(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	image := make(map[string]string)
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		image[e.Name()] = string(data)
	}
	return image
}

// TestFailedAppendsKeepRetainedHistory: on a disk that stays full every
// append fails and nothing else happens — no segment is pruned to make
// way for one that cannot be written, no file appears, grows or shrinks —
// for more failures in a row than retention keeps segments. With room
// again the log goes on, and a reopen drops nothing. Two fills: one where
// not even a base record fits, one where a base fits and the record
// behind it does not.
func TestFailedAppendsKeepRetainedHistory(t *testing.T) {
	cfg := Config{SegmentRecords: 2, KeepSegments: 3}
	for name, roomPastBase := range map[string]int{"no room for a base": -1, "room for a base only": 10} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s := openTest(t, dir, cfg)
			want := make([]int64, testBits)
			for seq := uint64(1); seq <= 5; seq++ { // segments of 2, 2 and 1 records: the newest is open and has room
				if err := s.Append(delta(seq, 1, int64(seq), 1)); err != nil {
					t.Fatal(err)
				}
				want[seq]++
			}
			before, files := s.Stats(), dirImage(t, dir)
			if before.Segments != cfg.KeepSegments || before.Records != 5 || len(files) != cfg.KeepSegments {
				t.Fatalf("campaign: %+v in %d files", before, len(files))
			}
			limit := uint64(10)
			if roomPastBase >= 0 {
				limit = uint64(len(encodeRecord(kindBase, 5, 0, 5, 0, varpack.Pack(want))) + roomPastBase)
			}

			lift := fullDisk(t, limit)
			for seq := uint64(6); seq <= 10; seq++ {
				if err := s.Append(delta(seq, 1, 0, 1)); err == nil {
					t.Fatalf("append %d landed on a full disk", seq)
				}
				after := s.Stats()
				if after.AppendErrors != int64(seq-5) {
					t.Fatalf("after %d failed appends: %+v", seq-5, after)
				}
				after.AppendErrors = 0
				if after != before {
					t.Fatalf("failed append %d moved the store:\n%+v, was\n%+v", seq, after, before)
				}
				if now := dirImage(t, dir); !maps.Equal(now, files) {
					t.Fatalf("failed append %d moved the files: %d now, %d before", seq, len(now), len(files))
				}
			}
			wantState(t, s, want, 5, 5)
			if _, n, seq, err := s.CumulativeAt(1); err != nil || n != 1 || seq != 1 {
				t.Fatalf("the oldest retained generation: n=%d seq=%d err=%v", n, seq, err)
			}
			lift()

			if err := s.Append(delta(11, 1, 0, 1)); err != nil {
				t.Fatalf("append with room again: %v", err)
			}
			want[0]++
			// The landed record opened a fourth segment; only now does the oldest go.
			if st := s.Stats(); st.Segments != cfg.KeepSegments || st.Records != 4 || st.OldestSeq != 2 {
				t.Fatalf("after the append that landed: %+v", st)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			s2 := openTest(t, dir, cfg)
			defer s2.Close()
			wantState(t, s2, want, 6, 11)
			if st := s2.Stats(); st.Dropped != 0 || st.Segments != cfg.KeepSegments || st.Records != 4 {
				t.Fatalf("reopened: %+v", st)
			}
		})
	}
}

package bitvec

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"

	"idldp/internal/cpuid"
)

// TestFoldKernelChosen: a fold takes the AVX-512 kernel exactly when the
// CPU has it and the report has a word to fold.
func TestFoldKernelChosen(t *testing.T) {
	for _, n := range []int{0, 1, 1024} {
		if got, want := NewLanes(n).kernel, cpuid.Level >= cpuid.AVX512 && n > 0; got != want {
			t.Fatalf("n=%d: fold kernel chosen %v, want %v", n, got, want)
		}
	}
}

// FuzzLanesFoldMatchesTwin drives the AVX-512 fold and foldGo, its Go
// twin, through the same operations and compares their planes after each
// one, then the drained counts with the scalar sum. Report lengths run
// from 1 to 1,100 bits (200, 1,024 and 1,032 among the seeds), batches
// end in partial blocks, densities run from no bit to every bit set, the
// folds may start primed just under the plane cap so that the next block
// spills into counts, and some of the reports are staged from their wire
// bytes and every so often moved into a second fold by AddLanes.
func FuzzLanesFoldMatchesTwin(f *testing.F) {
	if cpuid.Level < cpuid.AVX512 {
		f.Skip("no fold kernel on this CPU: foldGo is the only fold")
	}
	for i, n := range []uint16{1, 63, 64, 65, 200, 1024, 1032, 1100} {
		f.Add(uint64(i), n-1, uint16(37+i*50), uint8(i))
	}
	f.Fuzz(func(t *testing.T, seed uint64, bits, reports uint16, mode uint8) {
		n := 1 + int(bits)%1100
		rnd := rand.New(rand.NewSource(int64(seed)))
		var folds, accs [2]*Lanes
		var counts [2][]int64
		for i := range folds {
			folds[i], accs[i], counts[i] = NewLanes(n), NewLanes(n), make([]int64, n)
			folds[i].kernel, accs[i].kernel = i == 0, i == 0
		}
		want := make([]int64, n)
		if mode&1 != 0 {
			// Counters up to just under the cap: the first block folded
			// on top of them spills into counts.
			held := LaneCap - laneRows - rnd.Intn(3*laneRows)
			for k := 0; k < n; k++ {
				c := rnd.Intn(held + 1)
				want[k] += int64(c)
				for _, l := range folds {
					for p := 0; p < lanePlanes; p++ {
						l.planes[k/256][p][k/64%4] |= uint64(c>>p&1) << uint(k%64)
					}
				}
			}
			folds[0].folded, folds[1].folded = held, held
		}
		density := [4]float64{0, 0.02, 0.5, 1}[mode>>1&3]
		same := func(op string, r int) {
			for i, l := range folds {
				if !slices.Equal(l.planes, folds[1-i].planes) || l.folded != folds[1-i].folded || l.staged != folds[1-i].staged {
					t.Fatalf("n=%d report %d, after %s: the kernel's fold and the twin's differ", n, r, op)
				}
			}
		}
		for r := 0; r < int(reports)%600; r++ {
			words := randomWords(rnd, n, density)
			AccumulateWordsInto(words, n, want)
			var wire []byte
			if r%3 == 1 {
				for _, w := range words {
					wire = binary.LittleEndian.AppendUint64(wire, w)
				}
			}
			for i, l := range folds {
				var err error
				if wire != nil {
					err = l.AddBytes(wire, n, counts[i])
				} else {
					err = l.AddWords(words, n, counts[i])
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			same("staging", r)
			if rnd.Intn(50) == 0 {
				for i := range folds {
					accs[i].AddLanes(folds[i], counts[i])
				}
				same("AddLanes", r)
			}
		}
		for i := range folds {
			accs[i].AddLanes(folds[i], counts[i])
			accs[i].Drain(counts[i])
		}
		if !slices.Equal(counts[0], want) || !slices.Equal(counts[1], want) {
			t.Fatalf("n=%d: the drained counts differ from the scalar sum", n)
		}
	})
}

package bitvec

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// randomWords returns one n-bit report with each bit set with the given
// probability (0 and 1 are exact).
func randomWords(rnd *rand.Rand, n int, density float64) []uint64 {
	v := New(n)
	for i := 0; i < n; i++ {
		if density >= 1 || (density > 0 && rnd.Float64() < density) {
			v.Set(i)
		}
	}
	return v.Words()
}

// TestLanesMatchScalar is the kernel's property: for any report length,
// density and batch length, staging reports through Lanes and draining
// gives exactly the counts of AccumulateWordsInto over the same
// reports — on top of whatever counts already held.
func TestLanesMatchScalar(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	lengths := []int{0, 1, 5, 63, 64, 65, 127, 128, 1000, 1024}
	for i := 0; i < 6; i++ {
		lengths = append(lengths, 1+rnd.Intn(2000))
	}
	for _, n := range lengths {
		for _, density := range []float64{0, 0.01, 0.27, 1.0} {
			for _, batch := range []int{0, 1, 15, 16, 17, 255, 256} {
				l := NewLanes(n)
				got, want := make([]int64, n), make([]int64, n)
				for i := range got {
					got[i] = int64(i % 3) // Drain adds, never overwrites
					want[i] = got[i]
				}
				for r := 0; r < batch; r++ {
					words := randomWords(rnd, n, density)
					if err := l.AddWords(words, n, got); err != nil {
						t.Fatalf("n=%d: AddWords: %v", n, err)
					}
					if err := AccumulateWordsInto(words, n, want); err != nil {
						t.Fatal(err)
					}
				}
				if l.Pending() != batch {
					t.Fatalf("n=%d batch=%d: Pending=%d", n, batch, l.Pending())
				}
				l.Drain(got)
				if !slices.Equal(got, want) {
					t.Fatalf("n=%d density=%v batch=%d: lanes != scalar", n, density, batch)
				}
				if l.Pending() != 0 {
					t.Fatalf("Pending=%d after Drain", l.Pending())
				}
				// A drained fold is empty: draining again adds nothing.
				l.Drain(got)
				if !slices.Equal(got, want) {
					t.Fatalf("n=%d: second Drain changed counts", n)
				}
			}
		}
	}
}

// TestLanesPastPlaneCap folds more reports than the planes can hold:
// the forced drain into counts keeps the sum exact, at density 1 (every
// counter at the cap) and at the benchmark's density.
func TestLanesPastPlaneCap(t *testing.T) {
	rnd := rand.New(rand.NewSource(2))
	for _, n := range []int{3, 70} {
		for _, density := range []float64{1.0, 0.27} {
			l := NewLanes(n)
			got, want := make([]int64, n), make([]int64, n)
			total := LaneCap + 3*laneRows + 5
			spilled := false
			for r := 0; r < total; r++ {
				words := randomWords(rnd, n, density)
				if err := l.AddWords(words, n, got); err != nil {
					t.Fatal(err)
				}
				_ = AccumulateWordsInto(words, n, want)
				if l.Pending() > LaneCap {
					t.Fatalf("planes hold %d reports, cap is %d", l.Pending(), LaneCap)
				}
				spilled = spilled || l.Pending() < r+1
			}
			if !spilled {
				t.Fatal("the plane cap never forced a drain")
			}
			l.Drain(got)
			if !slices.Equal(got, want) {
				t.Fatalf("n=%d density=%v: lanes != scalar past the plane cap", n, density)
			}
		}
	}

	// Adding folds crosses the cap too: an accumulator near LaneCap takes
	// a fold that would carry its counters past the top plane, so it must
	// spill into counts first. At density 1 every counter of the sum is
	// past 2^16, so a skipped spill loses the carry and fails here.
	for _, n := range []int{3, 70} {
		for _, density := range []float64{1.0, 0.27} {
			acc, add := NewLanes(n), NewLanes(n)
			got, want := make([]int64, n), make([]int64, n)
			fill := func(l *Lanes, reports int) {
				for r := 0; r < reports; r++ {
					words := randomWords(rnd, n, density)
					if err := l.AddWords(words, n, got); err != nil {
						t.Fatal(err)
					}
					_ = AccumulateWordsInto(words, n, want)
				}
			}
			fill(acc, LaneCap-2*laneRows) // stays in the planes
			fill(add, 3*laneRows+5)       // a partial block too
			if acc.Pending()+add.Pending() <= LaneCap {
				t.Fatalf("the sum (%d) does not cross the cap", acc.Pending()+add.Pending())
			}
			acc.AddLanes(add, got)
			if add.Pending() != 0 {
				t.Fatalf("AddLanes left %d reports in its argument", add.Pending())
			}
			if acc.Pending() > LaneCap-laneRows {
				t.Fatalf("accumulator holds %d reports after AddLanes, want <= %d", acc.Pending(), LaneCap-laneRows)
			}
			acc.Drain(got)
			if !slices.Equal(got, want) {
				t.Fatalf("n=%d density=%v: lanes != scalar after an add across the plane cap", n, density)
			}
		}
	}
}

// TestAddBytesMatchesAddWords: a report staged from its wire bytes folds
// to the same counts as the same report staged from words, and a report
// either entry point refuses is refused by both with the same error.
func TestAddBytesMatchesAddWords(t *testing.T) {
	rnd := rand.New(rand.NewSource(4))
	for _, n := range []int{1, 8, 64, 70, 1024} {
		fromWords, fromBytes := NewLanes(n), NewLanes(n)
		a, b := make([]int64, n), make([]int64, n)
		for r := 0; r < 40; r++ {
			words := slices.Clone(randomWords(rnd, n, 0.3))
			if r%5 == 0 && n%64 != 0 {
				words[len(words)-1] |= 1 << 63 // a padding bit
			}
			var wire []byte
			for _, w := range words {
				wire = binary.LittleEndian.AppendUint64(wire, w)
			}
			errW := fromWords.AddWords(words, n, a)
			errB := fromBytes.AddBytes(wire, n, b)
			if fmt.Sprint(errW) != fmt.Sprint(errB) {
				t.Fatalf("n=%d: AddWords error %v, AddBytes error %v", n, errW, errB)
			}
			if err := fromBytes.AddBytes(wire[:len(wire)-8], n, b); err == nil {
				t.Fatalf("n=%d: a report one word short was accepted", n)
			}
		}
		if err := fromBytes.AddBytes(make([]byte, 8*((n+63)/64)+3), n, b); err == nil {
			t.Fatalf("n=%d: a ragged byte count was accepted", n)
		}
		if err := fromBytes.AddBytes(make([]byte, 8*((n+63)/64)), n+1, b); err == nil {
			t.Fatalf("n=%d: a report for another length was accepted", n)
		}
		fromWords.Drain(a)
		fromBytes.Drain(b)
		if !slices.Equal(a, b) {
			t.Fatalf("n=%d: AddBytes and AddWords fold different counts", n)
		}
	}
}

// TestResetEmptiesTheFold: a reset fold holds nothing, whatever it held.
func TestResetEmptiesTheFold(t *testing.T) {
	const n = 70
	l := NewLanes(n)
	counts := make([]int64, n)
	for r := 0; r < 37; r++ {
		if err := l.AddWords(OneHot(n, r).Words(), n, counts); err != nil {
			t.Fatal(err)
		}
	}
	l.Reset()
	if l.Pending() != 0 {
		t.Fatalf("Pending = %d after Reset", l.Pending())
	}
	if err := l.AddWords(OneHot(n, 5).Words(), n, counts); err != nil {
		t.Fatal(err)
	}
	l.Drain(counts)
	want := make([]int64, n)
	want[5] = 1
	if !slices.Equal(counts, want) {
		t.Fatalf("counts after Reset and one report: %v", counts)
	}
}

// TestLanesRejects: a report the scalar reference rejects is rejected
// with the same error, and leaves the block untouched and uncounted.
func TestLanesRejects(t *testing.T) {
	const n = 70
	l := NewLanes(n)
	counts, want := make([]int64, n), make([]int64, n)
	good := OneHot(n, 69).Words()
	for r := 0; r < 3; r++ { // a partial block is pending while the bad reports arrive
		if err := l.AddWords(good, n, counts); err != nil {
			t.Fatal(err)
		}
		_ = AccumulateWordsInto(good, n, want)
	}
	for name, bad := range map[string]struct {
		words []uint64
		n     int
	}{
		"word count":  {[]uint64{1}, n},
		"padding bit": {[]uint64{0, 1 << 8}, n},
	} {
		err := l.AddWords(bad.words, bad.n, counts)
		ref := AccumulateWordsInto(bad.words, bad.n, make([]int64, n))
		if err == nil || ref == nil || err.Error() != ref.Error() {
			t.Errorf("%s: lanes error %v, scalar error %v", name, err, ref)
		}
	}
	if err := l.AddWords(good, 71, counts); err == nil {
		t.Error("wrong bits accepted")
	}
	if err := l.AddWords(good, n, make([]int64, n-1)); err == nil {
		t.Error("short counts accepted")
	}
	if l.Pending() != 3 {
		t.Fatalf("rejected reports were counted: Pending=%d", l.Pending())
	}
	l.Drain(counts)
	if !slices.Equal(counts, want) {
		t.Fatal("rejected reports touched the block")
	}
}

// TestLanesZeroAllocs: the steady state — stage, fold, drain — never
// allocates.
func TestLanesZeroAllocs(t *testing.T) {
	const n = 1024
	rnd := rand.New(rand.NewSource(3))
	words := randomWords(rnd, n, 0.27)
	l := NewLanes(n)
	counts := make([]int64, n)
	allocs := testing.AllocsPerRun(20, func() {
		for r := 0; r < 70; r++ {
			if err := l.AddWords(words, n, counts); err != nil {
				t.Fatal(err)
			}
		}
		l.Drain(counts)
	})
	if allocs != 0 {
		t.Fatalf("AddWords+Drain allocates %v allocs/run, want 0", allocs)
	}
}

// FuzzLanesFold drives the fold with fuzzer-chosen geometry and bits and
// compares it with the scalar reference; data is consumed as report
// words and recycled when it runs out. The stream is split at a point
// the seeds choose into two folds, and the second is added into the
// first (AddLanes) before the drain, which must not change the sum.
func FuzzLanesFold(f *testing.F) {
	f.Add(uint16(5), uint16(3), []byte{0x15}) // more seeds in testdata/fuzz/FuzzLanesFold
	f.Fuzz(func(t *testing.T, bitsSeed, batchSeed uint16, data []byte) {
		n := int(bitsSeed % 300)
		batch := int(batchSeed % 600)
		split := int(bitsSeed^batchSeed) % (batch + 1)
		first, second := NewLanes(n), NewLanes(n)
		got, want := make([]int64, n), make([]int64, n)
		words := make([]uint64, (n+63)/64)
		at := 0
		for r := 0; r < batch; r++ {
			l := first
			if r >= split {
				l = second
			}
			for w := range words {
				var x uint64
				for k := 0; k < 8 && len(data) > 0; k++ {
					x |= uint64(data[at%len(data)]) << (8 * k)
					at++
				}
				words[w] = x
			}
			// Some reports keep their padding bits and must be rejected
			// by both paths alike.
			if r%4 != 0 && n%64 != 0 {
				words[len(words)-1] &= 1<<uint(n%64) - 1
			}
			err := l.AddWords(words, n, got)
			ref := AccumulateWordsInto(words, n, want)
			if (err == nil) != (ref == nil) {
				t.Fatalf("n=%d: lanes error %v, scalar error %v", n, err, ref)
			}
		}
		held := first.Pending() + second.Pending()
		first.AddLanes(second, got)
		if second.Pending() != 0 || first.Pending() > held {
			t.Fatalf("n=%d: after AddLanes the folds hold %d + %d of %d", n, first.Pending(), second.Pending(), held)
		}
		first.Drain(got)
		if !slices.Equal(got, want) {
			t.Fatalf("n=%d batch=%d split=%d: lanes != scalar", n, batch, split)
		}
	})
}

// Package bitvec implements the compact bit vectors used for unary
// encoding. A report in the UE family of mechanisms (RAPPOR, OUE, IDUE) is
// an m-bit vector; with m up to tens of thousands of items and millions of
// users, packing 64 bits per word matters for both memory and the
// aggregation hot loop.
//
// The collector's summation step (counts[i] += bit i of every report)
// exists twice. Vector.AccumulateInto / AccumulateWordsInto walk one
// report's set bits: the single-report path, and the scalar reference.
// Lanes is the batch path, a bit-sliced ("vertical counter") fold:
//
//   - Layout. For each 64-bit word column w of the report there are 16
//     planes; plane p holds bit p of 64 independent counters, one per bit
//     position of the column. Adding a report word to the column is then
//     64 additions done with a few AND/XOR/OR word operations.
//   - Blocks. Reports are staged 16 at a time, stored column-major so a
//     column's 16 rows are contiguous. One tree of 15 carry-save adders
//     per column adds the 16 rows into planes 0–3; its single carry-out
//     (weight 16) ripples into planes 4 and up.
//   - Plane cap. Sixteen planes count to LaneCap = 65535. The fold tracks
//     how many reports the planes hold and drains them into the caller's
//     counts before another block could pass the cap, so a batch of any
//     length stays exact.
//   - Partial blocks. Drain folds a block of fewer than 16 reports with
//     its missing rows set to zero. Zero rows change no counter, so the
//     one kernel serves every batch length and there is no scalar tail
//     path that could drift from it.
//   - Drain. Planes become ordinary int64 counts eight planes at a time:
//     a shift and a byte mask line up eight counters' bits in the eight
//     byte lanes of a word, and each plane contributes its weight.
//   - Adding two folds. Two sets of planes add without being expanded
//     into counts: a ripple-carry adder runs up the planes of each
//     column, 64 counters at a time, and stops at the last plane the
//     smaller fold uses once its carry is gone (AddLanes). A 64-report
//     fold adds in a few hundred word operations, several times less
//     than draining it, which is how a batch travels from a producer to
//     the shard that keeps it (internal/server).
package bitvec

import (
	"fmt"
	"math/bits"
	"strings"
)

// Vector is a fixed-length bit vector. The zero value is an empty vector
// of length 0; use New to create one of a given length.
type Vector struct {
	words []uint64
	n     int
}

// New returns an all-zero vector of length n. It panics if n is negative.
func New(n int) *Vector {
	if n < 0 {
		panic("bitvec: negative length")
	}
	return &Vector{words: make([]uint64, (n+63)/64), n: n}
}

// OneHot returns a vector of length n with only bit i set — the unary
// encoding v_i of Eq. (6) in the paper. It panics if i is out of range.
func OneHot(n, i int) *Vector {
	v := New(n)
	v.Set(i)
	return v
}

// FromBools builds a vector from a bool slice (useful in tests).
func FromBools(bs []bool) *Vector {
	v := New(len(bs))
	for i, b := range bs {
		if b {
			v.Set(i)
		}
	}
	return v
}

// Len returns the number of bits.
func (v *Vector) Len() int { return v.n }

// Set sets bit i to 1.
func (v *Vector) Set(i int) {
	v.check(i)
	v.words[i>>6] |= 1 << uint(i&63)
}

// Clear sets bit i to 0.
func (v *Vector) Clear(i int) {
	v.check(i)
	v.words[i>>6] &^= 1 << uint(i&63)
}

// SetBool sets bit i to b.
func (v *Vector) SetBool(i int, b bool) {
	if b {
		v.Set(i)
	} else {
		v.Clear(i)
	}
}

// Get reports whether bit i is set.
func (v *Vector) Get(i int) bool {
	v.check(i)
	return v.words[i>>6]&(1<<uint(i&63)) != 0
}

func (v *Vector) check(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: index %d out of range [0,%d)", i, v.n))
	}
}

// Zero clears every bit word-by-word, turning v back into the all-zero
// vector without allocating. It is the reset step of the buffer-reuse
// (*Into) perturbation paths, which write each report into a
// caller-provided vector instead of a fresh one.
func (v *Vector) Zero() {
	for i := range v.words {
		v.words[i] = 0
	}
}

// CopyFrom overwrites v with the bits of o word-by-word. The lengths must
// match; it panics otherwise.
func (v *Vector) CopyFrom(o *Vector) {
	if v.n != o.n {
		panic(fmt.Sprintf("bitvec: CopyFrom length mismatch: %d vs %d", v.n, o.n))
	}
	copy(v.words, o.words)
}

// Count returns the number of set bits.
func (v *Vector) Count() int {
	c := 0
	for _, w := range v.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Clone returns a deep copy of v.
func (v *Vector) Clone() *Vector {
	w := New(v.n)
	copy(w.words, v.words)
	return w
}

// Equal reports whether v and o have the same length and bits.
func (v *Vector) Equal(o *Vector) bool {
	if v.n != o.n {
		return false
	}
	for i, w := range v.words {
		if w != o.words[i] {
			return false
		}
	}
	return true
}

// Ones returns the indices of all set bits in ascending order.
func (v *Vector) Ones() []int {
	out := make([]int, 0, v.Count())
	for wi, w := range v.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, wi*64+b)
			w &= w - 1
		}
	}
	return out
}

// AccumulateInto adds each bit of v into counts: counts[i] += bit(i).
// counts must have length at least v.Len(). This is the summation step
// of the frequency-estimation protocol for one report; batches go
// through Lanes.
func (v *Vector) AccumulateInto(counts []int64) {
	if len(counts) < v.n {
		panic("bitvec: counts shorter than vector")
	}
	for wi, w := range v.words {
		base := wi * 64
		for w != 0 {
			b := bits.TrailingZeros64(w)
			counts[base+b]++
			w &= w - 1
		}
	}
}

// Words exposes the raw backing words (little-endian bit order within a
// word). The slice must not be modified; it is shared with the vector.
func (v *Vector) Words() []uint64 { return v.words }

// MutableWords is Words for writers: the perturbation samplers fill a
// report 64 bits per store instead of one Set per bit. The caller must
// leave every padding bit beyond Len() clear.
func (v *Vector) MutableWords() []uint64 { return v.words }

// checkWords is the validation every raw-words entry point shares: the
// word count must match length n and no padding bit beyond n may be set.
func checkWords(words []uint64, n int) error {
	var last uint64
	if len(words) > 0 {
		last = words[len(words)-1]
	}
	return checkShape(len(words), last, n)
}

// checkShape is checkWords given only the word count and the last word,
// which is all it looks at — so reports still in their wire bytes
// (Lanes.AddBytes) are checked by the same routine.
func checkShape(count int, last uint64, n int) error {
	if n < 0 {
		return fmt.Errorf("bitvec: negative length %d", n)
	}
	want := (n + 63) / 64
	if count != want {
		return fmt.Errorf("bitvec: got %d words for length %d, want %d", count, n, want)
	}
	if n%64 != 0 && want > 0 && last&(^uint64(0)<<uint(n%64)) != 0 {
		return fmt.Errorf("bitvec: padding bits set beyond length %d", n)
	}
	return nil
}

// AccumulateWordsInto validates raw words against length n (the same
// checks as FromWords) and adds each set bit into counts, without
// materializing a Vector. It is the zero-allocation single-report path
// (agg.Aggregator) and the scalar reference the Lanes batch fold is
// tested against.
func AccumulateWordsInto(words []uint64, n int, counts []int64) error {
	if err := checkWords(words, n); err != nil {
		return err
	}
	if len(counts) < n {
		return fmt.Errorf("bitvec: counts has %d entries for length %d", len(counts), n)
	}
	for wi, w := range words {
		base := wi * 64
		for w != 0 {
			b := bits.TrailingZeros64(w)
			counts[base+b]++
			w &= w - 1
		}
	}
	return nil
}

// FromWords reconstructs a vector of length n from raw words, as produced
// by Words. It returns an error if the word count does not match n or a
// padding bit beyond n is set.
func FromWords(words []uint64, n int) (*Vector, error) {
	if err := checkWords(words, n); err != nil {
		return nil, err
	}
	v := New(n)
	copy(v.words, words)
	return v, nil
}

// String renders the vector as a 0/1 string, lowest index first.
func (v *Vector) String() string {
	var sb strings.Builder
	sb.Grow(v.n)
	for i := 0; i < v.n; i++ {
		if v.Get(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

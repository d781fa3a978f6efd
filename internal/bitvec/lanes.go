package bitvec

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

const (
	// laneRows is the block size: reports are staged until laneRows of
	// them can go through one carry-save-adder tree per word column.
	laneRows = 16
	// lanePlanes is the height of the vertical counters. A counter holds
	// at most 2^lanePlanes-1, so a block must not be folded on top of
	// more than LaneCap reports.
	lanePlanes = 16
	// LaneCap is the plane cap: the most reports the planes may hold.
	// Lanes drains into the caller's counts before a fold would pass it.
	LaneCap = 1<<lanePlanes - 1
)

// Lanes is the bit-sliced ("vertical counter") batch fold: it sums many
// n-bit reports into per-bit counts at a few word operations per report
// word instead of one step per set bit (see the package comment for the
// layout). Reports are staged by AddWords or AddBytes, folded into the
// planes a block at a time, moved into another fold by AddLanes, and
// turned back into ordinary counts by Drain. A Lanes is single-goroutine
// and allocates only in NewLanes.
type Lanes struct {
	n     int // report length in bits
	words int // (n+63)/64

	// stage[w*laneRows+r] is word w of staged report r: a word column's
	// rows sit side by side, so the fold reads one contiguous array.
	stage  []uint64
	staged int

	// planes[w*lanePlanes+p] holds bit p of the 64 counters of word
	// column w. folded is the number of reports the planes hold, which
	// bounds every counter.
	planes []uint64
	folded int
}

// NewLanes returns an empty fold for n-bit reports. It panics if n is
// negative.
func NewLanes(n int) *Lanes {
	if n < 0 {
		panic("bitvec: negative length")
	}
	words := (n + 63) / 64
	return &Lanes{
		n:      n,
		words:  words,
		stage:  make([]uint64, words*laneRows),
		planes: make([]uint64, words*lanePlanes),
	}
}

// Pending returns the number of reports held (staged or in the planes)
// and not yet drained.
func (l *Lanes) Pending() int { return l.folded + l.staged }

// AddWords validates one report given as packed words exactly as
// AccumulateWordsInto does (length, word count, padding bits, room in
// counts) and stages it; a rejected report leaves the fold untouched.
// counts is where the planes spill when they reach LaneCap — callers
// pass the accumulator they will later hand to Drain, and nothing is
// written to it before that point.
func (l *Lanes) AddWords(words []uint64, n int, counts []int64) error {
	var last uint64
	if len(words) > 0 {
		last = words[len(words)-1]
	}
	if err := l.check(len(words), last, n, counts); err != nil {
		return err
	}
	for w, x := range words {
		l.stage[w*laneRows+l.staged] = x
	}
	l.stageDone(counts)
	return nil
}

// AddBytes is AddWords for a report whose words are still in their wire
// form: 8 little-endian bytes per word, as a network frame carries them.
// It validates with the same routine, so the two accept and refuse the
// same reports with the same errors, and stages straight from p.
func (l *Lanes) AddBytes(p []byte, n int, counts []int64) error {
	if len(p)%8 != 0 {
		return fmt.Errorf("bitvec: %d bytes is not a whole number of words", len(p))
	}
	count := len(p) / 8
	var last uint64
	if count > 0 {
		last = binary.LittleEndian.Uint64(p[len(p)-8:])
	}
	if err := l.check(count, last, n, counts); err != nil {
		return err
	}
	for w := 0; w < count; w++ {
		l.stage[w*laneRows+l.staged] = binary.LittleEndian.Uint64(p[8*w:])
	}
	l.stageDone(counts)
	return nil
}

// check is the validation AddWords and AddBytes share.
func (l *Lanes) check(count int, last uint64, n int, counts []int64) error {
	if n != l.n {
		return fmt.Errorf("bitvec: report has %d bits, lanes have %d", n, l.n)
	}
	if err := checkShape(count, last, n); err != nil {
		return err
	}
	if len(counts) < n {
		return fmt.Errorf("bitvec: counts has %d entries for length %d", len(counts), n)
	}
	return nil
}

// stageDone counts the report just staged and folds the block once it
// is full, spilling into counts before the planes could pass LaneCap.
func (l *Lanes) stageDone(counts []int64) {
	l.staged++
	if l.staged == laneRows {
		l.foldBlock()
		if l.folded > LaneCap-laneRows {
			l.drainPlanes(counts)
		}
	}
}

// Drain adds every held report into counts (counts[i] += number of held
// reports with bit i set) and empties the fold. counts must have length
// at least the report length; it panics otherwise, like
// Vector.AccumulateInto.
func (l *Lanes) Drain(counts []int64) {
	if len(counts) < l.n {
		panic("bitvec: counts shorter than lanes")
	}
	l.foldPartial()
	if l.folded > 0 {
		l.drainPlanes(counts)
	}
}

// AddLanes moves every report o holds into l without expanding either
// fold into counts, and leaves o empty. The planes add column by column
// with a ripple-carry adder; l drains into counts first only if the sum
// could pass LaneCap (and again after, if o alone left no room for a
// staged block), so counts plays the part it plays in AddWords. Both
// folds must be for the same report length; it panics otherwise.
func (l *Lanes) AddLanes(o *Lanes, counts []int64) {
	if o.n != l.n {
		panic(fmt.Sprintf("bitvec: adding %d-bit lanes to %d-bit lanes", o.n, l.n))
	}
	o.foldPartial()
	if o.folded == 0 {
		return
	}
	if l.folded+o.folded > LaneCap {
		l.drainPlanes(counts)
	}
	// Every counter of o is at most o.folded, so o uses its low top planes
	// only; and every sum is at most LaneCap, so the carry dies before
	// running off l's top plane.
	top := bits.Len(uint(o.folded))
	for w := 0; w < l.words; w++ {
		p := (*[lanePlanes]uint64)(l.planes[w*lanePlanes:])
		q := (*[lanePlanes]uint64)(o.planes[w*lanePlanes:])
		var carry uint64
		i := 0
		for ; i < top; i++ {
			a, b := p[i], q[i]
			u := a ^ b
			p[i], carry = u^carry, a&b|u&carry
			q[i] = 0
		}
		for ; carry != 0 && i < lanePlanes; i++ {
			p[i], carry = p[i]^carry, p[i]&carry
		}
	}
	l.folded += o.folded
	o.folded = 0
	if l.folded > LaneCap-laneRows {
		l.drainPlanes(counts)
	}
}

// Reset empties the fold, dropping whatever it held.
func (l *Lanes) Reset() {
	clear(l.planes)
	l.folded, l.staged = 0, 0
}

// foldPartial folds a partial block through the same kernel with its
// missing rows zeroed: adding zero rows changes no counter, so there is
// no second, scalar tail path to keep equal to the first.
func (l *Lanes) foldPartial() {
	if l.staged == 0 {
		return
	}
	for w := 0; w < l.words; w++ {
		clear(l.stage[w*laneRows+l.staged : (w+1)*laneRows])
	}
	l.foldBlock()
}

// csa is a carry-save adder over 64 independent bit columns: for each
// column a+b+c = 2·carry + sum.
func csa(a, b, c uint64) (carry, sum uint64) {
	u := a ^ b
	return a&b | u&c, u ^ c
}

// foldBlock adds the staged rows into the planes: per word column a
// tree of 15 carry-save adders takes the 16 rows and planes 0–3 to new
// planes 0–3 and one carry-out of weight 16, which then ripples into
// planes 4 and up (it dies out after a step or two on average).
func (l *Lanes) foldBlock() {
	for w := 0; w < l.words; w++ {
		r := (*[laneRows]uint64)(l.stage[w*laneRows:])
		p := (*[lanePlanes]uint64)(l.planes[w*lanePlanes:])
		ones, twos, fours, eights := p[0], p[1], p[2], p[3]
		var twosA, twosB, foursA, foursB, eightsA, eightsB, carry uint64

		twosA, ones = csa(ones, r[0], r[1])
		twosB, ones = csa(ones, r[2], r[3])
		foursA, twos = csa(twos, twosA, twosB)
		twosA, ones = csa(ones, r[4], r[5])
		twosB, ones = csa(ones, r[6], r[7])
		foursB, twos = csa(twos, twosA, twosB)
		eightsA, fours = csa(fours, foursA, foursB)

		twosA, ones = csa(ones, r[8], r[9])
		twosB, ones = csa(ones, r[10], r[11])
		foursA, twos = csa(twos, twosA, twosB)
		twosA, ones = csa(ones, r[12], r[13])
		twosB, ones = csa(ones, r[14], r[15])
		foursB, twos = csa(twos, twosA, twosB)
		eightsB, fours = csa(fours, foursA, foursB)

		carry, eights = csa(eights, eightsA, eightsB)
		p[0], p[1], p[2], p[3] = ones, twos, fours, eights
		// LaneCap keeps every counter below 2^lanePlanes, so the carry is
		// gone before i runs off the top plane.
		for i := 4; carry != 0 && i < lanePlanes; i++ {
			p[i], carry = p[i]^carry, p[i]&carry
		}
	}
	l.folded += l.staged
	l.staged = 0
}

// drainPlanes adds the vertical counters into counts and zeroes them.
// Eight planes at a time are gathered into the byte lanes of one word:
// shifting a plane right by r and masking bit 0 of every byte picks
// counters r, r+8, …, r+56 of the column, one per byte, and plane j adds
// its bit at weight 2^j (a byte holds exactly eight planes). A column's
// all-zero top planes are skipped.
func (l *Lanes) drainPlanes(counts []int64) {
	const everyByte = 0x0101010101010101
	for w := 0; w < l.words; w++ {
		p := (*[lanePlanes]uint64)(l.planes[w*lanePlanes:])
		out := counts[w*64 : min(w*64+64, l.n)]
		used := lanePlanes
		for used > 0 && p[used-1] == 0 {
			used--
		}
		for g := 0; g < used; g += 8 {
			group := p[g:min(used, g+8)]
			for r := 0; r < 8; r++ {
				var lanes uint64
				for j, plane := range group {
					lanes |= (plane >> r & everyByte) << j
				}
				for i := r; i < len(out); i += 8 {
					out[i] += int64(lanes&0xff) << g
					lanes >>= 8
				}
			}
		}
		*p = [lanePlanes]uint64{}
	}
	l.folded = 0
}

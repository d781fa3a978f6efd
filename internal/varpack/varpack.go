// Package varpack is the compact wire encoding for per-bit count
// vectors. Snapshot payloads used to ship every count as a fixed 8-byte
// little-endian integer, but counts are overwhelmingly small — interval
// deltas especially, where most entries fit one byte — so the packed
// form zigzag-varint-encodes them instead (>4x smaller on typical
// deltas, >6x on sparse ones).
//
// A payload is self-describing:
//
//	version byte | uvarint count m | m encoded values
//
// Version 1 encodes values as zigzag varints (encoding/binary's signed
// varint); version 0 is the legacy fixed 8-byte little-endian form, so a
// peer that has the packed decoder can read frames from one that does
// not, and the version byte leaves room to evolve the encoding again.
// Negotiation is the transport's job: the framed TCP snapshot request
// carries an accept-packed flag, so old peers keep receiving the plain
// form.
//
// Version 2 is the sparse interval delta (PackDelta). It has two
// readers. UnpackDelta materializes the index and increment slices, for
// a consumer that keeps them. CheckDelta and FoldDelta walk the payload
// in place — validate it against a domain size, or add it into a count
// vector with a sign — without allocating, for a holder that keeps the
// bytes themselves (internal/history holds every retained interval this
// way and folds from the bytes on each reconstruction). The walker
// refuses exactly what UnpackDelta refuses plus any index outside the
// domain, and never panics on foreign bytes; FuzzFoldDelta holds the two
// readers to the same verdicts and sums.
package varpack

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Encoding versions, the first payload byte.
const (
	// VersionFixed64 is the legacy form: 8 bytes little-endian per count.
	VersionFixed64 = 0
	// VersionVarint is the compact form: zigzag varint per count.
	VersionVarint = 1
	// VersionSparse is the delta form: gap-encoded changed-bit indices
	// paired with varint increments — the node→merger push payload.
	VersionSparse = 2
)

// Pack encodes counts in the compact varint form.
func Pack(counts []int64) []byte {
	buf := make([]byte, 0, 1+binary.MaxVarintLen64+2*len(counts))
	buf = append(buf, VersionVarint)
	buf = binary.AppendUvarint(buf, uint64(len(counts)))
	for _, c := range counts {
		buf = binary.AppendVarint(buf, c)
	}
	return buf
}

// PackFixed encodes counts in the legacy fixed-width form — what a peer
// without the varint decoder expects, and the baseline the compact form
// is measured against.
func PackFixed(counts []int64) []byte {
	buf := make([]byte, 0, 1+binary.MaxVarintLen64+8*len(counts))
	buf = append(buf, VersionFixed64)
	buf = binary.AppendUvarint(buf, uint64(len(counts)))
	for _, c := range counts {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(c))
	}
	return buf
}

// PackedSize returns len(Pack(counts)) without building the payload —
// the cheap way to account what a full-snapshot transfer would have
// cost (the delta-push bandwidth bookkeeping in internal/registry).
func PackedSize(counts []int64) int {
	size := 1 + uvarintLen(uint64(len(counts)))
	for _, c := range counts {
		size += uvarintLen(zigzag(c))
	}
	return size
}

// ValueSize is the encoded size of one count in the varint form — the
// O(1) building block for maintaining a PackedSize incrementally as
// individual counts change (PackedSize = header + Σ ValueSize).
func ValueSize(v int64) int { return uvarintLen(zigzag(v)) }

// PackDelta encodes a sparse interval delta: the changed-bit indices
// (strictly ascending, as stream.Publisher emits them) and their
// increments. Indices travel gap-encoded — first index absolute, the
// rest as the difference to the previous one — so a delta touching k of
// m bits costs O(k) bytes regardless of m:
//
//	VersionSparse | uvarint k | k × (uvarint gap, varint inc)
func PackDelta(bits []int, inc []int64) ([]byte, error) {
	if len(bits) != len(inc) {
		return nil, fmt.Errorf("varpack: %d bit indices for %d increments", len(bits), len(inc))
	}
	buf := make([]byte, 0, 1+binary.MaxVarintLen64+4*len(bits))
	buf = append(buf, VersionSparse)
	buf = binary.AppendUvarint(buf, uint64(len(bits)))
	prev := -1
	for j, i := range bits {
		if i <= prev {
			return nil, fmt.Errorf("varpack: bit indices not strictly ascending at %d (%d after %d)", j, i, prev)
		}
		buf = binary.AppendUvarint(buf, uint64(i-prev))
		buf = binary.AppendVarint(buf, inc[j])
		prev = i
	}
	return buf, nil
}

// UnpackDelta decodes a VersionSparse payload back into changed-bit
// indices and increments.
func UnpackDelta(data []byte) (bits []int, inc []int64, err error) {
	if len(data) == 0 {
		return nil, nil, fmt.Errorf("varpack: empty payload")
	}
	if data[0] != VersionSparse {
		return nil, nil, fmt.Errorf("varpack: payload version %d is not a sparse delta", data[0])
	}
	rest := data[1:]
	k64, n := binary.Uvarint(rest)
	if n <= 0 {
		return nil, nil, fmt.Errorf("varpack: truncated element count")
	}
	if k64 > MaxCounts {
		return nil, nil, fmt.Errorf("varpack: %d elements exceeds the %d cap", k64, MaxCounts)
	}
	k := int(k64)
	rest = rest[n:]
	// A (gap, increment) pair takes at least two bytes; see UnpackInto.
	if k > len(rest)/2 {
		return nil, nil, fmt.Errorf("varpack: %d elements declared in %d bytes", k, len(rest))
	}
	bits = make([]int, k)
	inc = make([]int64, k)
	prev := -1
	for j := 0; j < k; j++ {
		gap, n := binary.Uvarint(rest)
		if n <= 0 {
			return nil, nil, fmt.Errorf("varpack: truncated gap at element %d/%d", j, k)
		}
		rest = rest[n:]
		v, n := binary.Varint(rest)
		if n <= 0 {
			return nil, nil, fmt.Errorf("varpack: truncated increment at element %d/%d", j, k)
		}
		rest = rest[n:]
		if gap == 0 || gap > MaxCounts || prev+int(gap) > MaxCounts {
			return nil, nil, fmt.Errorf("varpack: bad index gap %d at element %d", gap, j)
		}
		prev += int(gap)
		bits[j] = prev
		inc[j] = v
	}
	if len(rest) != 0 {
		return nil, nil, fmt.Errorf("varpack: %d trailing bytes", len(rest))
	}
	return bits, inc, nil
}

// zigzag maps a signed value to the unsigned form binary.AppendVarint
// writes, so PackedSize can reuse uvarintLen.
func zigzag(v int64) uint64 {
	return uint64(v<<1) ^ uint64(v>>63)
}

// uvarintLen is the encoded size of v as a uvarint.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// MaxCounts bounds the declared element count a payload may carry;
// generous for any real domain, small enough that a corrupt header
// cannot demand a huge allocation.
const MaxCounts = 1 << 28

// Unpack decodes a payload of either version.
func Unpack(data []byte) ([]int64, error) {
	counts, err := UnpackInto(data, nil)
	return counts, err
}

// UnpackInto decodes into dst when its capacity suffices (allocating
// otherwise), returning the decoded slice — the reuse hook for pollers
// that decode snapshots every interval.
func UnpackInto(data []byte, dst []int64) ([]int64, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("varpack: empty payload")
	}
	version, rest := data[0], data[1:]
	m64, k := binary.Uvarint(rest)
	if k <= 0 {
		return nil, fmt.Errorf("varpack: truncated element count")
	}
	if m64 > MaxCounts {
		return nil, fmt.Errorf("varpack: %d elements exceeds the %d cap", m64, MaxCounts)
	}
	m := int(m64)
	rest = rest[k:]
	// Every element takes at least one byte, so a count the payload
	// cannot hold is refused before it sizes an allocation.
	if m > len(rest) {
		return nil, fmt.Errorf("varpack: %d elements declared in %d bytes", m, len(rest))
	}
	if cap(dst) >= m {
		dst = dst[:m]
	} else {
		dst = make([]int64, m)
	}
	switch version {
	case VersionVarint:
		for i := range dst {
			v, k := binary.Varint(rest)
			if k <= 0 {
				return nil, fmt.Errorf("varpack: truncated varint at element %d/%d", i, m)
			}
			dst[i] = v
			rest = rest[k:]
		}
	case VersionFixed64:
		if len(rest) < 8*m {
			return nil, fmt.Errorf("varpack: fixed payload has %d bytes for %d elements", len(rest), m)
		}
		for i := range dst {
			dst[i] = int64(binary.LittleEndian.Uint64(rest[8*i:]))
		}
		rest = rest[8*m:]
	default:
		return nil, fmt.Errorf("varpack: unsupported version %d", version)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("varpack: %d trailing bytes", len(rest))
	}
	return dst, nil
}

// Why a sparse payload was refused by the walker below. Package-level
// values, so refusing costs no allocation either.
var (
	errDeltaVersion   = errors.New("varpack: payload is not a sparse delta")
	errDeltaCount     = errors.New("varpack: bad or oversized element count")
	errDeltaTruncated = errors.New("varpack: truncated element")
	errDeltaIndex     = errors.New("varpack: zero gap or index outside the domain")
	errDeltaTrailing  = errors.New("varpack: trailing bytes")
)

// CheckDelta reports whether data is a VersionSparse payload over an
// m-bit domain: everything UnpackDelta checks, plus every index < m.
// It allocates nothing, so it is the check for bytes read from disk.
func CheckDelta(data []byte, m int) error { return walkDelta(data, m, nil, 0) }

// FoldDelta adds sign times each increment of a VersionSparse payload
// to counts at its bit index, decoding as it goes instead of
// materializing UnpackDelta's slices. It validates like CheckDelta with
// m = len(counts), but a payload refused midway has already landed its
// earlier pairs: callers that cannot afford a half-applied delta run
// CheckDelta first (once, when the bytes enter the program).
func FoldDelta(data []byte, counts []int64, sign int64) error {
	return walkDelta(data, len(counts), counts, sign)
}

// walkDelta is the one decoder behind CheckDelta and FoldDelta: runs of
// two-byte pairs go through shortPairs four at a time, every other pair
// through encoding/binary, which is also where a bad pair is named.
func walkDelta(data []byte, m int, counts []int64, sign int64) error {
	if len(data) == 0 || data[0] != VersionSparse {
		return errDeltaVersion
	}
	k64, n := binary.Uvarint(data[1:])
	if n <= 0 {
		return errDeltaCount
	}
	p := data[1+n:]
	// A pair takes at least two bytes; see UnpackInto.
	if k64 > uint64(len(p)/2) {
		return errDeltaCount
	}
	k, idx := int(k64), -1
	for k > 0 {
		// shortPairs' own entry test, made here first: a delta of longer
		// pairs would otherwise pay a call per pair to learn it, which
		// measured 12.2 against 8.4 us for the encoding/binary loop alone
		// (m = 1024, two-byte increments); with the test, 8.6.
		if k >= 4 && len(p) >= 8 && binary.LittleEndian.Uint64(p)&continues == 0 {
			n, idx = shortPairs(p, k, idx, m, counts, sign)
			if p, k = p[2*n:], k-n; k == 0 {
				break
			}
		}
		gap, n := binary.Uvarint(p)
		if n <= 0 {
			return errDeltaTruncated
		}
		p = p[n:]
		z, n := binary.Uvarint(p)
		if n <= 0 {
			return errDeltaTruncated
		}
		p = p[n:]
		// 1 <= gap <= m-1-idx in one compare: a zero gap wraps around.
		if gap-1 >= uint64(m-1-idx) {
			return errDeltaIndex
		}
		idx += int(gap)
		if counts != nil {
			counts[idx] += sign * (int64(z>>1) ^ -int64(z&1)) // as binary.Varint
		}
		k--
	}
	if len(p) != 0 {
		return errDeltaTrailing
	}
	return nil
}

// continues has the continuation bit of each of eight varint bytes.
const continues = 0x8080808080808080

// shortInc decodes a one-byte zigzag increment (a byte below 0x80).
var shortInc = func() (t [256]int8) {
	for z := range 0x80 {
		t[z] = int8(z>>1) ^ -int8(z&1)
	}
	return t
}()

// shortPairs walks the leading pairs of p, of k declared, for as long as
// four in a row are two bytes each — one-byte gap, one-byte increment,
// which is nearly every pair of a delta of a few dozen reports: IDUE
// sets about a quarter of the bits per report, so such a delta touches
// most bits, by little. It returns the pairs walked and the last index,
// and stops short of anything it does not like (a longer varint, a zero
// gap, an index >= m) without reporting it. It is its own function so
// that its loop keeps its state in registers.
func shortPairs(p []byte, k, idx, m int, counts []int64, sign int64) (pairs, last int) {
	i := 0
	for ; k >= 4 && i+8 <= len(p); i, k = i+8, k-4 {
		w := binary.LittleEndian.Uint64(p[i:])
		if w&continues != 0 {
			break
		}
		g0, g1, g2, g3 := int(byte(w)), int(byte(w>>16)), int(byte(w>>32)), int(byte(w>>48))
		i0 := idx + g0
		i1 := i0 + g1
		i2 := i1 + g2
		i3 := i2 + g3
		if g0 == 0 || g1 == 0 || g2 == 0 || g3 == 0 || i3 >= m {
			break
		}
		idx = i3
		if counts != nil {
			counts[i0] += sign * int64(shortInc[byte(w>>8)])
			counts[i1] += sign * int64(shortInc[byte(w>>24)])
			counts[i2] += sign * int64(shortInc[byte(w>>40)])
			counts[i3] += sign * int64(shortInc[byte(w>>56)])
		}
	}
	return i / 2, idx
}

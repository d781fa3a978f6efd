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
// carries an accept-packed flag and the HTTP snapshot endpoint a
// ?format=packed query, so old peers keep receiving the plain form.
package varpack

import (
	"encoding/binary"
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

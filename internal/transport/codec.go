package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
)

// Wire constants. A connection opens, in each direction, with the
// 4-byte preamble; the last byte is the format version, so a peer that
// speaks anything else (an older gob build, a stray HTTP client) is
// refused on its first four bytes.
const (
	wireVersion = 1

	// readBufSize is the bufio.Reader in front of every decoder: a
	// 64-report burst (8.5 KB at m = 1024) arrives in one read.
	readBufSize = 32 << 10
	// writeBufSize is the fill level at which a frameWriter hands its
	// buffer to the socket without being asked (see frameWriter).
	writeBufSize = 32 << 10

	// Caps on every length prefix, checked before anything is allocated.
	// A reader that knows its domain size tightens the first three to it.
	maxDomainBits = 1 << 24
	maxWords      = maxDomainBits / 64 // Frame.Words
	maxCounts     = maxDomainBits      // Frame.Counts
	maxPacked     = 64 << 20           // Frame.Packed
	maxMAC        = 64                 // Frame.MAC (HMAC-SHA256 is 32)
	maxString     = 4 << 10            // Node, Role, Err, Trace
)

var preamble = [4]byte{'I', 'D', 'F', wireVersion}

// errMalformed marks a decode failure caused by the bytes themselves
// (wrong preamble, unknown kind or field, length over its cap) as
// opposed to the connection ending or failing.
var errMalformed = errors.New("transport: malformed frame")

func malformed(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errMalformed, fmt.Sprintf(format, args...))
}

// Presence bits, one per Frame field after Kind in declaration order. A
// field is on the wire iff it is non-zero (non-empty for slices and
// strings); a bool is carried by its bit alone.
const (
	hasWords uint64 = 1 << iota
	hasBits
	hasCounts
	hasN
	hasAcceptPacked
	hasPacked
	hasNode
	hasSession
	hasTimeNano
	hasMAC
	hasWantAck
	hasShed
	hasRetryAfterNano
	hasRole
	hasHeartbeatNano
	hasSeq
	hasResync
	hasDN
	hasErr
	hasTrace
	knownFields = 1<<iota - 1
)

// reset zeroes every scalar field and truncates every slice, keeping its
// capacity, so the next in-place decode starts from a zero Frame without
// giving up the backing arrays.
func (f *Frame) reset() {
	*f = Frame{Words: f.Words[:0], Counts: f.Counts[:0], Packed: f.Packed[:0], MAC: f.MAC[:0]}
}

func (f *Frame) presence() (has uint64) {
	set := func(bit uint64, present bool) {
		if present {
			has |= bit
		}
	}
	set(hasWords, len(f.Words) > 0)
	set(hasBits, f.Bits != 0)
	set(hasCounts, len(f.Counts) > 0)
	set(hasN, f.N != 0)
	set(hasAcceptPacked, f.AcceptPacked)
	set(hasPacked, len(f.Packed) > 0)
	set(hasNode, f.Node != "")
	set(hasSession, f.Session != 0)
	set(hasTimeNano, f.TimeNano != 0)
	set(hasMAC, len(f.MAC) > 0)
	set(hasWantAck, f.WantAck)
	set(hasShed, f.Shed)
	set(hasRetryAfterNano, f.RetryAfterNano != 0)
	set(hasRole, f.Role != "")
	set(hasHeartbeatNano, f.HeartbeatNano != 0)
	set(hasSeq, f.Seq != 0)
	set(hasResync, f.Resync)
	set(hasDN, f.DN != 0)
	set(hasErr, f.Err != "")
	set(hasTrace, f.Trace != "")
	return has
}

// appendFrame appends f's wire form to b: the kind byte, the presence
// bitmap as a uvarint, then each present field in declaration order.
func appendFrame(b []byte, f *Frame) []byte {
	has := f.presence()
	b = append(b, byte(f.Kind))
	b = binary.AppendUvarint(b, has)
	if has&hasWords != 0 {
		b = binary.AppendUvarint(b, uint64(len(f.Words)))
		for _, w := range f.Words {
			b = binary.LittleEndian.AppendUint64(b, w)
		}
	}
	if has&hasBits != 0 {
		b = binary.AppendVarint(b, int64(f.Bits))
	}
	if has&hasCounts != 0 {
		b = binary.AppendUvarint(b, uint64(len(f.Counts)))
		for _, c := range f.Counts {
			b = binary.AppendVarint(b, c)
		}
	}
	if has&hasN != 0 {
		b = binary.AppendVarint(b, f.N)
	}
	if has&hasPacked != 0 {
		b = appendBytes(b, f.Packed)
	}
	if has&hasNode != 0 {
		b = appendBytes(b, f.Node)
	}
	if has&hasSession != 0 {
		b = binary.AppendUvarint(b, f.Session)
	}
	if has&hasTimeNano != 0 {
		b = binary.AppendVarint(b, f.TimeNano)
	}
	if has&hasMAC != 0 {
		b = appendBytes(b, f.MAC)
	}
	if has&hasRetryAfterNano != 0 {
		b = binary.AppendVarint(b, f.RetryAfterNano)
	}
	if has&hasRole != 0 {
		b = appendBytes(b, f.Role)
	}
	if has&hasHeartbeatNano != 0 {
		b = binary.AppendVarint(b, f.HeartbeatNano)
	}
	if has&hasSeq != 0 {
		b = binary.AppendUvarint(b, f.Seq)
	}
	if has&hasDN != 0 {
		b = binary.AppendVarint(b, f.DN)
	}
	if has&hasErr != 0 {
		b = appendBytes(b, f.Err)
	}
	if has&hasTrace != 0 {
		b = appendBytes(b, f.Trace)
	}
	return b
}

func appendBytes[T []byte | string](b []byte, v T) []byte {
	b = binary.AppendUvarint(b, uint64(len(v)))
	return append(b, v...)
}

// appendReport appends the report frame the client sends — byte for byte
// what appendFrame writes for Frame{Kind: FrameReport, Words: words,
// Bits: bits, WantAck: wantAck, Trace: trace} — without building a Frame
// or walking the generic field list.
func appendReport(b []byte, words []uint64, bits int, wantAck bool, trace string) []byte {
	var has uint64
	if len(words) > 0 {
		has |= hasWords
	}
	if bits != 0 {
		has |= hasBits
	}
	if wantAck {
		has |= hasWantAck
	}
	if trace != "" {
		has |= hasTrace
	}
	// The kind byte, at most four varints, the words and the trace.
	b = slices.Grow(b, 1+4*binary.MaxVarintLen64+8*len(words)+len(trace))
	b = append(b, byte(FrameReport))
	b = binary.AppendUvarint(b, has)
	if len(words) > 0 {
		b = binary.AppendUvarint(b, uint64(len(words)))
		for _, w := range words {
			b = binary.LittleEndian.AppendUint64(b, w)
		}
	}
	if bits != 0 {
		b = binary.AppendVarint(b, int64(bits))
	}
	if trace != "" {
		b = appendBytes(b, trace)
	}
	return b
}

// frameWriter queues frames for one direction of a connection and writes
// them in as few Writes as the flush rule allows: write copies the frame
// into buf (the caller's slices are free the moment it returns) and
// hands buf to the socket by itself only once it holds writeBufSize
// bytes; otherwise the bytes leave on flush. There is no timer — whoever
// needs the peer to see the frames (before reading a reply, on
// Client.Flush, on Close) calls flush. The first error is sticky: a
// partial write leaves the stream unframed, so nothing more is sent.
type frameWriter struct {
	w   io.Writer
	buf []byte
	err error

	started bool // preamble queued
}

func (w *frameWriter) write(f *Frame) error {
	if !w.start() {
		return w.err
	}
	w.buf = appendFrame(w.buf, f)
	return w.queued()
}

// writeReport is write for a report frame, by its fixed layout
// (appendReport).
func (w *frameWriter) writeReport(words []uint64, bits int, wantAck bool, trace string) error {
	if !w.start() {
		return w.err
	}
	w.buf = appendReport(w.buf, words, bits, wantAck, trace)
	return w.queued()
}

// start readies buf for one more frame, queueing the preamble ahead of
// the first; it is false once a write has failed.
func (w *frameWriter) start() bool {
	if w.err != nil {
		return false
	}
	if !w.started {
		w.started = true
		w.buf = append(w.buf, preamble[:]...)
	}
	return true
}

// queued hands buf to the socket once it holds writeBufSize bytes.
func (w *frameWriter) queued() error {
	if len(w.buf) >= writeBufSize {
		return w.flush()
	}
	return nil
}

func (w *frameWriter) flush() error {
	if w.err != nil || len(w.buf) == 0 {
		return w.err
	}
	if _, err := w.w.Write(w.buf); err != nil {
		w.err = fmt.Errorf("transport: write: %w", err)
	}
	if cap(w.buf) > 2*writeBufSize {
		w.buf = nil // a one-off large frame (a snapshot); don't keep its buffer
	}
	w.buf = w.buf[:0]
	return w.err
}

// send queues f and flushes: how replies are written.
func (w *frameWriter) send(f *Frame) error {
	if err := w.write(f); err != nil {
		return err
	}
	return w.flush()
}

// exchange sends f — and everything queued before it — and decodes the
// peer's answer into reply.
func exchange(w *frameWriter, r *frameReader, f, reply *Frame) error {
	if err := w.send(f); err != nil {
		return err
	}
	if err := r.read(reply); err != nil {
		return fmt.Errorf("transport: read: %w", err)
	}
	return nil
}

// frameReader decodes one direction of a connection.
type frameReader struct {
	br                             *bufio.Reader
	maxWords, maxCounts, maxPacked int

	started bool // preamble checked
}

// newFrameReader reads frames from r. bits > 0 is the domain size the
// reader expects (an ingest server's own, or that of the node a merger
// polls): Words, Counts and Packed longer than an m-bit report, batch or
// varpack snapshot (a version byte, then m+1 varints at most) are
// refused before they are read. bits == 0 applies the package caps.
func newFrameReader(r io.Reader, bits int) *frameReader {
	fr := &frameReader{br: bufio.NewReaderSize(r, readBufSize), maxWords: maxWords, maxCounts: maxCounts, maxPacked: maxPacked}
	if bits > 0 {
		fr.maxWords, fr.maxCounts = min(maxWords, (bits+63)/64), min(maxCounts, bits)
		fr.maxPacked = min(maxPacked, 1+binary.MaxVarintLen64*(bits+1))
	}
	return fr
}

// read decodes the next frame into f in place: f is reset, then each
// present field is decoded into f's own backing arrays, so a caller that
// reuses one Frame allocates nothing once the arrays have grown (string
// fields aside). A clean end of stream between frames is io.EOF; bytes
// that are not a frame fail with an error wrapping errMalformed.
func (r *frameReader) read(f *Frame) error {
	f.reset()
	if !r.started {
		var p [len(preamble)]byte
		if _, err := io.ReadFull(r.br, p[:]); err != nil {
			return err
		}
		if p != preamble {
			return malformed("preamble % x, want % x", p, preamble)
		}
		r.started = true
	}
	kind, err := r.br.ReadByte()
	if err != nil {
		return err
	}
	if kind < byte(FrameReport) || kind > byte(FrameAck) {
		return malformed("unknown frame kind %d", kind)
	}
	f.Kind = FrameKind(kind)
	if err := r.fields(f); err != nil {
		if err == io.EOF {
			return io.ErrUnexpectedEOF
		}
		return err
	}
	return nil
}

// wireReport is an untraced report frame parsed where it lies in the
// read buffer. words holds the report's words as the wire carries them,
// 8 little-endian bytes each, and aliases the buffer: it is valid until
// the reader's next call.
type wireReport struct {
	words   []byte
	bits    int
	wantAck bool
}

// The two frame heads the in-place report parse knows: the kind byte and
// the presence bitmap appendReport writes for an untraced report, plain
// or acked.
var (
	plainReportHead = binary.AppendUvarint([]byte{byte(FrameReport)}, hasWords|hasBits)
	ackedReportHead = binary.AppendUvarint([]byte{byte(FrameReport)}, hasWords|hasBits|hasWantAck)
)

// next reads the next frame for an ingest loop. An untraced report frame
// whose bytes are all in the read buffer already, written in its
// canonical form, is parsed in place with one Peek and comes back as rep
// (rep.words != nil) with f untouched: no Frame reset and no copy of its
// words. Every other frame — a traced report, a varint written longer
// than it needs, a frame split across the buffer's edge, every other
// kind — is decoded into f by read, which stays the reference decoder
// and the only path for everything but such reports. Either way the
// frame's bytes are consumed.
func (r *frameReader) next(f *Frame) (rep wireReport, err error) {
	if r.started && r.br.Buffered() == 0 {
		// Wait for the next bytes here rather than inside read, so the
		// frame they start can be parsed in place too. An error here is
		// the one read would meet on the frame's first byte.
		if _, err := r.br.Peek(1); err != nil {
			return rep, err
		}
	}
	if rep, size := r.peekReport(); size > 0 {
		_, err = r.br.Discard(size) // within Buffered: reads nothing
		return rep, err
	}
	return wireReport{}, r.read(f)
}

// peekReport parses the frame at the head of the read buffer as next
// describes, returning its size, or 0 to leave it to the generic decoder.
func (r *frameReader) peekReport() (rep wireReport, size int) {
	if !r.started {
		return rep, 0 // the preamble is read's to check
	}
	b, _ := r.br.Peek(r.br.Buffered())
	var at int
	switch {
	case bytes.HasPrefix(b, plainReportHead):
		at = len(plainReportHead)
	case bytes.HasPrefix(b, ackedReportHead):
		at, rep.wantAck = len(ackedReportHead), true
	default:
		return rep, 0
	}
	count, k := canonUvarint(b[at:])
	if k == 0 || count == 0 || count > uint64(r.maxWords) || uint64(len(b)-at-k) < 8*count {
		return rep, 0
	}
	at += k
	end := at + 8*int(count)
	ubits, k := canonUvarint(b[end:])
	bits := unzigzag(ubits)
	if k == 0 || int64(int(bits)) != bits {
		return rep, 0
	}
	rep.words, rep.bits = b[at:end], int(bits)
	return rep, end + k
}

// canonUvarint decodes the uvarint at the head of b if it is whole and
// in its shortest form (a multi-byte encoding does not end in a zero
// byte); otherwise it returns k = 0.
func canonUvarint(b []byte) (v uint64, k int) {
	v, k = binary.Uvarint(b)
	if k <= 0 || k > 1 && b[k-1] == 0 {
		return 0, 0
	}
	return v, k
}

func unzigzag(ux uint64) int64 {
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x
}

func (r *frameReader) fields(f *Frame) (err error) {
	has, err := r.uvarint()
	if err != nil {
		return err
	}
	if has&^knownFields != 0 {
		return malformed("unknown presence bits %#x", has&^knownFields)
	}
	f.AcceptPacked = has&hasAcceptPacked != 0
	f.WantAck = has&hasWantAck != 0
	f.Shed = has&hasShed != 0
	f.Resync = has&hasResync != 0
	if has&hasWords != 0 {
		if f.Words, err = r.words(f.Words); err != nil {
			return err
		}
	}
	if has&hasBits != 0 {
		v, err := r.varint()
		if err != nil {
			return err
		}
		if int64(int(v)) != v {
			return malformed("bits %d overflows int", v)
		}
		f.Bits = int(v)
	}
	if has&hasCounts != 0 {
		if f.Counts, err = r.counts(f.Counts); err != nil {
			return err
		}
	}
	if has&hasN != 0 {
		if f.N, err = r.varint(); err != nil {
			return err
		}
	}
	if has&hasPacked != 0 {
		if f.Packed, err = r.bytes(f.Packed, r.maxPacked, "packed"); err != nil {
			return err
		}
	}
	if has&hasNode != 0 {
		if f.Node, err = r.str("node"); err != nil {
			return err
		}
	}
	if has&hasSession != 0 {
		if f.Session, err = r.uvarint(); err != nil {
			return err
		}
	}
	if has&hasTimeNano != 0 {
		if f.TimeNano, err = r.varint(); err != nil {
			return err
		}
	}
	if has&hasMAC != 0 {
		if f.MAC, err = r.bytes(f.MAC, maxMAC, "mac"); err != nil {
			return err
		}
	}
	if has&hasRetryAfterNano != 0 {
		if f.RetryAfterNano, err = r.varint(); err != nil {
			return err
		}
	}
	if has&hasRole != 0 {
		if f.Role, err = r.str("role"); err != nil {
			return err
		}
	}
	if has&hasHeartbeatNano != 0 {
		if f.HeartbeatNano, err = r.varint(); err != nil {
			return err
		}
	}
	if has&hasSeq != 0 {
		if f.Seq, err = r.uvarint(); err != nil {
			return err
		}
	}
	if has&hasDN != 0 {
		if f.DN, err = r.varint(); err != nil {
			return err
		}
	}
	if has&hasErr != 0 {
		if f.Err, err = r.str("err"); err != nil {
			return err
		}
	}
	if has&hasTrace != 0 {
		if f.Trace, err = r.str("trace"); err != nil {
			return err
		}
	}
	return nil
}

func (r *frameReader) uvarint() (uint64, error) {
	var x uint64
	for shift := uint(0); shift < 64; shift += 7 {
		b, err := r.br.ReadByte()
		if err != nil {
			return 0, err
		}
		if b < 0x80 {
			if shift == 63 && b > 1 {
				break
			}
			return x | uint64(b)<<shift, nil
		}
		x |= uint64(b&0x7f) << shift
	}
	return 0, malformed("varint overflows 64 bits")
}

func (r *frameReader) varint() (int64, error) {
	ux, err := r.uvarint()
	return unzigzag(ux), err
}

// length reads a length prefix and checks it against its cap.
func (r *frameReader) length(limit int, what string) (int, error) {
	n, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(limit) {
		return 0, malformed("%s length %d over cap %d", what, n, limit)
	}
	return int(n), nil
}

// words appends a length-prefixed run of little-endian uint64 to dst. It
// grows dst only by what has already arrived in the read buffer, so a
// length the peer never backs with bytes allocates nothing.
func (r *frameReader) words(dst []uint64) ([]uint64, error) {
	n, err := r.length(r.maxWords, "words")
	for n > 0 && err == nil {
		chunk := min(n, readBufSize/8)
		var b []byte
		if b, err = r.br.Peek(8 * chunk); err != nil {
			break
		}
		at := len(dst)
		dst = slices.Grow(dst, chunk)[:at+chunk]
		for i := range dst[at:] {
			dst[at+i] = binary.LittleEndian.Uint64(b[8*i:])
		}
		_, err = r.br.Discard(8 * chunk)
		n -= chunk
	}
	return dst, err
}

// counts appends a length-prefixed run of varints to dst, growing it as
// values arrive. Values are decoded straight out of the read buffer
// while a whole varint is sure to be in it, and byte by byte (which
// refills the buffer) at its end.
func (r *frameReader) counts(dst []int64) ([]int64, error) {
	n, err := r.length(r.maxCounts, "counts")
	for n > 0 && err == nil {
		b, _ := r.br.Peek(r.br.Buffered())
		used := 0
		for ; n > 0 && len(b)-used >= binary.MaxVarintLen64; n-- {
			c, k := binary.Varint(b[used:])
			if k <= 0 {
				// Consume what the byte-at-a-time path would have read
				// before refusing (every overflow is ten bytes), so where
				// a malformed stream stops does not depend on buffering.
				_, _ = r.br.Discard(used + binary.MaxVarintLen64)
				return dst, malformed("varint overflows 64 bits")
			}
			dst = append(dst, c)
			used += k
		}
		if _, err = r.br.Discard(used); n > 0 && err == nil {
			var c int64
			if c, err = r.varint(); err == nil {
				dst = append(dst, c)
				n--
			}
		}
	}
	return dst, err
}

// bytes appends a length-prefixed byte string to dst, growing it one
// read buffer at a time as the bytes arrive.
func (r *frameReader) bytes(dst []byte, limit int, what string) ([]byte, error) {
	n, err := r.length(limit, what)
	for n > 0 && err == nil {
		chunk := min(n, readBufSize)
		at := len(dst)
		dst = slices.Grow(dst, chunk)[:at+chunk]
		if _, err = io.ReadFull(r.br, dst[at:]); err != nil {
			dst = dst[:at]
		}
		n -= chunk
	}
	return dst, err
}

func (r *frameReader) str(what string) (string, error) {
	n, err := r.length(maxString, what)
	if err != nil {
		return "", err
	}
	b, err := r.br.Peek(n) // maxString <= readBufSize
	if err != nil {
		return "", err
	}
	s := string(b)
	_, err = r.br.Discard(n)
	return s, err
}

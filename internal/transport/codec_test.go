package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"idldp/internal/bitvec"
	"idldp/internal/rng"
)

// fillNonZero sets every field of a Frame to a non-zero value through
// reflection, so a field added later is covered without editing the
// tests below. It fails on a field type the codec has no rule for.
func fillNonZero(t *testing.T, f *Frame) {
	t.Helper()
	v := reflect.ValueOf(f).Elem()
	for i := 0; i < v.NumField(); i++ {
		fv, name := v.Field(i), v.Type().Field(i).Name
		switch fv.Kind() {
		case reflect.Uint8: // Kind
			fv.SetUint(uint64(FrameDeltaPush))
		case reflect.Int, reflect.Int64:
			fv.SetInt(-int64(i) - 1000)
		case reflect.Uint64:
			fv.SetUint(uint64(i) + 1<<40)
		case reflect.Bool:
			fv.SetBool(true)
		case reflect.String:
			fv.SetString(name + "-value")
		case reflect.Slice:
			s := reflect.MakeSlice(fv.Type(), 3, 8)
			for k := 0; k < s.Len(); k++ {
				switch e := s.Index(k); e.Kind() {
				case reflect.Uint8, reflect.Uint64:
					e.SetUint(uint64(10*i + k + 1))
				case reflect.Int64:
					e.SetInt(int64(k) - 1) // a negative, a zero and a positive
				default:
					t.Fatalf("Frame.%s: no codec rule for []%s", name, e.Kind())
				}
			}
			fv.Set(s)
		default:
			t.Fatalf("Frame.%s: no codec rule for kind %s", name, fv.Kind())
		}
	}
}

// TestFrameResetIsExhaustive: reset leaves no field of a fully populated
// Frame behind — scalars zero, slices empty with their capacity kept —
// including any field added after this test was written.
func TestFrameResetIsExhaustive(t *testing.T) {
	var f Frame
	fillNonZero(t, &f)
	f.reset()
	v := reflect.ValueOf(f)
	for i := 0; i < v.NumField(); i++ {
		fv, name := v.Field(i), v.Type().Field(i).Name
		if fv.Kind() == reflect.Slice {
			if fv.Len() != 0 || fv.Cap() != 8 {
				t.Errorf("Frame.%s after reset: len %d cap %d, want len 0 with capacity 8 kept", name, fv.Len(), fv.Cap())
			}
		} else if !fv.IsZero() {
			t.Errorf("Frame.%s survives reset: %v", name, fv)
		}
	}
}

// decodeOne decodes exactly one frame from a fresh stream.
func decodeOne(b []byte) (Frame, error) {
	var f Frame
	err := newFrameReader(bytes.NewReader(b), 0).read(&f)
	return f, err
}

func encodeOne(f *Frame) []byte { return appendFrame(preamble[:], f) }

// sameFrame compares two frames field by field, an empty slice equal to
// a nil one (absent fields decode to whatever the target already held,
// truncated).
func sameFrame(a, b *Frame) bool {
	av, bv := reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem()
	for i := 0; i < av.NumField(); i++ {
		x, y := av.Field(i), bv.Field(i)
		if x.Kind() == reflect.Slice && x.Len() == 0 && y.Len() == 0 {
			continue
		}
		if !reflect.DeepEqual(x.Interface(), y.Interface()) {
			return false
		}
	}
	return true
}

// TestEveryFieldRoundTrips: a Frame with every field set survives
// encode → decode, so a field added to the struct but forgotten in
// presence/appendFrame/fields fails here.
func TestEveryFieldRoundTrips(t *testing.T) {
	var f Frame
	fillNonZero(t, &f)
	got, err := decodeOne(encodeOne(&f))
	if err != nil {
		t.Fatal(err)
	}
	if !sameFrame(&f, &got) {
		t.Fatalf("round trip changed the frame\n sent %+v\n got  %+v", f, got)
	}
	if n := reflect.TypeOf(f).NumField() - 1; knownFields != 1<<n-1 {
		t.Fatalf("knownFields = %#x, but Frame has %d fields after Kind", uint64(knownFields), n)
	}
}

// sampleFrames is one realistic frame of each of the nine kinds.
func sampleFrames() []Frame {
	words := make([]uint64, 16)
	for i := range words {
		words[i] = 0x9e3779b97f4a7c15 * uint64(i+1)
	}
	mac := bytes.Repeat([]byte{0xa5}, 32)
	return []Frame{
		{Kind: FrameReport, Words: words, Bits: 1024},
		{Kind: FrameReport, Words: words[:1], Bits: 8, WantAck: true, Trace: "0123456789abcdef"},
		{Kind: FrameBatch, Counts: []int64{3, 0, 7, 1, 0, 0, 2, 5}, N: 9, WantAck: true},
		{Kind: FrameSnapshotRequest, AcceptPacked: true, Node: "poller", TimeNano: 1727500000123456789, MAC: mac},
		{Kind: FrameSnapshot, Counts: []int64{1, 2, 3, 4}, N: 4, Bits: 4},
		{Kind: FrameSnapshot, Packed: []byte{1, 2, 3, 4, 5}, N: 1 << 40, Bits: 1024},
		{Kind: FrameRegister, Node: "node-a", Bits: 1024, Role: "node", TimeNano: 1, MAC: mac},
		{Kind: FrameRegisterAck, Session: math.MaxUint64, HeartbeatNano: 200e6, Bits: 1024},
		{Kind: FrameRegisterAck, Err: "registry: unauthorized"},
		{Kind: FrameHeartbeat, Node: "node-a", Session: 7, TimeNano: 2, MAC: mac, Packed: bytes.Repeat([]byte{9}, 300)},
		{Kind: FrameDeltaPush, Node: "node-a", Session: 7, TimeNano: 3, MAC: mac, Seq: 41, Resync: true,
			Packed: []byte{0, 1, 2}, DN: math.MinInt64, N: math.MaxInt64, Trace: "t"},
		{Kind: FrameAck},
		{Kind: FrameAck, Shed: true, RetryAfterNano: 250e6},
	}
}

// randomFrame draws a frame of a random kind with a random subset of
// fields set to random values.
func randomFrame(r *rng.Source) Frame {
	f := Frame{Kind: FrameKind(1 + r.IntN(9))}
	pick := func() bool { return r.IntN(3) == 0 }
	str := func() string { return string(randBytes(r, r.IntN(40))) }
	if pick() {
		f.Words = make([]uint64, r.IntN(70))
		for i := range f.Words {
			f.Words[i] = r.Uint64()
		}
	}
	if pick() {
		f.Counts = make([]int64, r.IntN(300))
		for i := range f.Counts {
			f.Counts[i] = int64(r.Uint64() >> uint(r.IntN(64)))
		}
	}
	if pick() {
		f.Packed = randBytes(r, r.IntN(100_000))
	}
	if pick() {
		f.MAC = randBytes(r, r.IntN(maxMAC+1))
	}
	f.Bits = int(int32(r.Uint64()) * int32(r.IntN(2)))
	f.N = int64(r.Uint64()) * int64(r.IntN(2))
	f.Session = r.Uint64() * uint64(r.IntN(2))
	f.TimeNano = int64(r.Uint64()) * int64(r.IntN(2))
	f.RetryAfterNano = int64(r.Uint64()>>20) * int64(r.IntN(2))
	f.HeartbeatNano = int64(r.Uint64()>>20) * int64(r.IntN(2))
	f.Seq = r.Uint64() * uint64(r.IntN(2))
	f.DN = int64(r.Uint64()) * int64(r.IntN(2))
	f.AcceptPacked, f.WantAck, f.Shed, f.Resync = pick(), pick(), pick(), pick()
	if pick() {
		f.Node, f.Role, f.Err, f.Trace = str(), str(), str(), str()
	}
	return f
}

func randBytes(r *rng.Source, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(r.Uint64())
	}
	return b
}

// TestFramesRoundTripThroughOneStream: decode(encode(f)) == f for the
// samples and for random valid frames of all nine kinds, written through
// one frameWriter and decoded back to back into one reused Frame — what
// a connection does.
func TestFramesRoundTripThroughOneStream(t *testing.T) {
	r := rng.New(12)
	frames := sampleFrames()
	for i := 0; i < 400; i++ {
		frames = append(frames, randomFrame(r))
	}
	var wire bytes.Buffer
	fw := frameWriter{w: &wire}
	kinds := map[FrameKind]bool{}
	for i := range frames {
		kinds[frames[i].Kind] = true
		if err := fw.write(&frames[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.flush(); err != nil {
		t.Fatal(err)
	}
	for k := FrameReport; k <= FrameAck; k++ {
		if !kinds[k] {
			t.Errorf("no frame of kind %d in the stream", k)
		}
	}
	fr := newFrameReader(&wire, 0)
	var f Frame
	for i := range frames {
		if err := fr.read(&f); err != nil {
			t.Fatalf("frame %d (%+v): %v", i, frames[i], err)
		}
		if !sameFrame(&frames[i], &f) {
			t.Fatalf("frame %d changed in flight\n sent %+v\n got  %+v", i, frames[i], f)
		}
	}
	if err := fr.read(&f); err != io.EOF {
		t.Fatalf("after the last frame: %v, want io.EOF", err)
	}
}

// TestReportFrameSteadyStateAllocs: once the write buffer and the
// decoder's Frame have grown, encoding and decoding a report at m = 1024
// allocates nothing — through the generic encoder and decoder, and
// through the client's fixed-layout encoder and the ingest loop's
// in-place parse folded straight from the read buffer.
func TestReportFrameSteadyStateAllocs(t *testing.T) {
	report := sampleFrames()[0]
	var wire bytes.Buffer
	w := frameWriter{w: &wire}
	r := newFrameReader(&wire, 0)
	var f Frame
	step := func() {
		if err := w.send(&report); err != nil {
			t.Fatal(err)
		}
		if err := r.read(&f); err != nil {
			t.Fatal(err)
		}
	}
	step() // grow buffers, pass the preamble
	if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
		t.Fatalf("report encode+decode allocates %v per frame, want 0", allocs)
	}
	if !sameFrame(&report, &f) {
		t.Fatalf("decoded %+v", f)
	}
	if got, want := len(appendFrame(nil, &report)), 1+1+1+128+2; got != want {
		t.Fatalf("report frame at m=1024 is %d bytes on the wire, want %d", got, want)
	}

	lanes := bitvec.NewLanes(report.Bits)
	counts := make([]int64, report.Bits)
	fast := func() {
		if err := w.writeReport(report.Words, report.Bits, false, ""); err != nil {
			t.Fatal(err)
		}
		if err := w.flush(); err != nil {
			t.Fatal(err)
		}
		rep, err := r.next(&f)
		if err != nil {
			t.Fatal(err)
		}
		if rep.words == nil {
			t.Fatal("a whole untraced report in the read buffer took the generic decoder")
		}
		if err := lanes.AddBytes(rep.words, rep.bits, counts); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(200, fast); allocs != 0 {
		t.Fatalf("fixed-layout encode + in-place parse + fold allocates %v per frame, want 0", allocs)
	}
	lanes.Drain(counts)
	want := make([]int64, report.Bits)
	for range 201 {
		if err := bitvec.AccumulateWordsInto(report.Words, report.Bits, want); err != nil {
			t.Fatal(err)
		}
	}
	if !slices.Equal(counts, want) {
		t.Fatal("reports folded from the read buffer differ from the scalar fold")
	}
}

// TestReportEncoderMatchesAppendFrame pins the client's fixed report
// layout to the generic encoder byte for byte, over every field a
// client report carries: words of any count (none too), any Bits
// (zero and negative too), acked or not, traced or not.
func TestReportEncoderMatchesAppendFrame(t *testing.T) {
	r := rng.New(31)
	for i := 0; i < 2000; i++ {
		f := Frame{Kind: FrameReport, Words: make([]uint64, r.IntN(40)), WantAck: r.IntN(2) == 0}
		for k := range f.Words {
			f.Words[k] = r.Uint64() >> uint(r.IntN(64))
		}
		switch r.IntN(4) {
		case 0:
		case 1:
			f.Bits = -1 - r.IntN(1<<20)
		default:
			f.Bits = 1 + r.IntN(1<<20)
		}
		if r.IntN(3) == 0 {
			f.Trace = string(randBytes(r, 1+r.IntN(200)))
		}
		prefix := randBytes(r, r.IntN(5))
		want := appendFrame(slices.Clone(prefix), &f)
		if got := appendReport(slices.Clone(prefix), f.Words, f.Bits, f.WantAck, f.Trace); !bytes.Equal(got, want) {
			t.Fatalf("frame %+v\n fixed layout % x\n appendFrame  % x", f, got, want)
		}
	}
}

// hostileInputs are short streams whose length prefixes claim far more
// than they carry: 2^40 (over every cap) and exactly the cap.
func hostileInputs() []hostileInput {
	claim := func(kind FrameKind, field uint64, n uint64) []byte {
		b := append(preamble[:], byte(kind))
		b = binary.AppendUvarint(b, field)
		return append(binary.AppendUvarint(b, n), 1, 2, 3)
	}
	return []hostileInput{
		{"words 2^40", claim(FrameReport, hasWords, 1<<40), true},
		{"counts 2^40", claim(FrameBatch, hasCounts, 1<<40), true},
		{"packed 2^40", claim(FrameDeltaPush, hasPacked, 1<<40), true},
		{"mac 2^40", claim(FrameHeartbeat, hasMAC, 1<<40), true},
		{"trace 2^40", claim(FrameReport, hasTrace, 1<<40), true},
		{"words at cap", claim(FrameReport, hasWords, maxWords), false},
		{"counts at cap", claim(FrameBatch, hasCounts, maxCounts), false},
		{"packed at cap", claim(FrameDeltaPush, hasPacked, maxPacked), false},
	}
}

type hostileInput struct {
	name    string
	stream  []byte
	overCap bool // refused as malformed; otherwise the stream just ends early
}

// TestHostileLengthsFailWithoutAllocating: a length prefix is checked
// against its cap before anything is allocated, and a length within the
// cap allocates only as bytes actually arrive.
func TestHostileLengthsFailWithoutAllocating(t *testing.T) {
	for _, in := range hostileInputs() {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := decodeOne(in.stream)
		runtime.ReadMemStats(&after)
		if in.overCap && !errors.Is(err, errMalformed) {
			t.Errorf("%s: err %v, want malformed", in.name, err)
		}
		if !in.overCap && err != io.ErrUnexpectedEOF {
			t.Errorf("%s: err %v, want io.ErrUnexpectedEOF", in.name, err)
		}
		// The reader itself is readBufSize; anything near a cap is a leak.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 4*readBufSize {
			t.Errorf("%s: decoding %d bytes allocated %d", in.name, len(in.stream), grew)
		}
	}
}

// reportFold is how an ingest loop's report path ended on a stream: the
// counts and n of the reports it folded, why it stopped, and how many of
// the stream's bytes it had consumed by then.
type reportFold struct {
	counts   []int64
	n        int64
	verdict  string
	consumed int64
}

// countingReader counts the bytes its reader hands out, chunk at a time
// when chunk > 0 — so frames land across read-buffer edges at varied
// offsets.
type countingReader struct {
	r     io.Reader
	chunk int
	n     int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	if c.chunk > 0 && len(p) > c.chunk {
		p = p[:c.chunk]
	}
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (f *reportFold) stop(verdict string, cr *countingReader, r *frameReader) {
	f.verdict, f.consumed = verdict, cr.n-int64(r.br.Buffered())
}

func verdictOf(err error) string {
	switch {
	case err == io.EOF:
		return "eof"
	case err == io.ErrUnexpectedEOF:
		return "truncated"
	case errors.Is(err, errMalformed):
		return "malformed"
	}
	return "error: " + err.Error()
}

// foldGeneric is the reference: the generic decoder, then each report
// checked against the domain and folded bit by bit.
func foldGeneric(data []byte, m int) reportFold {
	cr := &countingReader{r: bytes.NewReader(data)}
	r := newFrameReader(cr, m)
	out := reportFold{counts: make([]int64, m)}
	var f Frame
	for {
		if err := r.read(&f); err != nil {
			out.stop(verdictOf(err), cr, r)
			return out
		}
		if f.Kind != FrameReport {
			continue
		}
		if f.Bits != m || bitvec.AccumulateWordsInto(f.Words, m, out.counts) != nil {
			out.stop("refused", cr, r)
			return out
		}
		out.n++
	}
}

// foldFast is the ingest handler's report path: next, then an in-place
// report's words staged from the read buffer (AddBytes) and a decoded
// one's from its Frame (AddWords), into the bit-sliced fold a
// server.Batcher runs.
func foldFast(data []byte, m, chunk int) reportFold {
	cr := &countingReader{r: bytes.NewReader(data), chunk: chunk}
	r := newFrameReader(cr, m)
	lanes := bitvec.NewLanes(m)
	out := reportFold{counts: make([]int64, m)}
	var f Frame
	for {
		rep, err := r.next(&f)
		if err != nil {
			lanes.Drain(out.counts)
			out.stop(verdictOf(err), cr, r)
			return out
		}
		switch {
		case rep.words != nil:
			err = lanes.AddBytes(rep.words, rep.bits, out.counts)
		case f.Kind == FrameReport:
			err = lanes.AddWords(f.Words, f.Bits, out.counts)
		default:
			continue
		}
		if err != nil {
			lanes.Drain(out.counts)
			out.stop("refused", cr, r)
			return out
		}
		out.n++
	}
}

// reportStream is a preamble and then the given frames.
func reportStream(frames ...[]byte) []byte {
	b := preamble[:]
	for _, f := range frames {
		b = append(b, f...)
	}
	return b
}

// rawReport writes a report frame field by field, so a seed can spell a
// varint longer than it needs to be.
func rawReport(presence, count []byte, words []uint64, bits []byte) []byte {
	b := append([]byte{byte(FrameReport)}, presence...)
	b = append(b, count...)
	for _, w := range words {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	return append(b, bits...)
}

// fuzzSeed is one named input of the committed corpus.
type fuzzSeed struct {
	name string
	data []byte
}

// fastPathSeeds are the named inputs aimed at the in-place report parse;
// testdata/fuzz/FuzzReadFrame/<name> holds the same bytes, which
// TestFuzzCorpusCommitted checks.
func fastPathSeeds() []fuzzSeed {
	one := []uint64{0x5a}
	plain := appendReport(nil, one, 8, false, "")
	// Printable words keep the committed file readable; 250 reports of
	// 133 bytes put one across the 32 KB read buffer's edge.
	var many [][]byte
	for i := 0; i < 250; i++ {
		words := make([]uint64, 16)
		for k := range words {
			words[k] = 0x4141414141414141 + uint64(i%26)<<(8*(k%8))
		}
		many = append(many, appendReport(nil, words, 1024, i%50 == 49, ""))
	}
	return []fuzzSeed{
		{"fast-report-straddles-read-buffer", reportStream(many...)},
		{"fast-plain-acked-traced", reportStream(plain, appendReport(nil, one, 8, true, ""),
			appendReport(nil, one, 8, false, "0123456789abcdef"), appendReport(nil, one, 8, true, "t"), plain)},
		{"fast-overlong-presence", reportStream(plain, rawReport([]byte{0x83, 0x00}, []byte{1}, one, []byte{0x10}), plain)},
		{"fast-overlong-word-count", reportStream(plain, rawReport([]byte{0x03}, []byte{0x81, 0x00}, one, []byte{0x10}), plain)},
		{"fast-overlong-bits", reportStream(plain, rawReport([]byte{0x03}, []byte{1}, one, []byte{0x90, 0x00}), plain)},
		{"fast-bits-not-m", reportStream(plain, appendReport(nil, one, 9, false, ""), plain)},
		{"fast-acked-bits-not-m", reportStream(plain, appendReport(nil, one, 9, true, ""), plain)},
		{"fast-padding-bits-set", reportStream(plain, appendReport(nil, []uint64{1 << 8}, 8, false, ""), plain)},
		{"fast-word-count-over-domain", reportStream(plain, appendReport(nil, []uint64{1, 2}, 8, false, ""), plain)},
		{"fast-truncated-report", reportStream(plain, plain[:7])},
	}
}

// TestFuzzCorpusCommitted keeps the in-place parse's seeds on disk, so
// the CI fuzz smoke and a plain `go test` start from the same inputs.
func TestFuzzCorpusCommitted(t *testing.T) {
	for _, s := range fastPathSeeds() {
		path := filepath.Join("testdata", "fuzz", "FuzzReadFrame", s.name)
		want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", s.data)
		if got, err := os.ReadFile(path); err != nil || string(got) != want {
			t.Errorf("%s (err %v) should hold:\n%s", path, err, want)
		}
	}
}

// FuzzReadFrame: arbitrary bytes never panic the decoder and never make
// it hold more memory than a small multiple of the input; every frame it
// does accept re-encodes to something that decodes to the same frame.
// Every input also runs through the ingest handler's report path, in
// one read and in chunks, at two domain sizes, and must fold exactly
// what the generic decoder and the scalar fold do: the same counts and
// n, the same end (EOF, truncated, malformed or refused) and the same
// bytes consumed.
func FuzzReadFrame(f *testing.F) {
	for _, s := range sampleFrames() {
		f.Add(encodeOne(&s))
	}
	for _, in := range hostileInputs() {
		f.Add(in.stream)
	}
	for _, s := range fastPathSeeds() {
		f.Add(s.data)
	}
	f.Add([]byte("not a frame at all"))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := newFrameReader(bytes.NewReader(data), 0)
		var fr Frame
		for {
			err := r.read(&fr)
			// Counts cost 8 bytes of memory per wire byte at worst, and a
			// growing slice at most doubles.
			if held := 8*cap(fr.Words) + 8*cap(fr.Counts) + cap(fr.Packed) + cap(fr.MAC); held > 16*len(data)+readBufSize {
				t.Fatalf("%d input bytes left the decoder holding %d", len(data), held)
			}
			if err != nil {
				break
			}
			back, err := decodeOne(encodeOne(&fr))
			if err != nil {
				t.Fatalf("re-encoded frame does not decode: %v\n%+v", err, fr)
			}
			if !sameFrame(&fr, &back) {
				t.Fatalf("re-encode changed the frame\n first  %+v\n second %+v", fr, back)
			}
		}

		chunk := 1
		if len(data) > 0 {
			chunk += 37 * int(data[len(data)-1])
		}
		for _, m := range []int{8, 1024} {
			want := foldGeneric(data, m)
			for _, c := range []int{0, chunk} {
				got := foldFast(data, m, c)
				if got.n != want.n || got.verdict != want.verdict || got.consumed != want.consumed || !slices.Equal(got.counts, want.counts) {
					t.Fatalf("m=%d chunk=%d: report path folded n=%d (%s after %d bytes), generic n=%d (%s after %d bytes), counts equal %v",
						m, c, got.n, got.verdict, got.consumed, want.n, want.verdict, want.consumed, slices.Equal(got.counts, want.counts))
				}
			}
		}
	})
}

// Package transport implements a minimal network deployment of the
// collection pipeline: users (clients) stream perturbed reports to an
// aggregation server over TCP as self-delimiting binary frames. Only
// perturbed data ever crosses the wire, matching the paper's threat
// model — the server is untrusted and never sees raw inputs.
//
// A frame carries one report (the packed words of a bit vector), a
// pre-summed batch (per-bit counts plus a user count) — which lets heavy
// clients aggregate locally and ship O(m) bytes total — or a snapshot
// request, answered with a snapshot frame holding the server's current
// merged counts; the fleet merger (internal/fleet) polls these to build
// an exact cross-node aggregate. Snapshot replies are varpack-compressed
// when the requester asks for it (Frame.AcceptPacked). The same frames
// carry the fleet control plane (registry.go): framed TCP is the one
// carrier between fleet peers, and HTTP (internal/httpapi) serves only
// clients.
//
// # Wire layout
//
// Each direction of a connection starts with a 4-byte preamble, "IDF"
// plus a version byte (1); a peer that sends anything else is dropped on
// those four bytes. Frames follow back to back:
//
//	kind      1 byte, a FrameKind (1..9)
//	presence  uvarint bitmap, bit i set iff the i-th Frame field after
//	          Kind is non-zero (non-empty for slices and strings)
//	fields    the present fields in declaration order:
//	          Words            uvarint count, then count x 8 bytes, each a
//	                           little-endian uint64 (m = 1024: 128 bytes)
//	          Counts           uvarint count, then count zigzag varints
//	          int, int64       zigzag varint
//	          uint64           uvarint
//	          []byte, string   uvarint length, then the bytes
//	          bool             nothing: the presence bit is the value
//
// A report at m = 1024 is 133 bytes. There is no per-frame length: a
// decoder knows every field's extent from its prefix, and checks that
// prefix against a cap before it allocates or reads anything: Words at
// most 2^18 (a 2^24-bit domain), Counts 2^24, Packed 64 MB, MAC 64
// bytes, strings 4 KB. A reader that knows its domain m — an ingest
// server, or a merger polling an m-bit node (FetchSnapshot) — tightens
// the first three to it: Words <= ceil(m/64), Counts <= m, Packed <=
// 10(m+1)+1 bytes, the largest m-count varpack payload. A preamble
// mismatch, an unknown kind, a presence bit past the last known field or
// a length over its cap ends the connection, as does a report or batch
// the runtime refuses (Bits != m, counts outside [0, n]); the server
// counts each such drop in ingest_malformed_total and keeps serving
// everyone else.
//
// Compatibility is the version byte: fields may be appended to Frame
// under the same version only if every deployed decoder already knows
// them, because an unknown presence bit is an error, not something to
// skip. Anything else bumps the version.
//
// # Flush rule
//
// Writes are coalesced. SendReport and SendBatch copy the frame into the
// connection's write buffer and return — the caller may overwrite its
// vector immediately. The buffer goes to the socket in one Write when it
// reaches 32 KB, before the client reads anything (SendReportAck,
// SendBatchAck, Snapshot), on Client.Flush and on Client.Close. There is
// no timer: a client that streams fewer than 32 KB and then goes quiet
// must Flush (or Close) for the server to see the tail. Replies (acks,
// snapshots, control-plane answers) are flushed as they are written.
// SendReport and SendReportAck write a report's fixed layout directly;
// the bytes are exactly the generic encoding's.
//
// # Ingest
//
// Ingestion runs on the sharded runtime of internal/server: each
// connection handler owns one server.Batcher, for plain and acked frames
// alike, that folds reports into bit-sliced counters and ships a batch
// to a shard worker when it fills, so the per-report path takes no lock
// and the server scales with GOMAXPROCS. Tune it with server.Option
// values passed to Serve.
//
// An acked frame is admitted (or pushed back with a shed ack), folded
// into that batcher, and the batcher is flushed before the ack is
// written. So an ack covers every report this connection sent before it,
// not only the acked frame: all of them are visible to a later Snapshot
// and survive the connection dying. That flush blocks on full shard
// queues and never sheds; the batcher's own auto-flushes of plain
// reports keep the runtime's placement, which may shed under saturation
// (server.WithAdaptiveBatch).
//
// An untraced report that is already whole in the connection's read
// buffer is parsed there in place and its words are folded straight
// from the buffer's bytes; every other frame goes through the generic
// decoder, which accepts and refuses exactly the same streams.
package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"idldp/internal/agg"
	"idldp/internal/bitvec"
	"idldp/internal/flow"
	"idldp/internal/registry"
	"idldp/internal/server"
	"idldp/internal/telemetry"
	"idldp/internal/varpack"
)

// FrameKind discriminates the payload of a Frame.
type FrameKind uint8

const (
	// FrameReport carries one perturbed report.
	FrameReport FrameKind = 1
	// FrameBatch carries a pre-summed batch of reports.
	FrameBatch FrameKind = 2
	// FrameSnapshotRequest asks the server for its current merged state;
	// the server replies with a FrameSnapshot on the same connection.
	FrameSnapshotRequest FrameKind = 3
	// FrameSnapshot is the server's reply: the merged per-bit counts, the
	// user count, and the domain size.
	FrameSnapshot FrameKind = 4

	// Control-plane frames (the fleet registry protocol; see
	// internal/registry and registry.go in this package):

	// FrameRegister announces a node to a merger; answered with a
	// FrameRegisterAck on the same connection.
	FrameRegister FrameKind = 5
	// FrameRegisterAck carries the session grant (or Err).
	FrameRegisterAck FrameKind = 6
	// FrameHeartbeat keeps a registration alive; answered with FrameAck.
	FrameHeartbeat FrameKind = 7
	// FrameDeltaPush ships one varpack-packed snapshot delta (or full
	// resync) node→merger; answered with FrameAck.
	FrameDeltaPush FrameKind = 8
	// FrameAck acknowledges a control-plane frame; Err is empty on
	// success. It is also the reply to a snapshot request that fails
	// authentication.
	FrameAck FrameKind = 9
)

// Frame is the wire message: one struct for all nine kinds, each kind
// using the fields its comment names and leaving the rest zero. Zero
// fields are not sent (see the package doc for the layout), so a report
// costs its words plus five bytes. Field order is wire order: append new
// fields at the end, and see the package doc's compatibility rule first.
//
// AcceptPacked/Packed negotiate the compact snapshot encoding: a
// requester that wants varpack-packed counts sets AcceptPacked on its
// snapshot request and is answered with Packed instead of Counts; one
// that does not is answered with plain Counts.
type Frame struct {
	Kind   FrameKind
	Words  []uint64 // FrameReport: packed bit vector
	Bits   int      // FrameReport: vector length; FrameSnapshot/FrameRegister: domain size
	Counts []int64  // FrameBatch / FrameSnapshot: per-bit counts
	N      int64    // FrameBatch / FrameSnapshot: users summed; FrameDeltaPush: cumulative n

	// AcceptPacked, on FrameSnapshotRequest, asks for a packed reply.
	AcceptPacked bool
	// Packed is the frame's packed payload: varpack snapshot counts on
	// FrameSnapshot, the delta (or resync counts) on FrameDeltaPush, and
	// an optional packed telemetry snapshot (telemetry.Snapshot.Pack,
	// MAC-covered) on FrameHeartbeat.
	Packed []byte

	// Auth envelope (control-plane frames, and FrameSnapshotRequest when
	// the server requires snapshot auth): the sender's name, session,
	// signing timestamp and HMAC (see registry.Authenticator).
	Node     string
	Session  uint64
	TimeNano int64
	MAC      []byte

	// WantAck, on FrameReport/FrameBatch, asks the server to confirm the
	// frame with a FrameAck — the flow-controlled ingest mode: the reply
	// either accepts the frame or pushes back with Shed, and the sender
	// must not re-send an accepted frame (acks gate re-send, giving
	// exactly-once delivery without dedup).
	WantAck bool
	// Shed, on FrameAck, is the pushback signal: the server refused the
	// frame (saturated or draining) and the sender still owns it —
	// back off and retry. RetryAfterNano is the server's backoff hint.
	Shed           bool
	RetryAfterNano int64

	// Role, on FrameRegister, is the informational member kind.
	Role string
	// HeartbeatNano, on FrameRegisterAck, is the advertised cadence.
	HeartbeatNano int64
	// Seq, Resync, DN describe a FrameDeltaPush (registry.PushFrame).
	Seq    uint64
	Resync bool
	DN     int64
	// Err, on FrameRegisterAck / FrameAck, is the wire form of the
	// control-plane error ("" = success; registry.Errs maps it back).
	Err string

	// Trace, on FrameReport/FrameBatch/FrameDeltaPush, is the trace
	// context of the report batch this frame carries (or, on a delta
	// push, the representative trace of the interval). It follows one
	// batch from the client edge through ingest, fold, delta publish
	// and every merger tier (see internal/telemetry).
	Trace string
}

// ServeOption tunes a transport Server.
type ServeOption func(*Server)

// WithSnapshotAuth requires every snapshot request to carry a valid
// HMAC for the fleet token (see registry.Authenticator) — the
// authenticated-snapshot half of fleet hardening. Ingest frames are
// unaffected: they carry only perturbed data.
func WithSnapshotAuth(a *registry.Authenticator) ServeOption {
	return func(s *Server) { s.snapAuth = a }
}

// Server accepts report streams and aggregates them on the sharded
// ingestion runtime.
type Server struct {
	lis      net.Listener
	sink     *server.Server
	bits     int
	snapAuth *registry.Authenticator

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
}

// Serve starts an aggregation server for m-bit reports on addr (use
// "127.0.0.1:0" for an ephemeral port). Options tune the sharded
// runtime, e.g. server.WithShards and server.WithBatchSize.
func Serve(addr string, bits int, opts ...server.Option) (*Server, error) {
	sink, err := server.New(bits, opts...)
	if err != nil {
		return nil, fmt.Errorf("transport: %w", err)
	}
	return ServeSink(addr, sink)
}

// ServeSink serves an already-built ingestion runtime — the hook for
// runtimes constructed with server.Restore (durable collectors that
// resume mid-campaign). The transport takes ownership of sink: Close
// closes it, and a failed listen closes it immediately.
func ServeSink(addr string, sink *server.Server, opts ...ServeOption) (*Server, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		sink.Close()
		return nil, fmt.Errorf("transport: %w", err)
	}
	return ServeSinkListener(lis, sink, opts...), nil
}

// ServeSinkListener serves an ingestion runtime on an already-open
// listener — the hook for wrapping the accept path (fault injection,
// custom sockets). Ownership of lis and sink passes to the Server.
func ServeSinkListener(lis net.Listener, sink *server.Server, opts ...ServeOption) *Server {
	s := &Server{
		lis:   lis,
		sink:  sink,
		bits:  sink.Bits(),
		conns: make(map[net.Conn]struct{}),
	}
	for _, opt := range opts {
		opt(s)
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// BeginDrain flips the ingestion runtime into graceful-drain mode: new
// acked frames are pushed back with the shed signal (un-acked legacy
// streams keep landing until Close), so flow-controlled senders fail
// over while in-flight batches finish. See server.BeginDrain.
func (s *Server) BeginDrain() { s.sink.BeginDrain() }

// Addr returns the listening address.
func (s *Server) Addr() string { return s.lis.Addr().String() }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.lis.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.handle(conn)
	}
}

func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	// One batcher for plain and acked frames alike (see the package
	// doc's Ingest section).
	batcher := s.sink.NewBatcher()
	defer func() {
		_ = batcher.Flush() // ship the partial batch of a finished stream
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	r := newFrameReader(conn, s.bits)
	w := frameWriter{w: conn}
	ack := func(f Frame) bool {
		f.Kind = FrameAck
		return w.send(&f) == nil
	}
	// One Frame for the whole stream, decoded in place: once its slices
	// have grown, the generic decode path allocates nothing per frame.
	// Untraced reports skip it: next parses them in the read buffer and
	// AddBytes folds their words from there.
	var f Frame
	for {
		rep, err := r.next(&f)
		if err != nil {
			if errors.Is(err, errMalformed) {
				s.sink.NoteMalformed()
			}
			return // EOF, a failed connection or a malformed stream ends it
		}
		if rep.words != nil {
			if !s.ingest(batcher, ack, rep.wantAck, 1, func() error { return batcher.AddBytes(rep.words, rep.bits) }) {
				return
			}
			continue
		}
		if f.Trace != "" && (f.Kind == FrameReport || f.Kind == FrameBatch) {
			// Representative trace: the latest traced batch stamps the
			// deltas this runtime publishes next.
			s.sink.NoteTrace(f.Trace)
		}
		switch f.Kind {
		case FrameReport:
			if !s.ingest(batcher, ack, f.WantAck, 1, func() error { return batcher.AddWords(f.Words, f.Bits) }) {
				return
			}
		case FrameBatch:
			if !s.ingest(batcher, ack, f.WantAck, f.N, func() error { return batcher.AddCounts(f.Counts, f.N) }) {
				return
			}
		case FrameSnapshotRequest:
			if err := s.snapAuth.Verify(f.MAC, registry.KindSnapshot, f.Node, 0, f.TimeNano, nil, time.Now()); err != nil {
				// Refuse the read but keep the connection: its ingest
				// frames carry only perturbed data and stay welcome.
				if !ack(Frame{Err: err.Error()}) {
					return
				}
				continue
			}
			// Flush first so the requester's own reports are included.
			if batcher.Flush() != nil {
				return
			}
			counts, n := s.sink.Snapshot()
			snap := Frame{Kind: FrameSnapshot, N: n, Bits: s.bits}
			if f.AcceptPacked {
				snap.Packed = varpack.Pack(counts)
			} else {
				snap.Counts = counts
			}
			if w.send(&snap) != nil {
				return
			}
		default:
			s.sink.NoteMalformed() // a well-formed frame no ingest server takes
			return
		}
	}
}

// ingest runs the contract of one report or batch frame of n reports;
// add stages its content in the connection's batcher. A plain frame is
// staged, and one the runtime refuses ends the connection. An acked
// frame is admitted first — or pushed back with a shed ack, folding
// nothing — then staged and flushed before the ack: an ack promises that
// the frame, and everything the connection sent before it, is visible
// to a subsequent Snapshot and survives the connection dying right
// after. The flush of an admitted batch may block on full queues, which
// is the backpressure an acked sender signed up for; it never sheds. A
// refused acked frame is answered with its error and the connection
// stays. ingest returns false when the connection must end.
func (s *Server) ingest(b *server.Batcher, ack func(Frame) bool, wantAck bool, n int64, add func() error) bool {
	if !wantAck {
		if err := add(); err != nil {
			s.noteRefused(err)
			return false
		}
		return true
	}
	if err := b.Admit(n); err != nil {
		return ack(Frame{Shed: true, RetryAfterNano: int64(server.DefaultRetryAfter)})
	}
	if err := add(); err != nil {
		if errors.Is(err, server.ErrClosed) {
			return false
		}
		return ack(Frame{Err: err.Error()})
	}
	if b.Flush() != nil {
		return false // runtime closed mid-flush; no ack, the sender retries elsewhere
	}
	return ack(Frame{})
}

// noteRefused counts a connection about to be dropped because the
// runtime refused its frame's content (wrong domain size, counts outside
// [0, n]) — unless the runtime merely closed under it.
func (s *Server) noteRefused(err error) {
	if !errors.Is(err, server.ErrClosed) {
		s.sink.NoteMalformed()
	}
}

// Snapshot returns the current aggregated per-bit counts and user count.
// In-flight frames not yet flushed by their connection handlers are not
// included. After Close it returns the final drained state.
func (s *Server) Snapshot() (counts []int64, n int64) {
	return s.sink.Snapshot()
}

// Stats returns the ingestion runtime's metrics (queue depths, ingest
// counters, checkpoint activity).
func (s *Server) Stats() server.Stats { return s.sink.Stats() }

// Runtime exposes the underlying ingestion runtime, e.g. to trigger
// CheckpointNow on a durable collector.
func (s *Server) Runtime() *server.Server { return s.sink }

// Estimate calibrates the current state into frequency estimates.
func (s *Server) Estimate(a, b []float64, scale float64) ([]float64, error) {
	counts, n := s.Snapshot()
	tmp := agg.New(s.bits)
	if err := tmp.AddCounts(counts, n); err != nil {
		return nil, fmt.Errorf("transport: %w", err)
	}
	return tmp.Estimate(a, b, scale)
}

// Close stops accepting, closes live connections, waits for handlers to
// flush, and drains the ingestion runtime.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	err := s.lis.Close()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	if derr := s.sink.Close(); derr != nil {
		return derr
	}
	return err
}

// Client streams reports to a Server. Sends are buffered (see the
// package doc's flush rule); a Client is not safe for concurrent use.
type Client struct {
	conn net.Conn
	w    frameWriter
	r    *frameReader
	auth *registry.Authenticator

	// Flow control for the acked send paths (SetRetryPolicy; defaults
	// lazily to flow.Default with a time-seeded Rand).
	policy flow.Policy
	rand   flow.Rand
	fstats flow.Stats

	// Trace context stamped onto outgoing ingest frames (SetTrace) and
	// the backoff-sleep histogram (SetTelemetry); both optional.
	trace    string
	hBackoff *telemetry.Histogram
}

// Dial connects to an aggregation server.
func Dial(ctx context.Context, addr string) (*Client, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: %w", err)
	}
	return newClient(conn), nil
}

func newClient(conn net.Conn) *Client {
	return &Client{conn: conn, w: frameWriter{w: conn}, r: newFrameReader(conn, 0)}
}

// SetDeadline bounds every subsequent read and write on the connection —
// pollers use it to keep a dead node from blocking Snapshot forever.
func (c *Client) SetDeadline(t time.Time) error { return c.conn.SetDeadline(t) }

// SetAuth makes every subsequent Snapshot request carry the fleet-token
// HMAC a WithSnapshotAuth server demands (nil keeps requests plain).
func (c *Client) SetAuth(a *registry.Authenticator) { c.auth = a }

// SetTrace stamps the given trace ID onto every subsequent ingest frame
// ("" stops stamping). Mint one per report batch with
// telemetry.NewTraceID so the batch is followable across tiers.
func (c *Client) SetTrace(id string) { c.trace = id }

// SetTelemetry wires the client's flow control into a metrics registry:
// each backoff sleep on the acked send path records into the
// retry_backoff histogram. nil registry is a no-op.
func (c *Client) SetTelemetry(reg *telemetry.Registry) {
	c.hBackoff = reg.Histogram("retry_backoff",
		"Time an acked sender sleeps between a shed pushback and its retry.")
}

// Snapshot asks the server for its current merged state. The reply is
// consistent with every frame this client has already sent (the write
// buffer is flushed with the request, and the server flushes the
// connection's batcher before answering). The request sets AcceptPacked,
// so the server answers with the compact varpack payload; a plain Counts
// reply decodes the same.
func (c *Client) Snapshot() (counts []int64, n int64, bits int, err error) {
	return c.snapshot(0)
}

// FetchSnapshot is one merger poll of the server at addr (see
// internal/fleet): a snapshot request, signed when auth is non-nil, on a
// fresh connection bounded by ctx's deadline, so a node restart never
// wedges the poller on a dead stream. The reply is read as an m-bit
// node's, m = bits: its length prefixes are capped from m, and a reply
// for another domain size, or a packed payload declaring another count,
// is refused before it is decoded. Whatever answers on addr allocates no
// more than a genuine m-bit snapshot would.
func FetchSnapshot(ctx context.Context, addr string, auth *registry.Authenticator, bits int) ([]int64, int64, error) {
	c, err := Dial(ctx, addr)
	if err != nil {
		return nil, 0, err
	}
	defer c.Close()
	c.r = newFrameReader(c.conn, bits)
	deadline, _ := ctx.Deadline() // the zero time sets none
	if err := c.SetDeadline(deadline); err != nil {
		return nil, 0, err
	}
	c.SetAuth(auth)
	counts, n, _, err := c.snapshot(bits)
	return counts, n, err
}

// snapshot is Snapshot refusing, when m > 0, a reply for any domain size
// but m.
func (c *Client) snapshot(m int) (counts []int64, n int64, bits int, err error) {
	req := Frame{Kind: FrameSnapshotRequest, AcceptPacked: true}
	if c.auth != nil {
		req.TimeNano = time.Now().UnixNano()
		req.MAC = c.auth.Sign(registry.KindSnapshot, "", 0, req.TimeNano, nil)
	}
	var f Frame
	if err := exchange(&c.w, c.r, &req, &f); err != nil {
		return nil, 0, 0, err
	}
	if f.Kind == FrameAck {
		return nil, 0, 0, fmt.Errorf("transport: snapshot refused: %w", registry.Errs(f.Err))
	}
	if f.Kind != FrameSnapshot {
		return nil, 0, 0, fmt.Errorf("transport: unexpected frame kind %d in snapshot reply", f.Kind)
	}
	if m > 0 && f.Bits != m {
		return nil, 0, 0, fmt.Errorf("transport: node has %d bits, want %d", f.Bits, m)
	}
	if len(f.Packed) > 0 {
		// Every payload version declares its count after the version
		// byte, and Unpack sizes its slice by it: check it first.
		if declared, k := binary.Uvarint(f.Packed[1:]); k <= 0 || declared != uint64(f.Bits) {
			return nil, 0, 0, fmt.Errorf("transport: packed snapshot declares %d counts for %d bits", declared, f.Bits)
		}
		counts, err := varpack.Unpack(f.Packed)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("transport: %w", err)
		}
		return counts, f.N, f.Bits, nil
	}
	if len(f.Counts) != f.Bits {
		return nil, 0, 0, fmt.Errorf("transport: snapshot has %d counts for %d bits", len(f.Counts), f.Bits)
	}
	return f.Counts, f.N, f.Bits, nil
}

// SendReport queues one perturbed report. v is copied into the write
// buffer, so the caller may overwrite it as soon as SendReport returns;
// the report reaches the server with the next flush (see Flush).
func (c *Client) SendReport(v *bitvec.Vector) error {
	return c.w.writeReport(v.Words(), v.Len(), false, c.trace)
}

// SendBatch queues a locally aggregated batch; see SendReport.
func (c *Client) SendBatch(a *agg.Aggregator) error {
	return c.w.write(&Frame{Kind: FrameBatch, Counts: a.Counts(), N: a.N(), Trace: c.trace})
}

// Flush writes every queued frame to the connection. Sends flush by
// themselves only when the buffer fills or the client is about to read a
// reply (the acked sends, Snapshot); call Flush after the last SendReport
// or SendBatch of a burst, and check its error — that is where a lost
// tail shows. Close flushes too.
func (c *Client) Flush() error { return c.w.flush() }

// SetRetryPolicy configures the acked send paths' flow control: the
// backoff schedule and a deterministic jitter seed. Without it, acked
// sends use flow defaults with a time-seeded jitter.
func (c *Client) SetRetryPolicy(p flow.Policy, seed uint64) {
	c.policy = p
	c.rand = flow.NewRand(seed)
}

// FlowStats reports the acked send paths' flow-control activity:
// attempts, sheds observed, retries, total backoff slept.
func (c *Client) FlowStats() flow.Stats { return c.fstats }

// SendReportAck ships one perturbed report flow-controlled: the server
// either accepts it (ack) or pushes back (shed), in which case the
// client backs off with full jitter — honoring the server's Retry-After
// hint as a floor — and re-sends. The report is delivered exactly once:
// an accepted frame is never re-sent, a shed frame was never folded.
func (c *Client) SendReportAck(ctx context.Context, v *bitvec.Vector) error {
	return c.sendAcked(ctx, &Frame{Kind: FrameReport, Words: v.Words(), Bits: v.Len(), WantAck: true, Trace: c.trace})
}

// SendBatchAck ships a locally aggregated batch flow-controlled; see
// SendReportAck for the delivery contract.
func (c *Client) SendBatchAck(ctx context.Context, a *agg.Aggregator) error {
	return c.sendAcked(ctx, &Frame{Kind: FrameBatch, Counts: a.Counts(), N: a.N(), WantAck: true, Trace: c.trace})
}

// sendAcked is the shared acked-send retry loop. It speaks the shed
// protocol directly (rather than through flow.Do) because the backoff
// floor arrives at runtime in each shed ack's Retry-After hint.
func (c *Client) sendAcked(ctx context.Context, f *Frame) error {
	p := c.policy.WithDefaults()
	if c.rand == nil {
		c.rand = flow.NewRand(uint64(time.Now().UnixNano()))
	}
	// Every exit clears the per-attempt deadline: the server keeps a
	// connection open after refusing a frame, and a deadline left armed
	// would fail the next send or Snapshot on it.
	defer c.conn.SetDeadline(time.Time{})
	for attempt := 0; ; attempt++ {
		c.fstats.Attempts++
		if err := c.conn.SetDeadline(time.Now().Add(p.PerAttempt)); err != nil {
			return fmt.Errorf("transport: %w", err)
		}
		if err := c.queue(f); err != nil {
			return err
		}
		if err := c.w.flush(); err != nil {
			return err
		}
		var ack Frame
		if err := c.r.read(&ack); err != nil {
			return fmt.Errorf("transport: read: %w", err)
		}
		if ack.Kind != FrameAck {
			return fmt.Errorf("transport: unexpected frame kind %d in ingest ack", ack.Kind)
		}
		if ack.Err != "" {
			return fmt.Errorf("transport: report refused: %s", ack.Err)
		}
		if !ack.Shed {
			return nil
		}
		c.fstats.Sheds++
		if attempt+1 >= p.Attempts {
			return fmt.Errorf("transport: %w", flow.ErrExhausted)
		}
		hinted := p
		hinted.Floor = time.Duration(ack.RetryAfterNano)
		d := hinted.Delay(c.rand, attempt)
		c.fstats.Backoff += d
		c.hBackoff.Observe(d)
		if !flow.Sleep(ctx, d) {
			return ctx.Err()
		}
		c.fstats.Retries++
	}
}

// queue copies f into the write buffer: a report by its fixed layout,
// anything else through the generic encoder.
func (c *Client) queue(f *Frame) error {
	if f.Kind == FrameReport {
		return c.w.writeReport(f.Words, f.Bits, f.WantAck, f.Trace)
	}
	return c.w.write(f)
}

// Close flushes the write buffer and closes the connection. A flush
// error is returned in preference to the close error: it means queued
// reports never left. The server keeps everything it already decoded.
func (c *Client) Close() error {
	ferr := c.w.flush()
	err := c.conn.Close()
	if ferr != nil {
		return ferr
	}
	if err != nil && !errors.Is(err, io.ErrClosedPipe) {
		return err
	}
	return nil
}

// Package server is the sharded, batched ingestion runtime behind every
// concurrent deployment of the collection pipeline (the framed TCP transport,
// the HTTP/JSON API, and the in-process collect harness). It scales the
// single-goroutine agg.Aggregator to many concurrent producers without
// putting a lock on the hot path:
//
//   - N shard workers (default GOMAXPROCS) each own a private
//     agg.Aggregator. A shard's state is touched only by its worker
//     goroutine, so ingestion is lock-free by construction.
//   - Producers feed shards over buffered channels. A full queue blocks
//     the producer — backpressure instead of unbounded memory.
//   - Producers batch: a Batcher sums reports with the bit-sliced lane
//     fold of internal/bitvec (bitvec.Lanes). A report is validated and
//     staged; every 16 staged reports go through one carry-save-adder
//     tree per 64-bit word column into vertical counters, so the
//     per-report cost is a few word operations per report word — not one
//     step per set bit — with no channel send and no allocation.
//   - A flush of a batch that holds only folded reports ships the fold
//     itself: the *bitvec.Lanes goes to the shard, which adds its planes
//     into the shard's own fold (bitvec.Lanes.AddLanes) without
//     expanding either into counts. The shard drains that fold into its
//     Aggregator only before the sum could pass bitvec.LaneCap, before
//     it answers a snapshot marker, and when it stops — so a batch of
//     any size costs the producer no drain and the shard a few hundred
//     word operations.
//   - A batch that also holds Batcher.AddCounts content, or whose fold
//     spilled (a batch target above the plane cap), ships as a []int64
//     counts frame instead: Flush drains the fold into the frame, and
//     the shard folds it through Aggregator.AddCounts.
//   - Both are recycled: the shard worker hands each fold it has emptied
//     and each frame it has folded to a per-Server free list, and the
//     next Flush takes one from there instead of allocating. This is why
//     AddCounts owns the slice it is given.
//   - Snapshot pushes a marker through every shard queue and merges the
//     replies, so reads are consistent with all previously enqueued
//     ingestion while new reports keep flowing.
//
// Because per-bit counts are integer sums, the merged result is invariant
// to how reports were sharded or batched: Estimates computed from a
// Snapshot are bit-for-bit identical to a single-goroutine Aggregator fed
// the same reports in any order.
//
// The same order-independence makes durability exact: WithCheckpoint
// periodically persists the merged counts via internal/checkpoint, and
// Restore rebuilds a runtime whose state — and therefore whose estimates
// — is bit-for-bit what an uninterrupted collector would hold for the
// same reports. Stats exposes queue depths and ingest counters for
// liveness monitoring (the fleet merger builds on both).
package server

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"idldp/internal/agg"
	"idldp/internal/bitvec"
	"idldp/internal/checkpoint"
	"idldp/internal/stream"
	"idldp/internal/telemetry"
)

// ErrClosed is returned by ingestion calls after Close.
var ErrClosed = errors.New("server: closed")

// ErrSaturated is the pushback signal: the runtime is shedding (the
// arrival rate pinned the adaptive batch target at its maximum and the
// shard queues are full, or an operator forced saturation) and the
// caller should back off and retry instead of re-sending blindly.
var ErrSaturated = errors.New("server: saturated")

// ErrDraining is the pushback signal during graceful shutdown: the
// runtime no longer admits new external reports (in-flight internal
// flushes still land) and the caller should fail over to another
// collector or retry after the restart.
var ErrDraining = errors.New("server: draining")

// DefaultRetryAfter is the backoff hint a pushed-back sender is handed
// (the Retry-After header on HTTP 429, the retry hint on shed acks):
// roughly one adaptive-retarget interval, enough for pressure readings
// to change.
const DefaultRetryAfter = 250 * time.Millisecond

// Default tuning: batches of 256 reports amortize the channel send to
// noise while keeping worst-case staleness per producer small, and a
// 4-deep queue per shard absorbs bursts without letting queues grow
// unboundedly ahead of the workers.
const (
	DefaultBatchSize  = 256
	DefaultQueueDepth = 4
	// DefaultCheckpointInterval paces the periodic checkpoint loop when
	// WithCheckpoint is given a non-positive interval.
	DefaultCheckpointInterval = time.Minute
	// DefaultStreamInterval paces the delta publisher when WithStream is
	// given a non-positive interval.
	DefaultStreamInterval = time.Second
	// DefaultRateTau is the EWMA time constant of the report-arrival-rate
	// gauge: samples older than a few tau barely contribute.
	DefaultRateTau = 10 * time.Second
	// DefaultAdaptInterval paces the adaptive-batch retarget loop.
	DefaultAdaptInterval = time.Second
	// adaptFramesPerShard is the frame rate the adaptive sizer aims each
	// shard at: batch = rate / (shards × this), clamped to [min, max].
	// ~100 frames/s keeps the channel-send cost negligible while bounding
	// producer-side staleness to ~10ms at any sustained rate.
	adaptFramesPerShard = 100
)

type options struct {
	shards         int
	batchSize      int
	queueDepth     int
	adaptive       bool
	adaptMin       int
	adaptMax       int
	ckptDir        string
	ckptInterval   time.Duration
	ckptKeep       int
	streaming      bool
	streamInterval time.Duration
	auditEvery     int
	resumeCounts   []int64
	resumeN        int64
	resumeSeq      uint64
	resume         bool
	tel            *telemetry.Registry
}

// Option tunes a Server.
type Option func(*options)

// WithShards sets the number of shard workers. n <= 0 selects
// runtime.GOMAXPROCS(0).
func WithShards(n int) Option { return func(o *options) { o.shards = n } }

// WithBatchSize sets how many reports a Batcher accumulates before
// shipping one frame to a shard. k <= 0 selects DefaultBatchSize.
func WithBatchSize(k int) Option { return func(o *options) { o.batchSize = k } }

// WithQueueDepth sets the per-shard channel buffer, in frames. d <= 0
// selects DefaultQueueDepth.
func WithQueueDepth(d int) Option { return func(o *options) { o.queueDepth = d } }

// WithAdaptiveBatch sizes Batcher frames from the observed arrival rate
// instead of a fixed WithBatchSize: every DefaultAdaptInterval the EWMA
// rate gauge retargets the batch to rate/(shards×~100 frames/s),
// clamped to [min, max] (min <= 0 selects 1, max < min selects min). A
// quiet campaign ships small, fresh frames; a flooded one amortizes the
// channel send over ever-larger batches. When the observed rate pushes
// the unclamped target past max — batching cannot amortize any further
// — and every shard queue is still full, the runtime sheds the frame
// instead of blocking the producer; dropped reports only shrink n (the
// estimates stay unbiased), and Stats counts them so operators see the
// overload. Below that point a full queue still blocks (backpressure),
// so transient bursts never lose reports.
func WithAdaptiveBatch(min, max int) Option {
	return func(o *options) {
		o.adaptive = true
		if min <= 0 {
			min = 1
		}
		if max < min {
			max = min
		}
		o.adaptMin, o.adaptMax = min, max
	}
}

// WithCheckpoint enables durable snapshots: every interval (<= 0 selects
// DefaultCheckpointInterval) the merged per-shard counts are written
// atomically to dir as a versioned, CRC-protected frame, and Close
// writes a final frame after the drain. Restore resumes from the newest
// valid frame with bit-identical counts — checkpointing is exact because
// per-bit counts are order-independent integer sums.
func WithCheckpoint(dir string, interval time.Duration) Option {
	return func(o *options) {
		o.ckptDir = dir
		o.ckptInterval = interval
	}
}

// WithCheckpointRetention keeps the newest k checkpoint frames on disk
// (k <= 0 selects checkpoint.DefaultKeep).
func WithCheckpointRetention(k int) Option { return func(o *options) { o.ckptKeep = k } }

// WithStream turns the server into a delta publisher: every interval
// (<= 0 selects DefaultStreamInterval) it snapshots the merged state and
// publishes the sparse difference to Subscribe-rs as a stream.Delta, so
// dashboards maintain calibrated estimates in O(changed bits) per
// interval (see internal/stream). Slow subscribers are never allowed to
// block ingestion: sends are non-blocking, and a subscriber that falls
// behind is handed a full resync frame instead (drop-and-resync). Ticks
// with no new reports publish nothing. Close publishes a final resync of
// the drained state before subscriber channels close.
func WithStream(interval time.Duration) Option {
	return func(o *options) {
		o.streaming = true
		o.streamInterval = interval
	}
}

// WithStreamAudit makes every k-th published delta frame carry the full
// cumulative counts so subscribers can verify their accumulated state
// bit for bit (k <= 0 keeps stream.DefaultAuditEvery).
func WithStreamAudit(k int) Option { return func(o *options) { o.auditEvery = k } }

// WithStreamResume seeds the delta publisher with a prior cumulative
// state and sequence number (see stream.WithResume) — the restart hook
// for servers whose interval history is persisted by generation
// (internal/history): a restored server keeps numbering its frames
// where the log left off, and its first resync carries the restored
// state instead of a spurious zero. Requires WithStream.
func WithStreamResume(counts []int64, n int64, seq uint64) Option {
	return func(o *options) {
		o.resume = true
		o.resumeCounts = counts
		o.resumeN = n
		o.resumeSeq = seq
	}
}

// WithTelemetry wires the runtime into a metrics registry: the ingest,
// shed, checkpoint, and stream counters register as live views (the
// Stats JSON shape is untouched — /metrics becomes the superset), and
// the per-stage latency histograms (ingest queue wait, shard fold,
// checkpoint write) start recording. One runtime per registry: the
// views are closures over this server's counters. nil is a valid no-op,
// so call sites can thread an optional registry without branching.
func WithTelemetry(reg *telemetry.Registry) Option { return func(o *options) { o.tel = reg } }

// shardMsg is one frame on a shard queue: exactly one of a raw report, a
// pre-summed batch (counts+n), a batch still in its bit-sliced fold
// (lanes+n), or a snapshot marker.
type shardMsg struct {
	report *bitvec.Vector
	counts []int64
	lanes  *bitvec.Lanes
	n      int64
	snap   chan<- shardSnap
}

type shardSnap struct {
	counts []int64
	n      int64
}

// shard is one worker's state. Folds handed off by Batcher flushes add
// into fold; when fold nears the plane cap it spills into spill, and
// settle moves both into a. foldN counts the reports in fold and spill.
type shard struct {
	ch    chan shardMsg
	a     *agg.Aggregator
	fold  *bitvec.Lanes
	spill []int64
	foldN int64
}

// settle drains the shard's fold into its aggregator.
func (sh *shard) settle() {
	if sh.foldN == 0 {
		return
	}
	sh.fold.Drain(sh.spill)
	if err := sh.a.AddCounts(sh.spill, sh.foldN); err != nil {
		panic(err) // every count is a sum of foldN validated reports
	}
	clear(sh.spill)
	sh.foldN = 0
}

// Server is the sharded ingestion runtime for m-bit reports. All methods
// are safe for concurrent use. Close must be called to stop the shard
// workers.
type Server struct {
	bits      int
	batchSize int
	shards    []*shard
	next      atomic.Uint64 // round-robin shard cursor
	// free holds count frames the shard workers have finished folding,
	// for Batcher.Flush to clear and refill instead of allocating one
	// per flush; freeLanes holds the handed-off folds they have emptied.
	// Both ends are non-blocking: an empty list allocates, a full one
	// leaves the frame or fold to the garbage collector.
	free      chan []int64
	freeLanes chan *bitvec.Lanes

	// Adaptive batching (zero without WithAdaptiveBatch). shedArmed is
	// set only when the *unclamped* rate-derived target reaches the max
	// — i.e. the observed rate genuinely exceeds what max-sized batches
	// can amortize — so a transient queue-full moment at modest load
	// still gets blocking backpressure, never a silent drop.
	adaptive           bool
	adaptMin, adaptMax int
	curBatch           atomic.Int64
	shedArmed          atomic.Bool
	adaptStop          chan struct{}
	adaptDone          chan struct{}
	adaptOnce          sync.Once
	shedReports        atomic.Int64
	shedFrames         atomic.Int64

	// Flow-control admission state. draining is flipped by BeginDrain
	// (SIGTERM): external surfaces stop admitting new reports while
	// internal flushes still land. forceSat pins the saturation signal
	// on — an operator pushback switch and the deterministic handle the
	// convergence tests use. shedReject* count reports refused with a
	// pushback signal; unlike shedReports these are not data loss — the
	// sender still holds the reports and retries.
	draining          atomic.Bool
	forceSat          atomic.Bool
	shedRejectReports atomic.Int64
	shedRejectFrames  atomic.Int64
	// malformed counts ingest connections a network surface dropped
	// because the peer sent something that is not a valid frame.
	malformed atomic.Int64

	start time.Time

	// Runtime metrics (see Stats). reports counts restored reports too —
	// a restored checkpoint re-enters through the normal ingest path.
	reports atomic.Int64
	frames  atomic.Int64

	// Durability (nil/zero without WithCheckpoint).
	store     *checkpoint.Store
	ckptStop  chan struct{}
	ckptDone  chan struct{}
	ckptOnce  sync.Once
	ckptSaves atomic.Int64
	lastCkpt  atomic.Int64 // UnixNano of the newest frame, 0 = none

	// Streaming (nil/zero without WithStream).
	pub         *stream.Publisher
	streamStop  chan struct{}
	streamDone  chan struct{}
	streamOnce  sync.Once
	publishedAt int64 // reports counter at the last published tick

	// Arrival-rate EWMA, fed by the stream ticker and by Stats reads.
	rate rateGauge

	// Telemetry (all nil without WithTelemetry — the histograms' nil
	// receivers make every Observe a no-op). trace is the
	// representative-trace note: external surfaces call NoteTrace with
	// the trace ID of each batch they fold in, and the stream loop
	// stamps the latest one onto every published delta.
	trace      telemetry.TraceNote
	hQueueWait *telemetry.Histogram
	hFold      *telemetry.Histogram
	hCkpt      *telemetry.Histogram

	mu     sync.RWMutex // guards closed against in-flight sends
	closed bool
	wg     sync.WaitGroup
	// Final merged state, captured by Close once the workers have
	// drained, so reads keep answering on a stopped server.
	finalCounts []int64
	finalN      int64
}

// New starts a sharded ingestion runtime for m-bit reports.
func New(bits int, opts ...Option) (*Server, error) {
	if bits <= 0 {
		return nil, fmt.Errorf("server: report length %d must be positive", bits)
	}
	o := options{}
	for _, opt := range opts {
		opt(&o)
	}
	if o.shards <= 0 {
		o.shards = runtime.GOMAXPROCS(0)
	}
	if o.batchSize <= 0 {
		o.batchSize = DefaultBatchSize
	}
	if o.queueDepth <= 0 {
		o.queueDepth = DefaultQueueDepth
	}
	s := &Server{bits: bits, batchSize: o.batchSize, shards: make([]*shard, o.shards), start: time.Now()}
	// Sized to the frames that can be at the shards at once (queued or
	// being folded): more than that cannot come back before being reused.
	s.free = make(chan []int64, o.shards*(o.queueDepth+1))
	s.freeLanes = make(chan *bitvec.Lanes, o.shards*(o.queueDepth+1))
	s.rate.tau = DefaultRateTau.Seconds()
	if o.adaptive {
		s.adaptive, s.adaptMin, s.adaptMax = true, o.adaptMin, o.adaptMax
		// Start from the configured batch size, clamped into range.
		initial := int64(o.batchSize)
		if initial < int64(o.adaptMin) {
			initial = int64(o.adaptMin)
		}
		if initial > int64(o.adaptMax) {
			initial = int64(o.adaptMax)
		}
		s.curBatch.Store(initial)
	}
	if o.streaming {
		var popts []stream.PubOption
		if o.auditEvery > 0 {
			popts = append(popts, stream.WithAuditEvery(o.auditEvery))
		}
		if o.resume {
			popts = append(popts, stream.WithResume(o.resumeCounts, o.resumeN, o.resumeSeq))
		}
		pub, err := stream.NewPublisher(bits, popts...)
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		s.pub = pub
	}
	if o.ckptDir != "" {
		// Open the store before starting any worker so a bad directory
		// fails fast with nothing to tear down.
		st, err := checkpoint.NewStore(o.ckptDir, o.ckptKeep)
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		s.store = st
	}
	if o.tel != nil {
		s.registerMetrics(o.tel)
	}
	for i := range s.shards {
		sh := &shard{ch: make(chan shardMsg, o.queueDepth), a: agg.New(bits),
			fold: bitvec.NewLanes(bits), spill: make([]int64, bits)}
		s.shards[i] = sh
		s.wg.Add(1)
		go s.worker(sh)
	}
	if s.store != nil {
		interval := o.ckptInterval
		if interval <= 0 {
			interval = DefaultCheckpointInterval
		}
		s.ckptStop, s.ckptDone = make(chan struct{}), make(chan struct{})
		go s.checkpointLoop(interval)
	}
	if s.pub != nil {
		interval := o.streamInterval
		if interval <= 0 {
			interval = DefaultStreamInterval
		}
		s.streamStop, s.streamDone = make(chan struct{}), make(chan struct{})
		go s.streamLoop(interval)
	}
	if s.adaptive {
		s.adaptStop, s.adaptDone = make(chan struct{}), make(chan struct{})
		go s.adaptLoop(DefaultAdaptInterval)
	}
	return s, nil
}

// registerMetrics re-plumbs the runtime's stat surface as registry
// views and creates the stage histograms. The existing atomics stay the
// storage; /metrics reads them through closures at scrape time.
func (s *Server) registerMetrics(reg *telemetry.Registry) {
	s.hQueueWait = reg.Histogram("ingest_queue_wait",
		"Time an ingest frame waits for a shard queue slot (backpressure).")
	s.hFold = reg.Histogram("shard_fold",
		"Time a shard worker spends folding one frame into its aggregator.")
	s.hCkpt = reg.Histogram("checkpoint_write",
		"Time to snapshot the runtime and persist one checkpoint frame.")
	reg.CounterFunc("ingest_reports", "Reports accepted for ingestion (restored checkpoints included).",
		s.reports.Load)
	reg.CounterFunc("ingest_frames", "Frames the accepted reports were shipped in.",
		s.frames.Load)
	reg.CounterFunc("shed_reports", "Reports silently dropped by the saturation guard (data loss).",
		s.shedReports.Load)
	reg.CounterFunc("shed_frames", "Frames silently dropped by the saturation guard.",
		s.shedFrames.Load)
	reg.CounterFunc("shed_reject_reports", "Reports refused at the admission gate with a pushback signal (sender retries).",
		s.shedRejectReports.Load)
	reg.CounterFunc("shed_reject_frames", "Frames refused at the admission gate with a pushback signal.",
		s.shedRejectFrames.Load)
	reg.CounterFunc("ingest_malformed", "Ingest connections dropped for a malformed frame (bad preamble, kind, field, length, or domain size).",
		s.malformed.Load)
	reg.CounterFunc("checkpoints", "Checkpoint frames written.", s.ckptSaves.Load)
	reg.GaugeFunc("arrival_rate_ewma", "EWMA of the report arrival rate in reports/s.",
		func() float64 { return s.rate.observe(s.reports.Load(), time.Now()) })
	reg.GaugeFunc("batch_target", "Current per-producer frame size (adaptive or fixed).",
		func() float64 { return float64(s.batchTarget()) })
	reg.GaugeFunc("queue_depth", "Frames waiting across all shard queues.",
		func() float64 {
			var d int
			for _, sh := range s.shards {
				d += len(sh.ch)
			}
			return float64(d)
		})
	reg.GaugeFunc("stream_subscribers", "Live delta-stream subscriptions.",
		func() float64 {
			if s.pub == nil {
				return 0
			}
			return float64(s.pub.Subscribers())
		})
	reg.GaugeFunc("draining", "1 once graceful drain began, else 0.",
		func() float64 { return boolGauge(s.draining.Load()) })
	reg.GaugeFunc("saturated", "1 while the runtime pushes back on new load, else 0.",
		func() float64 { return boolGauge(s.Saturated()) })
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// NoteTrace records the trace context of a batch an external surface
// folded in; the latest one stamps the next published delta and the
// structured logs along the way (see internal/telemetry).
func (s *Server) NoteTrace(id string) { s.trace.Note(id) }

// LastTrace returns the most recent trace context absorbed, or "".
func (s *Server) LastTrace() string { return s.trace.Last() }

// NoteMalformed records that an external surface dropped an ingest
// connection for a malformed frame (ingest_malformed_total).
func (s *Server) NoteMalformed() { s.malformed.Add(1) }

// adaptLoop periodically retargets the batch size from the rate gauge.
func (s *Server) adaptLoop(interval time.Duration) {
	defer close(s.adaptDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.retarget(s.rate.observe(s.reports.Load(), time.Now()))
		case <-s.adaptStop:
			return
		}
	}
}

// retarget maps an observed arrival rate onto the clamped batch target
// and arms the saturation guard when the raw (unclamped) target is at
// or past the ceiling.
func (s *Server) retarget(rate float64) int64 {
	raw := int64(rate / (float64(len(s.shards)) * adaptFramesPerShard))
	s.shedArmed.Store(raw >= int64(s.adaptMax))
	target := raw
	if target < int64(s.adaptMin) {
		target = int64(s.adaptMin)
	}
	if target > int64(s.adaptMax) {
		target = int64(s.adaptMax)
	}
	s.curBatch.Store(target)
	return target
}

// batchTarget is the current per-Batcher frame size.
func (s *Server) batchTarget() int64 {
	if s.adaptive {
		return s.curBatch.Load()
	}
	return int64(s.batchSize)
}

// stopAdaptLoop halts the retarget ticker and waits for it to exit.
func (s *Server) stopAdaptLoop() {
	if s.adaptStop == nil {
		return
	}
	s.adaptOnce.Do(func() {
		close(s.adaptStop)
		<-s.adaptDone
	})
}

// Restore builds a Server that resumes from the newest valid checkpoint
// in the WithCheckpoint directory, returning how many reports the
// restored state already summarizes (0 when the directory holds no
// checkpoint yet — a fresh campaign). The restored counts re-enter
// through the normal batch path, so subsequent Snapshots are bit-for-bit
// identical to an uninterrupted collector that had ingested the same
// reports.
func Restore(bits int, opts ...Option) (*Server, int64, error) {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	if o.ckptDir == "" {
		return nil, 0, fmt.Errorf("server: Restore requires WithCheckpoint")
	}
	snap, ok, err := checkpoint.Latest(o.ckptDir)
	if err != nil {
		return nil, 0, fmt.Errorf("server: %w", err)
	}
	if ok && snap.Bits != bits {
		return nil, 0, fmt.Errorf("server: checkpoint has %d bits, domain has %d", snap.Bits, bits)
	}
	s, err := New(bits, opts...)
	if err != nil {
		return nil, 0, err
	}
	if !ok {
		return s, 0, nil
	}
	if err := s.AddCounts(snap.Counts, snap.N); err != nil {
		s.Close()
		return nil, 0, fmt.Errorf("server: restoring checkpoint seq %d: %w", snap.Seq, err)
	}
	return s, snap.N, nil
}

// checkpointLoop drives the periodic saves; failures are dropped and
// retried at the next tick (the previous frame stays valid on disk).
func (s *Server) checkpointLoop(interval time.Duration) {
	defer close(s.ckptDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			_, _ = s.CheckpointNow()
		case <-s.ckptStop:
			return
		}
	}
}

// CheckpointNow snapshots the runtime and writes one checkpoint frame
// immediately, independent of the periodic interval. It errors if the
// server was built without WithCheckpoint.
func (s *Server) CheckpointNow() (checkpoint.Snapshot, error) {
	if s.store == nil {
		return checkpoint.Snapshot{}, fmt.Errorf("server: no checkpoint store configured")
	}
	start := time.Now()
	counts, n := s.Snapshot()
	snap, err := s.store.Save(counts, n)
	if err != nil {
		return checkpoint.Snapshot{}, err
	}
	s.hCkpt.ObserveSince(start)
	s.noteCheckpoint(snap)
	return snap, nil
}

func (s *Server) noteCheckpoint(snap checkpoint.Snapshot) {
	s.ckptSaves.Add(1)
	s.lastCkpt.Store(snap.Time.UnixNano())
}

// streamLoop drives the periodic delta publisher. Each tick observes
// the arrival-rate gauge from the reports counter; when the counter has
// not moved since the last published tick, the (shard-quiescing)
// Snapshot is skipped entirely — the gauge is what lets an idle
// campaign stream cost nothing, and the same observations feed the
// adaptive-batching work (see Stats.ArrivalRate).
func (s *Server) streamLoop(interval time.Duration) {
	defer close(s.streamDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			total := s.reports.Load()
			s.rate.observe(total, time.Now())
			if total == s.publishedAt {
				// Nothing new to diff, but a subscriber that overflowed
				// during the last burst may have drained since — deliver
				// its healing resync now rather than at the next burst.
				s.pub.ServiceLagged()
				continue
			}
			counts, n := s.Snapshot()
			_ = s.pub.PublishT(counts, n, s.trace.Last())
			s.publishedAt = total
		case <-s.streamStop:
			return
		}
	}
}

// Subscribe registers a delta-stream consumer with the given channel
// buffer; it errors unless the server was built with WithStream. The
// first frame delivered is a resync carrying the stream's current
// cumulative state, so consumers joining mid-campaign start exact. A
// consumer that stops reading is dropped-and-resynced, never blocks
// ingestion, and must Close its subscription when done.
func (s *Server) Subscribe(buf int) (*stream.Sub, error) {
	if s.pub == nil {
		return nil, fmt.Errorf("server: Subscribe requires WithStream")
	}
	return s.pub.Subscribe(buf)
}

// stopStreamLoop halts the publisher ticker and waits for it to exit.
// Like the checkpoint loop, it must run before Close takes the write
// lock: a tick in flight holds a read lock inside Snapshot.
func (s *Server) stopStreamLoop() {
	if s.streamStop == nil {
		return
	}
	s.streamOnce.Do(func() {
		close(s.streamStop)
		<-s.streamDone
	})
}

// rateGauge is a time-weighted EWMA of the report arrival rate. Samples
// arrive at irregular spacing (stream ticks and Stats reads), so the
// smoothing weight is 1-exp(-dt/tau): a gap of several tau forgets the
// old rate, back-to-back reads barely move it.
type rateGauge struct {
	mu    sync.Mutex
	tau   float64 // seconds
	init  bool
	last  int64
	lastT time.Time
	rate  float64
}

func (g *rateGauge) observe(total int64, now time.Time) float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.init {
		g.init, g.last, g.lastT = true, total, now
		return g.rate
	}
	dt := now.Sub(g.lastT).Seconds()
	if dt <= 0 {
		return g.rate
	}
	inst := float64(total-g.last) / dt
	g.rate += (1 - math.Exp(-dt/g.tau)) * (inst - g.rate)
	g.last, g.lastT = total, now
	return g.rate
}

// stopCheckpointLoop halts the periodic saver and waits for it to exit.
// It must run before Close takes the write lock: a tick in flight holds
// a read lock inside Snapshot and would deadlock against it.
func (s *Server) stopCheckpointLoop() {
	if s.ckptStop == nil {
		return
	}
	s.ckptOnce.Do(func() {
		close(s.ckptStop)
		<-s.ckptDone
	})
}

// worker owns one shard's aggregator and fold; it is the only goroutine
// that ever touches them, which is what keeps ingestion lock-free. A
// handed-off fold is added into the shard's fold, which reaches the
// aggregator only when settled: before a snapshot reply and at the end.
func (s *Server) worker(sh *shard) {
	defer s.wg.Done()
	timed := s.hFold != nil // set before workers start, constant after
	for msg := range sh.ch {
		if msg.snap != nil {
			sh.settle()
			msg.snap <- shardSnap{counts: sh.a.Counts(), n: sh.a.N()}
			continue
		}
		var start time.Time
		if timed {
			start = time.Now()
		}
		switch {
		case msg.lanes != nil:
			sh.fold.AddLanes(msg.lanes, sh.spill)
			sh.foldN += msg.n
		case msg.report != nil:
			sh.a.Add(msg.report)
		default:
			if err := sh.a.AddCounts(msg.counts, msg.n); err != nil {
				// Validated by the producer; an error here is a programming bug.
				panic(err)
			}
		}
		if timed {
			s.hFold.ObserveSince(start)
		}
		s.release(msg)
	}
	sh.settle()
}

// Bits returns the report length m.
func (s *Server) Bits() int { return s.bits }

// Shards returns the shard worker count.
func (s *Server) Shards() int { return len(s.shards) }

// BatchSize returns the per-Batcher accumulation size.
func (s *Server) BatchSize() int { return s.batchSize }

// BeginDrain flips the runtime into graceful-drain mode: Admit refuses
// every new external report with ErrDraining (a pushback the transport
// and HTTP surfaces turn into a shed ack / 429), while the internal
// blocking ingest path stays open so producer Batchers, restored
// checkpoints, and in-flight frames still land before Close. Draining
// is one-way; it is the first step of the SIGTERM sequence
// (BeginDrain → flush batchers → Close → final checkpoint/resync).
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// ForceSaturation pins (or unpins) the saturation signal regardless of
// the observed rate — an operator pushback switch, and the
// deterministic handle flow-control tests use instead of waiting for
// the EWMA gauge.
func (s *Server) ForceSaturation(on bool) { s.forceSat.Store(on) }

// Saturated reports whether the runtime is pushing back on new load:
// forced, or the adaptive sizer armed the shed guard (the unclamped
// rate target is past the maximum batch size) with every shard queue
// still full.
func (s *Server) Saturated() bool {
	if s.forceSat.Load() {
		return true
	}
	if !s.adaptive || !s.shedArmed.Load() {
		return false
	}
	for _, sh := range s.shards {
		if len(sh.ch) < cap(sh.ch) {
			return false
		}
	}
	return true
}

// Admit is the external-surface admission gate: nil means the n
// reports may be ingested; ErrDraining/ErrSaturated mean they were
// refused with a pushback signal and counted in ShedRejectReports —
// the caller still holds them and should signal the sender to back
// off (shed ack flag, HTTP 429 + Retry-After) rather than drop them.
func (s *Server) Admit(n int64) error {
	var err error
	switch {
	case s.draining.Load():
		err = ErrDraining
	case s.Saturated():
		err = ErrSaturated
	default:
		return nil
	}
	s.shedRejectReports.Add(n)
	s.shedRejectFrames.Add(1)
	return err
}

// send enqueues a frame on the next shard, blocking when its queue is
// full (backpressure).
func (s *Server) send(msg shardMsg) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	sh := s.shards[s.next.Add(1)%uint64(len(s.shards))]
	if s.hQueueWait != nil {
		start := time.Now()
		sh.ch <- msg
		s.hQueueWait.ObserveSince(start)
		return nil
	}
	sh.ch <- msg
	return nil
}

// Add ingests one report directly, bypassing producer-side batching. Use
// a Batcher when the producer has a stream; Add suits request-per-report
// surfaces like the HTTP API.
func (s *Server) Add(v *bitvec.Vector) error {
	if v.Len() != s.bits {
		return fmt.Errorf("server: report has %d bits, domain has %d", v.Len(), s.bits)
	}
	if err := s.send(shardMsg{report: v}); err != nil {
		return err
	}
	s.reports.Add(1)
	s.frames.Add(1)
	return nil
}

// AddCounts ingests a pre-summed batch. The server takes ownership of
// counts and may recycle the slice as a later frame once it is folded:
// the caller must neither write nor read it after the call.
func (s *Server) AddCounts(counts []int64, n int64) error {
	return s.addCounts(counts, n, false)
}

// AddCountsBlocking ingests a pre-summed batch with pure backpressure:
// a full queue blocks, the saturation guard never sheds. The placement
// for surfaces that already passed Admit — having accepted the batch,
// dropping it silently would contradict the acceptance. The server
// takes ownership of counts, as in AddCounts.
func (s *Server) AddCountsBlocking(counts []int64, n int64) error {
	return s.addCounts(counts, n, true)
}

func (s *Server) addCounts(counts []int64, n int64, block bool) error {
	if err := validateBatch(s.bits, counts, n); err != nil {
		return err
	}
	if n == 0 {
		return nil
	}
	return s.place(shardMsg{counts: counts, n: n}, block)
}

// place ships one pre-validated frame — counts or a fold — and bumps the
// metrics. block selects pure backpressure: a full queue blocks and the
// saturation guard never sheds, the placement for anything admitted (an
// acked frame dropped after its ack would break the sender's
// exactly-once accounting). Otherwise, with adaptive batching saturated
// (the observed rate pinned the target past its maximum), placement
// turns non-blocking and a frame that fits nowhere is shed (see
// WithAdaptiveBatch) — dropping reports keeps estimates unbiased, only
// smaller-n; blocking would stall every producer behind the overload.
func (s *Server) place(msg shardMsg, block bool) error {
	if !block && s.adaptive && s.shedArmed.Load() {
		s.mu.RLock()
		if s.closed {
			s.mu.RUnlock()
			return ErrClosed
		}
		start := s.next.Add(1)
		for k := 0; k < len(s.shards); k++ {
			sh := s.shards[(start+uint64(k))%uint64(len(s.shards))]
			select {
			case sh.ch <- msg:
				s.mu.RUnlock()
				s.reports.Add(msg.n)
				s.frames.Add(1)
				return nil
			default:
			}
		}
		s.mu.RUnlock()
		s.shedReports.Add(msg.n)
		s.shedFrames.Add(1)
		if msg.lanes != nil {
			msg.lanes.Reset()
		}
		s.release(msg)
		return nil
	}
	if err := s.send(msg); err != nil {
		return err
	}
	s.reports.Add(msg.n)
	s.frames.Add(1)
	return nil
}

// frame returns an all-zero count frame, recycled when one is free.
func (s *Server) frame() []int64 {
	select {
	case f := <-s.free:
		clear(f)
		return f
	default:
		return make([]int64, s.bits)
	}
}

// emptyLanes returns an empty fold, recycled when one is free.
func (s *Server) emptyLanes() *bitvec.Lanes {
	select {
	case l := <-s.freeLanes:
		return l
	default:
		return bitvec.NewLanes(s.bits)
	}
}

// release offers the frame or the emptied fold of a message the runtime
// is done with to its free list.
func (s *Server) release(msg shardMsg) {
	switch {
	case msg.lanes != nil:
		select {
		case s.freeLanes <- msg.lanes:
		default:
		}
	case msg.counts != nil:
		select {
		case s.free <- msg.counts:
		default:
		}
	}
}

func validateBatch(bits int, counts []int64, n int64) error {
	if len(counts) != bits {
		return fmt.Errorf("server: batch has %d bits, domain has %d", len(counts), bits)
	}
	if n < 0 {
		return fmt.Errorf("server: negative user count %d", n)
	}
	for i, c := range counts {
		if c < 0 || c > n {
			return fmt.Errorf("server: bit %d count %d outside [0,%d]", i, c, n)
		}
	}
	return nil
}

// Snapshot returns merged per-bit counts and the user count. It is
// consistent with every frame enqueued before the call on each shard;
// ingestion continues concurrently. After Close it answers from the
// drained final state. The returned slice is the caller's to keep.
func (s *Server) Snapshot() (counts []int64, n int64) {
	s.mu.RLock()
	if s.closed {
		defer s.mu.RUnlock()
		return append([]int64(nil), s.finalCounts...), s.finalN
	}
	// One marker per shard, fanned out before collecting any reply so the
	// shards quiesce in parallel.
	reply := make(chan shardSnap, len(s.shards))
	for _, sh := range s.shards {
		sh.ch <- shardMsg{snap: reply}
	}
	s.mu.RUnlock()
	counts = make([]int64, s.bits)
	for range s.shards {
		ss := <-reply
		for i, c := range ss.counts {
			counts[i] += c
		}
		n += ss.n
	}
	return counts, n
}

// N returns the number of reports ingested so far (via Snapshot).
func (s *Server) N() int64 {
	_, n := s.Snapshot()
	return n
}

// Stats is a point-in-time view of the runtime's health, cheap enough to
// poll from a metrics endpoint: no shard quiesce, only atomic counter
// reads and channel lengths.
type Stats struct {
	// Shards and BatchSize echo the runtime configuration.
	Shards    int `json:"shards"`
	BatchSize int `json:"batch_size"`
	// Reports counts reports accepted for ingestion (including reports
	// represented by pre-summed batches and restored checkpoints);
	// Frames counts the frames they were shipped in. Reports buffered in
	// producer-side Batchers are counted only once their batch flushes.
	Reports int64 `json:"reports"`
	Frames  int64 `json:"frames"`
	// QueueDepth is the number of frames waiting per shard queue; sustained
	// full queues mean the workers are the bottleneck (consider load
	// shedding or more shards).
	QueueDepth []int `json:"queue_depth"`
	// Uptime is the time since New; divide Frames/Reports by it for rates.
	Uptime time.Duration `json:"uptime_ns"`
	// Checkpoints counts frames written; LastCheckpoint is the newest
	// frame's timestamp (zero when none or checkpointing is disabled).
	Checkpoints    int64     `json:"checkpoints"`
	LastCheckpoint time.Time `json:"last_checkpoint"`
	// ArrivalRate is the EWMA of the report arrival rate in reports/sec
	// (time constant DefaultRateTau), observed by the stream ticker and
	// by Stats reads — the sizing signal for adaptive batching and the
	// stream publisher's idle-skip.
	ArrivalRate float64 `json:"arrival_rate_ewma"`
	// StreamSubscribers counts live delta-stream subscriptions (0 when
	// WithStream is off).
	StreamSubscribers int `json:"stream_subscribers"`
	// AdaptiveBatch is the current rate-driven batch target (0 when
	// WithAdaptiveBatch is off; BatchSize then governs).
	AdaptiveBatch int64 `json:"adaptive_batch"`
	// ShedReports / ShedFrames count reports and frames dropped by the
	// saturation guard — nonzero means the fleet is ingesting more than
	// the workers can drain even at the maximum batch size.
	ShedReports int64 `json:"shed_reports"`
	ShedFrames  int64 `json:"shed_frames"`
	// ShedRejectReports / ShedRejectFrames count reports and frames
	// refused at the admission gate with a pushback signal (shed ack
	// flag, HTTP 429). Unlike ShedReports these are not data loss: the
	// sender still holds them and retries after backing off.
	ShedRejectReports int64 `json:"shed_reject_reports"`
	ShedRejectFrames  int64 `json:"shed_reject_frames"`
	// Draining is true once BeginDrain ran (graceful shutdown in
	// progress); Saturated mirrors the live pushback signal.
	Draining  bool `json:"draining"`
	Saturated bool `json:"saturated"`
}

// Stats returns current runtime metrics. It is safe to call concurrently
// with ingestion and after Close (queue depths read zero once drained).
func (s *Server) Stats() Stats {
	reports := s.reports.Load()
	st := Stats{
		Shards:            len(s.shards),
		BatchSize:         s.batchSize,
		Reports:           reports,
		Frames:            s.frames.Load(),
		QueueDepth:        make([]int, len(s.shards)),
		Uptime:            time.Since(s.start),
		Checkpoints:       s.ckptSaves.Load(),
		ArrivalRate:       s.rate.observe(reports, time.Now()),
		ShedRejectReports: s.shedRejectReports.Load(),
		ShedRejectFrames:  s.shedRejectFrames.Load(),
		Draining:          s.draining.Load(),
		Saturated:         s.Saturated(),
	}
	if s.pub != nil {
		st.StreamSubscribers = s.pub.Subscribers()
	}
	if s.adaptive {
		st.AdaptiveBatch = s.curBatch.Load()
		st.ShedReports = s.shedReports.Load()
		st.ShedFrames = s.shedFrames.Load()
	}
	for i, sh := range s.shards {
		st.QueueDepth[i] = len(sh.ch)
	}
	if ns := s.lastCkpt.Load(); ns != 0 {
		st.LastCheckpoint = time.Unix(0, ns)
	}
	return st
}

// Close stops the shard workers after draining their queues and captures
// the final merged state, which Snapshot keeps serving; with
// WithCheckpoint it then writes a final frame so a graceful shutdown
// loses nothing. Producers must have flushed their Batchers; ingestion
// calls racing with Close may return ErrClosed.
func (s *Server) Close() error {
	// Stop the periodic loops before taking the write lock — a tick in
	// flight holds a read lock inside Snapshot.
	s.stopCheckpointLoop()
	s.stopStreamLoop()
	s.stopAdaptLoop()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	for _, sh := range s.shards {
		close(sh.ch)
	}
	s.wg.Wait()
	total := agg.New(s.bits)
	for _, sh := range s.shards {
		if err := total.Merge(sh.a); err != nil {
			return err
		}
	}
	s.finalCounts, s.finalN = total.Counts(), total.N()
	if s.pub != nil {
		// Publish the drained final state so every subscriber ends on the
		// authoritative answer, then close their channels.
		s.pub.SetTrace(s.trace.Last())
		_ = s.pub.Resync(append([]int64(nil), s.finalCounts...), s.finalN)
		s.pub.Close()
	}
	if s.store != nil {
		start := time.Now()
		snap, err := s.store.Save(s.finalCounts, s.finalN)
		if err != nil {
			return err
		}
		s.hCkpt.ObserveSince(start)
		s.noteCheckpoint(snap)
	}
	return nil
}

// Drain stops the runtime and returns the final merged counts.
func (s *Server) Drain() (counts []int64, n int64, err error) {
	if err := s.Close(); err != nil {
		return nil, 0, err
	}
	counts, n = s.Snapshot()
	return counts, n, nil
}

// Batcher accumulates a producer's reports into per-bit counts and ships
// them to the server one frame per BatchSize reports. It is the
// streaming-producer front end: one Batcher per goroutine or connection;
// a Batcher is NOT safe for concurrent use. Adds touch the server only
// when a batch fills, so a Close of the server surfaces as ErrClosed at
// the next full batch or Flush, not on every Add — producers must stop
// adding once they initiate Close.
//
// Reports are summed by a bitvec.Lanes block fold, not bit by bit: Add,
// AddWords and AddBytes stage the report. What a flush ships depends on
// what the batch holds. Reports alone travel as the fold itself, which
// the shard adds into its own fold; the Batcher takes an empty fold from
// the free list and keeps its counts frame, still clean. A batch that
// also holds AddCounts content, or whose fold spilled into the frame,
// is drained into the frame, and the frame ships.
type Batcher struct {
	s      *Server
	lanes  *bitvec.Lanes
	counts []int64
	n      int64
	mode   batcherMode
	// admitted marks a pending batch holding reports that passed Admit:
	// its flush blocks, whatever the mode (see Batcher.Admit).
	admitted bool
}

// batcherMode selects what a full batch does when the runtime is
// saturated.
type batcherMode int

const (
	// batchShed is the legacy adaptive behavior: under saturation the
	// frame is placed non-blocking and silently dropped if nowhere fits
	// (counted in Stats.ShedReports).
	batchShed batcherMode = iota
	// batchBlock never sheds: a full queue blocks the producer. The mode
	// for producers whose every report was admitted and must land.
	batchBlock
	// batchReject pushes back: Flush returns ErrSaturated/ErrDraining
	// with the pending batch kept, so an in-process sender can back off
	// and retry the flush.
	batchReject
)

func (s *Server) newBatcher(mode batcherMode) *Batcher {
	return &Batcher{s: s, lanes: s.emptyLanes(), counts: s.frame(), mode: mode}
}

// NewBatcher returns an empty batcher feeding s with the legacy
// shed-on-saturation placement.
func (s *Server) NewBatcher() *Batcher { return s.newBatcher(batchShed) }

// NewBlockingBatcher returns a batcher that never sheds: saturated
// queues block its flushes instead of dropping the frame. Ingest paths
// that admit everything they fold use it — admission is decided before
// the fold (Admit), and an admitted report must reach a shard.
func (s *Server) NewBlockingBatcher() *Batcher { return s.newBatcher(batchBlock) }

// NewRejectBatcher returns a batcher whose flushes push back instead of
// shedding or blocking: when the runtime is draining or saturated,
// Flush (and the auto-flush inside Add/AddWords/AddCounts) returns
// ErrDraining/ErrSaturated with the pending batch KEPT. The report that
// triggered the auto-flush is already part of the pending batch — on
// pushback, retry Flush only; re-Adding the report would double it.
func (s *Server) NewRejectBatcher() *Batcher { return s.newBatcher(batchReject) }

// Admit runs the runtime's admission gate (Server.Admit) for n reports
// the caller is about to add. On success the pending batch is marked as
// carrying admitted reports: its flush — the automatic one inside an add
// or an explicit Flush — places it as a NewBlockingBatcher's would,
// blocking on a full queue and never shedding or pushing back, whatever
// this batcher's mode. The mark lasts until that flush. This is how one
// batcher carries a connection's plain and acked reports alike: Admit,
// add, Flush, then ack — the ack then covers every report added before.
func (b *Batcher) Admit(n int64) error {
	if err := b.s.Admit(n); err != nil {
		return err
	}
	b.admitted = true
	return nil
}

// Add accumulates one report, shipping a frame when the batch is full.
// v is copied into the pending batch before Add returns and is never
// retained, so producers on the allocation-free path may hand Add the
// same buffer every call (overwriting it between calls with a *Into
// perturbation).
func (b *Batcher) Add(v *bitvec.Vector) error {
	return b.AddWords(v.Words(), v.Len())
}

// AddWords accumulates one report given as packed words, validating it
// like bitvec.FromWords but without allocating a vector.
func (b *Batcher) AddWords(words []uint64, bits int) error {
	if err := b.checkBits(bits); err != nil {
		return err
	}
	if err := b.lanes.AddWords(words, bits, b.counts); err != nil {
		return fmt.Errorf("server: %w", err)
	}
	return b.added(1)
}

// AddBytes is AddWords for a report whose words are still in wire form,
// 8 little-endian bytes each: the path for reports folded straight out
// of a network read buffer, with no decode into a []uint64 between. It
// accepts and refuses exactly what AddWords does, with the same errors.
// p is not retained.
func (b *Batcher) AddBytes(p []byte, bits int) error {
	if err := b.checkBits(bits); err != nil {
		return err
	}
	if err := b.lanes.AddBytes(p, bits, b.counts); err != nil {
		return fmt.Errorf("server: %w", err)
	}
	return b.added(1)
}

func (b *Batcher) checkBits(bits int) error {
	if bits != b.s.bits {
		return fmt.Errorf("server: report has %d bits, domain has %d", bits, b.s.bits)
	}
	return nil
}

// AddCounts folds a pre-summed batch into the pending one.
func (b *Batcher) AddCounts(counts []int64, n int64) error {
	if err := validateBatch(b.s.bits, counts, n); err != nil {
		return err
	}
	for i, c := range counts {
		b.counts[i] += c
	}
	return b.added(n)
}

// added counts n reports into the pending batch and ships it once full.
func (b *Batcher) added(n int64) error {
	b.n += n
	if b.n >= b.s.batchTarget() {
		return b.Flush()
	}
	return nil
}

// Pending returns the number of reports accumulated but not yet shipped.
func (b *Batcher) Pending() int64 { return b.n }

// Flush ships the pending batch, if any. Callers must Flush before the
// server is Closed or Snapshot is expected to see their reports. A
// reject-mode flush that returns ErrSaturated/ErrDraining keeps the
// pending batch for a later retry.
func (b *Batcher) Flush() error {
	if b.n == 0 {
		return nil
	}
	block := b.admitted || b.mode == batchBlock
	if b.mode == batchReject && !b.admitted {
		if err := b.s.Admit(b.n); err != nil {
			return err
		}
	}
	msg := shardMsg{n: b.n}
	if int64(b.lanes.Pending()) == b.n {
		// Every pending report is still in the fold: hand the fold over.
		msg.lanes, b.lanes = b.lanes, b.s.emptyLanes()
	} else {
		b.lanes.Drain(b.counts)
		msg.counts, b.counts = b.counts, b.s.frame()
	}
	b.n, b.admitted = 0, false
	return b.s.place(msg, block)
}

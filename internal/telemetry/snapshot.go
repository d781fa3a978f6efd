// Telemetry snapshots: a Registry's metrics captured as a mergeable,
// wire-packable value. Counters and log-linear histogram buckets are
// integers, so merging K snapshots is exact — the fold of per-node
// telemetry equals the telemetry of one imaginary node that observed
// every event. That identity is what lets a tiered fleet federate
// metrics through its mergers (see federate.go) and still publish
// fleet-wide series that are bit-exact equal to an offline merge of
// the member snapshots.
//
// The wire form follows the varpack house style: a version byte, then
// varint-packed fields, with sparse histogram buckets gap-encoded
// (ascending index deltas). A ~40-series registry packs to ~1-2 KB,
// small enough to ride every registry heartbeat under the HMAC.
package telemetry

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// SnapKind discriminates the metric kinds a snapshot can carry.
type SnapKind uint8

const (
	SnapCounter SnapKind = iota
	SnapGauge
	SnapHistogram
)

func (k SnapKind) String() string {
	switch k {
	case SnapCounter:
		return "counter"
	case SnapGauge:
		return "gauge"
	case SnapHistogram:
		return "histogram"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// SnapHist is a histogram's mergeable state: total count, nanosecond
// sum, and the occupied fine buckets in ascending index order. Count
// always equals the sum of Vals, so the rendered cumulative series
// stays internally consistent after any number of merges.
type SnapHist struct {
	Count   uint64
	SumNano int64
	Idx     []uint32 // occupied fine-bucket indices, strictly ascending
	Vals    []uint64 // counts per occupied bucket, same order
}

// clone deep-copies the histogram state.
func (h *SnapHist) clone() *SnapHist {
	if h == nil {
		return &SnapHist{}
	}
	return &SnapHist{
		Count:   h.Count,
		SumNano: h.SumNano,
		Idx:     append([]uint32(nil), h.Idx...),
		Vals:    append([]uint64(nil), h.Vals...),
	}
}

// merge folds o into h (exact integer addition per bucket).
func (h *SnapHist) merge(o *SnapHist) {
	if o == nil || len(o.Idx) == 0 && o.Count == 0 && o.SumNano == 0 {
		return
	}
	idx := make([]uint32, 0, len(h.Idx)+len(o.Idx))
	vals := make([]uint64, 0, len(h.Idx)+len(o.Idx))
	i, j := 0, 0
	for i < len(h.Idx) || j < len(o.Idx) {
		switch {
		case j >= len(o.Idx) || (i < len(h.Idx) && h.Idx[i] < o.Idx[j]):
			idx, vals = append(idx, h.Idx[i]), append(vals, h.Vals[i])
			i++
		case i >= len(h.Idx) || o.Idx[j] < h.Idx[i]:
			idx, vals = append(idx, o.Idx[j]), append(vals, o.Vals[j])
			j++
		default:
			idx, vals = append(idx, h.Idx[i]), append(vals, h.Vals[i]+o.Vals[j])
			i, j = i+1, j+1
		}
	}
	h.Idx, h.Vals = idx, vals
	h.Count += o.Count
	h.SumNano += o.SumNano
}

// sub subtracts an earlier observation of the same histogram,
// clamping at zero — the per-interval delta used by load sweeps.
func (h *SnapHist) sub(prev *SnapHist) {
	if prev == nil {
		return
	}
	at := func(sh *SnapHist, want uint32) uint64 {
		k := sort.Search(len(sh.Idx), func(i int) bool { return sh.Idx[i] >= want })
		if k < len(sh.Idx) && sh.Idx[k] == want {
			return sh.Vals[k]
		}
		return 0
	}
	var idx []uint32
	var vals []uint64
	var count uint64
	for i, ix := range h.Idx {
		v := h.Vals[i]
		if p := at(prev, ix); p < v {
			v -= p
		} else {
			v = 0
		}
		if v != 0 {
			idx, vals = append(idx, ix), append(vals, v)
			count += v
		}
	}
	h.Idx, h.Vals, h.Count = idx, vals, count
	if h.SumNano >= prev.SumNano {
		h.SumNano -= prev.SumNano
	} else {
		h.SumNano = 0
	}
}

// dense expands the sparse buckets to the full fine-bucket array for
// exposition rendering.
func (h *SnapHist) dense() *[histBuckets]uint64 {
	var counts [histBuckets]uint64
	if h != nil {
		for i, ix := range h.Idx {
			if int(ix) < histBuckets {
				counts[ix] = h.Vals[i]
			}
		}
	}
	return &counts
}

// Quantile returns the q-quantile of the recorded distribution with
// the same interpolation (and the same ≤6.25% relative error bound)
// as Histogram.Quantile. Returns 0 when empty.
func (h *SnapHist) Quantile(q float64) time.Duration {
	if h == nil || len(h.Idx) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	var total float64
	for _, v := range h.Vals {
		total += float64(v)
	}
	if total == 0 {
		return 0
	}
	rank := q * total
	if rank < 1 {
		rank = 1
	}
	var cum float64
	for i, v := range h.Vals {
		fc := float64(v)
		if cum+fc >= rank {
			lo, w := bucketBounds(int(h.Idx[i]))
			frac := (rank - cum) / fc
			return time.Duration(float64(lo) + float64(w)*frac)
		}
		cum += fc
	}
	lo, w := bucketBounds(int(h.Idx[len(h.Idx)-1]))
	return time.Duration(lo + w)
}

// SnapMetric is one captured series. Name is the family name with the
// registry namespace stripped, so a snapshot can be re-rendered under
// any prefix (the federation renders it as <ns>_fleet_<Name>).
type SnapMetric struct {
	Kind    SnapKind
	Name    string
	Labels  string // canonical rendered label set ("" when unlabeled)
	Counter int64
	Gauge   float64
	Hist    *SnapHist
}

func (m *SnapMetric) key() string { return m.Name + "\x00" + m.Labels }

// Snapshot is a point-in-time capture of a registry's metrics, sorted
// by (Name, Labels) so merges and packs are deterministic.
type Snapshot struct {
	Metrics []SnapMetric
}

// Snapshot captures every registered metric. Func views are read at
// capture time (outside the registry lock, like a scrape); histogram
// counts are taken from the buckets so Count always equals the bucket
// sum. A nil registry yields an empty snapshot.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{}
	if r == nil {
		return s
	}
	r.mu.Lock()
	ms := append([]metric(nil), r.order...)
	r.mu.Unlock()
	prefix := r.ns + "_"
	for _, m := range ms {
		var sm SnapMetric
		switch v := m.(type) {
		case *Counter:
			sm = SnapMetric{Kind: SnapCounter, Counter: v.Value()}
		case *Gauge:
			sm = SnapMetric{Kind: SnapGauge, Gauge: v.Value()}
		case *funcMetric:
			val := v.fn()
			if v.typ == "counter" {
				c := int64(val)
				if c < 0 {
					c = 0
				}
				sm = SnapMetric{Kind: SnapCounter, Counter: c}
			} else {
				sm = SnapMetric{Kind: SnapGauge, Gauge: val}
			}
		case *Histogram:
			sh := &SnapHist{SumNano: atomic.LoadInt64(&v.sumNano)}
			for i := range v.buckets {
				if c := atomic.LoadUint64(&v.buckets[i]); c != 0 {
					sh.Idx = append(sh.Idx, uint32(i))
					sh.Vals = append(sh.Vals, c)
					sh.Count += c
				}
			}
			sm = SnapMetric{Kind: SnapHistogram, Hist: sh}
		default:
			continue
		}
		sm.Name = strings.TrimPrefix(m.famName(), prefix)
		sm.Labels = labelsOf(m)
		s.Metrics = append(s.Metrics, sm)
	}
	s.sort()
	return s
}

// labelsOf extracts the canonical label string shared by all concrete
// metric kinds.
func labelsOf(m metric) string {
	switch v := m.(type) {
	case *Counter:
		return v.labels
	case *Gauge:
		return v.labels
	case *funcMetric:
		return v.labels
	case *Histogram:
		return v.labels
	}
	return ""
}

func (s *Snapshot) sort() {
	sort.Slice(s.Metrics, func(i, j int) bool {
		a, b := &s.Metrics[i], &s.Metrics[j]
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.Labels < b.Labels
	})
}

// Clone deep-copies the snapshot.
func (s *Snapshot) Clone() *Snapshot {
	if s == nil {
		return &Snapshot{}
	}
	out := &Snapshot{Metrics: append([]SnapMetric(nil), s.Metrics...)}
	for i := range out.Metrics {
		if out.Metrics[i].Hist != nil {
			out.Metrics[i].Hist = out.Metrics[i].Hist.clone()
		}
	}
	return out
}

// Merge folds o into s: counters and histogram buckets add exactly,
// gauges sum (the fleet-wide additive view — queue depths, subscriber
// counts). Series present in only one side are kept. Returns s.
func (s *Snapshot) Merge(o *Snapshot) *Snapshot {
	if o == nil || len(o.Metrics) == 0 {
		return s
	}
	merged := make([]SnapMetric, 0, len(s.Metrics)+len(o.Metrics))
	take := func(m *SnapMetric) {
		sm := *m
		if sm.Hist != nil {
			sm.Hist = sm.Hist.clone()
		}
		merged = append(merged, sm)
	}
	i, j := 0, 0
	for i < len(s.Metrics) || j < len(o.Metrics) {
		switch {
		case j >= len(o.Metrics) || (i < len(s.Metrics) && s.Metrics[i].key() < o.Metrics[j].key()):
			take(&s.Metrics[i])
			i++
		case i >= len(s.Metrics) || o.Metrics[j].key() < s.Metrics[i].key():
			take(&o.Metrics[j])
			j++
		default:
			a, b := s.Metrics[i], &o.Metrics[j]
			if a.Kind != b.Kind {
				// Kind conflict cannot arise from this package's naming
				// (_total vs _seconds suffixes); keep the receiver's series.
				take(&a)
			} else {
				switch a.Kind {
				case SnapCounter:
					a.Counter += b.Counter
				case SnapGauge:
					a.Gauge += b.Gauge
				case SnapHistogram:
					h := a.Hist.clone()
					h.merge(b.Hist)
					a.Hist = h
				}
				merged = append(merged, a)
			}
			i, j = i+1, j+1
		}
	}
	s.Metrics = merged
	return s
}

// Sub subtracts an earlier snapshot of the same registry: counters and
// histogram buckets become the interval delta (clamped at zero),
// gauges keep their current value. Series missing from prev pass
// through unchanged. Returns s.
func (s *Snapshot) Sub(prev *Snapshot) *Snapshot {
	if prev == nil {
		return s
	}
	j := 0
	for i := range s.Metrics {
		m := &s.Metrics[i]
		for j < len(prev.Metrics) && prev.Metrics[j].key() < m.key() {
			j++
		}
		if j >= len(prev.Metrics) || prev.Metrics[j].key() != m.key() || prev.Metrics[j].Kind != m.Kind {
			continue
		}
		p := &prev.Metrics[j]
		switch m.Kind {
		case SnapCounter:
			if m.Counter >= p.Counter {
				m.Counter -= p.Counter
			} else {
				m.Counter = 0
			}
		case SnapHistogram:
			h := m.Hist.clone()
			h.sub(p.Hist)
			m.Hist = h
		}
	}
	return s
}

// Cumulative returns a deep copy holding only the monotone series
// (counters and histograms) — the part of a snapshot that merges
// exactly and can be compared byte-for-byte across transports.
func (s *Snapshot) Cumulative() *Snapshot {
	out := &Snapshot{}
	if s == nil {
		return out
	}
	for i := range s.Metrics {
		m := s.Metrics[i]
		if m.Kind == SnapGauge {
			continue
		}
		if m.Hist != nil {
			m.Hist = m.Hist.clone()
		}
		out.Metrics = append(out.Metrics, m)
	}
	return out
}

// Counter returns the value of the named counter series ("" labels),
// or 0 when absent. Name is the bare family name (with _total suffix).
func (s *Snapshot) Counter(name string) int64 {
	if m := s.find(name, ""); m != nil && m.Kind == SnapCounter {
		return m.Counter
	}
	return 0
}

// Gauge returns the value of the named gauge series ("" labels).
func (s *Snapshot) Gauge(name string) float64 {
	if m := s.find(name, ""); m != nil && m.Kind == SnapGauge {
		return m.Gauge
	}
	return 0
}

// Hist returns the named histogram series ("" labels), or nil.
func (s *Snapshot) Hist(name string) *SnapHist {
	if m := s.find(name, ""); m != nil && m.Kind == SnapHistogram {
		return m.Hist
	}
	return nil
}

func (s *Snapshot) find(name, labels string) *SnapMetric {
	if s == nil {
		return nil
	}
	k := name + "\x00" + labels
	i := sort.Search(len(s.Metrics), func(i int) bool { return s.Metrics[i].key() >= k })
	if i < len(s.Metrics) && s.Metrics[i].key() == k {
		return &s.Metrics[i]
	}
	return nil
}

// Wire format limits. A heartbeat-sized snapshot is a few KB; these
// caps bound hostile payloads long before allocation hurts.
const (
	snapshotVersion    = 9
	maxSnapshotMetrics = 1 << 16
	maxSnapshotName    = 1 << 12
	// minSnapshotMetric is the fewest bytes a packed metric takes: a
	// counter with a one-byte name and no labels — kind, name length,
	// name, label length, value.
	minSnapshotMetric = 5
)

// Pack serializes the snapshot. The encoding is deterministic for a
// given snapshot (metrics sorted, gaps canonical), so equal snapshots
// pack to equal bytes — tests compare federated state against offline
// merges this way.
func (s *Snapshot) Pack() []byte {
	buf := []byte{snapshotVersion}
	if s == nil {
		return binary.AppendUvarint(buf, 0)
	}
	buf = binary.AppendUvarint(buf, uint64(len(s.Metrics)))
	for i := range s.Metrics {
		m := &s.Metrics[i]
		buf = append(buf, byte(m.Kind))
		buf = binary.AppendUvarint(buf, uint64(len(m.Name)))
		buf = append(buf, m.Name...)
		buf = binary.AppendUvarint(buf, uint64(len(m.Labels)))
		buf = append(buf, m.Labels...)
		switch m.Kind {
		case SnapCounter:
			v := m.Counter
			if v < 0 {
				v = 0
			}
			buf = binary.AppendUvarint(buf, uint64(v))
		case SnapGauge:
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(m.Gauge))
		case SnapHistogram:
			h := m.Hist
			if h == nil {
				h = &SnapHist{}
			}
			buf = binary.AppendUvarint(buf, h.Count)
			buf = binary.AppendVarint(buf, h.SumNano)
			buf = binary.AppendUvarint(buf, uint64(len(h.Idx)))
			prev := -1
			for j, ix := range h.Idx {
				buf = binary.AppendUvarint(buf, uint64(int(ix)-prev))
				buf = binary.AppendUvarint(buf, h.Vals[j])
				prev = int(ix)
			}
		}
	}
	return buf
}

// snapReader is a bounds-checked varint cursor over packed bytes.
type snapReader struct {
	b   []byte
	pos int
}

// uvarint reads a varint as Pack writes it: minimal, so that an accepted
// payload packs back to the bytes it was read from. A longer encoding of
// the same value (a last byte of zero after continuation bytes) errors.
func (r *snapReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("telemetry: truncated snapshot at byte %d", r.pos)
	}
	if n > 1 && r.b[r.pos+n-1] == 0 {
		return 0, fmt.Errorf("telemetry: overlong varint at byte %d", r.pos)
	}
	r.pos += n
	return v, nil
}

func (r *snapReader) varint() (int64, error) {
	ux, err := r.uvarint()
	// Varint's zigzag decoding, on a uvarint checked for length.
	return int64(ux>>1) ^ -int64(ux&1), err
}

func (r *snapReader) bytes(n uint64) ([]byte, error) {
	if n > uint64(len(r.b)-r.pos) {
		return nil, fmt.Errorf("telemetry: snapshot field of %d bytes overruns payload", n)
	}
	out := r.b[r.pos : r.pos+int(n)]
	r.pos += int(n)
	return out, nil
}

// UnpackSnapshot parses a packed snapshot, validating structure,
// ordering, and names — a malformed or hostile payload errors rather
// than polluting the exposition page. (Snapshots ride heartbeats under
// the fleet HMAC, so this is defense in depth, not the auth boundary.)
// It accepts only what Pack writes, byte for byte, and no count it reads
// sizes more than the payload can back; FuzzUnpackSnapshot holds it to
// both.
func UnpackSnapshot(b []byte) (*Snapshot, error) {
	if len(b) == 0 {
		return nil, fmt.Errorf("telemetry: empty snapshot payload")
	}
	if b[0] != snapshotVersion {
		return nil, fmt.Errorf("telemetry: unknown snapshot version %d", b[0])
	}
	r := &snapReader{b: b, pos: 1}
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > maxSnapshotMetrics {
		return nil, fmt.Errorf("telemetry: snapshot claims %d metrics (max %d)", n, maxSnapshotMetrics)
	}
	// The count sizes the metrics slice, so it may not claim more metrics
	// than the payload could hold: a 4-byte payload claiming 65,536 would
	// otherwise allocate 4 MB before its first metric failed to parse.
	if n > uint64(len(r.b)-r.pos)/minSnapshotMetric {
		return nil, fmt.Errorf("telemetry: snapshot claims %d metrics in %d bytes", n, len(r.b)-r.pos)
	}
	s := &Snapshot{Metrics: make([]SnapMetric, 0, n)}
	prevKey := ""
	for i := uint64(0); i < n; i++ {
		if r.pos >= len(r.b) {
			return nil, fmt.Errorf("telemetry: truncated snapshot at metric %d", i)
		}
		kind := SnapKind(r.b[r.pos])
		r.pos++
		if kind > SnapHistogram {
			return nil, fmt.Errorf("telemetry: unknown metric kind %d", kind)
		}
		nameLen, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if nameLen == 0 || nameLen > maxSnapshotName {
			return nil, fmt.Errorf("telemetry: snapshot metric name length %d", nameLen)
		}
		nameB, err := r.bytes(nameLen)
		if err != nil {
			return nil, err
		}
		name := string(nameB)
		if !validName(name) {
			return nil, fmt.Errorf("telemetry: invalid snapshot metric name %q", name)
		}
		labelLen, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if labelLen > maxSnapshotName {
			return nil, fmt.Errorf("telemetry: snapshot label length %d", labelLen)
		}
		labelB, err := r.bytes(labelLen)
		if err != nil {
			return nil, err
		}
		labels := string(labelB)
		if strings.ContainsAny(labels, "\n") ||
			(labels != "" && (labels[0] != '{' || labels[len(labels)-1] != '}')) {
			return nil, fmt.Errorf("telemetry: malformed snapshot label set %q", labels)
		}
		m := SnapMetric{Kind: kind, Name: name, Labels: labels}
		switch kind {
		case SnapCounter:
			v, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			if v > math.MaxInt64 {
				return nil, fmt.Errorf("telemetry: counter overflows int64")
			}
			m.Counter = int64(v)
		case SnapGauge:
			raw, err := r.bytes(8)
			if err != nil {
				return nil, err
			}
			m.Gauge = math.Float64frombits(binary.LittleEndian.Uint64(raw))
		case SnapHistogram:
			h := &SnapHist{}
			if h.Count, err = r.uvarint(); err != nil {
				return nil, err
			}
			if h.SumNano, err = r.varint(); err != nil {
				return nil, err
			}
			k, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			if k > histBuckets {
				return nil, fmt.Errorf("telemetry: snapshot histogram claims %d buckets (max %d)", k, histBuckets)
			}
			prev := -1
			var total uint64
			for j := uint64(0); j < k; j++ {
				gap, err := r.uvarint()
				if err != nil {
					return nil, err
				}
				if gap == 0 {
					return nil, fmt.Errorf("telemetry: non-ascending histogram bucket index")
				}
				// Compared as a uint64 before it becomes an int: a gap of
				// 2⁶⁴−1 would otherwise step back to a negative index.
				if gap > uint64(histBuckets-1-prev) {
					return nil, fmt.Errorf("telemetry: histogram bucket gap %d past the last bucket", gap)
				}
				ix := prev + int(gap)
				v, err := r.uvarint()
				if err != nil {
					return nil, err
				}
				h.Idx = append(h.Idx, uint32(ix))
				h.Vals = append(h.Vals, v)
				total += v
				prev = ix
			}
			if total != h.Count {
				return nil, fmt.Errorf("telemetry: histogram count %d != bucket sum %d", h.Count, total)
			}
			m.Hist = h
		}
		key := m.key()
		if key <= prevKey && len(s.Metrics) > 0 {
			return nil, fmt.Errorf("telemetry: snapshot metrics not in canonical order")
		}
		prevKey = key
		s.Metrics = append(s.Metrics, m)
	}
	if r.pos != len(r.b) {
		return nil, fmt.Errorf("telemetry: %d trailing bytes after snapshot", len(r.b)-r.pos)
	}
	return s, nil
}

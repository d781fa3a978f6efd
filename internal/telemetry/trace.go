// Trace-context propagation. A trace ID is minted once per report
// batch at the edge (client or HTTP ingest), rides the framed TCP Frame
// and the X-Idldp-Trace HTTP header into the ingestion runtime, stamps
// the deltas that runtime publishes, and is carried on every delta
// push up the merger tiers — so one batch is followable from a node to
// the top-tier merger through structured logs and the per-stage
// histograms its hops feed.
//
// Aggregation makes exact per-report tracing meaningless (a fold mixes
// thousands of reports into one frame), so propagation is
// representative: each stage notes the latest trace it absorbed and
// stamps outbound work with it. Every log line along the way still
// joins on one ID.
package telemetry

import (
	"crypto/rand"
	"encoding/hex"
	"net/http"
	"sync/atomic"
)

// TraceHeader carries the trace ID on HTTP hops.
const TraceHeader = "X-Idldp-Trace"

// NewTraceID mints a 16-hex-character random trace ID.
func NewTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing means the platform entropy source is
		// broken; tracing degrades to "untraced" rather than panicking
		// an ingest path.
		return ""
	}
	return hex.EncodeToString(b[:])
}

// ValidTraceID reports whether s looks like a trace ID we minted:
// non-empty, at most 64 chars, hex only. Inbound IDs from the network
// are filtered through this so logs and frames can't be polluted.
func ValidTraceID(s string) bool {
	if len(s) == 0 || len(s) > 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
		if !ok {
			return false
		}
	}
	return true
}

// TraceFromRequest extracts a validated trace ID from an inbound HTTP
// request, or "".
func TraceFromRequest(r *http.Request) string {
	t := r.Header.Get(TraceHeader)
	if !ValidTraceID(t) {
		return ""
	}
	return t
}

// TraceNote remembers the latest trace ID a component absorbed — the
// representative-trace mechanism. A nil *TraceNote is a no-op. Safe
// for concurrent use.
type TraceNote struct {
	v atomic.Value // string
}

// Note records id as the latest trace; empty or invalid IDs are
// ignored so an untraced frame never erases context.
func (t *TraceNote) Note(id string) {
	if t == nil || !ValidTraceID(id) {
		return
	}
	t.v.Store(id)
}

// Last returns the most recently noted trace ID, or "".
func (t *TraceNote) Last() string {
	if t == nil {
		return ""
	}
	s, _ := t.v.Load().(string)
	return s
}

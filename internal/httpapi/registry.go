// GET /v1/fleet: the merger's operator view of its registry, per-member
// liveness and bandwidth accounting. It is the one registry route served
// over HTTP: fleet peers register, heartbeat, push deltas and poll
// snapshots over framed TCP (internal/transport).
package httpapi

import (
	"net/http"
	"time"

	"idldp/internal/registry"
)

// memberStatusBody is the GET /v1/fleet per-member JSON view.
type memberStatusBody struct {
	Name           string    `json:"name"`
	Kind           string    `json:"kind,omitempty"`
	N              int64     `json:"n"`
	Registered     bool      `json:"registered"`
	Evicted        bool      `json:"evicted"`
	NeedResync     bool      `json:"need_resync"`
	LastSeen       time.Time `json:"last_seen"`
	Registrations  int64     `json:"registrations"`
	Pushes         int64     `json:"pushes"`
	Resyncs        int64     `json:"resyncs"`
	Rejects        int64     `json:"rejects"`
	DeltaBytes     int64     `json:"delta_bytes"`
	PollEquivBytes int64     `json:"poll_equiv_bytes"`
	LastTrace      string    `json:"last_trace,omitempty"`
}

// NewRegistry serves GET /v1/fleet over reg. The handler does not own
// reg: closing the registry is the caller's job.
func NewRegistry(reg *registry.Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/fleet", func(w http.ResponseWriter, r *http.Request) {
		sts := reg.Status()
		out := make([]memberStatusBody, len(sts))
		for i, st := range sts {
			out[i] = memberStatusBody{
				Name: st.Name, Kind: st.Kind, N: st.N,
				Registered: st.Registered, Evicted: st.Evicted, NeedResync: st.NeedResync,
				LastSeen: st.LastSeen, Registrations: st.Registrations,
				Pushes: st.Pushes, Resyncs: st.Resyncs, Rejects: st.Rejects,
				DeltaBytes: st.DeltaBytes, PollEquivBytes: st.PollEquivBytes,
				LastTrace: st.LastTrace,
			}
		}
		writeJSON(w, map[string]any{"members": out, "bits": reg.Bits()})
	})
	return mux
}

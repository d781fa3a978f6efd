// The HTTP face of the fleet control plane: a merger mounts a
// RegistryHandler to accept push registrations from nodes that cannot
// speak the binary frame protocol. Endpoints (JSON bodies defined in internal/registry):
//
//	POST /v1/register   {"name","bits","kind","time_nano","mac"}
//	                    → {"session","heartbeat_ns","bits"}
//	POST /v1/heartbeat  {"name","session","time_nano","mac"} → 204
//	POST /v1/delta      {"name","session","time_nano","mac",
//	                     "seq","resync","packed","dn","n"}   → 204
//	GET  /v1/snapshot   merged fleet state; authenticated with the same
//	                    headers as a RequireSnapshotAuth node
//	GET  /v1/fleet      per-member liveness + bandwidth accounting
//
// Control-plane errors map to statuses a node can act on: 401 means the
// fleet token is wrong, 409 means the session is gone (re-register) or
// a resync is required; registry.DialHTTP folds the body's error string
// back into the registry sentinels either way.
package httpapi

import (
	"errors"
	"net/http"
	"time"

	"idldp/internal/registry"
	"idldp/internal/varpack"
)

// RegistryHandler serves a merger's control plane over HTTP.
type RegistryHandler struct {
	reg *registry.Registry
	mux *http.ServeMux
}

// NewRegistry wraps reg. The handler does not own it: closing the
// registry is the caller's job.
func NewRegistry(reg *registry.Registry) *RegistryHandler {
	h := &RegistryHandler{reg: reg, mux: http.NewServeMux()}
	h.mux.HandleFunc("POST /v1/register", h.handleRegister)
	h.mux.HandleFunc("POST /v1/heartbeat", h.handleHeartbeat)
	h.mux.HandleFunc("POST /v1/delta", h.handleDelta)
	h.mux.HandleFunc("GET /v1/snapshot", h.handleSnapshot)
	h.mux.HandleFunc("GET /v1/fleet", h.handleFleet)
	return h
}

// ServeHTTP implements http.Handler.
func (h *RegistryHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) { h.mux.ServeHTTP(w, r) }

// controlStatus maps control-plane errors onto HTTP statuses.
func controlStatus(err error) int {
	switch {
	case errors.Is(err, registry.ErrAuth):
		return http.StatusUnauthorized
	case errors.Is(err, registry.ErrBadSession),
		errors.Is(err, registry.ErrResyncRequired),
		errors.Is(err, registry.ErrReplay):
		return http.StatusConflict
	default:
		return http.StatusBadRequest
	}
}

func (h *RegistryHandler) handleRegister(w http.ResponseWriter, r *http.Request) {
	var body registry.RegisterBody
	if err := decodeJSON(w, r, &body); err != nil {
		return
	}
	reply, err := h.reg.Register(registry.RegisterRequest{
		Name: body.Name, Bits: body.Bits, Kind: body.Kind, TimeNano: body.TimeNano, MAC: body.MAC,
	})
	if err != nil {
		httpError(w, controlStatus(err), err.Error())
		return
	}
	writeJSON(w, registry.RegisterReplyBody{
		Session:       reply.Session,
		HeartbeatNano: int64(reply.HeartbeatEvery),
		Bits:          reply.Bits,
	})
}

func (h *RegistryHandler) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var body registry.HeartbeatBody
	if err := decodeJSON(w, r, &body); err != nil {
		return
	}
	err := h.reg.HandleHeartbeat(registry.Heartbeat{
		Name: body.Name, Session: body.Session, TimeNano: body.TimeNano, MAC: body.MAC,
		Telemetry: body.Telemetry,
	})
	if err != nil {
		httpError(w, controlStatus(err), err.Error())
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (h *RegistryHandler) handleDelta(w http.ResponseWriter, r *http.Request) {
	var body registry.PushBody
	if err := decodeJSON(w, r, &body); err != nil {
		return
	}
	err := h.reg.Push(registry.Push{
		Name: body.Name, Session: body.Session, TimeNano: body.TimeNano, MAC: body.MAC,
		Frame: registry.PushFrame{
			Seq: body.Seq, Resync: body.Resync, Packed: body.Packed, DN: body.DN, N: body.N,
			Trace: body.Trace,
		},
	})
	if err != nil {
		httpError(w, controlStatus(err), err.Error())
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (h *RegistryHandler) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	node, ts, mac, err := registry.SnapshotHTTPFields(r)
	if err == nil {
		err = h.reg.VerifySnapshot(node, ts, mac)
	}
	if err != nil {
		httpError(w, http.StatusUnauthorized, err.Error())
		return
	}
	counts, n := h.reg.Counts()
	if r.URL.Query().Get("format") == "packed" {
		writeJSON(w, map[string]any{"packed": varpack.Pack(counts), "n": n, "bits": h.reg.Bits()})
		return
	}
	writeJSON(w, map[string]any{"counts": counts, "n": n, "bits": h.reg.Bits()})
}

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

func (h *RegistryHandler) handleFleet(w http.ResponseWriter, r *http.Request) {
	sts := h.reg.Status()
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
	writeJSON(w, map[string]any{"members": out, "bits": h.reg.Bits()})
}

package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"idldp/internal/registry"
	"idldp/internal/server"
	"idldp/internal/varpack"
)

func newAuth(t *testing.T, token string) *registry.Authenticator {
	t.Helper()
	a, err := registry.NewAuthenticator(token)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestRegistryEndpointsRoundTrip(t *testing.T) {
	auth := newAuth(t, "fleet-token")
	reg, err := registry.New(4, registry.WithAuth(auth))
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	srv := httptest.NewServer(NewRegistry(reg))
	defer srv.Close()

	conn := registry.DialHTTP(srv.URL)
	ctx := context.Background()

	req := registry.RegisterRequest{Name: "node-a", Bits: 4, Kind: "node"}
	req.SignRegister(auth, time.Now())
	grant, err := conn.Register(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if grant.Session == 0 || grant.HeartbeatEvery <= 0 || grant.Bits != 4 {
		t.Fatalf("grant: %+v", grant)
	}

	hb := registry.Heartbeat{Name: "node-a", Session: grant.Session}
	hb.SignHeartbeat(auth, time.Now())
	if err := conn.Heartbeat(ctx, hb); err != nil {
		t.Fatal(err)
	}

	p := registry.Push{Name: "node-a", Session: grant.Session,
		Frame: registry.PushFrame{Seq: 1, Resync: true, Packed: varpack.Pack([]int64{2, 0, 1, 0}), N: 3}}
	p.SignPush(auth, time.Now())
	if err := conn.Push(ctx, p); err != nil {
		t.Fatal(err)
	}
	delta, err := varpack.PackDelta([]int{1}, []int64{4})
	if err != nil {
		t.Fatal(err)
	}
	p = registry.Push{Name: "node-a", Session: grant.Session,
		Frame: registry.PushFrame{Seq: 2, Packed: delta, DN: 4, N: 7}}
	p.SignPush(auth, time.Now())
	if err := conn.Push(ctx, p); err != nil {
		t.Fatal(err)
	}
	counts, n := reg.Counts()
	if n != 7 || counts[0] != 2 || counts[1] != 4 || counts[2] != 1 {
		t.Fatalf("registry state: %v n=%d", counts, n)
	}

	// GET /v1/fleet reports the member.
	resp, err := http.Get(srv.URL + "/v1/fleet")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var fleet struct {
		Members []struct {
			Name   string `json:"name"`
			N      int64  `json:"n"`
			Pushes int64  `json:"pushes"`
		} `json:"members"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&fleet); err != nil {
		t.Fatal(err)
	}
	if len(fleet.Members) != 1 || fleet.Members[0].Name != "node-a" || fleet.Members[0].N != 7 {
		t.Fatalf("fleet view: %+v", fleet)
	}
}

func TestRegistryHTTPAuthRejection(t *testing.T) {
	auth := newAuth(t, "fleet-token")
	wrong := newAuth(t, "wrong")
	reg, err := registry.New(4, registry.WithAuth(auth))
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	srv := httptest.NewServer(NewRegistry(reg))
	defer srv.Close()
	conn := registry.DialHTTP(srv.URL)
	ctx := context.Background()

	// Missing and wrong-token registrations: 401 → ErrAuth.
	if _, err := conn.Register(ctx, registry.RegisterRequest{Name: "x", Bits: 4, TimeNano: time.Now().UnixNano()}); !errors.Is(err, registry.ErrAuth) {
		t.Fatalf("unsigned register: %v", err)
	}
	req := registry.RegisterRequest{Name: "x", Bits: 4}
	req.SignRegister(wrong, time.Now())
	if _, err := conn.Register(ctx, req); !errors.Is(err, registry.ErrAuth) {
		t.Fatalf("wrong-token register: %v", err)
	}

	// A valid session, then a wrong-token delta and a stale-session push.
	req = registry.RegisterRequest{Name: "x", Bits: 4}
	req.SignRegister(auth, time.Now())
	grant, err := conn.Register(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	p := registry.Push{Name: "x", Session: grant.Session,
		Frame: registry.PushFrame{Seq: 1, Resync: true, Packed: varpack.Pack(make([]int64, 4))}}
	p.SignPush(wrong, time.Now())
	if err := conn.Push(ctx, p); !errors.Is(err, registry.ErrAuth) {
		t.Fatalf("wrong-token push: %v", err)
	}
	p = registry.Push{Name: "x", Session: grant.Session + 1,
		Frame: registry.PushFrame{Seq: 1, Resync: true, Packed: varpack.Pack(make([]int64, 4))}}
	p.SignPush(auth, time.Now())
	if err := conn.Push(ctx, p); !errors.Is(err, registry.ErrBadSession) {
		t.Fatalf("stale-session push: %v", err)
	}

	// The merged snapshot requires the token too.
	resp, err := http.Get(srv.URL + "/v1/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated merger snapshot: %s", resp.Status)
	}
	sreq, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/snapshot", nil)
	registry.SignSnapshotHTTP(sreq, auth, "", time.Now())
	resp, err = http.DefaultClient.Do(sreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("authenticated merger snapshot: %s", resp.Status)
	}
}

func TestAnnounceOverHTTP(t *testing.T) {
	auth := newAuth(t, "fleet-token")
	reg, err := registry.New(6, registry.WithAuth(auth))
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	srv := httptest.NewServer(NewRegistry(reg))
	defer srv.Close()

	sink, err := server.New(6, server.WithStream(10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	a, err := registry.Announce(registry.AnnounceConfig{
		Name: "http-node", Bits: 6, Kind: "node", Auth: auth,
		Dial: func(context.Context) (registry.Conn, error) {
			return registry.DialHTTP(srv.URL), nil
		},
		Subscribe: sink.Subscribe,
		Backoff:   5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.AddCounts([]int64{1, 2, 3, 0, 0, 1}, 7); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-a.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("announcer did not drain")
	}
	a.Close()
	counts, n := reg.Counts()
	if n != 7 || counts[2] != 3 {
		t.Fatalf("pushed state: %v n=%d", counts, n)
	}
}

func TestNodeSnapshotAuth(t *testing.T) {
	auth := newAuth(t, "fleet-token")
	h, err := New(4, func(counts []int64, n int) ([]float64, error) {
		out := make([]float64, len(counts))
		for i, c := range counts {
			out[i] = float64(c)
		}
		return out, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	h.RequireSnapshotAuth(auth)
	defer h.Close()
	srv := httptest.NewServer(h)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated snapshot: %s", resp.Status)
	}
	// Wrong token.
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/snapshot", nil)
	registry.SignSnapshotHTTP(req, newAuth(t, "wrong"), "", time.Now())
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("wrong-token snapshot: %s", resp.Status)
	}
	// Right token.
	req, _ = http.NewRequest(http.MethodGet, srv.URL+"/v1/snapshot", nil)
	registry.SignSnapshotHTTP(req, auth, "poller", time.Now())
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("authenticated snapshot: %s", resp.Status)
	}
	// Other endpoints stay open: ingest carries only perturbed data.
	if resp, err := http.Get(srv.URL + "/v1/status"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("status endpoint gated: %v %v", err, resp.Status)
	}
}

package httpapi

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"idldp/internal/registry"
	"idldp/internal/varpack"
)

// TestRegistryEndpointsRoundTrip: GET /v1/fleet reports what the
// registry holds for a member registered and pushed to directly.
func TestRegistryEndpointsRoundTrip(t *testing.T) {
	reg, err := registry.New(4)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	srv := httptest.NewServer(NewRegistry(reg))
	defer srv.Close()

	grant, err := reg.Register(registry.RegisterRequest{Name: "node-a", Bits: 4, Kind: "node"})
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Push(registry.Push{Name: "node-a", Session: grant.Session,
		Frame: registry.PushFrame{Seq: 1, Resync: true, Packed: varpack.Pack([]int64{2, 4, 1, 0}), N: 7}}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + "/v1/fleet")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var fleet struct {
		Members []struct {
			Name   string `json:"name"`
			Kind   string `json:"kind"`
			N      int64  `json:"n"`
			Pushes int64  `json:"pushes"`
		} `json:"members"`
		Bits int `json:"bits"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&fleet); err != nil {
		t.Fatal(err)
	}
	if m := fleet.Members; fleet.Bits != 4 || len(m) != 1 || m[0].Name != "node-a" || m[0].Kind != "node" || m[0].N != 7 || m[0].Pushes != 1 {
		t.Fatalf("fleet view: %+v", fleet)
	}
	// The peer routes are gone: they speak framed TCP.
	resp, err = http.Post(srv.URL+"/v1/register", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /v1/register answered %s, want 404", resp.Status)
	}
}

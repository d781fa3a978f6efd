package transport

import (
	"bytes"
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"idldp/internal/registry"
	"idldp/internal/server"
	"idldp/internal/telemetry"
)

// TestHeartbeatTelemetryOverTCP proves the packed snapshot survives the
// frame round trip: a real node announces over TCP, its heartbeats
// carry telemetry, and the merger's federation converges to a fold that
// is bit-exact equal to the node's own snapshot and renders on the
// merger's combined /metrics page.
func TestHeartbeatTelemetryOverTCP(t *testing.T) {
	auth := testAuth(t, "fleet-token")
	reg, err := registry.New(8, registry.WithAuth(auth), registry.WithHeartbeat(40*time.Millisecond, 5))
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	rs := startRegistry(t, reg)

	tel := telemetry.NewRegistry("idldp")
	sink, err := server.New(8, server.WithShards(2), server.WithStream(10*time.Millisecond),
		server.WithTelemetry(tel))
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	a, err := registry.Announce(registry.AnnounceConfig{
		Name: "node-0", Bits: 8, Kind: "node", Auth: auth,
		Dial: func(ctx context.Context) (registry.Conn, error) {
			return DialRegistry(ctx, rs.Addr())
		},
		Subscribe:         sink.Subscribe,
		SnapshotTelemetry: tel.Snapshot,
		Backoff:           5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	if err := sink.AddCounts([]int64{1, 2, 3, 0, 0, 1, 0, 0}, 7); err != nil {
		t.Fatal(err)
	}

	// Wait for a heartbeat carrying the post-ingest counters.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if reg.Federation().Merged().Counter("ingest_reports_total") == 7 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("federated ingest counter stuck at %d, want 7",
				reg.Federation().Merged().Counter("ingest_reports_total"))
		}
		time.Sleep(5 * time.Millisecond)
	}

	got := reg.Federation().Member("node-0").Cumulative().Pack()
	want := tel.Snapshot().Cumulative().Pack()
	if !bytes.Equal(got, want) {
		t.Fatalf("federated member snapshot != node snapshot after TCP round trip\ngot  %x\nwant %x", got, want)
	}
	ms := reg.Federation().Members()
	if len(ms) != 1 || ms[0].Node != "node-0" || ms[0].Tier != "node" {
		t.Fatalf("federation members: %+v", ms)
	}

	// The merger daemon's one scrape surface: its own series, the
	// federated fold and the membership gauges.
	mergerTel := telemetry.NewRegistry("idldp")
	mergerTel.Counter("own_counter", "merger-local series").Add(3)
	rec := httptest.NewRecorder()
	telemetry.HandlerFor(mergerTel, reg.Federation(), reg).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	for _, line := range []string{
		"idldp_own_counter_total 3",
		`idldp_fleet_ingest_reports_total{node="node-0",tier="node"} 7`,
		"idldp_fleet_ingest_reports_total 7",
		`idldp_fleet_member_up{node="node-0",tier="node"} 1`,
		`idldp_fleet_member_heartbeat_age_seconds{node="node-0",tier="node"}`,
	} {
		if !strings.Contains(rec.Body.String(), line) {
			t.Fatalf("combined /metrics missing %q:\n%s", line, rec.Body.String())
		}
	}
}

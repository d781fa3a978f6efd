package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"idldp/internal/budget"
	"idldp/internal/core"
	"idldp/internal/registry"
	"idldp/internal/rng"
	"idldp/internal/server"
	"idldp/internal/telemetry"
	"idldp/internal/transport"
)

// onceCfg is the baseline -once configuration tests tweak.
func onceCfg(nodes string) config {
	return config{
		nodes:    nodes,
		interval: time.Second,
		once:     true,
	}
}

func TestRunOnceMergesTwoServers(t *testing.T) {
	engine, err := core.New(core.Config{Budgets: budget.ToyExample(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	perNode := []int{30, 50}
	addrs := startFilledServers(t, engine, perNode)

	var out bytes.Buffer
	cfg := onceCfg("tcp://" + addrs[0] + ", " + addrs[1])
	cfg.streamOut = true
	cfg.window = 4
	if err := run(&out, cfg); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("merged n=%d across 2 nodes", perNode[0]+perNode[1])
	if !strings.Contains(out.String(), want) {
		t.Fatalf("output missing %q:\n%s", want, out.String())
	}
	if !strings.Contains(out.String(), "fleet-wide estimated frequencies") {
		t.Fatalf("output missing estimates:\n%s", out.String())
	}
}

// startFilledServers starts one framed TCP collector per entry of
// perNode, sends it that many reports, and returns the addresses.
func startFilledServers(t *testing.T, engine *core.Engine, perNode []int) []string {
	t.Helper()
	var addrs []string
	for ni, n := range perNode {
		srv, err := transport.Serve("127.0.0.1:0", engine.M())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		addrs = append(addrs, srv.Addr())
		c, err := transport.Dial(context.Background(), srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(uint64(ni + 1))
		for u := 0; u < n; u++ {
			if err := c.SendReport(engine.PerturbItem(u%engine.M(), r)); err != nil {
				t.Fatal(err)
			}
		}
		// Snapshot flushes the connection batcher before we disconnect.
		if _, _, _, err := c.Snapshot(); err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
	return addrs
}

// TestRunRequiresMembership: a merger needs a membership source, and
// -listen-http is not one: peers never speak HTTP.
func TestRunRequiresMembership(t *testing.T) {
	for _, cfg := range []config{onceCfg(""), {listenHTTP: "127.0.0.1:0", interval: time.Second}} {
		if err := run(&bytes.Buffer{}, cfg); err == nil || !strings.Contains(err.Error(), "need -nodes") {
			t.Fatalf("%+v: err = %v, want a missing-membership error", cfg, err)
		}
	}
}

// TestRunRejectsBadSpec: a peer target of any scheme but tcp:// fails
// at startup, for polled nodes and the upstream merger alike.
func TestRunRejectsBadSpec(t *testing.T) {
	upstream := func(target string) config {
		return config{listen: "127.0.0.1:0", upstream: target, interval: time.Second, duration: time.Second}
	}
	for _, cfg := range []config{
		onceCfg("gopher://nope"), onceCfg("http://127.0.0.1:8090"), onceCfg("tcp://127.0.0.1:1,https://h"),
		upstream("http://127.0.0.1:8090"), upstream("https://top"),
	} {
		if err := run(&bytes.Buffer{}, cfg); err == nil || !strings.Contains(err.Error(), "unsupported scheme") {
			t.Fatalf("nodes %q upstream %q: err = %v, want unsupported scheme", cfg.nodes, cfg.upstream, err)
		}
	}
}

func TestRunOnceDeadFleetExitsNonzero(t *testing.T) {
	var out bytes.Buffer
	// Nothing listens on this port; -once against a dead fleet must error.
	if err := run(&out, onceCfg("tcp://127.0.0.1:1")); err == nil {
		t.Fatalf("dead fleet reported success:\n%s", out.String())
	}
}

// TestRunOnceWindowAndStreamOutput: with -stream and -window, the merge
// prints live frames and a windowed estimate section whose single-poll
// window equals the all-time merge.
func TestRunOnceWindowAndStreamOutput(t *testing.T) {
	engine, err := core.New(core.Config{Budgets: budget.ToyExample(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := transport.Serve("127.0.0.1:0", engine.M())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := transport.Dial(context.Background(), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(3)
	for u := 0; u < 40; u++ {
		if err := c.SendReport(engine.PerturbItem(u%engine.M(), r)); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, _, err := c.Snapshot(); err != nil {
		t.Fatal(err)
	}
	c.Close()

	var out bytes.Buffer
	cfg := onceCfg(srv.Addr())
	cfg.streamOut = true
	cfg.window = 3
	if err := run(&out, cfg); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"stream: seq=",
		"merged n=40 across 1 nodes",
		"windowed (last 3 polls): n=40",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
}

// syncBuffer lets the test read run()'s output while run is writing it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// waitAddr waits for a running merger to print the address it bound for
// scheme: its control plane's ("tcp") or its HTTP listener's ("http").
func waitAddr(t *testing.T, out *syncBuffer, scheme string) string {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; {
		if time.Now().After(deadline) {
			t.Fatalf("merger never printed its %s address:\n%s", scheme, out.String())
		}
		if _, rest, ok := strings.Cut(out.String(), " on "+scheme+"://"); ok && strings.Contains(rest, "\n") {
			return strings.Fields(rest)[0]
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// get fetches url, failing the test on anything but 200.
func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, b)
	}
	return string(b)
}

// TestRunListenAcceptsAnnouncingServer: a push-mode merger and an
// announcing idldp-server runtime wired end to end through the CLI
// configuration surface.
func TestRunListenAcceptsAnnouncingServer(t *testing.T) {
	engine, err := core.New(core.Config{Budgets: budget.ToyExample(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	var out syncBuffer
	cfg := config{
		interval:    50 * time.Millisecond,
		duration:    2 * time.Second,
		listen:      "127.0.0.1:0",
		fleetToken:  "merge-test-token",
		heartbeat:   200 * time.Millisecond,
		evictMissed: 3,
	}
	go func() { done <- run(&out, cfg) }()
	listenAddr := waitAddr(t, &out, "tcp")

	// An announcing node: a streaming runtime + announcer, fed directly.
	srv, err := startAnnouncingNode(engine, listenAddr, "merge-test-token")
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(9)
	for u := 0; u < 500; u++ {
		if err := srv.sink.Add(engine.PerturbItem(u%engine.M(), r)); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.close(); err != nil {
		t.Fatal(err)
	}

	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("merger did not stop after its duration")
	}
	got := out.String()
	for _, want := range []string{
		"accepting push registrations",
		"merged n=500 across 1 nodes",
		"push://",
		"delta-push: received",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
}

// announcingNode bundles a streaming runtime and its announcer.
type announcingNode struct {
	sink *server.Server
	ann  *registry.Announcer
}

// startAnnouncingNode builds a streaming ingestion runtime that pushes
// its deltas to the merger's control plane at addr.
func startAnnouncingNode(engine *core.Engine, addr, token string) (*announcingNode, error) {
	auth, err := registry.NewAuthenticator(token)
	if err != nil {
		return nil, err
	}
	sink, err := server.New(engine.M(), server.WithShards(2), server.WithStream(20*time.Millisecond))
	if err != nil {
		return nil, err
	}
	ann, err := registry.Announce(registry.AnnounceConfig{
		Name: "test-node", Bits: engine.M(), Kind: "node", Auth: auth,
		Dial: func(ctx context.Context) (registry.Conn, error) {
			return transport.DialRegistry(ctx, addr)
		},
		Subscribe: sink.Subscribe,
		Backoff:   20 * time.Millisecond,
	})
	if err != nil {
		sink.Close()
		return nil, err
	}
	return &announcingNode{sink: sink, ann: ann}, nil
}

// close drains the node: the runtime's final resync is pushed before
// the announcer exits.
func (n *announcingNode) close() error {
	err := n.sink.Close()
	select {
	case <-n.ann.Done():
	case <-time.After(5 * time.Second):
	}
	n.ann.Close()
	return err
}

// TestRunListenHTTPServesLiveEstimates: the -listen-http port mounts
// the cached merged read surface — live estimates and read stats
// reflect members push-registered over the TCP control plane.
func TestRunListenHTTPServesLiveEstimates(t *testing.T) {
	engine, err := core.New(core.Config{Budgets: budget.ToyExample(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	var out syncBuffer
	cfg := config{
		interval:    50 * time.Millisecond,
		duration:    3 * time.Second,
		listen:      "127.0.0.1:0",
		listenHTTP:  "127.0.0.1:0",
		fleetToken:  "merge-http-token",
		heartbeat:   200 * time.Millisecond,
		evictMissed: 3,
	}
	go func() { done <- run(&out, cfg) }()
	tcpAddr, httpAddr := waitAddr(t, &out, "tcp"), waitAddr(t, &out, "http")

	srv, err := startAnnouncingNode(engine, tcpAddr, "merge-http-token")
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(11)
	for u := 0; u < 300; u++ {
		if err := srv.sink.Add(engine.PerturbItem(u%engine.M(), r)); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.close(); err != nil {
		t.Fatal(err)
	}

	// The merged live surface converges to the pushed reports within a
	// few poll intervals.
	var body string
	for deadline := time.Now().Add(5 * time.Second); ; {
		resp, err := http.Get("http://" + httpAddr + "/v1/estimates")
		if err == nil {
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != 200 {
				t.Fatalf("live estimates returned %d: %s", resp.StatusCode, b)
			}
			body = string(b)
			if strings.Contains(body, `"reports":300`) {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("live estimates never reached n=300: %s", body)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if b := get(t, "http://"+httpAddr+"/v1/readstats"); !strings.Contains(b, `"calibrations"`) {
		t.Fatalf("readstats: %s", b)
	}

	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("merger did not stop after its duration")
	}
}

// TestRunPolledNodesAreMembers: a polling merger's -nodes are registry
// members like any push-registered node — listed by GET /v1/fleet,
// scrapeable as idldp_fleet_member_up{tier="poll"}, merged into the live
// estimates — and failed fetches are counted where the registry cannot
// see them.
func TestRunPolledNodesAreMembers(t *testing.T) {
	engine, err := core.New(core.Config{Budgets: budget.ToyExample(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var specs []string
	for _, addr := range startFilledServers(t, engine, []int{30, 50}) {
		specs = append(specs, "tcp://"+addr)
	}
	done := make(chan error, 1)
	var out syncBuffer
	cfg := config{
		nodes:      strings.Join(specs, ","),
		interval:   50 * time.Millisecond,
		duration:   2 * time.Second,
		listenHTTP: "127.0.0.1:0",
	}
	go func() { done <- run(&out, cfg) }()
	base := "http://" + waitAddr(t, &out, "http")
	for deadline := time.Now().Add(5 * time.Second); !strings.Contains(get(t, base+"/v1/estimates"), `"reports":80`); {
		if time.Now().After(deadline) {
			t.Fatalf("live estimates never reached n=80: %s", get(t, base+"/v1/estimates"))
		}
		time.Sleep(20 * time.Millisecond)
	}
	fleetJSON, metrics := get(t, base+"/v1/fleet"), get(t, base+"/metrics")
	for _, spec := range specs {
		if !strings.Contains(fleetJSON, `"name":"`+spec+`","kind":"poll"`) {
			t.Fatalf("polled node %s missing from /v1/fleet: %s", spec, fleetJSON)
		}
		if want := `idldp_fleet_member_up{node="` + spec + `",tier="poll"} 1`; !strings.Contains(metrics, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, metrics)
		}
	}
	if !strings.Contains(metrics, "idldp_poll_failures_total 0") {
		t.Fatalf("/metrics missing the failed-fetch counter:\n%s", metrics)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := out.String(); !strings.Contains(got, "merged n=80 across 2 nodes") || strings.Contains(got, "push://") {
		t.Fatalf("final report:\n%s", got)
	}
}

// TestRunMidTierCarriesTraceUpstream: a trace absorbed by a leaf node
// rides its delta pushes into a mid-tier merger run through run(), and
// from there — on the merger's own once-per-interval stream — to the
// top tier it announces to with -upstream.
func TestRunMidTierCarriesTraceUpstream(t *testing.T) {
	engine, err := core.New(core.Config{Budgets: budget.ToyExample(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	const token = "merge-trace-token"
	auth, err := registry.NewAuthenticator(token)
	if err != nil {
		t.Fatal(err)
	}
	top, err := registry.New(engine.M(), registry.WithAuth(auth))
	if err != nil {
		t.Fatal(err)
	}
	defer top.Close()
	topSrv, err := transport.ServeRegistry("127.0.0.1:0", top)
	if err != nil {
		t.Fatal(err)
	}
	defer topSrv.Close()

	done := make(chan error, 1)
	var out syncBuffer
	cfg := config{
		interval:    50 * time.Millisecond,
		duration:    2 * time.Second,
		listen:      "127.0.0.1:0",
		fleetToken:  token,
		heartbeat:   200 * time.Millisecond,
		evictMissed: 3,
		upstream:    "tcp://" + topSrv.Addr(),
		name:        "mid-0",
	}
	go func() { done <- run(&out, cfg) }()
	node, err := startAnnouncingNode(engine, waitAddr(t, &out, "tcp"), token)
	if err != nil {
		t.Fatal(err)
	}
	trace := telemetry.NewTraceID()
	node.sink.NoteTrace(trace)
	r := rng.New(5)
	for u := 0; u < 200; u++ {
		if err := node.sink.Add(engine.PerturbItem(u%engine.M(), r)); err != nil {
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); top.LastTrace() != trace; {
		if time.Now().After(deadline) {
			t.Fatalf("top tier last trace = %q, want the leaf's %q", top.LastTrace(), trace)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := node.close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if _, n := top.Counts(); n != 200 {
		t.Fatalf("top tier merged n = %d, want 200", n)
	}
}

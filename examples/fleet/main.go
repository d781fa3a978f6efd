// Fleet topology: the production deployment shape in one process —
// durable collectors that survive restarts, and a merge layer that
// combines several collectors into one exact global aggregate.
//
// Phase 1 (durability): a sharded collector checkpoints to disk, is
// "killed" mid-campaign, restored, and finishes — its counts are
// bit-for-bit identical to an uninterrupted run, because per-bit counts
// are order-independent integer sums.
//
// Phase 2 (fleet): three aggregation servers each ingest a slice of the
// population over TCP; a fleet merger polls their snapshot frames into
// its member registry and produces fleet-wide estimates identical to a
// single collector that saw every report. Scaling out is statistically
// free.
//
// Run: go run ./examples/fleet
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"os"

	"idldp/internal/agg"
	"idldp/internal/budget"
	"idldp/internal/core"
	"idldp/internal/dist"
	"idldp/internal/fleet"
	"idldp/internal/registry"
	"idldp/internal/rng"
	"idldp/internal/server"
	"idldp/internal/transport"
)

const (
	nodes    = 3
	usersPer = 20000
)

func main() {
	engine, err := core.New(core.Config{Budgets: budget.ToyExample(), Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	pop := dist.NewSampler(dist.PMF{0.02, 0.38, 0.30, 0.18, 0.12})

	durabilityDemo(engine, pop)
	fleetDemo(engine, pop)
}

func durabilityDemo(engine *core.Engine, pop *dist.Sampler) {
	dir, err := os.MkdirTemp("", "idldp-ckpt-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	fmt.Println("=== phase 1: durable collector (checkpoint / kill / restore) ===")

	// Uninterrupted reference run.
	whole, err := server.New(engine.M(), server.WithShards(4))
	if err != nil {
		log.Fatal(err)
	}
	feed(engine, pop, whole, 0, 2*usersPer)
	wantCounts, wantN, err := whole.Drain()
	if err != nil {
		log.Fatal(err)
	}

	// First life: half the campaign, one checkpoint, then a simulated kill
	// (the runtime is abandoned, never Closed).
	first, err := server.New(engine.M(), server.WithShards(4), server.WithCheckpoint(dir, 0))
	if err != nil {
		log.Fatal(err)
	}
	feed(engine, pop, first, 0, usersPer)
	if _, err := first.CheckpointNow(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("collector ingested %d reports, checkpointed, and was killed\n", usersPer)

	// Second life: restore and finish the campaign.
	second, restored, err := server.Restore(engine.M(), server.WithShards(4), server.WithCheckpoint(dir, 0))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("restored collector resumed with %d reports\n", restored)
	feed(engine, pop, second, usersPer, 2*usersPer)
	gotCounts, gotN, err := second.Drain()
	if err != nil {
		log.Fatal(err)
	}
	same := gotN == wantN
	for i := range wantCounts {
		same = same && gotCounts[i] == wantCounts[i]
	}
	fmt.Printf("restored-run counts identical to uninterrupted run: %v (n=%d)\n\n", same, gotN)
}

// feed streams users [from, to) into the runtime through one batcher.
func feed(engine *core.Engine, pop *dist.Sampler, s *server.Server, from, to int) {
	b := s.NewBatcher()
	r := rng.New(7)
	ur := rng.New(0)
	buf := engine.NewReport()
	for u := 0; u < to; u++ {
		item := pop.Draw(r)
		r.SplitNInto(u, ur)
		if u < from {
			continue // consume the same randomness so both halves line up
		}
		engine.PerturbItemInto(item, ur, buf)
		if err := b.Add(buf); err != nil {
			log.Fatal(err)
		}
	}
	if err := b.Flush(); err != nil {
		log.Fatal(err)
	}
}

func fleetDemo(engine *core.Engine, pop *dist.Sampler) {
	fmt.Printf("=== phase 2: %d-node fleet with exact merge ===\n", nodes)
	truth := make([]float64, engine.M())
	reference := agg.New(engine.M())

	var specs []string
	for node := 0; node < nodes; node++ {
		srv, err := transport.Serve("127.0.0.1:0", engine.M(), server.WithShards(2))
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		specs = append(specs, "tcp://"+srv.Addr())

		c, err := transport.Dial(context.Background(), srv.Addr())
		if err != nil {
			log.Fatal(err)
		}
		local := agg.New(engine.M())
		r := rng.New(uint64(100 + node))
		ur := rng.New(0)
		buf := engine.NewReport()
		for u := 0; u < usersPer; u++ {
			item := pop.Draw(r)
			truth[item]++
			r.SplitNInto(u, ur)
			engine.PerturbItemInto(item, ur, buf)
			local.Add(buf)
			reference.Add(buf)
		}
		if err := c.SendBatch(local); err != nil {
			log.Fatal(err)
		}
		// Sends are buffered: Flush is where a lost tail would show.
		if err := c.Flush(); err != nil {
			log.Fatal(err)
		}
		// The snapshot request makes the server fold this connection's
		// frames before we disconnect, so the merger below sees every
		// report.
		if _, _, _, err := c.Snapshot(); err != nil {
			log.Fatal(err)
		}
		c.Close()
		fmt.Printf("node %d: ingested %d perturbed reports on %s\n", node, usersPer, srv.Addr())
	}

	// Every polled node becomes a member of the merger's registry — the
	// same membership push-registered nodes join (examples/tiered-fleet).
	reg, err := registry.New(engine.M())
	if err != nil {
		log.Fatal(err)
	}
	defer reg.Close()
	f, err := fleet.New(reg, nil, specs, 0, nil)
	if err != nil {
		log.Fatal(err)
	}
	if err := f.Poll(context.Background()); err != nil {
		log.Fatal(err)
	}
	counts, n := reg.Counts()
	refCounts := reference.Counts()
	exact := n == reference.N()
	for i := range refCounts {
		exact = exact && counts[i] == refCounts[i]
	}
	fmt.Printf("fleet merge: n=%d, identical to one collector with every report: %v\n", n, exact)

	est, err := engine.EstimateSingle(counts, int(n))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%-12s %10s %10s %8s\n", "category", "true", "estimated", "error")
	names := []string{"HIV", "flu", "headache", "stomachache", "toothache"}
	for i := range est {
		fmt.Printf("%-12s %10.0f %10.0f %7.1f%%\n",
			names[i], truth[i], est[i], 100*math.Abs(est[i]-truth[i])/math.Max(truth[i], 1))
	}
	for _, m := range reg.Status() {
		fmt.Printf("node %-22s n=%-7d polls=%d resets=%d evicted=%v\n",
			m.Name, m.N, m.Pushes, m.Resets, m.Evicted)
	}
}

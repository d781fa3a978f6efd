// Federated collection: the full networked deployment in one process — a
// TCP aggregation server and several concurrent client populations, each
// perturbing locally with IDUE and streaming batches over the wire. Only
// perturbed bits cross the network, matching the untrusted-server threat
// model.
//
// Run: go run ./examples/federated-collect
package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"sync"
	"time"

	"idldp/internal/agg"
	"idldp/internal/budget"
	"idldp/internal/core"
	"idldp/internal/dist"
	"idldp/internal/rng"
	"idldp/internal/telemetry"
	"idldp/internal/transport"
)

const (
	populations = 4
	usersPer    = 25000
)

func main() {
	logger := telemetry.NewLogger(os.Stderr, "info", false, "federated-collect", "")
	engine, err := core.New(core.Config{Budgets: budget.ToyExample(), Seed: 1})
	if err != nil {
		logger.Error("engine", "err", err)
		os.Exit(1)
	}
	srv, err := transport.Serve("127.0.0.1:0", engine.M())
	if err != nil {
		logger.Error("serve", "err", err)
		os.Exit(1)
	}
	defer srv.Close()
	fmt.Printf("aggregation server on %s\n", srv.Addr())

	// Ground truth for verification only — never leaves the clients.
	pop := dist.NewSampler(dist.PMF{0.02, 0.38, 0.30, 0.18, 0.12})
	var truthMu sync.Mutex
	truth := make([]float64, engine.M())

	var wg sync.WaitGroup
	for p := 0; p < populations; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			client, err := transport.Dial(context.Background(), srv.Addr())
			if err != nil {
				logger.Error("dial", "population", p, "err", err)
				return
			}
			defer client.Close()
			r := rng.New(uint64(100 + p))
			local := agg.New(engine.M())
			localTruth := make([]float64, engine.M())
			buf := engine.NewReport()
			ur := rng.New(0)
			for u := 0; u < usersPer; u++ {
				item := pop.Draw(r)
				localTruth[item]++
				r.SplitNInto(u, ur)
				engine.PerturbItemInto(item, ur, buf)
				local.Add(buf)
			}
			if err := client.SendBatch(local); err != nil {
				logger.Error("send", "population", p, "err", err)
				return
			}
			// Sends are buffered: the batch has left only once Flush says so.
			if err := client.Flush(); err != nil {
				logger.Error("flush", "population", p, "err", err)
				return
			}
			truthMu.Lock()
			for i, c := range localTruth {
				truth[i] += c
			}
			truthMu.Unlock()
			fmt.Printf("population %d: shipped %d perturbed reports\n", p, usersPer)
		}(p)
	}
	wg.Wait()

	// Wait for the server to drain all batches.
	want := int64(populations * usersPer)
	for {
		if _, n := srv.Snapshot(); n == want {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	ue := engine.UE()
	est, err := srv.Estimate(ue.A, ue.B, 1)
	if err != nil {
		logger.Error("estimate", "err", err)
		os.Exit(1)
	}
	fmt.Printf("\n%-12s %10s %10s %8s\n", "category", "true", "estimated", "error")
	names := []string{"HIV", "flu", "headache", "stomachache", "toothache"}
	for i := range est {
		fmt.Printf("%-12s %10.0f %10.0f %7.1f%%\n",
			names[i], truth[i], est[i], 100*math.Abs(est[i]-truth[i])/math.Max(truth[i], 1))
	}
}

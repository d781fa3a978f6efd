// Command idldp-client simulates a population of survey respondents: each
// user perturbs her answer locally with the toy IDUE mechanism and the
// batch of perturbed reports is streamed to an idldp-server. Only
// randomized data leaves the process.
//
// With -acked every frame demands an acknowledgement and honors the
// server's flow control: a saturated or draining server answers with a
// shed ack + Retry-After hint and the client backs off (full jitter) and
// retries the same frame — delivery is delayed, never lost, and the
// shed/retry/backoff counters are printed at exit.
//
// Usage:
//
//	idldp-client [-addr 127.0.0.1:7070] [-n 10000] [-seed 1] [-batch] [-acked]
//	             [-log-level info] [-log-json]
//
// Every run mints a trace ID, stamps it on each outbound frame, and
// logs it: the same ID surfaces in the server's structured logs and —
// carried on the delta-push path — in the merger fleet status, so one
// batch is followable end to end across tiers.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"idldp/internal/agg"
	"idldp/internal/bitvec"
	"idldp/internal/budget"
	"idldp/internal/core"
	"idldp/internal/dist"
	"idldp/internal/flow"
	"idldp/internal/rng"
	"idldp/internal/telemetry"
	"idldp/internal/transport"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7070", "server address")
		n        = flag.Int("n", 10000, "number of simulated users")
		seed     = flag.Uint64("seed", 1, "population seed")
		batch    = flag.Bool("batch", true, "aggregate locally and ship one batch frame")
		acked    = flag.Bool("acked", false, "demand per-frame acks; back off and retry when the server sheds")
		logLevel = flag.String("log-level", "info", "structured log level: debug, info, warn, error")
		logJSON  = flag.Bool("log-json", false, "emit structured logs as JSON instead of text")
	)
	flag.Parse()
	if err := run(*addr, *n, *seed, *batch, *acked, *logLevel, *logJSON); err != nil {
		fmt.Fprintln(os.Stderr, "idldp-client:", err)
		os.Exit(1)
	}
}

func run(addr string, n int, seed uint64, batch, acked bool, logLevel string, logJSON bool) error {
	logger := telemetry.NewLogger(os.Stderr, logLevel, logJSON, "idldp-client", "")
	engine, err := core.New(core.Config{Budgets: budget.ToyExample(), Seed: 1})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	client, err := transport.Dial(ctx, addr)
	if err != nil {
		return err
	}
	defer client.Close()
	// The trace ID rides every frame of this run: the server notes it at
	// ingest and it climbs the delta-push path tier by tier.
	trace := telemetry.NewTraceID()
	client.SetTrace(trace)
	logger.Info("run start", "trace", trace, "addr", addr, "users", n, "batch", batch, "acked", acked)
	if acked {
		client.SetRetryPolicy(flow.Default(), seed)
	}
	// sendReport/sendBatch select the fire-and-forget or acked path once.
	sendReport := client.SendReport
	sendBatch := client.SendBatch
	if acked {
		sendReport = func(v *bitvec.Vector) error { return client.SendReportAck(ctx, v) }
		sendBatch = func(a *agg.Aggregator) error { return client.SendBatchAck(ctx, a) }
	}

	// Simulated truth: HIV rare, common ailments frequent.
	pop := dist.NewSampler(dist.PMF{0.02, 0.38, 0.30, 0.18, 0.12})
	r := rng.New(seed)
	// One report buffer and one per-user stream, reused across all n
	// simulated users: the local aggregator folds the report and the
	// client copies it into its write buffer before the next iteration
	// overwrites it.
	buf := engine.NewReport()
	ur := rng.New(0)
	if batch {
		local := agg.New(engine.M())
		for u := 0; u < n; u++ {
			r.SplitNInto(u, ur)
			engine.PerturbItemInto(pop.Draw(r), ur, buf)
			local.Add(buf)
		}
		if err := sendBatch(local); err != nil {
			return err
		}
	} else {
		for u := 0; u < n; u++ {
			r.SplitNInto(u, ur)
			engine.PerturbItemInto(pop.Draw(r), ur, buf)
			if err := sendReport(buf); err != nil {
				return err
			}
		}
	}
	// Sends are buffered; only a clean Flush means all n reports left.
	if err := client.Flush(); err != nil {
		return err
	}
	fmt.Printf("sent %d perturbed reports to %s\n", n, addr)
	logger.Info("run done", "trace", trace, "reports", n)
	if acked {
		st := client.FlowStats()
		fmt.Printf("flow: %d attempts, %d retries, %d sheds, %v backing off\n",
			st.Attempts, st.Retries, st.Sheds, st.Backoff.Round(time.Millisecond))
		logger.Info("flow", "trace", trace, "attempts", st.Attempts, "retries", st.Retries,
			"sheds", st.Sheds, "backoff", st.Backoff)
	}
	return nil
}

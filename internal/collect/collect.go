// Package collect runs the end-to-end collection pipeline of Fig. 2
// in-process: every user perturbs her input locally (in parallel across
// worker goroutines, each with its own derived random stream) and the
// reports flow through the sharded ingestion runtime of internal/server —
// each perturbation worker owns a server.Batcher, shard workers fold the
// batches, and the drained shard states merge into one aggregator.
// Results are deterministic for a fixed seed regardless of the worker or
// shard count, because each user draws from a stream derived from her
// index and per-bit counts are order-independent integer sums.
//
// The *Into entry points run the steady-state loop allocation-free: each
// worker reuses one report buffer (overwritten per user via the
// mechanism's *Into perturbation) and one reseedable child rng.Source, so
// per-user cost is the mechanism's planned draws — O(m/64 · 9.24) for bits
// in mech's bit planes, O(m·b̄) for runs it samples by geometric skip (see
// the cost model in package mech) — plus a word-level fold into the
// batcher's counts.
//
// A Run* campaign builds its sink, feeds it and drains it once, so nothing
// reads a shard between frames: its batchers ship one frame per
// frameReports reports, not per server.DefaultBatchSize. StreamInto feeds a
// sink the caller owns — a live node whose readers want fresh frames — and
// leaves that sink's batching alone.
package collect

import (
	"fmt"
	"runtime"
	"sync"

	"idldp/internal/agg"
	"idldp/internal/bitvec"
	"idldp/internal/rng"
	"idldp/internal/server"
)

// PerturbItemFunc perturbs one user's single-item input, allocating the
// report.
type PerturbItemFunc func(item int, r *rng.Source) *bitvec.Vector

// PerturbSetFunc perturbs one user's item-set input, allocating the
// report.
type PerturbSetFunc func(set []int, r *rng.Source) *bitvec.Vector

// PerturbItemIntoFunc perturbs one user's single-item input into out,
// overwriting its contents — the allocation-free counterpart of
// PerturbItemFunc (e.g. mech.UE.PerturbItemInto or
// core.Engine.PerturbItemInto).
type PerturbItemIntoFunc func(item int, r *rng.Source, out *bitvec.Vector)

// PerturbSetIntoFunc perturbs one user's item-set input into out,
// overwriting its contents.
type PerturbSetIntoFunc func(set []int, r *rng.Source, out *bitvec.Vector)

// Options tunes a collection run.
type Options struct {
	// Workers is the number of perturbation goroutines; <= 0 means
	// GOMAXPROCS.
	Workers int
	// Seed derives every user's random stream.
	Seed uint64
}

// frameReports is the batch size of a Run* campaign's private sink. A frame
// is a pooled []int64 of one entry per bit whatever it sums, so its size
// costs no memory; what it buys is hand-offs: a 20,000-user round wakes a
// parked shard worker 5 times instead of the 79 of server.DefaultBatchSize
// (256). On the benchmark's one-worker §VII campaign that is 1.69M → 2.06M
// reports/s (6/6 alternating pairs) — Batcher.Flush goes from 2.3% of the
// perturbation worker to 0.7%, and the second core stops being woken every
// 150 µs for an 8 KB add. Well under bitvec.LaneCap (65,535), so the
// batcher's lanes never spill mid-frame.
const frameReports = 4096

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// RunSingle perturbs and aggregates all single-item users. bits is the
// report length (the mechanism's bit count). The perturb callback
// allocates each report; prefer RunSingleInto for the steady-state
// allocation-free path.
func RunSingle(items []int, bits int, perturb PerturbItemFunc, o Options) (*agg.Aggregator, error) {
	if bits <= 0 {
		return nil, fmt.Errorf("collect: report length %d must be positive", bits)
	}
	return runUsers(len(items), bits, o, func(u int, r *rng.Source, _ *bitvec.Vector) *bitvec.Vector {
		return perturb(items[u], r)
	})
}

// RunSingleInto is RunSingle with a buffer-reusing perturbation: each
// worker owns one report buffer that perturb overwrites per user, so the
// per-user loop performs no allocations. For the same seed and callback
// semantics it aggregates exactly the counts RunSingle would.
func RunSingleInto(items []int, bits int, perturb PerturbItemIntoFunc, o Options) (*agg.Aggregator, error) {
	if bits <= 0 {
		return nil, fmt.Errorf("collect: report length %d must be positive", bits)
	}
	return runUsers(len(items), bits, o, func(u int, r *rng.Source, buf *bitvec.Vector) *bitvec.Vector {
		perturb(items[u], r, buf)
		return buf
	})
}

// RunSets perturbs and aggregates all item-set users. bits is the report
// length m+ℓ. Prefer RunSetsInto for the allocation-free path.
func RunSets(sets [][]int, bits int, perturb PerturbSetFunc, o Options) (*agg.Aggregator, error) {
	if bits <= 0 {
		return nil, fmt.Errorf("collect: report length %d must be positive", bits)
	}
	return runUsers(len(sets), bits, o, func(u int, r *rng.Source, _ *bitvec.Vector) *bitvec.Vector {
		return perturb(sets[u], r)
	})
}

// RunSetsInto is RunSets with a buffer-reusing perturbation (see
// RunSingleInto).
func RunSetsInto(sets [][]int, bits int, perturb PerturbSetIntoFunc, o Options) (*agg.Aggregator, error) {
	if bits <= 0 {
		return nil, fmt.Errorf("collect: report length %d must be positive", bits)
	}
	return runUsers(len(sets), bits, o, func(u int, r *rng.Source, buf *bitvec.Vector) *bitvec.Vector {
		perturb(sets[u], r, buf)
		return buf
	})
}

// runUsers drives the worker pool. report receives a per-worker scratch
// buffer it may (but need not) use as the returned vector; the returned
// vector is only read before the next call, so reuse is safe — Batcher.Add
// folds it into per-bit counts immediately and retains nothing.
func runUsers(n, bits int, o Options, report func(u int, r *rng.Source, buf *bitvec.Vector) *bitvec.Vector) (*agg.Aggregator, error) {
	workers := o.workers()
	if workers > n && n > 0 {
		workers = n
	}
	total := agg.New(bits)
	if n == 0 {
		return total, nil
	}
	sink, err := server.New(bits, server.WithShards(workers), server.WithBatchSize(frameReports))
	if err != nil {
		return nil, fmt.Errorf("collect: %w", err)
	}
	defer sink.Close()
	root := rng.New(o.Seed)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[w] = fmt.Errorf("collect: worker %d: %v", w, p)
				}
			}()
			b := sink.NewBatcher()
			buf := bitvec.New(bits)
			ur := rng.New(0)
			// Static block partition keeps per-user streams stable.
			lo := w * n / workers
			hi := (w + 1) * n / workers
			for u := lo; u < hi; u++ {
				// Reseed one child source per user instead of allocating
				// one: the stream is identical to root.SplitN(u).
				root.SplitNInto(u, ur)
				if err := b.Add(report(u, ur, buf)); err != nil {
					errs[w] = err
					return
				}
			}
			errs[w] = b.Flush()
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			return nil, errs[w]
		}
	}
	counts, users, err := sink.Drain()
	if err != nil {
		return nil, fmt.Errorf("collect: %w", err)
	}
	if err := total.AddCounts(counts, users); err != nil {
		return nil, fmt.Errorf("collect: %w", err)
	}
	return total, nil
}

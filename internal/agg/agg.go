// Package agg implements the server side of the collection pipeline
// (Fig. 2): accumulating perturbed bit vectors into per-bit counts
// (summation step) and calibrating them into frequency estimates
// (calibration step). An Aggregator is single-goroutine; concurrent
// pipelines give each worker its own Aggregator and Merge at the end,
// which keeps the hot path lock-free.
package agg

import (
	"fmt"

	"idldp/internal/bitvec"
	"idldp/internal/estimate"
)

// Aggregator accumulates perturbed reports for an m-bit domain.
type Aggregator struct {
	counts []int64
	n      int64
}

// New returns an aggregator for m-bit reports. It panics if m <= 0.
func New(m int) *Aggregator {
	if m <= 0 {
		panic("agg: domain size must be positive")
	}
	return &Aggregator{counts: make([]int64, m)}
}

// Add accumulates one report. The report length must match the domain.
func (a *Aggregator) Add(v *bitvec.Vector) {
	if v.Len() != len(a.counts) {
		panic(fmt.Sprintf("agg: report has %d bits, domain has %d", v.Len(), len(a.counts)))
	}
	v.AccumulateInto(a.counts)
	a.n++
}

// AddCounts accumulates a pre-summed batch: counts[i] is added bit-wise
// and n users are recorded. Used by the network transport, which ships
// partial sums instead of raw reports.
func (a *Aggregator) AddCounts(counts []int64, n int64) error {
	if len(counts) != len(a.counts) {
		return fmt.Errorf("agg: batch has %d bits, domain has %d", len(counts), len(a.counts))
	}
	if n < 0 {
		return fmt.Errorf("agg: negative user count %d", n)
	}
	for i, c := range counts {
		if c < 0 || c > n {
			return fmt.Errorf("agg: bit %d count %d outside [0,%d]", i, c, n)
		}
		a.counts[i] += c
	}
	a.n += n
	return nil
}

// Merge folds another aggregator of the same domain into a.
func (a *Aggregator) Merge(b *Aggregator) error {
	if len(b.counts) != len(a.counts) {
		return fmt.Errorf("agg: merging domain %d into %d", len(b.counts), len(a.counts))
	}
	for i, c := range b.counts {
		a.counts[i] += c
	}
	a.n += b.n
	return nil
}

// N returns the number of users aggregated.
func (a *Aggregator) N() int64 { return a.n }

// Bits returns the domain size m.
func (a *Aggregator) Bits() int { return len(a.counts) }

// Counts returns a copy of the per-bit counts.
func (a *Aggregator) Counts() []int64 { return append([]int64(nil), a.counts...) }

// Estimate calibrates the accumulated counts into unbiased frequency
// estimates ĉ_i = scale·(c_i - n·b_i)/(a_i - b_i).
func (a *Aggregator) Estimate(pa, pb []float64, scale float64) ([]float64, error) {
	return estimate.Calibrate(a.counts, int(a.n), pa, pb, scale)
}

// Concurrent pipelines — many goroutines feeding one sink — run on
// internal/server, which shards per-worker Aggregators behind buffered
// channels and merges on read instead of serializing every add behind a
// lock.

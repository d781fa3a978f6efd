package main

import (
	"fmt"
	"time"

	"idldp/internal/agg"
	"idldp/internal/collect"
	"idldp/internal/estimate"
)

// batchScale sizes the batch campaigns. The campaign walks the user
// population in rounds of roundUsers, each round with its own
// perturbation seed, and refreshes the analyst's estimates after every
// round; it runs until the timed section is over. The counts after the
// first fixedRounds rounds do not depend on how fast the box is, so
// their hash is the exact value two runs of one seed must share.
type batchScale struct {
	users, roundUsers, fixedRounds int
}

func batchScaleFor(workload string, smoke bool) batchScale {
	switch {
	case smoke:
		return batchScale{users: 10_000, roundUsers: 2_000, fixedRounds: 3}
	case workload == wlBatchSet:
		// Baskets cost ~40x an item to generate and hold; the campaign
		// cycles a smaller population.
		return batchScale{users: 200_000, roundUsers: 20_000, fixedRounds: 10}
	}
	return batchScale{users: 1_000_000, roundUsers: 20_000, fixedRounds: 10}
}

// batchJob hides the one difference between the two batch workloads:
// which collect entry point folds a round and which estimator reads it.
type batchJob struct {
	bits     int
	runRound func(lo, hi int, seed uint64) (*agg.Aggregator, error)
	estimate func(counts []int64, n int) ([]float64, error)
	// addTarget adds users [lo,hi)'s contribution to the value the
	// estimator is unbiased for, and theory returns the analytic total
	// MSE around that target for n reports.
	addTarget func(target []float64, lo, hi int)
	theory    func(target []float64, n int) (float64, error)
}

func setupBatch(e *env) (any, error) {
	sc := batchScaleFor(e.workload, e.smoke)
	if e.workload == wlBatchSet {
		return setupSet(e.seed, sc.users)
	}
	return setupItem(e.seed, sc.users)
}

func itemJob(in *itemInputs) batchJob {
	return batchJob{
		bits: in.eng.M(),
		runRound: func(lo, hi int, seed uint64) (*agg.Aggregator, error) {
			return collect.RunSingleInto(in.items[lo:hi], in.eng.M(), in.eng.PerturbItemInto,
				collect.Options{Workers: 1, Seed: seed})
		},
		estimate: in.eng.EstimateSingle,
		addTarget: func(target []float64, lo, hi int) {
			for _, it := range in.items[lo:hi] {
				target[it]++
			}
		},
		theory: in.eng.TheoreticalTotalMSE,
	}
}

// setJob: under padding-and-sampling a user holding more than ell items
// is sampled at rate 1/|x| but scaled by ell, so the estimator targets
// ell * sum_u 1/max(|x_u|, ell) rather than the raw count; the utility
// check compares against that target, where the analytic variance holds.
func setJob(in *setInputs) batchJob {
	ell := in.eng.PaddingLength()
	ue := in.eng.SetMech().UE
	return batchJob{
		bits: in.eng.M() + ell,
		runRound: func(lo, hi int, seed uint64) (*agg.Aggregator, error) {
			return collect.RunSetsInto(in.sets[lo:hi], in.eng.M()+ell, in.eng.PerturbSetInto,
				collect.Options{Workers: 1, Seed: seed})
		},
		estimate: in.eng.EstimateSet,
		addTarget: func(target []float64, lo, hi int) {
			for _, set := range in.sets[lo:hi] {
				w := float64(ell) / float64(max(len(set), ell))
				for _, it := range set {
					target[it] += w
				}
			}
		},
		theory: func(target []float64, n int) (float64, error) {
			var sum float64
			for i, t := range target {
				sum += estimate.TheoreticalMSEPS(n, t/float64(ell), ue.A[i], ue.B[i], ell)
			}
			return sum, nil
		},
	}
}

func runBatch(e *env, inputs any) (*outcome, error) {
	sc := batchScaleFor(e.workload, e.smoke)
	var job batchJob
	switch in := inputs.(type) {
	case *itemInputs:
		job = itemJob(in)
	case *setInputs:
		job = setJob(in)
	default:
		return nil, fmt.Errorf("batch: unexpected inputs %T", inputs)
	}

	total := agg.New(job.bits)
	target := make([]float64, domainM)
	var (
		est              []float64
		reads, lags      durations
		roundTimes       []float64 // seconds per round, estimate refresh included
		runTime          time.Duration
		fixedFNV         string
		roundsPerPass    = sc.users / sc.roundUsers
		limit            = time.Duration(e.seconds * float64(time.Second))
		section          = beginSection()
		start            = time.Now()
		rounds, attempts int64
	)
	for time.Since(start) < limit || rounds < int64(sc.fixedRounds) {
		lo := int(rounds%int64(roundsPerPass)) * sc.roundUsers
		hi := lo + sc.roundUsers
		round := e.tr.begin("campaign.round", uint64(rounds), -1)
		h := e.tr.begin("collect.Run", uint64(rounds), round)
		t0 := time.Now()
		a, err := job.runRound(lo, hi, e.seed<<20+uint64(rounds))
		t1 := time.Now()
		e.tr.end(h)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", rounds, err)
		}
		runTime += t1.Sub(t0)
		// The analyst's refresh: fold the round in and recalibrate. The
		// lag is last report folded -> estimates emitted; the read is
		// the calibration alone.
		h = e.tr.begin("agg.Merge", uint64(rounds), round)
		if err := total.Merge(a); err != nil {
			return nil, err
		}
		counts := total.Counts()
		e.tr.end(h)
		h = e.tr.begin("core.Estimate", uint64(rounds), round)
		t2 := time.Now()
		est, err = job.estimate(counts, int(total.N()))
		t3 := time.Now()
		e.tr.end(h)
		e.tr.end(round)
		if err != nil {
			return nil, fmt.Errorf("estimate after round %d: %w", rounds, err)
		}
		reads = append(reads, t3.Sub(t2))
		lags = append(lags, t3.Sub(t1))
		roundTimes = append(roundTimes, t3.Sub(t0).Seconds())
		job.addTarget(target, lo, hi)
		rounds++
		attempts += int64(sc.roundUsers)
		if rounds == int64(sc.fixedRounds) {
			fixedFNV = fnv64(counts, total.N())
		}
	}
	gc, alloc := section.end()

	n := total.N()
	out := newOutcome()
	m := out.m
	// Rates are those of the median round: a neighbour stealing the core
	// for a moment moves a mean, not a median.
	typical := median(roundTimes)
	m.setN("reports_per_s", float64(sc.roundUsers)/typical, len(roundTimes))
	m.setN("reads_per_s", 1/typical, len(roundTimes))
	reads.put(m, time.Microsecond, map[float64]string{0.5: "read_live_p50_us", 0.99: "read_live_p99_us"})
	lags.put(m, time.Millisecond, map[float64]string{0.5: "visible_lag_p50_ms"})
	m.set("collect.run_ns_per_report", float64(runTime.Nanoseconds())/float64(n))
	m.set("bench.gc_pause_ms", gc)
	m.set("bench.alloc_bytes_per_report", alloc/float64(n))

	out.attempted = attempts
	out.failed = attempts - n
	out.exact["counts_fnv"] = fixedFNV
	out.exact["fixed_reports"] = fmt.Sprint(sc.fixedRounds * sc.roundUsers)
	out.check("folded n == users x rounds", n == rounds*int64(sc.roundUsers),
		fmt.Sprintf("n=%d rounds=%d x %d", n, rounds, sc.roundUsers))

	emp, err := estimate.TotalSquaredError(est, target)
	if err != nil {
		return nil, err
	}
	theo, err := job.theory(target, int(n))
	if err != nil {
		return nil, err
	}
	ratio := emp / theo
	m.set("estimate.mse_ratio", ratio)
	// At smoke scale n is too small for the analytic variance to be a
	// tight predictor over 1024 items; the band is checked at full scale.
	out.check("estimate.mse_ratio in [0.8, 1.25]", e.smoke || (ratio >= 0.8 && ratio <= 1.25),
		fmt.Sprintf("empirical %.4g / theoretical %.4g = %.4f", emp, theo, ratio))
	return out, nil
}

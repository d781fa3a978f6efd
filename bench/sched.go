package main

import (
	"sync"
	"syscall"
	"time"
)

// sleepUntil blocks until t. The Go runtime rounds an idle process's
// timers up to a millisecond (its netpoller waits in whole ms), far too
// coarse for a 1.28 ms frame schedule, so the generators sleep in the
// kernel's high-resolution nanosleep instead; the blocked thread hands
// its P to the system under test.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}

// pacer is an open-loop schedule: operation k is due at start+k*every
// whatever the system under test did with operation k-1. Latencies are
// timed from the due time, so a stall charges every operation it
// delayed, and how late the generator itself ran is kept as its own
// sample (bench.gen_late_p95_ms guards the run's validity).
type pacer struct {
	start time.Time
	every time.Duration
	late  durations
}

func newPacer(start time.Time, every time.Duration) *pacer {
	return &pacer{start: start, every: every}
}

// due returns when operation k is scheduled.
func (p *pacer) due(k int) time.Time { return p.start.Add(time.Duration(k) * p.every) }

// wait blocks until operation k is due and returns the due time. The
// lateness recorded is how long after the due time the caller actually
// got to run.
func (p *pacer) wait(k int) time.Time {
	due := p.due(k)
	sleepUntil(due)
	p.late = append(p.late, time.Since(due))
	return due
}

// scheduled returns how many operations were due in [start, start+d).
func (p *pacer) scheduled(d time.Duration) int {
	return int((d + p.every - 1) / p.every)
}

// sendLog maps the V-th report of a single paced sender to the moment
// its send completed, so an observer that sees a result carrying n = V
// can compute the stream-processing lag: emission of the result minus
// creation of the last report contributing to it.
type sendLog struct {
	mu   sync.Mutex
	base time.Time
	at   []int64 // nanoseconds since base, index V-1
}

func newSendLog(base time.Time, capacity int) *sendLog {
	return &sendLog{base: base, at: make([]int64, 0, capacity)}
}

func (l *sendLog) sent(t time.Time) {
	l.mu.Lock()
	l.at = append(l.at, int64(t.Sub(l.base)))
	l.mu.Unlock()
}

// lag returns recv minus the send-complete time of report v (1-based);
// ok is false when v is outside what has been sent.
func (l *sendLog) lag(v int64, recv time.Time) (time.Duration, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if v < 1 || v > int64(len(l.at)) {
		return 0, false
	}
	return recv.Sub(l.base) - time.Duration(l.at[v-1]), true
}

func (l *sendLog) count() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return int64(len(l.at))
}

// rateWindows counts completed operations in fixed windows so a rate
// can be reported as the median window's: a GC pause or an fsync stall
// inside one run moves a mean, not a median. One per goroutine; merge
// by adding.
type rateWindows struct {
	start  time.Time
	counts []int64
}

const rateWindow = 250 * time.Millisecond

func newRateWindows(start time.Time) *rateWindows { return &rateWindows{start: start} }

// add records k operations completed now.
func (r *rateWindows) add(k int64) {
	i := int(time.Since(r.start) / rateWindow)
	for len(r.counts) <= i {
		r.counts = append(r.counts, 0)
	}
	r.counts[i] += k
}

func (r *rateWindows) merge(o *rateWindows) {
	for len(r.counts) < len(o.counts) {
		r.counts = append(r.counts, 0)
	}
	for i, c := range o.counts {
		r.counts[i] += c
	}
}

// median returns the median per-second rate over the whole windows
// before end (the last, partial window is left out), and how many. A
// section shorter than one window reports its plain mean.
func (r *rateWindows) median(end time.Time) (perSecond float64, windows int) {
	full := int(end.Sub(r.start) / rateWindow)
	if full > len(r.counts) {
		full = len(r.counts)
	}
	if full == 0 {
		var total int64
		for _, c := range r.counts {
			total += c
		}
		return float64(total) / end.Sub(r.start).Seconds(), 0
	}
	rates := make([]float64, full)
	for i, c := range r.counts[:full] {
		rates[i] = float64(c) / rateWindow.Seconds()
	}
	return median(rates), full
}

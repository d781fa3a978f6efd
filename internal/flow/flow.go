// Package flow is the client half of shed-aware flow control: one
// retry policy — full-jitter exponential backoff, bounded attempts,
// per-attempt deadlines, context cancellation — shared by every sender
// in the repository (the framed TCP transport client, the in-process
// collect senders, the announcer's reconnect loop, and the CLIs).
//
// The server side of the loop is internal/server's saturation guard:
// an overloaded or draining collector *pushes back* (a shed flag on
// the ingest ack, HTTP 429 with Retry-After) instead of silently
// dropping, and a flow-controlled sender reacts by backing off and
// re-sending — so under overload reports are delayed, never lost, and
// the fleet converges once pressure clears.
//
// Backoff is "full jitter" (AWS architecture-blog style): the delay
// before attempt k is drawn uniformly from [0, min(Max, Base·2^k)].
// Pure doubling synchronizes clients — after a merger restart every
// node would reconnect in lockstep, re-saturating it on a beat —
// whereas full jitter spreads the retry load across the whole window,
// de-correlating senders that failed at the same instant.
package flow

import (
	"context"
	"errors"
	"time"

	"idldp/internal/rng"
)

// ErrExhausted is returned by Do when every allowed attempt was pushed
// back; the last pushback error (if any) is attached via %w chaining.
var ErrExhausted = errors.New("flow: retry attempts exhausted")

// Defaults for Policy fields left zero.
const (
	DefaultBase       = 50 * time.Millisecond
	DefaultMax        = 2 * time.Second
	DefaultAttempts   = 10
	DefaultPerAttempt = 5 * time.Second
)

// Rand is the randomness a jittered backoff draws from; satisfied by
// rng.Source and math/rand.
type Rand interface {
	Float64() float64
}

// Policy is one sender's retry schedule.
type Policy struct {
	// Base is the first backoff window; it doubles per attempt up to
	// Max (full jitter draws uniformly inside the window).
	Base time.Duration
	// Max caps the backoff window.
	Max time.Duration
	// Attempts bounds the total tries (first send included). <= 0
	// selects DefaultAttempts.
	Attempts int
	// PerAttempt bounds each attempt's round trip. <= 0 selects
	// DefaultPerAttempt.
	PerAttempt time.Duration
	// Floor is the minimum delay between attempts — senders raise it to
	// a server-advertised Retry-After hint so backoff never undercuts
	// what the server asked for.
	Floor time.Duration
}

// Default returns the defaults-filled policy.
func Default() Policy { return Policy{}.WithDefaults() }

// WithDefaults fills zero fields with the package defaults.
func (p Policy) WithDefaults() Policy {
	if p.Base <= 0 {
		p.Base = DefaultBase
	}
	if p.Max < p.Base {
		p.Max = DefaultMax
		if p.Max < p.Base {
			p.Max = p.Base
		}
	}
	if p.Attempts <= 0 {
		p.Attempts = DefaultAttempts
	}
	if p.PerAttempt <= 0 {
		p.PerAttempt = DefaultPerAttempt
	}
	return p
}

// Delay draws the full-jitter backoff before retry attempt k (0-based:
// the delay after the first failed attempt is Delay(r, 0)), respecting
// the policy's Floor.
func (p Policy) Delay(r Rand, attempt int) time.Duration {
	p = p.WithDefaults()
	window := p.Base
	for i := 0; i < attempt && window < p.Max; i++ {
		window *= 2
	}
	if window > p.Max {
		window = p.Max
	}
	d := time.Duration(r.Float64() * float64(window))
	if d < p.Floor {
		d = p.Floor
	}
	return d
}

// Stats counts one sender's flow-control activity. Not synchronized;
// give each goroutine its own and Merge afterwards.
type Stats struct {
	// Attempts counts every try (first sends included); Retries the
	// tries after a pushback; Sheds the pushbacks observed.
	Attempts, Retries, Sheds int64
	// Backoff sums the time spent sleeping between attempts.
	Backoff time.Duration
}

// Merge folds other into s.
func (s *Stats) Merge(other Stats) {
	s.Attempts += other.Attempts
	s.Retries += other.Retries
	s.Sheds += other.Sheds
	s.Backoff += other.Backoff
}

// NewRand returns a deterministic Rand for the seed — flow decisions
// are reproducible under a fixed seed, like everything else here.
func NewRand(seed uint64) Rand { return rng.New(seed) }

// Sleep waits d or until ctx ends, reporting whether the full wait
// elapsed.
func Sleep(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// Do runs op under the policy until it succeeds, fails permanently, the
// attempts run out, or ctx ends. op receives a context bounded by the
// per-attempt deadline and reports (pushback, err): pushback true means
// the peer shed the request and op should be retried after a jittered
// delay (err may carry the pushback detail); pushback false returns err
// (or success) as final. st (optional) accumulates the activity.
func Do(ctx context.Context, p Policy, r Rand, st *Stats, op func(ctx context.Context) (bool, error)) error {
	p = p.WithDefaults()
	if st == nil {
		st = &Stats{}
	}
	var last error
	for attempt := 0; attempt < p.Attempts; attempt++ {
		if attempt > 0 {
			d := p.Delay(r, attempt-1)
			st.Backoff += d
			if !Sleep(ctx, d) {
				return ctx.Err()
			}
			st.Retries++
		}
		st.Attempts++
		actx, cancel := context.WithTimeout(ctx, p.PerAttempt)
		pushback, err := op(actx)
		cancel()
		if !pushback {
			return err
		}
		st.Sheds++
		last = err
		if ctx.Err() != nil {
			return ctx.Err()
		}
	}
	if last != nil {
		return errors.Join(ErrExhausted, last)
	}
	return ErrExhausted
}

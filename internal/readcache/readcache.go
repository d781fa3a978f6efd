// Package readcache is the read-path scale-out substrate: a
// generation-stamped cache of calibrated read results and a shared
// broadcast hub for pre-marshaled live events, so thousands of dashboard
// readers cost one calibration (and one marshal) per data generation
// instead of one per request.
//
// The key idea is that this system never needs TTL guesswork. Every read
// surface sits downstream of the delta stream (internal/stream), whose
// frame sequence numbers the exact data generations: a result computed
// from the state at seq g is bit-for-bit correct until the next frame
// arrives, and bit-for-bit stale the moment it does. So entries are
// stamped with the generation they were computed at and invalidated by
// generation comparison — a cached value is either exactly current or
// replaced, never "probably fresh enough". Staleness of the whole read
// path is bounded by the publish interval, not by cache tuning.
//
// Cache memoizes per-key results (cumulative estimates, windowed
// estimates per span k, heavy-hitter sets); Hub broadcasts the newest
// pre-marshaled event payload to any number of waiting SSE writers.
// Both are safe for concurrent use.
//
// Time-travel answers (internal/history) are the other half of the same
// idea: a generation that has been recorded never changes again, so its
// answer needs no stamp at all — only a bound. Cache keeps them in a
// second store keyed by what makes the answer immutable (Past: the
// generation answered, or both ends of a settled span), holding the
// pre-marshaled body alone, evicted least-recently-used once the bodies
// pass PastBudget bytes. Which answers are immutable is the caller's
// rule, not the cache's: the HTTP layer never puts a span whose upper
// end is past the newest generation, a span clamped by retention, or an
// empty answer, and it asks the history store whether a generation is
// still retained before it looks here, so a pruned generation is never
// answered from memory. Lookups in both stores count into one Stats.
package readcache

import (
	"container/list"
	"sync"
	"time"
)

// Kind says what a cached entry holds.
type Kind uint8

const (
	// Cumulative is the all-time calibrated estimates.
	Cumulative Kind = iota + 1
	// Windowed is the estimates over the last K stream intervals.
	Windowed
	// HeavyHitters is the identified heavy-hitter set.
	HeavyHitters
)

// Key identifies one cached result. Within a generation each key has at
// most one value; across generations the newer computation replaces the
// older in place, so the map never grows beyond the distinct keys in use
// (callers normalize Windowed spans to min(k, window capacity), which
// bounds them by the capacity).
type Key struct {
	Kind Kind
	// K is the window span in intervals for Windowed keys, 0 otherwise.
	K int
}

// Value is one generation-stamped result.
type Value struct {
	// Gen is the stream sequence the result was computed at.
	Gen uint64
	// N is the report count behind the estimates.
	N int64
	// Estimates is the calibrated result. Shared between readers —
	// read-only.
	Estimates []float64
	// Payload optionally holds the pre-marshaled response body, so
	// cache-hit readers skip the encode as well as the calibration.
	// Read-only, like Estimates.
	Payload []byte
}

// Past identifies one immutable time-travel answer: the cumulative
// state at generation To (Span false, From 0), or the estimates over
// the span From < seq <= To (Span true).
type Past struct {
	Span     bool
	From, To uint64
}

// PastBudget bounds the bodies held for Past keys, in payload bytes
// (about 80 answers at m = 1024).
const PastBudget = 2 << 20

// pastEntry is one element of the LRU list.
type pastEntry struct {
	key  Past
	body []byte
}

// Stats is a point-in-time view of cache activity.
type Stats struct {
	// Hits counts lookups answered from the cache — a current-generation
	// entry, or a held Past body — and Misses the lookups that found
	// nothing or only a stale generation.
	Hits, Misses int64
	// Entries is the live entry count of both stores (stale generations
	// are replaced, not accumulated; Past bodies are evicted by budget).
	Entries int
	// Bytes is the payload held for Past keys, never above PastBudget.
	Bytes int64
}

// Cache is a generation-stamped result cache plus the bounded store of
// immutable time-travel bodies. The zero value is not usable; call New.
type Cache struct {
	mu      sync.Mutex
	entries map[Key]Value
	hits    int64
	misses  int64

	// past maps a key to its element in lru (front = most recently used);
	// pastBytes is the sum of the bodies' lengths.
	past      map[Past]*list.Element
	lru       *list.List
	pastBytes int64
}

// New returns an empty cache.
func New() *Cache {
	return &Cache{entries: make(map[Key]Value), past: make(map[Past]*list.Element), lru: list.New()}
}

// GetPast returns the body held for key, marking it most recently used.
func (c *Cache) GetPast(key Past) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.past[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.lru.MoveToFront(el)
	return el.Value.(*pastEntry).body, true
}

// PutPast holds body for key, evicting least-recently-used bodies until
// the total fits PastBudget. The answer under a key never changes, so a
// key already held keeps its body; a body larger than the whole budget
// is not held. The cache shares body with future readers; the caller
// must not mutate it afterwards.
func (c *Cache) PutPast(key Past, body []byte) {
	size := int64(len(body))
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, held := c.past[key]; held || size > PastBudget {
		return
	}
	for c.pastBytes+size > PastBudget {
		oldest := c.lru.Back()
		e := c.lru.Remove(oldest).(*pastEntry)
		delete(c.past, e.key)
		c.pastBytes -= int64(len(e.body))
	}
	c.past[key] = c.lru.PushFront(&pastEntry{key: key, body: body})
	c.pastBytes += size
}

// Get returns the entry for key if one was computed at exactly
// generation gen. A value from any other generation is a miss — stale
// data is never served, only recomputed.
func (c *Cache) Get(gen uint64, key Key) (Value, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.entries[key]
	if !ok || v.Gen != gen {
		c.misses++
		return Value{}, false
	}
	c.hits++
	return v, true
}

// Put stores v under key, replacing any previous generation's entry.
// The cache shares v.Estimates and v.Payload with future readers; the
// caller must not mutate them afterwards.
func (c *Cache) Put(key Key, v Value) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.entries[key]; ok && old.Gen > v.Gen {
		// A racing reader computed an older generation after a newer one
		// landed; keep the newest.
		return
	}
	c.entries[key] = v
}

// GetOrCompute returns the current-generation entry for key, computing
// and storing it via compute on a miss. compute runs outside the cache
// lock; concurrent first readers of a fresh generation may compute
// duplicates (identical by construction — last write wins).
func (c *Cache) GetOrCompute(gen uint64, key Key, compute func() (Value, error)) (Value, error) {
	if v, ok := c.Get(gen, key); ok {
		return v, nil
	}
	v, err := compute()
	if err != nil {
		return Value{}, err
	}
	v.Gen = gen
	c.Put(key, v)
	return v, nil
}

// Stats returns the activity counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Hits: c.hits, Misses: c.misses, Entries: len(c.entries) + len(c.past), Bytes: c.pastBytes}
}

// Hub is a single-producer broadcast of the latest pre-marshaled event
// payload: the stream consumer publishes one payload per generation and
// every subscribed writer ships those same bytes. A slow writer never
// queues payloads — it sees fewer, fresher generations (the broadcast
// analogue of the stream's drop-and-resync).
type Hub struct {
	mu      sync.Mutex
	seq     uint64
	payload []byte
	fatal   bool
	closed  bool
	notify  chan struct{} // closed and replaced on every publish

	subs      int64
	published int64
}

// NewHub returns an empty hub.
func NewHub() *Hub {
	return &Hub{notify: make(chan struct{})}
}

// Publish replaces the latest payload and wakes every waiter. The hub
// shares payload with its readers; the caller must not mutate it. fatal
// marks a terminal payload (an error event): writers ship it and then
// hang up.
func (h *Hub) Publish(seq uint64, payload []byte, fatal bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.seq, h.payload, h.fatal = seq, payload, fatal
	h.published++
	close(h.notify)
	h.notify = make(chan struct{})
}

// Latest returns the newest published payload (nil before the first
// publish), its generation and fatal flag, whether the hub is closed,
// and a channel closed at the next publish or close — everything a
// writer loop needs in one consistent read.
func (h *Hub) Latest() (seq uint64, payload []byte, fatal, closed bool, next <-chan struct{}) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.seq, h.payload, h.fatal, h.closed, h.notify
}

// Close wakes every waiter for the last time; the final payload stays
// readable so late writers can ship the closing state.
func (h *Hub) Close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	close(h.notify)
}

// Add and Done track attached writers, for stats only.
func (h *Hub) Add() {
	h.mu.Lock()
	h.subs++
	h.mu.Unlock()
}

// Done reverses Add.
func (h *Hub) Done() {
	h.mu.Lock()
	h.subs--
	h.mu.Unlock()
}

// HubStats is a point-in-time view of hub activity.
type HubStats struct {
	// Subscribers is the attached writer count, Published the payloads
	// broadcast so far.
	Subscribers, Published int64
	// LastSeq is the newest published generation.
	LastSeq uint64
}

// Stats returns the activity counters.
func (h *Hub) Stats() HubStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	return HubStats{Subscribers: h.subs, Published: h.published, LastSeq: h.seq}
}

// Wait blocks until a payload newer than seen arrives (returning its
// generation and true), the hub closes (false), or the deadline passes
// (false). It exists for tests and pollers; SSE writers use Latest's
// next channel directly.
func (h *Hub) Wait(seen uint64, deadline time.Time) (uint64, bool) {
	for {
		seq, payload, _, closed, next := h.Latest()
		if payload != nil && seq != seen {
			return seq, true
		}
		if closed {
			return seq, false
		}
		d := time.Until(deadline)
		if d <= 0 {
			return seq, false
		}
		t := time.NewTimer(d)
		select {
		case <-next:
			t.Stop()
		case <-t.C:
			return seq, false
		}
	}
}

package readcache

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestCacheGenerationStamping(t *testing.T) {
	c := New()
	key := Key{Kind: Cumulative}
	if _, ok := c.Get(1, key); ok {
		t.Fatal("empty cache returned a value")
	}
	c.Put(key, Value{Gen: 1, N: 10, Estimates: []float64{1, 2}})
	if v, ok := c.Get(1, key); !ok || v.N != 10 {
		t.Fatalf("current-generation get: ok=%v v=%+v", ok, v)
	}
	// A newer generation invalidates by comparison, not by TTL: the old
	// entry is a miss the instant the generation moves.
	if _, ok := c.Get(2, key); ok {
		t.Fatal("stale generation served")
	}
	c.Put(key, Value{Gen: 2, N: 20})
	if v, ok := c.Get(2, key); !ok || v.N != 20 {
		t.Fatalf("replaced entry: ok=%v v=%+v", ok, v)
	}
	// An older generation must never claw back a newer entry.
	c.Put(key, Value{Gen: 1, N: 10})
	if v, ok := c.Get(2, key); !ok || v.N != 20 {
		t.Fatalf("older Put replaced newer entry: ok=%v v=%+v", ok, v)
	}
	st := c.Stats()
	if st.Entries != 1 {
		t.Fatalf("entries = %d, want 1 (replaced in place)", st.Entries)
	}
	if st.Hits != 3 || st.Misses != 2 {
		t.Fatalf("hits=%d misses=%d, want 3/2", st.Hits, st.Misses)
	}
}

func TestCacheKeysAreIndependent(t *testing.T) {
	c := New()
	c.Put(Key{Kind: Windowed, K: 5}, Value{Gen: 7, N: 5})
	c.Put(Key{Kind: Windowed, K: 9}, Value{Gen: 7, N: 9})
	c.Put(Key{Kind: Cumulative}, Value{Gen: 7, N: 100})
	for _, tc := range []struct {
		key  Key
		want int64
	}{
		{Key{Kind: Windowed, K: 5}, 5},
		{Key{Kind: Windowed, K: 9}, 9},
		{Key{Kind: Cumulative}, 100},
	} {
		if v, ok := c.Get(7, tc.key); !ok || v.N != tc.want {
			t.Fatalf("key %+v: ok=%v n=%d want %d", tc.key, ok, v.N, tc.want)
		}
	}
}

func TestGetOrCompute(t *testing.T) {
	c := New()
	key := Key{Kind: Windowed, K: 3}
	calls := 0
	compute := func() (Value, error) {
		calls++
		return Value{N: int64(calls)}, nil
	}
	for i := 0; i < 5; i++ {
		v, err := c.GetOrCompute(4, key, compute)
		if err != nil {
			t.Fatal(err)
		}
		if v.N != 1 || v.Gen != 4 {
			t.Fatalf("iteration %d: %+v", i, v)
		}
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times for one generation", calls)
	}
	if _, err := c.GetOrCompute(5, key, compute); err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("new generation did not recompute (calls=%d)", calls)
	}
	boom := func() (Value, error) { return Value{}, fmt.Errorf("boom") }
	if _, err := c.GetOrCompute(6, Key{Kind: Cumulative}, boom); err == nil {
		t.Fatal("compute error swallowed")
	}
}

func TestCacheConcurrent(t *testing.T) {
	c := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				gen := uint64(i / 10)
				key := Key{Kind: Windowed, K: g % 3}
				if _, ok := c.Get(gen, key); !ok {
					c.Put(key, Value{Gen: gen, N: int64(gen)})
				}
			}
		}(g)
	}
	wg.Wait()
	if st := c.Stats(); st.Entries > 3 {
		t.Fatalf("entries grew to %d for 3 keys", st.Entries)
	}
}

// TestPastEvictsLeastRecentlyUsedWithinBudget fills the immutable-answer
// store past its byte budget: the oldest untouched bodies go first, a
// Get refreshes recency, and the held bytes never pass PastBudget.
func TestPastEvictsLeastRecentlyUsedWithinBudget(t *testing.T) {
	c := New()
	const size = 100 << 10
	fits := PastBudget / size // 20 bodies of 100 KiB fit 2 MiB
	body := func(g uint64) []byte { return append(make([]byte, size-1), byte(g)) }
	for g := uint64(1); g <= uint64(fits); g++ {
		c.PutPast(Past{To: g}, body(g))
	}
	if st := c.Stats(); st.Entries != fits || st.Bytes != int64(fits*size) {
		t.Fatalf("after filling: %+v, want %d entries", st, fits)
	}
	// Touch generation 1, then overflow by three: 2, 3, 4 are the least
	// recently used and go; 1 stays.
	if b, ok := c.GetPast(Past{To: 1}); !ok || b[size-1] != 1 {
		t.Fatal("generation 1 not held before the overflow")
	}
	for g := uint64(fits) + 1; g <= uint64(fits)+3; g++ {
		c.PutPast(Past{To: g}, body(g))
		if st := c.Stats(); st.Bytes > PastBudget || st.Entries > fits {
			t.Fatalf("over budget after generation %d: %+v", g, st)
		}
	}
	for g, want := range map[uint64]bool{1: true, 2: false, 3: false, 4: false, 5: true, uint64(fits) + 3: true} {
		if b, ok := c.GetPast(Past{To: g}); ok != want || (ok && b[size-1] != byte(g)) {
			t.Errorf("generation %d held = %v, want %v", g, ok, want)
		}
	}
	// A span and a generation with the same number are different answers.
	if _, ok := c.GetPast(Past{Span: true, To: 5}); ok {
		t.Error("span key answered from a generation's body")
	}
	// The answer under a key never changes, so the first body stays.
	c.PutPast(Past{To: 5}, []byte("other"))
	if b, _ := c.GetPast(Past{To: 5}); len(b) != size {
		t.Errorf("second Put replaced the body (%d bytes)", len(b))
	}
	// A body that alone exceeds the budget is not held and evicts nothing.
	before := c.Stats()
	c.PutPast(Past{To: 999}, make([]byte, PastBudget+1))
	if after := c.Stats(); after.Entries != before.Entries || after.Bytes != before.Bytes {
		t.Errorf("oversized body changed the store: %+v -> %+v", before, after)
	}
	// Lookups count into the one Stats: 1 + 3 + 1 hits; 3 + 1 misses.
	if st := c.Stats(); st.Hits != 5 || st.Misses != 4 {
		t.Errorf("hits=%d misses=%d, want 5/4", st.Hits, st.Misses)
	}
}

func TestPastConcurrent(t *testing.T) {
	c := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				key := Past{Span: i%2 == 0, To: uint64((g*7 + i) % 120)}
				if b, ok := c.GetPast(key); ok {
					if len(b) != 32<<10 || b[0] != byte(key.To) {
						t.Errorf("key %+v answered with %d bytes tagged %d", key, len(b), b[0])
						return
					}
					continue
				}
				b := make([]byte, 32<<10)
				b[0] = byte(key.To)
				c.PutPast(key, b)
				if st := c.Stats(); st.Bytes > PastBudget {
					t.Errorf("held %d bytes", st.Bytes)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestHubBroadcast(t *testing.T) {
	h := NewHub()
	if _, payload, _, closed, _ := h.Latest(); payload != nil || closed {
		t.Fatal("fresh hub not empty/open")
	}
	h.Publish(1, []byte("a"), false)
	seq, payload, fatal, _, next := h.Latest()
	if seq != 1 || string(payload) != "a" || fatal {
		t.Fatalf("latest: seq=%d payload=%q fatal=%v", seq, payload, fatal)
	}
	// A publish closes the previous notify channel.
	done := make(chan struct{})
	go func() {
		<-next
		close(done)
	}()
	h.Publish(2, []byte("b"), false)
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("waiter not woken by publish")
	}
	if seq, ok := h.Wait(1, time.Now().Add(time.Second)); !ok || seq != 2 {
		t.Fatalf("Wait: seq=%d ok=%v", seq, ok)
	}
	// Slow readers see only the newest payload, never a backlog.
	if _, payload, _, _, _ := h.Latest(); string(payload) != "b" {
		t.Fatalf("latest payload %q, want b", payload)
	}
	h.Close()
	if _, _, _, closed, _ := h.Latest(); !closed {
		t.Fatal("hub not closed")
	}
	// The final payload survives Close for late writers.
	if _, payload, _, _, _ := h.Latest(); string(payload) != "b" {
		t.Fatal("final payload lost on close")
	}
	h.Publish(3, []byte("c"), false) // ignored after close
	if seq, _, _, _, _ := h.Latest(); seq != 2 {
		t.Fatalf("publish after close landed: seq=%d", seq)
	}
}

func TestHubSubscriberAccounting(t *testing.T) {
	h := NewHub()
	h.Add()
	h.Add()
	h.Done()
	h.Publish(1, []byte("x"), false)
	st := h.Stats()
	if st.Subscribers != 1 || st.Published != 1 || st.LastSeq != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestHubConcurrentWritersAndReaders(t *testing.T) {
	h := NewHub()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var seen uint64
			for {
				seq, payload, _, closed, next := h.Latest()
				if payload != nil && seq < seen {
					t.Error("generation went backwards")
					return
				}
				seen = seq
				if closed {
					return
				}
				select {
				case <-next:
				case <-stop:
					return
				}
			}
		}()
	}
	for i := uint64(1); i <= 100; i++ {
		h.Publish(i, []byte("p"), false)
	}
	h.Close()
	close(stop)
	wg.Wait()
}

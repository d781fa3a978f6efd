package main

import (
	"os"
	"strings"
	"testing"
	"time"
)

func TestRunStopsAfterDuration(t *testing.T) {
	done := make(chan error, 1)
	go func() {
		done <- run(config{addr: "127.0.0.1:0", duration: 100 * time.Millisecond, shards: 2, batchSize: 64, streamInterval: time.Second, window: 8, drainGrace: 10 * time.Millisecond})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not stop after its duration")
	}
}

func TestRunBadAddr(t *testing.T) {
	if err := run(config{addr: "256.0.0.1:bad", duration: time.Millisecond, streamInterval: time.Second, window: 8, drainGrace: 10 * time.Millisecond}); err == nil {
		t.Fatal("bad address accepted")
	}
}

func TestRunBadAdaptiveSpec(t *testing.T) {
	if err := run(config{addr: "127.0.0.1:0", duration: time.Millisecond, adaptive: "nope", streamInterval: time.Second, window: 8, drainGrace: 10 * time.Millisecond}); err == nil {
		t.Fatal("malformed -adaptive-batch accepted")
	}
}

// TestRunRejectsNonTCPAnnounce: -announce takes a framed TCP merger
// target; an http(s):// one fails at startup instead of being retried
// as an address.
func TestRunRejectsNonTCPAnnounce(t *testing.T) {
	for _, target := range []string{"http://127.0.0.1:8090", "https://merger"} {
		err := run(config{addr: "127.0.0.1:0", duration: time.Millisecond, announceTarget: target, streamInterval: time.Second, window: 8})
		if err == nil || !strings.Contains(err.Error(), "unsupported scheme") {
			t.Fatalf("-announce %s: err = %v, want unsupported scheme", target, err)
		}
	}
}

func TestRunDurableWritesCheckpoint(t *testing.T) {
	dir := t.TempDir()
	done := make(chan error, 1)
	go func() {
		done <- run(config{addr: "127.0.0.1:0", duration: 100 * time.Millisecond, shards: 2, batchSize: 64, ckptDir: dir, ckptInterval: time.Hour, streamInterval: time.Second, window: 8, drainGrace: 10 * time.Millisecond})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("durable server did not stop after its duration")
	}
	// Graceful shutdown must leave a final checkpoint frame.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no checkpoint frame written on shutdown")
	}
}

func TestRunStreamingServesSSE(t *testing.T) {
	done := make(chan error, 1)
	go func() {
		done <- run(config{addr: "127.0.0.1:0", duration: 300 * time.Millisecond, shards: 2, batchSize: 8, streamAddr: "127.0.0.1:0", streamInterval: 20 * time.Millisecond, window: 8, drainGrace: 10 * time.Millisecond})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("streaming server did not stop after its duration")
	}
}

package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"testing"
	"time"
)

// portRetries bounds how often a round of TestSIGTERMAtFirstReadyDrains
// starts over on a fresh port: the port is closed again before run binds
// it, so a test running in parallel can take it.
const portRetries = 3

// awaitReady spins on base's /v1/readyz until it answers 200. If run
// returns first, the error says so and wraps what run returned.
func awaitReady(client *http.Client, base string, done <-chan error) error {
	for deadline := time.Now().Add(5 * time.Second); ; {
		resp, err := client.Get(base + "/v1/readyz")
		if err == nil {
			code := resp.StatusCode
			resp.Body.Close()
			if code == http.StatusOK {
				return nil
			}
		}
		select {
		case err := <-done:
			if err == nil {
				return errors.New("run returned nil before readyz answered 200")
			}
			return fmt.Errorf("run returned before readyz answered 200: %w", err)
		default:
		}
		if time.Now().After(deadline) {
			return errors.New("readyz never answered 200")
		}
	}
}

// TestSIGTERMAtFirstReadyDrains is the merger's half of the test of the
// same name in cmd/idldp-server: a SIGTERM sent the moment /v1/readyz
// first answers 200 must drain the merger, so run has to install its
// handler before the first listener starts. (The window in the old
// ordering is a few statements wide; see the server's test for how
// often it is hit.)
func TestSIGTERMAtFirstReadyDrains(t *testing.T) {
	// The test's own registration keeps a signal that run is not yet
	// listening for from killing the test binary: it is lost instead, and
	// the round times out.
	guard := make(chan os.Signal, 1)
	signal.Notify(guard, syscall.SIGTERM)
	defer signal.Stop(guard)
	// The timeout keeps a port taken by some other listener from
	// stalling a round: the Get fails and awaitReady sees run's error.
	client := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	for round := 0; round < 150; round++ {
		var done chan error
		for attempt := 0; done == nil; attempt++ {
			lis, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			httpAddr := lis.Addr().String()
			lis.Close()
			ch := make(chan error, 1)
			go func() {
				ch <- run(&bytes.Buffer{}, config{interval: 50 * time.Millisecond, listen: "127.0.0.1:0",
					listenHTTP: httpAddr, heartbeat: 200 * time.Millisecond, evictMissed: 3})
			}()
			err = awaitReady(client, "http://"+httpAddr, ch)
			switch {
			case err == nil:
				done = ch
			case errors.Is(err, syscall.EADDRINUSE) && attempt < portRetries:
				// Another test took the port between Close and run.
			default:
				t.Fatalf("round %d: %v", round, err)
			}
		}
		if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: run ignored a SIGTERM sent as soon as readyz answered 200", round)
		}
	}
}

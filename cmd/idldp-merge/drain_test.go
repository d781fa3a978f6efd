package main

import (
	"bytes"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"testing"
	"time"
)

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
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	for round := 0; round < 150; round++ {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		httpAddr := lis.Addr().String()
		lis.Close()
		done := make(chan error, 1)
		go func() {
			done <- run(&bytes.Buffer{}, config{interval: 50 * time.Millisecond, listen: "127.0.0.1:0",
				listenHTTP: httpAddr, heartbeat: 200 * time.Millisecond, evictMissed: 3})
		}()
		for deadline := time.Now().Add(5 * time.Second); ; {
			resp, err := client.Get("http://" + httpAddr + "/v1/readyz")
			if err == nil {
				code := resp.StatusCode
				resp.Body.Close()
				if code == http.StatusOK {
					break
				}
			}
			select {
			case err := <-done:
				t.Fatalf("round %d: run returned before readyz answered 200: %v", round, err)
			default:
			}
			if time.Now().After(deadline) {
				t.Fatalf("round %d: readyz never answered 200", round)
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

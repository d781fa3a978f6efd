package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// sseObserver is one passive client of GET /v1/estimates/stream. It
// stamps each event when its data line has been read in full, before
// any parsing, and hands (seq, n, receive time) to onEvent.
type sseObserver struct {
	resp    *http.Response
	done    chan struct{}
	events  atomic.Int64
	bytes   atomic.Int64
	lastSeq atomic.Uint64
	lastN   atomic.Int64
}

func observeSSE(url string, onEvent func(seq uint64, n int64, recv time.Time)) (*sseObserver, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, fmt.Errorf("sse connect: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("sse connect: status %d", resp.StatusCode)
	}
	o := &sseObserver{resp: resp, done: make(chan struct{})}
	go func() {
		defer close(o.done)
		// One estimate event carries up to 2 x 1024 floats on one line.
		r := bufio.NewReaderSize(resp.Body, 256<<10)
		for {
			line, err := r.ReadSlice('\n')
			if err != nil {
				return // closed by close(), or the hub hung up
			}
			o.bytes.Add(int64(len(line)))
			if !bytes.HasPrefix(line, []byte("data: ")) {
				continue
			}
			recv := time.Now()
			seq, n, ok := parseEventHead(line)
			if !ok {
				continue
			}
			o.events.Add(1)
			o.lastSeq.Store(seq)
			o.lastN.Store(n)
			if onEvent != nil {
				onEvent(seq, n, recv)
			}
		}
	}()
	return o, nil
}

func (o *sseObserver) close() {
	o.resp.Body.Close()
	<-o.done
}

// waitN blocks until an event carrying n >= want arrived or d passed.
func (o *sseObserver) waitN(want int64, d time.Duration) bool {
	deadline := time.Now().Add(d)
	for o.lastN.Load() < want {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// parseEventHead reads "seq" and "n" from the head of an estimate
// event ({"seq":S,"n":N,...}) without decoding its 1024 estimates.
func parseEventHead(line []byte) (seq uint64, n int64, ok bool) {
	head := line
	if len(head) > 96 {
		head = head[:96]
	}
	s, ok1 := uintAfter(head, []byte(`"seq":`))
	v, ok2 := uintAfter(head, []byte(`"n":`))
	return s, int64(v), ok1 && ok2
}

func uintAfter(b, key []byte) (uint64, bool) {
	i := bytes.Index(b, key)
	if i < 0 {
		return 0, false
	}
	j := i + len(key)
	k := j
	for k < len(b) && b[k] >= '0' && b[k] <= '9' {
		k++
	}
	v, err := strconv.ParseUint(string(b[j:k]), 10, 64)
	return v, err == nil
}

// lagSampler turns observed events into visible-lag samples against a
// paced sender's log: an event carrying n = base+V is timed from the
// send-complete instant of that sender's V-th report.
type lagSampler struct {
	mu   sync.Mutex
	log  *sendLog
	base int64
	lags durations
}

// arm starts sampling: reports beyond base belong to log.
func (s *lagSampler) arm(log *sendLog, base int64) {
	s.mu.Lock()
	s.log, s.base = log, base
	s.mu.Unlock()
}

func (s *lagSampler) onEvent(_ uint64, n int64, recv time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil || n <= s.base {
		return
	}
	if lag, ok := s.log.lag(n-s.base, recv); ok {
		s.lags = append(s.lags, lag)
	}
}

func (s *lagSampler) samples() durations {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append(durations(nil), s.lags...)
}

// httpService is a handler served on a private loopback port.
type httpService struct {
	srv  *http.Server
	base string // http://127.0.0.1:port
}

func serveHTTP(h http.Handler) (*httpService, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &httpService{srv: &http.Server{Handler: h}, base: "http://" + lis.Addr().String()}
	go s.srv.Serve(lis) // returns ErrServerClosed on Close
	return s, nil
}

func (s *httpService) Close() error { return s.srv.Close() }

// countingListener counts the bytes its accepted connections read:
// what the wire carried into a leaf, whatever the codec.
type countingListener struct {
	net.Listener
	read atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, n: &l.read}, nil
}

type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

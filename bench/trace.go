package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the bench made into a layer. Spans of one
// frame or request share ID; Parent is the index of the enclosing span
// in the same trace, or -1.
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil or disabled
// tracer records nothing, so end-to-end runs pay one branch per call
// site; the traced-vs-untraced difference is bench.trace_overhead_pct.
type tracer struct {
	on    bool
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, base: time.Now()} }

// begin opens a span and returns its handle (-1 when tracing is off).
func (t *tracer) begin(name string, id uint64, parent int) int {
	if t == nil || !t.on {
		return -1
	}
	now := int64(time.Since(t.base))
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: now})
	h := len(t.spans) - 1
	t.mu.Unlock()
	return h
}

func (t *tracer) end(h int) {
	if h < 0 {
		return
	}
	now := int64(time.Since(t.base))
	t.mu.Lock()
	t.spans[h].End = now
	t.mu.Unlock()
}

// selfTimes returns, per span, its duration minus the part of its
// interval covered by its direct children (overlapping children are
// counted once).
func selfTimes(spans []span) []int64 {
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			p := spans[s.Parent]
			lo, hi := max(s.Start, p.Start), min(s.End, p.End)
			if hi > lo {
				kids[s.Parent] = append(kids[s.Parent], [2]int64{lo, hi})
			}
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		iv := kids[i]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, end int64
		end = s.Start
		for _, k := range iv {
			lo := max(k[0], end)
			if k[1] > lo {
				covered += k[1] - lo
				end = k[1]
			}
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// selfByName sums self time and counts spans per span name.
func selfByName(spans []span) (self map[string]int64, count map[string]int) {
	self, count = map[string]int64{}, map[string]int{}
	for i, st := range selfTimes(spans) {
		self[spans[i].Name] += st
		count[spans[i].Name]++
	}
	return self, count
}

// write stores the spans as bench/out/trace-<workload>.json under dir.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	t.mu.Lock()
	err = json.NewEncoder(f).Encode(t.spans)
	t.mu.Unlock()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}

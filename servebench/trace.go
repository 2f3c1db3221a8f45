package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call: a client HTTP request or a replayed call into a
// layer's public function. Units counts the work items the call covered
// (reads, records, rank queries), so per-item costs are measured where the
// work happens.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // 0 for a root span
	Name   string        `json:"name"`
	Job    int           `json:"job"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Units  int           `json:"units"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how untraced runs stay free of tracing cost.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent, job int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Job: job, Start: now})
	return len(t.spans)
}

// end closes span id, recording the work items it covered.
func (t *tracer) end(id, units int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	t.spans[id-1].Units = units
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeSpans writes one JSON span per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time, indexed like spans: its duration
// minus the union of its children's intervals, clipped to its own interval,
// so overlapping children (concurrent calls) are not subtracted twice.
func selfTimes(spans []span) []time.Duration {
	idx := make(map[int]int, len(spans))
	for i, s := range spans {
		idx[s.ID] = i
	}
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		var covered time.Duration
		curStart, curEnd := time.Duration(-1), time.Duration(-1)
		for _, k := range kids {
			lo, hi := max(k.Start, s.Start), min(k.End, s.End)
			if hi <= lo {
				continue
			}
			if curEnd < 0 || lo > curEnd {
				covered += curEnd - curStart
				curStart, curEnd = lo, hi
				continue
			}
			curEnd = max(curEnd, hi)
		}
		covered += curEnd - curStart
		out[i] = s.dur() - covered
	}
	return out
}

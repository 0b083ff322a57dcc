package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer's public API.
// Spans of one repetition share rep; parent is the index of the enclosing
// span, -1 at the top.
type span struct {
	Name   string        `json:"name"`
	Rep    int           `json:"rep"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// spanLog keeps spans in memory; they are written out when the run ends.
// Serve clients record from their own goroutines, hence the mutex.
type spanLog struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span and returns its index.
func (l *spanLog) begin(name string, rep, parent int) int {
	now := time.Since(l.t0)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{Name: name, Rep: rep, Parent: parent, Start: now, End: -1})
	return len(l.spans) - 1
}

// end closes span id and returns its duration.
func (l *spanLog) end(id int) time.Duration {
	now := time.Since(l.t0)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[id].End = now
	return now - l.spans[id].Start
}

// spanStat sums the spans of one name: count, total and self time (each
// span's duration minus the part of it its children cover).
type spanStat struct {
	Name  string  `json:"name"`
	Count int     `json:"count"`
	Total float64 `json:"total_s"`
	Self  float64 `json:"self_s"`
}

// summary aggregates closed spans by name, sorted by self time.
func (l *spanLog) summary() []spanStat {
	l.mu.Lock()
	defer l.mu.Unlock()
	childTime := make([]time.Duration, len(l.spans))
	for _, s := range l.spans {
		if s.Parent >= 0 && s.End >= 0 {
			childTime[s.Parent] += s.End - s.Start
		}
	}
	by := map[string]*spanStat{}
	for i, s := range l.spans {
		if s.End < 0 {
			continue
		}
		st := by[s.Name]
		if st == nil {
			st = &spanStat{Name: s.Name}
			by[s.Name] = st
		}
		d := s.End - s.Start
		st.Count++
		st.Total += d.Seconds()
		// Concurrent children (two serve clients under one phase) can
		// cover more than their parent's wall time; self time floors at 0.
		st.Self += max(d-childTime[i], 0).Seconds()
	}
	out := make([]spanStat, 0, len(by))
	for _, st := range by {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self > out[j].Self
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// chromeEvent is one complete event of the Chrome trace format, so a run's
// spans load in Perfetto or chrome://tracing.
type chromeEvent struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
}

// chrome exports the closed spans, one track per repetition.
func (l *spanLog) chrome() []chromeEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]chromeEvent, 0, len(l.spans))
	for _, s := range l.spans {
		if s.End < 0 {
			continue
		}
		out = append(out, chromeEvent{Name: s.Name, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3, Pid: 1, Tid: s.Rep})
	}
	return out
}

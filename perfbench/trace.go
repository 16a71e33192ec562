package main

import (
	"cmp"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one operation share Op;
// Parent is the ID of the span that made the call, 0 for a root.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Op     int           `json:"op"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"startNs"`
	End    time.Duration `json:"endNs"`
	// Edges is the work the call processed, when it processes edges.
	Edges int64 `json:"edges,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pass nil and pay one nil check per call.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now})
	return id
}

// end closes span id, recording the edges it processed.
func (t *tracer) end(id int, edges int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	t.spans[id-1].Edges = edges
}

// selfTimes returns each span's self time, keyed by ID: its duration minus
// the part of its interval that its children cover. Children that overlap
// (concurrent calls) or extend past the parent count once and only inside
// the parent's interval.
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		slices.SortFunc(kids, func(a, b span) int { return cmp.Compare(a.Start, b.Start) })
		var covered time.Duration
		cur := s.Start // covered up to here
		for _, c := range kids {
			lo, hi := max(c.Start, cur), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[s.ID] = s.End - s.Start - covered
	}
	return out
}

// layerTime is one span name's totals across a run.
type layerTime struct {
	Name  string        `json:"name"`
	Count int           `json:"count"`
	Total time.Duration `json:"totalNs"`
	Self  time.Duration `json:"selfNs"`
}

// byName totals span durations and self times per span name, largest self
// time first.
func byName(spans []span) []layerTime {
	self := selfTimes(spans)
	idx := map[string]int{}
	var out []layerTime
	for _, s := range spans {
		i, ok := idx[s.Name]
		if !ok {
			i = len(out)
			idx[s.Name] = i
			out = append(out, layerTime{Name: s.Name})
		}
		out[i].Count++
		out[i].Total += s.End - s.Start
		out[i].Self += self[s.ID]
	}
	slices.SortFunc(out, func(a, b layerTime) int { return cmp.Compare(b.Self, a.Self) })
	return out
}

// write saves the spans and their per-name totals as JSON at path.
func (t *tracer) write(path string, st stamp) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Stamp  stamp       `json:"stamp"`
		Layers []layerTime `json:"layers"`
		Spans  []span      `json:"spans"`
	}{st, byName(t.spans), t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

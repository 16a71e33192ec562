package main

import (
	"testing"
	"time"
)

func sp(id, parent int, name string, start, end time.Duration) span {
	return span{ID: id, Parent: parent, Name: name, Start: start, End: end}
}

func TestSelfTimes(t *testing.T) {
	for _, c := range []struct {
		name  string
		spans []span
		want  map[int]time.Duration
	}{
		{"nested", []span{
			sp(1, 0, "op", 0, 100),
			sp(2, 1, "child", 10, 60),
			sp(3, 2, "grandchild", 20, 30),
		}, map[int]time.Duration{1: 50, 2: 40, 3: 10}},
		{"back to back", []span{
			sp(1, 0, "op", 0, 100),
			sp(2, 1, "a", 0, 40),
			sp(3, 1, "b", 40, 100),
		}, map[int]time.Duration{1: 0, 2: 40, 3: 60}},
		{"overlapping children count once", []span{
			sp(1, 0, "op", 0, 100),
			sp(2, 1, "a", 10, 50),
			sp(3, 1, "b", 30, 70),
			sp(4, 1, "c", 35, 45), // inside a and b
		}, map[int]time.Duration{1: 40, 2: 40, 3: 40, 4: 10}},
		{"child past parent's end", []span{
			sp(1, 0, "op", 0, 50),
			sp(2, 1, "a", 40, 80),
		}, map[int]time.Duration{1: 40, 2: 40}},
	} {
		got := selfTimes(c.spans)
		for id, w := range c.want {
			if got[id] != w {
				t.Errorf("%s: span %d self = %v, want %v", c.name, id, got[id], w)
			}
		}
	}
}

func TestByNameTotals(t *testing.T) {
	spans := []span{
		sp(1, 0, "op", 0, 100),
		sp(2, 1, "read", 10, 20),
		sp(3, 1, "read", 30, 60),
		sp(4, 0, "op", 100, 150),
	}
	got := map[string]layerTime{}
	for _, l := range byName(spans) {
		got[l.Name] = l
	}
	if op := got["op"]; op.Count != 2 || op.Total != 150 || op.Self != 110 {
		t.Errorf("op totals = %+v", op)
	}
	if rd := got["read"]; rd.Count != 2 || rd.Total != 40 || rd.Self != 40 {
		t.Errorf("read totals = %+v", rd)
	}
}

func TestTracerRecordsParentage(t *testing.T) {
	var off *tracer
	if id := off.begin("x", 0, 1); id != 0 {
		t.Fatalf("nil tracer returned span %d", id)
	}
	off.end(0, 1) // must not panic

	tr := newTracer()
	root := tr.begin("op", 0, 7)
	kid := tr.begin("read", root, 7)
	tr.end(kid, 5)
	tr.end(root, 9)
	if len(tr.spans) != 2 {
		t.Fatalf("%d spans", len(tr.spans))
	}
	k := tr.spans[kid-1]
	if k.Parent != root || k.Op != 7 || k.Edges != 5 || k.End < k.Start {
		t.Errorf("child span = %+v", k)
	}
	if r := tr.spans[root-1]; r.End < k.End || r.Edges != 9 {
		t.Errorf("root span = %+v", r)
	}
}

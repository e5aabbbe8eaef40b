package main

import (
	"testing"
	"time"
)

func TestAggregateSelfTime(t *testing.T) {
	// A 100-unit root with two overlapping children (10-40, 30-60) and
	// one child sticking out past its end (90-120): the children cover
	// 10-60 and 90-100 of it, so its self time is 100-60 = 40.
	spans := []Span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "child", Start: 30, End: 60},
		{ID: 4, Parent: 1, Name: "child", Start: 90, End: 120},
		{ID: 5, Parent: 2, Name: "leaf", Start: 15, End: 20},
	}
	agg := Aggregate(spans)
	if got := agg["root"]; got.Count != 1 || got.Total != 100 || got.Self != 40 {
		t.Errorf("root = %+v, want count 1, total 100, self 40", got)
	}
	if got := agg["child"]; got.Count != 3 || got.Total != 90 || got.Self != 85 {
		t.Errorf("child = %+v, want count 3, total 90, self 85", got)
	}
	if got := agg["leaf"]; got.Self != 5 {
		t.Errorf("leaf self = %v, want 5", got.Self)
	}
}

func TestTracerParents(t *testing.T) {
	tr := newTracer()
	root := tr.Start("root", nil, "job-1")
	child := tr.Start("child", root, "job-1")
	lane := tr.StartTrack("lane", root, "job-1")
	time.Sleep(time.Millisecond)
	lane.End()
	child.End()
	root.End()
	byName := map[string]Span{}
	for _, s := range tr.Spans() {
		byName[s.Name] = s
	}
	r, c, l := byName["root"], byName["child"], byName["lane"]
	if c.Parent != r.ID || l.Parent != r.ID {
		t.Errorf("parents: child %d, lane %d, want %d", c.Parent, l.Parent, r.ID)
	}
	if c.Track != r.Track || l.Track == r.Track {
		t.Errorf("tracks: root %d, child %d, lane %d", r.Track, c.Track, l.Track)
	}
	if r.End-r.Start < time.Millisecond || c.Job != "job-1" {
		t.Errorf("root %v..%v, child job %q", r.Start, r.End, c.Job)
	}

	var none *Tracer
	if a := none.Start("x", nil, ""); a != nil || a.End() != 0 {
		t.Errorf("a nil tracer recorded a span")
	}
}

func TestTailQuantile(t *testing.T) {
	if q, _ := tailQuantile(1000); q != 0.99 {
		t.Errorf("n=1000: q = %v, want 0.99", q)
	}
	if q, _ := tailQuantile(200); q != 0.95 {
		t.Errorf("n=200: q = %v, want 0.95 (ten samples beyond)", q)
	}
	if got := quantile([]float64{4, 1, 3, 2}, 0.5); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
}

package main

import (
	"testing"
	"time"
)

func TestSelfTimeOverlappingChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "job", Start: 0, End: 100 * ms},
		// Two concurrent children overlapping on [20,40): their union is
		// [10,60), 50 ms, not the 70 ms their durations sum to.
		{ID: 2, Parent: 1, Name: "a", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Name: "b", Start: 20 * ms, End: 60 * ms},
		// A disjoint child, and one that runs past its parent's end and is
		// clipped to it.
		{ID: 4, Parent: 1, Name: "c", Start: 70 * ms, End: 80 * ms},
		{ID: 5, Parent: 1, Name: "d", Start: 95 * ms, End: 130 * ms},
		// A grandchild is covered by its parent, not by the root.
		{ID: 6, Parent: 3, Name: "e", Start: 30 * ms, End: 35 * ms},
	}
	got := selfTimes(spans)
	want := []time.Duration{35 * ms, 30 * ms, 35 * ms, 10 * ms, 35 * ms, 5 * ms}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %s self time = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
}

func TestSelfTimeNestedChildWithinChild(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Start: 0, End: 50 * ms},
		{ID: 2, Parent: 1, Start: 0, End: 50 * ms},
		{ID: 3, Parent: 1, Start: 10 * ms, End: 20 * ms}, // inside child 2
	}
	if got := selfTimes(spans); got[0] != 0 {
		t.Errorf("fully covered root self time = %v, want 0", got[0])
	}
}

func TestTracerRecordsParentAndUnits(t *testing.T) {
	tr := newTracer()
	root := tr.begin("job", 0, 7)
	child := tr.begin("call", root, 7)
	tr.end(child, 42)
	tr.end(root, 1)
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Parent != root || spans[1].Units != 42 || spans[0].Job != 7 {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[0].End < spans[1].End {
		t.Errorf("root ended before its child")
	}
	var off *tracer
	if id := off.begin("x", 0, 0); id != 0 {
		t.Errorf("nil tracer returned span id %d", id)
	}
	off.end(0, 1)
}

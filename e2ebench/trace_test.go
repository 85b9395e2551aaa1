package main

import (
	"reflect"
	"testing"
)

// TestSpanArithmetic pins self time and blocking-path attribution on a
// hand-built tree:
//
//	root [0,100]
//	├── a [10,50]
//	│   └── c [35,40]
//	└── b [30,70]   overlaps a on [30,50]
func TestSpanArithmetic(t *testing.T) {
	req := []span{
		{Req: 9, ID: 1, Name: "root", Start: 0, End: 100},
		{Req: 9, ID: 2, Parent: 1, Name: "a", Start: 10, End: 50},
		{Req: 9, ID: 3, Parent: 1, Name: "b", Start: 30, End: 70},
		{Req: 9, ID: 4, Parent: 2, Name: "c", Start: 35, End: 40},
	}
	// The root's children cover [10,70] once, not 40+40.
	if got, want := selfTimes(req), []int64{40, 35, 40, 5}; !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	// Overlap goes to b, which ends last: [30,35) and [40,50) are b's,
	// [35,40) is c's as the deepest span.
	want := map[string]int64{"root": 40, "a": 20, "b": 35, "c": 5}
	got := pathTimes(req)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("pathTimes = %v, want %v", got, want)
	}
	var sum int64
	for _, v := range got {
		sum += v
	}
	if sum != req[0].dur() {
		t.Errorf("path times sum to %d, want the root's %d", sum, req[0].dur())
	}
}

// TestSpanClipping pins that a child reaching outside its parent (clock
// skew between processes) is clipped, so no layer gets more than the
// root's interval.
func TestSpanClipping(t *testing.T) {
	req := []span{
		{Req: 1, ID: 1, Name: "loader", Start: 100, End: 200},
		{Req: 1, ID: 2, Parent: 1, Name: "handler", Start: 90, End: 150},
	}
	if got, want := selfTimes(req), []int64{50, 60}; !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	if got, want := pathTimes(req), map[string]int64{"loader": 50, "handler": 50}; !reflect.DeepEqual(got, want) {
		t.Errorf("pathTimes = %v, want %v", got, want)
	}
}

// TestByRequest pins grouping: spans of one request together, root first.
func TestByRequest(t *testing.T) {
	spans := []span{
		{Req: 2, ID: 2, Parent: 1}, {Req: 1, ID: 1}, {Req: 2, ID: 1}, {Req: 1, ID: 3, Parent: 1},
	}
	got := byRequest(spans)
	if len(got) != 2 || len(got[0]) != 2 || len(got[1]) != 2 || got[0][0].ID != 1 || got[1][0].ID != 1 || got[1][0].Req != 2 {
		t.Errorf("byRequest = %+v", got)
	}
}

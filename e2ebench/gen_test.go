package main

import (
	"reflect"
	"testing"
)

// TestSeedDeterminesInputs pins that every generated input — the HTTP
// request streams, the fleet's clients and the churn script — repeats
// for one seed and changes with the seed.
func TestSeedDeterminesInputs(t *testing.T) {
	const n = 2000
	httpOps := func(w httpWorkload, seed int64, conn int) []httpOp {
		s := newHTTPStream(w, seed, conn)
		out := make([]httpOp, n)
		for i := range out {
			out[i] = s.next()
		}
		return out
	}
	churnOps := func(seed int64) []churnOp {
		s := newChurnStream(seed)
		out := make([]churnOp, n)
		for i := range out {
			out[i] = s.next()
		}
		return out
	}
	for name, w := range httpWorkloads {
		if a, b := httpOps(w, 1, 0), httpOps(w, 1, 0); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 1 gave two request streams", name)
		}
		if a, b := httpOps(w, 1, 0), httpOps(w, 2, 0); reflect.DeepEqual(a, b) {
			t.Errorf("%s: seeds 1 and 2 gave the same request stream", name)
		}
		if a, b := httpOps(w, 1, 0), httpOps(w, 1, 1); reflect.DeepEqual(a, b) {
			t.Errorf("%s: connections 0 and 1 send the same stream", name)
		}
		if a, b := fleetClients(w, 1), fleetClients(w, 1); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 1 gave two fleets", name)
		}
		if a, b := fleetClients(w, 1), fleetClients(w, 2); reflect.DeepEqual(a, b) {
			t.Errorf("%s: seeds 1 and 2 gave the same fleet", name)
		}
	}
	if a, b := churnOps(1), churnOps(1); !reflect.DeepEqual(a, b) {
		t.Error("wm-churn: seed 1 gave two scripts")
	}
	if a, b := churnOps(1), churnOps(2); reflect.DeepEqual(a, b) {
		t.Error("wm-churn: seeds 1 and 2 gave the same script")
	}
	if a, b := churnSetup(1), churnSetup(1); !reflect.DeepEqual(a, b) {
		t.Error("wm-churn: seed 1 gave two set-ups")
	}
	if a, b := churnSetup(1), churnSetup(2); reflect.DeepEqual(a, b) {
		t.Error("wm-churn: seeds 1 and 2 gave the same set-up")
	}
}

// TestHTTPMix pins the request mixes the workloads promise: http-read
// only queries, spread over the four targets; http-write alternates exec
// and query on every connection.
func TestHTTPMix(t *testing.T) {
	read := newHTTPStream(httpWorkloads["http-read"], 3, 0)
	var seen [execTarget + 1]int
	for i := 0; i < 4000; i++ {
		seen[read.next().target]++
	}
	if seen[execTarget] != 0 {
		t.Errorf("http-read sent %d execs", seen[execTarget])
	}
	for tgt := range targets {
		if seen[tgt] < 800 {
			t.Errorf("http-read sent %d %s queries of 4000", seen[tgt], targets[tgt])
		}
	}
	write := newHTTPStream(httpWorkloads["http-write"], 3, 1)
	for i := 0; i < 100; i++ {
		if exec := write.next().target == execTarget; exec != (i%2 == 0) {
			t.Fatalf("http-write op %d: exec = %v", i, exec)
		}
	}
}

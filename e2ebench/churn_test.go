package main

import (
	"testing"
	"time"
)

// TestChurnRun runs the wm-churn script and pager briefly and checks
// that every step passed its checks, the population held, and the traced
// spans tile each step.
func TestChurnRun(t *testing.T) {
	c, err := newChurnSystem(5)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	ph := c.run(300*time.Millisecond, true)
	if ph.steps == 0 || ph.badSteps != 0 || ph.pager.bad != 0 {
		t.Fatalf("steps %d, bad steps %d, bad reads %d", ph.steps, ph.badSteps, ph.pager.bad)
	}
	if ph.pager.reads == 0 {
		t.Error("the pager read nothing")
	}
	if n := len(c.wm.Clients()); n < c.base+churnResident {
		t.Errorf("WM manages %d windows, want at least %d", n, c.base+churnResident)
	}
	for _, req := range byRequest(ph.spans) {
		if len(req) != 3 {
			t.Fatalf("step %d has %d spans", req[0].Req, len(req))
		}
		if got := pathTimes(req); got[req[0].Name]+got[req[1].Name]+got[req[2].Name] != req[0].dur() {
			t.Fatalf("step %d: path times %v do not sum to %d", req[0].Req, got, req[0].dur())
		}
	}
}

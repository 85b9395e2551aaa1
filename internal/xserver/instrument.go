package xserver

import "repro/internal/xproto"

// Instrument observes a connection's request traffic. It is the
// build-once hook the obs layer attaches to: Request fires once per
// request from the gate every request method passes through (batched
// ops included, one call per op), before any fault is decided, and
// BatchFlush fires once per Batch.Flush with the number of ops applied.
//
// Contract (mirrors SetErrorHandler): Request fires before the request
// takes any server lock, except for batched ops, which Batch.Flush
// reports under the exclusive lock. Callbacks run concurrently from
// different connections, so an Instrument must be safe for concurrent
// use, must not block, and must not issue requests on any connection.
// obs.ConnInstrument satisfies this interface structurally (atomics
// plus a read-only map) without either package importing the other.
type Instrument interface {
	Request(major string, target xproto.XID)
	BatchFlush(ops int)
}

// SetInstrument installs (or, with nil, removes) the connection's
// instrument. The instrument rides in the connection's atomic gates
// snapshot, so every request observes it with a single pointer load.
// Install before issuing requests; swapping instruments mid-flight is
// supported but counts in the old and new instrument will not overlap
// cleanly.
func (c *Conn) SetInstrument(in Instrument) {
	c.faultMu.Lock()
	defer c.faultMu.Unlock()
	old := c.gates.Load()
	var f *faultState
	if old != nil {
		f = old.faults
	}
	if in == nil && f == nil {
		c.gates.Store(nil)
		return
	}
	c.gates.Store(&connGates{in: in, faults: f})
}

// RequestMajors lists every request major routed through the
// fault-injection/instrument gate, i.e. every value the Instrument's
// major parameter can take. obs uses it to prebuild one counter per
// major so the per-request path stays allocation-free; the
// xserver test suite cross-checks it against the gate call sites so
// it cannot drift silently.
var RequestMajors = []string{
	"ChangeProperty",
	"ChangeSaveSet",
	"ConfigureWindow",
	"CreateWindow",
	"DeleteProperty",
	"DestroyWindow",
	"GetGeometry",
	"GetProperty",
	"GetWindowAttributes",
	"GrabButton",
	"GrabKey",
	"GrabPointer",
	"KillClient",
	"ListProperties",
	"MapWindow",
	"QueryTree",
	"ReparentWindow",
	"SelectInput",
	"SendEvent",
	"SetInputFocus",
	"SetWindowFill",
	"SetWindowLabel",
	"ShapeCombineRectangles",
	"ShapeQuery",
	"ShapeSelectInput",
	"TranslateCoordinates",
	"UnmapWindow",
}

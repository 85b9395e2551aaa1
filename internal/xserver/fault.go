package xserver

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/xproto"
)

// Fault injection: a per-connection policy that makes request methods
// fail with a chosen protocol error on a deterministic schedule. This
// reproduces the asynchronous-death race — a client destroying its
// window between event delivery and the WM's next request — without
// needing a misbehaving client, so graceful-degradation paths can be
// soaked under `go test -race` with a fixed seed.

// FaultPolicy configures fault injection on a connection. EveryN and
// Rate select the schedule: EveryN > 0 fails every Nth eligible
// request; otherwise Rate (0..1) fails each eligible request with that
// probability, drawn from a rand.Rand seeded with Seed (so the failure
// sequence is a pure function of the seed and the request sequence).
type FaultPolicy struct {
	Seed   int64
	EveryN int
	Rate   float64

	// Code is the protocol error to inject (default BadWindow).
	Code xproto.ErrorCode
	// Times caps the number of injected faults; 0 means unlimited.
	Times int
	// Ops restricts injection to the named request majors
	// (e.g. "GetGeometry"); empty means all requests are eligible.
	Ops []string
	// KillTarget additionally destroys the request's target window
	// (when it is a live, non-root window owned by another connection)
	// before failing — a deterministic death race: the window named by
	// the last event is gone by the time the request lands.
	KillTarget bool
}

type faultState struct {
	policy FaultPolicy
	rng    *rand.Rand
	ops    map[string]bool
	seen   int // eligible requests observed
	fired  int // faults injected
}

// SetFaultPolicy installs (or, with nil, removes) a fault policy on
// this connection. Counters restart from zero each time a policy is
// installed. The policy changes no request's locking: the schedule
// counts requests in the order they reach the gate, which for a
// connection driven by one goroutine is the order they were issued.
func (c *Conn) SetFaultPolicy(p *FaultPolicy) {
	c.faultMu.Lock()
	defer c.faultMu.Unlock()
	old := c.gates.Load()
	var in Instrument
	if old != nil {
		in = old.in
	}
	if p == nil {
		if in == nil {
			c.gates.Store(nil)
		} else {
			c.gates.Store(&connGates{in: in})
		}
		return
	}
	f := &faultState{policy: *p, rng: rand.New(rand.NewSource(p.Seed))}
	if len(p.Ops) > 0 {
		f.ops = make(map[string]bool, len(p.Ops))
		for _, op := range p.Ops {
			f.ops[op] = true
		}
	}
	c.gates.Store(&connGates{in: in, faults: f})
}

// FaultCount reports how many faults have been injected since the
// current policy was installed.
func (c *Conn) FaultCount() int {
	c.faultMu.Lock()
	defer c.faultMu.Unlock()
	g := c.gates.Load()
	if g == nil || g.faults == nil {
		return 0
	}
	return g.faults.fired
}

// SetErrorHandler installs an observer invoked once for every X
// protocol error this connection's requests return — the analogue of
// Xlib's XSetErrorHandler, and the hook wm.Stats() error accounting
// hangs off. The handler runs from whatever context the failing
// request executed in (possibly with the server lock held) and must
// not issue requests on any connection.
func (c *Conn) SetErrorHandler(h func(*xproto.XError)) {
	c.errMu.Lock()
	defer c.errMu.Unlock()
	c.errHandler = h
}

// gate is the one door every request passes before its ordinary body,
// and before it takes any server lock. It returns the injected error,
// already noted, or nil to let the request run. A KillTarget fault
// destroys its target here, under the exclusive lock taken just for
// the destroy.
func (c *Conn) gate(major string, target xproto.XID) error {
	xe, kill := c.fault(major, target)
	if xe == nil {
		return nil
	}
	if kill {
		c.server.mu.Lock()
		c.killTargetLocked(target)
		c.server.mu.Unlock()
	}
	return c.note(xe)
}

// fault fires the connection's instrument, then decides whether the
// fault policy fails this request. It reports the error to inject (nil
// to proceed) and whether the target must be destroyed first. The
// instrument fires before the decision, so a faulted request is still
// observed. Only the schedule's counters and rng need faultMu, and
// nothing else is acquired while it is held, so gate and Batch.Flush
// (which holds the server lock) share this one decision.
func (c *Conn) fault(major string, target xproto.XID) (*xproto.XError, bool) {
	g := c.gates.Load()
	if g == nil {
		return nil, false
	}
	if g.in != nil {
		g.in.Request(major, target)
	}
	f := g.faults
	if f == nil {
		return nil, false
	}
	c.faultMu.Lock()
	defer c.faultMu.Unlock()
	if f.policy.Times > 0 && f.fired >= f.policy.Times {
		return nil, false
	}
	if f.ops != nil && !f.ops[major] {
		return nil, false
	}
	f.seen++
	fire := false
	switch {
	case f.policy.EveryN > 0:
		fire = f.seen%f.policy.EveryN == 0
	case f.policy.Rate > 0:
		fire = f.rng.Float64() < f.policy.Rate
	}
	if !fire {
		return nil, false
	}
	f.fired++
	code := f.policy.Code
	if code == 0 {
		code = xproto.BadWindow
	}
	return &xproto.XError{
		Code: code, Major: major, Resource: target,
		Detail: fmt.Sprintf("injected fault #%d on 0x%x", f.fired, uint32(target)),
	}, f.policy.KillTarget && target != xproto.None
}

// killTargetLocked carries out a KillTarget fault: the target dies if
// it is a live, non-root window owned by another connection. Caller
// must hold the server lock exclusively.
func (c *Conn) killTargetLocked(target xproto.XID) {
	if w := c.server.lookup(target); w != nil && !w.isRoot && w.owner != c {
		c.server.destroyLocked(w)
	}
}

// note reports err to the connection's error handler (exactly once per
// error instance, guarded by lastNoted so an error returned through
// several layers of the same request is not double-counted) and
// returns it unchanged. It is guarded by the errMu leaf lock so
// requests in any locking regime may call it.
func (c *Conn) note(err error) error {
	if err == nil {
		return err
	}
	c.errMu.Lock()
	defer c.errMu.Unlock()
	if c.errHandler == nil || err == c.lastNoted {
		return err
	}
	var xe *xproto.XError
	if errors.As(err, &xe) {
		c.lastNoted = err
		c.errHandler(xe)
	}
	return err
}

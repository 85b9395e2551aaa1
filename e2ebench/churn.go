package main

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/clients"
	"repro/internal/core"
	"repro/internal/templates"
	"repro/internal/xproto"
	"repro/internal/xserver"
)

// churnSystem is the wm-churn system under test: one window manager with
// Virtual Desktop, panner and the OpenLook template, keeping
// churnResident clients, all in the benchmark's own process.
type churnSystem struct {
	srv  *xserver.Server
	wm   *core.WM
	scr  *core.Screen
	root xproto.XID
	apps []*clients.App // oldest first
	base int            // windows the WM manages besides the apps (the panner)

	script *churnStream
}

func newChurnSystem(seed int64) (*churnSystem, error) {
	db, err := templates.LoadByName("openlook")
	if err != nil {
		return nil, err
	}
	srv := xserver.NewServer()
	wm, err := core.New(srv, core.Options{DB: db, VirtualDesktop: true, EnablePanner: true})
	if err != nil {
		return nil, err
	}
	c := &churnSystem{srv: srv, wm: wm, scr: wm.Screens()[0], root: srv.Screens()[0].Root,
		base: len(wm.Clients()), script: newChurnStream(seed)}
	for _, cfg := range churnSetup(seed) {
		app, err := clients.Launch(srv, cfg)
		if err != nil {
			c.close()
			return nil, err
		}
		c.apps = append(c.apps, app)
		wm.Pump()
	}
	if n := len(wm.Clients()); n != c.base+churnResident {
		c.close()
		return nil, fmt.Errorf("wm-churn set-up: WM manages %d windows, want %d", n, c.base+churnResident)
	}
	return c, nil
}

func (c *churnSystem) close() {
	for _, a := range c.apps {
		a.Close()
	}
	c.wm.Close()
}

// churnPhase is what one measured stretch of wm-churn produced.
type churnPhase struct {
	lat, manage windowed // step and launch-step latencies, ns
	steps       int64
	badSteps    int64 // steps whose request failed or whose check failed
	events      int64 // events the pumps handled
	spans       []span
	pager       pagerResult
}

// run plays the churn script for d, with a pager reading the tree
// concurrently. Each step is timed as the client request plus the
// WM.Pump that settles it; with traced, every step and a sample of the
// pager's reads are also recorded as spans.
func (c *churnSystem) run(d time.Duration, traced bool) churnPhase {
	start := time.Now()
	ph := churnPhase{lat: newWindowed(start, d), manage: newWindowed(start, d)}
	var stop atomic.Bool
	pagerDone := make(chan pagerResult, 1)
	go func() { pagerDone <- runPager(c.srv, c.root, &stop, traced) }()

	deadline := start.Add(d)
	for time.Now().Before(deadline) {
		op := c.script.next()
		var (
			app     *clients.App
			err     error
			reqName = "xserver.client"
			name    string
		)
		switch op.kind {
		case opMove, opResize, opRename:
			app = c.apps[op.slot]
			name = fmt.Sprintf("%s-%d", app.Cfg.Instance, ph.steps)
		case opPan:
			reqName = "core.pan_to"
		case opClose:
			app = c.apps[0]
			c.apps = c.apps[1:]
		}

		t0 := time.Now()
		switch op.kind {
		case opLaunch:
			app, err = clients.Launch(c.srv, op.launch)
		case opMove:
			err = app.MoveRequest(op.x, op.y)
		case opResize:
			err = app.Resize(op.w, op.h)
		case opRename:
			err = app.SetName(name)
		case opPan:
			c.wm.PanTo(c.scr, op.x, op.y)
		case opClose:
			app.Close()
		}
		t1 := time.Now()
		n := c.wm.Pump()
		t2 := time.Now()

		ph.steps++
		ph.events += int64(n)
		lat := t2.Sub(t0).Nanoseconds()
		if err == nil {
			err = c.check(op, app)
		}
		if traced {
			req := uint64(ph.steps)
			ph.spans = append(ph.spans,
				span{Req: req, ID: 1, Name: "churn.step", Start: t0.UnixNano(), End: t2.UnixNano()},
				span{Req: req, ID: 2, Parent: 1, Name: reqName, Start: t0.UnixNano(), End: t1.UnixNano()},
				span{Req: req, ID: 3, Parent: 1, Name: "core.pump", Start: t1.UnixNano(), End: t2.UnixNano()})
		}
		if op.kind == opLaunch && app != nil {
			c.apps = append(c.apps, app)
		}
		if err != nil {
			ph.badSteps++
			logf("wm-churn step %d (%s): %v", ph.steps, churnNames[op.kind], err)
			if op.kind == opLaunch && app == nil {
				break // a launch failed: the script's population no longer holds
			}
			continue
		}
		ph.lat.add(t2, lat)
		if op.kind == opLaunch {
			ph.manage.add(t2, lat)
		}
	}
	stop.Store(true)
	ph.pager = <-pagerDone
	return ph
}

// check verifies the state a step should have left: a launched client is
// managed, a moved client sits where it asked to be, and after each
// cycle's close the WM manages exactly the resident population.
func (c *churnSystem) check(op churnOp, app *clients.App) error {
	switch op.kind {
	case opLaunch:
		if _, ok := c.wm.ClientOf(app.Win); !ok {
			return fmt.Errorf("client %s not managed after its map request", app.Cfg.Instance)
		}
	case opMove:
		x, y, _, err := app.Conn.TranslateCoordinates(app.Win, c.root, 0, 0)
		if err != nil {
			return err
		}
		if x != op.x || y != op.y {
			return fmt.Errorf("client %s at (%d,%d) after asking for (%d,%d)", app.Cfg.Instance, x, y, op.x, op.y)
		}
	case opClose:
		if n := len(c.wm.Clients()); n != c.base+churnResident {
			return fmt.Errorf("WM manages %d windows after a cycle, want %d", n, c.base+churnResident)
		}
	}
	return nil
}

// pagerResult counts what the pager read and how many answers failed.
type pagerResult struct {
	reads  int64
	torn   int64 // live windows seen without a parent, or missing from their parent's children
	bad    int64 // other answers that failed a check
	traced bool
	spans  []span
}

// pagerSample is the share of pager reads recorded as spans when traced:
// one in pagerSample. Their request ids start at pagerReqBase, clear of
// the script's step ids.
const (
	pagerSample  = 4096
	pagerReqBase = 1 << 40
)

// begin counts one read and, for a sampled read, returns its start time.
func (r *pagerResult) begin() int64 {
	r.reads++
	if !r.traced || r.reads%pagerSample != 0 {
		return 0
	}
	return wallNow()
}

func (r *pagerResult) end(name string, t0 int64) {
	if t0 != 0 {
		r.spans = append(r.spans, span{Req: pagerReqBase + uint64(r.reads), ID: 1, Name: name, Start: t0, End: wallNow()})
	}
}

func gone(err error) bool {
	var xe *xproto.XError
	return errors.As(err, &xe) && xe.Code == xproto.BadWindow
}

// runPager plays a pager client: it walks the window tree from the root
// with lock-free QueryTree, GetGeometry and GetProperty reads until stop
// is set, checking every answer. X requests are atomic, so a window that
// answers QueryTree is live and must have a parent, and that parent's
// child list must name it unless the window moved between the two reads.
// In this workload a window is reparented at most once (root to frame,
// at manage), so a window that reports the same parent before and after
// a child list that omits it was torn.
func runPager(srv *xserver.Server, root xproto.XID, stop *atomic.Bool, traced bool) pagerResult {
	conn := srv.Connect("pager")
	defer conn.Close()
	wmName := conn.InternAtom("WM_NAME")
	r := pagerResult{traced: traced}
	type item struct{ w, parent xproto.XID }
	stack := make([]item, 0, 512)
	for !stop.Load() {
		stack = append(stack[:0], item{w: root})
		for len(stack) > 0 && !stop.Load() {
			it := stack[len(stack)-1]
			stack = stack[:len(stack)-1]

			t0 := r.begin()
			_, parent, kids, err := conn.QueryTree(it.w)
			r.end("xserver.query_tree", t0)
			if err != nil {
				if !gone(err) {
					r.bad++
				}
				continue
			}
			if it.w != root {
				if parent == xproto.None {
					r.torn++
				} else if parent != it.parent && !r.lists(conn, parent, it.w) {
					t0 = r.begin()
					_, again, _, err := conn.QueryTree(it.w)
					r.end("xserver.query_tree", t0)
					if err == nil && again == parent {
						r.torn++
					}
				}
			}
			for _, k := range kids {
				stack = append(stack, item{w: k, parent: it.w})
			}

			t0 = r.begin()
			g, err := conn.GetGeometry(it.w)
			r.end("xserver.get_geometry", t0)
			if err != nil && !gone(err) || err == nil && (g.Rect.Width <= 0 || g.Rect.Height <= 0) {
				r.bad++
			}

			t0 = r.begin()
			p, ok, err := conn.GetProperty(it.w, wmName)
			r.end("xserver.get_property", t0)
			if err != nil && !gone(err) || err == nil && ok && len(p.Data) == 0 {
				r.bad++
			}
		}
	}
	return r
}

// lists reports whether parent's child list names w. A parent that is
// gone names nothing to compare against and counts as listing it.
func (r *pagerResult) lists(conn *xserver.Conn, parent, w xproto.XID) bool {
	t0 := r.begin()
	_, _, kids, err := conn.QueryTree(parent)
	r.end("xserver.query_tree", t0)
	if err != nil {
		return true
	}
	for _, k := range kids {
		if k == w {
			return true
		}
	}
	return false
}

package core

import (
	"sort"

	"repro/internal/icccm"
	"repro/internal/xproto"
	"repro/internal/xserver"
)

// Panner is the Virtual Desktop panner (paper §6.1): a miniature
// representation of the whole desktop showing every client window and
// an outline of the current viewport. Button 1 pans; button 2 over a
// miniature moves the corresponding client; resizing the panner resizes
// the desktop. The panner window is managed like any other client (it
// is reparented and decorated) and is sticky so it never pans itself
// off-screen.
type Panner struct {
	wm  *WM
	scr *Screen

	// content is the panner's client window (owned by the WM
	// connection, managed through the normal client path).
	content xproto.XID
	client  *Client

	scale int // desktop pixels per panner pixel

	viewport xproto.XID // viewport outline child window
	// miniOf maps each mirrored client to its miniature, with the
	// geometry and label last pushed to the server so syncPanner
	// records ops only for state that actually changed.
	miniOf map[*Client]*miniature
	// ops holds one sync's recorded ops until their cookies resolve;
	// the backing array is reused across syncs.
	ops []miniOp
}

// miniature is the panner-side record of one client's miniature window.
type miniature struct {
	win   xproto.XID
	rect  xproto.Rect
	label string
}

// miniOp is one op syncPanner recorded against a miniature.
type miniOp struct {
	kind miniOpKind
	c    *Client
	win  xproto.XID
	ck   *xserver.Cookie
}

type miniOpKind uint8

const (
	miniDestroy miniOpKind = iota
	miniCreate
	miniUpdate
	miniFill
	miniMap
)

// createPanner builds and manages the panner window.
func (wm *WM) createPanner(scr *Screen) error {
	scale := wm.opts.PannerScale
	pw := scr.DesktopW / scale
	ph := scr.DesktopH / scale
	if pw < 10 {
		pw = 10
	}
	if ph < 10 {
		ph = 10
	}
	content, err := wm.conn.CreateWindow(scr.Root,
		xproto.Rect{X: scr.Width - pw - 20, Y: scr.Height - ph - 40, Width: pw, Height: ph},
		1, xserverAttrs("panner"))
	if err != nil {
		return err
	}
	p := &Panner{
		wm: wm, scr: scr, content: content, scale: scale,
		miniOf: make(map[*Client]*miniature),
	}
	wm.check(nil, "panner class", icccm.SetClass(wm.conn, content, icccm.Class{Instance: "panner", Class: "SwmPanner"}))
	wm.check(nil, "panner name", icccm.SetName(wm.conn, content, "Virtual Desktop"))
	// The panner must not pan with the desktop: start sticky.
	wm.db.MustPut("swm*SwmPanner*sticky", "True")
	if err := wm.conn.SelectInput(content,
		xproto.ButtonPressMask|xproto.ButtonReleaseMask|xproto.PointerMotionMask); err != nil {
		return err
	}
	if err := wm.conn.MapWindow(content); err != nil {
		return err
	}
	scr.panner = p
	c, err := wm.Manage(content)
	if err != nil {
		return err
	}
	c.isPanner = true
	p.client = c

	// Viewport outline.
	vp, err := wm.conn.CreateWindow(content, xproto.Rect{
		X: scr.PanX / scale, Y: scr.PanY / scale, Width: scr.Width / scale, Height: scr.Height / scale,
	}, 1, xserverAttrs("view"))
	if err != nil {
		return err
	}
	if err := wm.conn.MapWindow(vp); err != nil {
		return err
	}
	p.viewport = vp
	wm.markPannerDirty(scr)
	return nil
}

// Panner returns the screen's panner (nil when disabled).
func (scr *Screen) Panner() *Panner { return scr.panner }

// Window returns the panner's content window.
func (p *Panner) Window() xproto.XID { return p.content }

// Client returns the managed client wrapping the panner.
func (p *Panner) Client() *Client { return p.client }

// Scale returns desktop pixels per panner pixel.
func (p *Panner) Scale() int { return p.scale }

// Miniatures returns the miniature-window -> client mapping.
func (p *Panner) Miniatures() map[xproto.XID]*Client {
	out := make(map[xproto.XID]*Client, len(p.miniOf))
	for c, m := range p.miniOf {
		out[m.win] = c
	}
	return out
}

// MiniatureCount reports the number of miniatures without copying the
// mapping the way Miniatures does.
func (p *Panner) MiniatureCount() int { return len(p.miniOf) }

// markMiniDirty queues c for the next panner sync: something its
// miniature mirrors (frame geometry, state, stickiness, label,
// managedness) may have changed. A burst of changes to one client
// costs one queue entry, and a sync costs only what was queued.
func (wm *WM) markMiniDirty(c *Client) {
	if c.miniQueued || c.scr.panner == nil {
		return
	}
	c.miniQueued = true
	c.scr.miniQueue = append(c.scr.miniQueue, c)
}

// markPannerDirty queues the whole desktop: every client of the screen
// and every existing miniature. It is for changes that are not about
// one client (desktop resize, desktop switch, f.refresh); they go
// through the same sync as everything else.
func (wm *WM) markPannerDirty(scr *Screen) {
	p := scr.panner
	if p == nil {
		return
	}
	for _, c := range wm.clients {
		if c.scr == scr {
			wm.markMiniDirty(c)
		}
	}
	for c := range p.miniOf {
		wm.markMiniDirty(c)
	}
}

// markViewDirty schedules a viewport/scrollbar refresh (pan position
// changed but client geometry did not).
func (wm *WM) markViewDirty(scr *Screen) {
	scr.viewDirty = true
}

// miniShown reports whether c is mirrored by a miniature on scr's
// panner. Sticky clients and the panner itself are not shown: they do
// not live on the desktop. Iconified clients are hidden with their
// frames.
func miniShown(c *Client, scr *Screen) bool {
	return c.scr == scr && !c.Sticky && !c.isPanner && c.State == xproto.NormalState
}

// miniRect is the desktop-to-panner projection of the client's frame.
func (p *Panner) miniRect(c *Client) xproto.Rect {
	return xproto.Rect{
		X:      c.FrameRect.X / p.scale,
		Y:      c.FrameRect.Y / p.scale,
		Width:  max(c.FrameRect.Width/p.scale, 2),
		Height: max(c.FrameRect.Height/p.scale, 2),
	}
}

// lazyBatch returns *b, creating it on first use, so a sync that
// records nothing allocates no batch.
func (wm *WM) lazyBatch(b **xserver.Batch) *xserver.Batch {
	if *b == nil {
		*b = wm.conn.Batch()
	}
	return *b
}

// syncPanner drains scr's damage queue: for each queued client it
// creates, destroys, moves/resizes or relabels the miniature, each
// only when the mirrored state actually changed, so a sync costs what
// changed, not how many windows exist. All ops ride one batch, created
// on the first op — one server lock acquisition however many
// miniatures changed. A created miniature's fill and map ops go in a
// second batch recorded only if the create succeeded: recording them
// blindly against the pre-allocated XID would turn one failed create
// into a cascade of BadWindow errors on a window that never existed.
// The viewport outline moves only when moveView is set (the pan
// changed) and is raised only above newly created miniatures.
func (wm *WM) syncPanner(scr *Screen, moveView bool) {
	p := scr.panner
	if p == nil {
		return
	}
	var b *xserver.Batch
	ops := p.ops[:0]
	creates := 0
	for _, c := range scr.miniQueue {
		c.miniQueued = false
		m := p.miniOf[c]
		if wm.clients[c.Win] != c || !miniShown(c, scr) {
			// The client left the desktop: unmanaged, iconified or stuck.
			if m != nil {
				ops = append(ops, miniOp{miniDestroy, c, m.win, wm.lazyBatch(&b).DestroyWindow(m.win)})
				delete(p.miniOf, c)
			}
			continue
		}
		r, label := p.miniRect(c), miniLabel(c)
		if m == nil {
			ck := wm.lazyBatch(&b).CreateWindow(p.content, r, 0, xserverAttrs(label))
			p.miniOf[c] = &miniature{win: ck.Window(), rect: r, label: label}
			ops = append(ops, miniOp{miniCreate, c, ck.Window(), ck})
			creates++
			continue
		}
		if m.rect != r {
			ops = append(ops, miniOp{miniUpdate, c, m.win, wm.lazyBatch(&b).MoveResizeWindow(m.win, r)})
			m.rect = r
		}
		if label != m.label {
			ops = append(ops, miniOp{miniUpdate, c, m.win, wm.lazyBatch(&b).SetWindowLabel(m.win, label)})
			m.label = label
		}
	}
	// The queue keeps its backing array; clearing it drops the client
	// pointers, and ops failing below may queue their clients again.
	clear(scr.miniQueue)
	scr.miniQueue = scr.miniQueue[:0]

	// Damage for this sync: how many miniature ops the queue produced.
	wm.metrics.pannerDamage.Observe(int64(len(ops)))

	if b != nil && b.Flush() != nil {
		wm.settleMiniOps(p, ops)
	}
	if creates > 0 {
		b2 := wm.conn.Batch()
		recorded := len(ops)
		for _, o := range ops[:recorded] {
			if o.kind != miniCreate || o.ck.Err() != nil || p.miniOf[o.c] == nil {
				continue
			}
			ops = append(ops,
				miniOp{miniFill, o.c, o.win, b2.SetWindowFill(o.win, '#')},
				miniOp{miniMap, o.c, o.win, b2.MapWindow(o.win)})
		}
		if b2.Flush() != nil {
			wm.settleMiniOps(p, ops[recorded:])
		}
	}
	clear(ops)
	p.ops = ops[:0]

	if p.viewport != xproto.None {
		if moveView {
			wm.check(nil, "move panner viewport", wm.conn.MoveWindow(p.viewport, scr.PanX/p.scale, scr.PanY/p.scale))
		}
		if creates > 0 {
			wm.check(nil, "raise panner viewport", wm.conn.RaiseWindow(p.viewport))
		}
	}
}

// settleMiniOps is the degraded path of a flushed sync batch: some op
// failed (fault injection, death races). Each failure is resolved per
// cookie. A miniature whose create, update or map failed is dropped and
// its client queued again, so the next sync rebuilds it from scratch.
func (wm *WM) settleMiniOps(p *Panner, ops []miniOp) {
	for _, o := range ops {
		err := o.ck.Err()
		if err == nil {
			continue
		}
		switch o.kind {
		case miniDestroy:
			wm.addOrphan(o.win)
			wm.logf("destroy miniature 0x%x: %v (queued for retry)", uint32(o.win), err)
			continue
		case miniFill:
			wm.check(nil, "fill miniature", err)
			continue
		case miniCreate:
			wm.check(nil, "create miniature", err)
		case miniUpdate:
			// The miniature may be gone under us (e.g. an injected
			// KillTarget).
			wm.check(nil, "update miniature", err)
		case miniMap:
			// Don't keep an unmapped miniature alive.
			wm.check(nil, "map miniature", err)
		}
		if m := p.miniOf[o.c]; m != nil && m.win == o.win {
			if o.kind != miniCreate {
				wm.destroyWindow(m.win)
			}
			delete(p.miniOf, o.c)
		}
		wm.markMiniDirty(o.c)
	}
}

func miniLabel(c *Client) string {
	if c.Class.Instance != "" {
		return c.Class.Instance
	}
	return c.Name
}

// handlePress processes a button press inside the panner content
// window at panner-relative (x, y).
func (p *Panner) handlePress(button, x, y int) {
	wm := p.wm
	switch button {
	case xproto.Button1:
		// Pan so the clicked point becomes the viewport center
		// ("the current position outline can be moved to view another
		// portion of the desktop").
		wm.PanTo(p.scr, x*p.scale-p.scr.Width/2, y*p.scale-p.scr.Height/2)
	case xproto.Button2:
		// Start a move of the client whose miniature is under the
		// pointer ("a move operation is started on the window").
		c := p.miniAt(x, y)
		if c == nil {
			return
		}
		wm.moveState = &moveState{client: c, viaPanner: true}
	}
}

// handleRelease finishes a panner-mediated move: the client frame is
// repositioned to the drop point, scaled up to desktop coordinates.
func (p *Panner) handleRelease(button, x, y int) {
	wm := p.wm
	if button != xproto.Button2 || wm.moveState == nil || !wm.moveState.viaPanner {
		return
	}
	c := wm.moveState.client
	wm.moveState = nil
	wm.moveFrame(c, x*p.scale, y*p.scale)
}

// miniAt returns the client whose miniature contains the
// panner-relative point (nil if none does).
func (p *Panner) miniAt(x, y int) *Client {
	for c, m := range p.miniOf {
		g, err := p.wm.conn.GetGeometry(m.win)
		if err != nil {
			continue
		}
		if g.Rect.Contains(x, y) {
			return c
		}
	}
	return nil
}

// handleResize reacts to the panner client being resized: "The act of
// resizing the panner object causes the underlying Virtual Desktop
// window to resize."
func (p *Panner) handleResize(w, h int) {
	wm := p.wm
	wm.ResizeDesktop(p.scr, w*p.scale, h*p.scale)
	wm.check(nil, "resize panner viewport", wm.conn.MoveResizeWindow(p.viewport, xproto.Rect{
		X: p.scr.PanX / p.scale, Y: p.scr.PanY / p.scale,
		Width: p.scr.Width / p.scale, Height: p.scr.Height / p.scale,
	}))
}

// MiniatureClients returns the clients currently represented by
// miniatures, sorted by frame position for deterministic iteration.
func (p *Panner) MiniatureClients() []*Client {
	out := make([]*Client, 0, len(p.miniOf))
	for c := range p.miniOf {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].FrameRect.Y != out[j].FrameRect.Y {
			return out[i].FrameRect.Y < out[j].FrameRect.Y
		}
		return out[i].FrameRect.X < out[j].FrameRect.X
	})
	return out
}

package core

import (
	"fmt"

	"repro/internal/bindings"
	"repro/internal/xproto"
)

// Multiple Virtual Desktops: the paper's future-work extension
// (§6.3.1): "Besides solving the window positioning problems, this
// would also allow swm to implement multiple Virtual Desktops". The
// SWM_ROOT property machinery makes them almost free: each desktop is
// its own large window; switching unmaps one and maps another, and
// every client's SWM_ROOT already names the desktop it lives on.
//
// Desktops are created lazily by f.selectdesktop(n) / SelectDesktop.
// Sticky windows, living on the real root, are visible on every
// desktop — the paper's sticky "standard environment" composes
// naturally with rooms-of-rooms.

// extraDesktop records one additional desktop on a screen.
type extraDesktop struct {
	window     xproto.XID
	panX, panY int
}

// NumDesktops reports how many desktops exist on the screen (at least 1
// when the Virtual Desktop is enabled).
func (scr *Screen) NumDesktops() int {
	if scr.Desktop == xproto.None {
		return 0
	}
	return 1 + len(scr.extraDesktops)
}

// CurrentDesktop reports the index of the visible desktop.
func (scr *Screen) CurrentDesktop() int { return scr.currentDesktop }

// SelectDesktop switches the screen to desktop n (0-based), creating it
// if it does not exist yet. The current desktop's pan position is
// remembered and restored when switching back.
func (wm *WM) SelectDesktop(scr *Screen, n int) error {
	if scr.Desktop == xproto.None {
		return fmt.Errorf("core: the Virtual Desktop is disabled")
	}
	if n < 0 {
		return fmt.Errorf("core: desktop %d out of range", n)
	}
	if n == scr.currentDesktop {
		return nil
	}
	// Create missing desktops up to n.
	for len(scr.extraDesktops) < n {
		id, err := wm.conn.CreateWindow(scr.Root,
			xproto.Rect{X: 0, Y: 0, Width: scr.DesktopW, Height: scr.DesktopH}, 0,
			xserverAttrs(fmt.Sprintf("desktop%d", len(scr.extraDesktops)+1)))
		if err != nil {
			return err
		}
		if err := wm.conn.SelectInput(id,
			xproto.SubstructureRedirectMask|xproto.SubstructureNotifyMask); err != nil {
			return err
		}
		scr.extraDesktops = append(scr.extraDesktops, &extraDesktop{window: id})
	}

	// Stash the current desktop's state and hide it.
	cur := wm.desktopWindow(scr, scr.currentDesktop)
	if scr.currentDesktop == 0 {
		scr.desktop0Pan = [2]int{scr.PanX, scr.PanY}
	} else {
		d := scr.extraDesktops[scr.currentDesktop-1]
		d.panX, d.panY = scr.PanX, scr.PanY
	}
	if err := wm.conn.UnmapWindow(cur); err != nil {
		return err
	}

	// Show the target desktop at its remembered pan.
	scr.currentDesktop = n
	target := wm.desktopWindow(scr, n)
	var px, py int
	if n == 0 {
		px, py = scr.desktop0Pan[0], scr.desktop0Pan[1]
	} else {
		d := scr.extraDesktops[n-1]
		px, py = d.panX, d.panY
	}
	scr.PanX, scr.PanY = -1, -1 // force PanTo to reposition
	if err := wm.conn.MapWindow(target); err != nil {
		return err
	}
	if err := wm.conn.LowerWindow(target); err != nil {
		return err
	}
	wm.PanTo(scr, px, py)
	if scr.PanX != px || scr.PanY != py {
		// PanTo clamps; ensure the window really is at the remembered
		// offset even when (px,py) == clamped value.
		wm.check(nil, "pan desktop", wm.conn.MoveWindow(target, -scr.PanX, -scr.PanY))
	}
	wm.markPannerDirty(scr)
	wm.markViewDirty(scr)
	return nil
}

// desktopWindow returns the window of desktop n on the screen.
func (wm *WM) desktopWindow(scr *Screen, n int) xproto.XID {
	if n == 0 {
		return scr.Desktop
	}
	return scr.extraDesktops[n-1].window
}

// DesktopOf reports which desktop a client lives on (-1 for sticky
// windows and clients of screens without a Virtual Desktop).
func (wm *WM) DesktopOf(c *Client) int {
	if c.Sticky || c.scr.Desktop == xproto.None {
		return -1
	}
	_, parent, _, err := wm.conn.QueryTree(c.frame.Window)
	if err != nil {
		return -1
	}
	if parent == c.scr.Desktop {
		return 0
	}
	for i, d := range c.scr.extraDesktops {
		if parent == d.window {
			return i + 1
		}
	}
	return -1
}

// SendToDesktop moves a client's frame to another desktop, keeping its
// desktop coordinates. The client's SWM_ROOT is rewritten to the new
// desktop window (the §6.3.1 property update path).
func (wm *WM) SendToDesktop(c *Client, n int) error {
	scr := c.scr
	if scr.Desktop == xproto.None {
		return fmt.Errorf("core: the Virtual Desktop is disabled")
	}
	if c.Sticky {
		return fmt.Errorf("core: sticky windows live on every desktop")
	}
	if n < 0 || n >= scr.NumDesktops() {
		// Create on demand by selecting it first (cheap) then switching
		// back — or simply reject; rejection keeps semantics crisp.
		return fmt.Errorf("core: desktop %d does not exist", n)
	}
	target := wm.desktopWindow(scr, n)
	if err := wm.conn.ReparentWindow(c.frame.Window, target, c.FrameRect.X, c.FrameRect.Y); err != nil {
		return err
	}
	// SWM_ROOT tracks the frame's root window.
	data := []byte{byte(target), byte(target >> 8), byte(target >> 16), byte(target >> 24)}
	wm.check(c, "set SWM_ROOT", wm.conn.ChangeProperty(c.Win, wm.conn.InternAtom("SWM_ROOT"),
		wm.conn.InternAtom("WINDOW"), 32, xproto.PropModeReplace, data))
	wm.sendSyntheticConfigure(c)
	wm.markMiniDirty(c)
	return nil
}

// fSelectDesktop implements f.selectdesktop(n).
func fSelectDesktop(wm *WM, ctx *FuncContext, inv bindings.Invocation) error {
	n, err := numArg(inv)
	if err != nil {
		return err
	}
	scr := ctx.Screen
	if scr == nil {
		scr = wm.screens[0]
	}
	return wm.SelectDesktop(scr, n)
}

// fSendToDesktop implements f.sendtodesktop(n) on the context window.
func fSendToDesktop(wm *WM, ctx *FuncContext, inv bindings.Invocation) error {
	c, err := needClient(ctx, inv.Name)
	if err != nil {
		return err
	}
	n, err := numArg(inv)
	if err != nil {
		return err
	}
	return wm.SendToDesktop(c, n)
}

// fNextDesktop implements f.nextdesktop: cycle through the existing
// desktops.
func fNextDesktop(wm *WM, ctx *FuncContext, inv bindings.Invocation) error {
	scr := ctx.Screen
	if scr == nil {
		scr = wm.screens[0]
	}
	if scr.NumDesktops() < 2 {
		return nil
	}
	return wm.SelectDesktop(scr, (scr.currentDesktop+1)%scr.NumDesktops())
}

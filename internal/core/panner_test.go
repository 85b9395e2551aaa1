package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/clients"
	"repro/internal/xproto"
	"repro/internal/xserver"
)

// pannerSeeds is how many random schedules TestPannerMatchesProjection
// plays.
const pannerSeeds = 50

// miniView is one miniature as the server holds it, or as the
// projection of a client says it should be.
type miniView struct {
	rect  xproto.Rect
	label string
}

func sortMiniViews(v []miniView) {
	slices.SortFunc(v, func(a, b miniView) int {
		for _, d := range []int{a.rect.X - b.rect.X, a.rect.Y - b.rect.Y,
			a.rect.Width - b.rect.Width, a.rect.Height - b.rect.Height} {
			if d != 0 {
				return d
			}
		}
		switch {
		case a.label < b.label:
			return -1
		case a.label > b.label:
			return 1
		}
		return 0
	})
}

// serverMinis reads the panner content's children back from the
// server. It checks that the viewport outline is the topmost child, at
// the pan offset over the scale, and that every miniature is mapped,
// and returns the miniatures.
func serverMinis(t *testing.T, wm *WM, scr *Screen) []miniView {
	t.Helper()
	p := scr.Panner()
	_, _, kids, err := wm.conn.QueryTree(p.Window())
	if err != nil {
		t.Fatalf("QueryTree(panner): %v", err)
	}
	if len(kids) == 0 || kids[len(kids)-1] != p.viewport {
		t.Fatalf("viewport outline 0x%x is not the topmost panner child (children %v)", uint32(p.viewport), kids)
	}
	g, err := wm.conn.GetGeometry(p.viewport)
	if err != nil {
		t.Fatalf("GetGeometry(viewport): %v", err)
	}
	if wx, wy := scr.PanX/p.scale, scr.PanY/p.scale; g.Rect.X != wx || g.Rect.Y != wy {
		t.Fatalf("viewport outline at (%d,%d), want (%d,%d)", g.Rect.X, g.Rect.Y, wx, wy)
	}
	snap, err := wm.conn.Snapshot(p.Window())
	if err != nil {
		t.Fatalf("Snapshot(panner): %v", err)
	}
	nodes := make(map[xproto.XID]*xserver.TreeNode, len(snap.Children))
	for _, n := range snap.Children {
		nodes[n.ID] = n
	}
	var out []miniView
	for _, k := range kids[:len(kids)-1] {
		g, err := wm.conn.GetGeometry(k)
		if err != nil {
			t.Fatalf("GetGeometry(miniature 0x%x): %v", uint32(k), err)
		}
		n := nodes[k]
		if n == nil || !n.Mapped {
			t.Fatalf("miniature 0x%x is not mapped", uint32(k))
		}
		out = append(out, miniView{g.Rect, n.Label})
	}
	sortMiniViews(out)
	return out
}

// projectMinis builds the panner's expected content from scratch: one
// miniature per client that miniShown admits, at miniRect, labelled
// miniLabel.
func projectMinis(wm *WM, scr *Screen) []miniView {
	p := scr.Panner()
	var out []miniView
	for _, c := range wm.Clients() {
		if miniShown(c, scr) {
			out = append(out, miniView{p.miniRect(c), miniLabel(c)})
		}
	}
	sortMiniViews(out)
	return out
}

func checkProjection(t *testing.T, wm *WM, scr *Screen, step string) {
	t.Helper()
	got, want := serverMinis(t, wm, scr), projectMinis(wm, scr)
	if !slices.Equal(got, want) {
		t.Fatalf("after %s: panner shows %v, projection is %v", step, got, want)
	}
	if n := scr.Panner().MiniatureCount(); n != len(want) {
		t.Fatalf("after %s: panner tracks %d miniatures, projection has %d", step, n, len(want))
	}
}

// TestPannerLabelFollowsRename: a client whose WM_CLASS has no instance
// is labelled by WM_NAME, so a rename must reach its miniature.
func TestPannerLabelFollowsRename(t *testing.T) {
	s, wm := newWM(t, Options{VirtualDesktop: true, EnablePanner: true})
	scr := wm.screens[0]
	app, c := launch(t, s, wm, clients.Config{Class: "Plain", Name: "one", Width: 200, Height: 150})
	if err := app.SetName("two"); err != nil {
		t.Fatal(err)
	}
	wm.Pump()
	if c.Name != "two" {
		t.Fatalf("client name %q, want %q", c.Name, "two")
	}
	m := scr.Panner().miniOf[c]
	if m == nil {
		t.Fatal("client has no miniature")
	}
	snap, err := wm.conn.Snapshot(m.win)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Label != "two" {
		t.Errorf("miniature label %q after rename, want %q", snap.Label, "two")
	}
}

// TestPannerMatchesProjection plays random schedules of client and
// desktop operations and, after every Pump, compares the panner the
// server holds with a from-scratch projection of the client set. It
// checks that the damage queue misses no change that a whole-desktop
// rescan would have caught.
func TestPannerMatchesProjection(t *testing.T) {
	for seed := int64(1); seed <= pannerSeeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			playPannerSchedule(t, seed, 120)
		})
	}
}

func playPannerSchedule(t *testing.T, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	s, wm := newWM(t, Options{VirtualDesktop: true, EnablePanner: true})
	scr := wm.screens[0]
	p := scr.Panner()
	spy := s.Connect("spy")
	defer spy.Close()

	var apps []*clients.App
	launched := 0
	launchOne := func() {
		launched++
		cfg := clients.Config{
			Class: "Prop", Name: fmt.Sprintf("name%d", launched),
			Width: 80 + rng.Intn(300), Height: 60 + rng.Intn(200),
			X: rng.Intn(scr.Width - 100), Y: rng.Intn(scr.Height - 100),
		}
		if rng.Intn(2) == 0 {
			// Half the clients are labelled by WM_NAME.
			cfg.Instance = fmt.Sprintf("inst%d", launched)
		}
		app, err := clients.Launch(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		apps = append(apps, app)
	}
	// clientOf returns a random managed client and its index in apps.
	clientOf := func() (int, *Client) {
		if len(apps) == 0 {
			return -1, nil
		}
		i := rng.Intn(len(apps))
		c, _ := wm.ClientOf(apps[i].Win)
		return i, c
	}

	for i := 0; i < 6; i++ {
		launchOne()
	}
	wm.Pump()
	checkProjection(t, wm, scr, "initial launches")

	for step := 0; step < steps; step++ {
		var what string
		switch op := rng.Intn(14); op {
		case 0:
			what = "launch"
			launchOne()
		case 1:
			what = "move"
			if _, c := clientOf(); c != nil {
				wm.MoveClientTo(c, rng.Intn(scr.DesktopW-64), rng.Intn(scr.DesktopH-64))
			}
		case 2:
			what = "resize"
			if i, c := clientOf(); c != nil {
				w, h := 40+rng.Intn(400), 30+rng.Intn(300)
				if rng.Intn(2) == 0 {
					wm.resizeClient(c, w, h)
				} else if err := apps[i].Resize(w, h); err != nil {
					t.Fatal(err)
				}
			}
		case 3:
			what = "rename"
			if i, c := clientOf(); c != nil {
				if err := apps[i].SetName(fmt.Sprintf("renamed%d", step)); err != nil {
					t.Fatal(err)
				}
			}
		case 4:
			what = "iconify/deiconify"
			if _, c := clientOf(); c != nil {
				var err error
				if c.State == xproto.IconicState {
					err = wm.Deiconify(c)
				} else {
					err = wm.Iconify(c)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
		case 5:
			what = "stick/unstick"
			if _, c := clientOf(); c != nil {
				var err error
				if c.Sticky {
					err = wm.Unstick(c)
				} else {
					err = wm.Stick(c)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
		case 6:
			what = "send to desktop"
			if _, c := clientOf(); c != nil && !c.Sticky {
				if err := wm.SendToDesktop(c, rng.Intn(scr.NumDesktops())); err != nil {
					t.Fatal(err)
				}
			}
		case 7:
			what = "desktop switch"
			if err := wm.SelectDesktop(scr, rng.Intn(3)); err != nil {
				t.Fatal(err)
			}
		case 8:
			what = "resize desktop"
			wm.ResizeDesktop(scr, scr.Width+rng.Intn(3000), scr.Height+rng.Intn(2000))
		case 9:
			what = "f.refresh"
			if err := wm.ExecuteString(&FuncContext{Screen: scr}, "f.refresh"); err != nil {
				t.Fatal(err)
			}
		case 10:
			what = "pan"
			wm.PanTo(scr, rng.Intn(scr.DesktopW), rng.Intn(scr.DesktopH))
		case 11:
			what = "close"
			if i, _ := clientOf(); i >= 0 {
				if rng.Intn(2) == 0 {
					if err := apps[i].Withdraw(); err != nil {
						t.Fatal(err)
					}
					wm.Pump()
				}
				apps[i].Close()
				apps = slices.Delete(apps, i, i+1)
			}
		case 12:
			// Another connection's KillTarget fault destroys a
			// miniature under the WM, which learns of it only when its
			// next op on the window fails. The client's next change
			// must rebuild the miniature.
			what = "kill miniature"
			var victim *Client
			for _, app := range apps {
				if c, ok := wm.ClientOf(app.Win); ok && p.miniOf[c] != nil {
					victim = c
					break
				}
			}
			if victim == nil {
				continue
			}
			old := p.miniOf[victim].win
			spy.SetFaultPolicy(&xserver.FaultPolicy{
				Ops: []string{"GetGeometry"}, EveryN: 1, Times: 1,
				Code: xproto.BadWindow, KillTarget: true,
			})
			if _, err := spy.GetGeometry(old); err == nil {
				t.Fatal("KillTarget fault did not fire")
			}
			spy.SetFaultPolicy(nil)
			if _, err := spy.GetGeometry(old); err == nil {
				t.Fatalf("miniature 0x%x survived a KillTarget fault", uint32(old))
			}
			wm.MoveClientTo(victim, victim.FrameRect.X+10*p.scale, victim.FrameRect.Y+10*p.scale)
			wm.Pump()
			if m := p.miniOf[victim]; m == nil || m.win == old {
				t.Fatalf("killed miniature 0x%x was not rebuilt", uint32(old))
			}
		case 13:
			what = "idle pump"
		}
		wm.Pump()
		for _, app := range apps {
			app.Pump()
		}
		checkProjection(t, wm, scr, fmt.Sprintf("step %d (%s)", step, what))
	}
	if len(scr.miniQueue) != 0 {
		t.Errorf("damage queue holds %d clients after a Pump", len(scr.miniQueue))
	}
}

// TestPannerSyncCostsOnlyDamage pins the structural claim behind the
// damage queue: with 128 clients resident, moving one queues exactly
// one client, its sync records exactly one op, and a pump with nothing
// changed runs no sync at all.
func TestPannerSyncCostsOnlyDamage(t *testing.T) {
	s, wm := newWM(t, Options{VirtualDesktop: true, EnablePanner: true})
	scr := wm.screens[0]
	for i := 0; i < 128; i++ {
		launch(t, s, wm, clients.Config{
			Instance: fmt.Sprintf("c%d", i), Class: "Bench",
			Width: 120, Height: 90, X: 8 * (i % 12), Y: 6 * (i % 14),
		})
	}
	wm.Pump()
	if n := scr.Panner().MiniatureCount(); n != 128 {
		t.Fatalf("panner mirrors %d clients, want 128", n)
	}
	damage := wm.metrics.pannerDamage
	syncs, ops := damage.Count(), damage.Sum()
	wm.Pump()
	if damage.Count() != syncs {
		t.Errorf("a pump with nothing changed ran %d panner syncs", damage.Count()-syncs)
	}

	c := wm.Clients()[0]
	wm.MoveClientTo(c, c.FrameRect.X+64, c.FrameRect.Y+64)
	// Pump, split open: the event handlers may queue more damage before
	// the flush settles it.
	for {
		ev, ok := wm.conn.PollEvent()
		if !ok {
			break
		}
		wm.handleEvent(ev)
	}
	if len(scr.miniQueue) != 1 || scr.miniQueue[0] != c {
		t.Fatalf("one move queued %d clients, want exactly the moved one", len(scr.miniQueue))
	}
	wm.flushRedraw()
	if got := damage.Count() - syncs; got != 1 {
		t.Errorf("one move ran %d panner syncs, want 1", got)
	}
	if got := damage.Sum() - ops; got != 1 {
		t.Errorf("one move's sync recorded %d ops, want 1", got)
	}
	if len(scr.miniQueue) != 0 {
		t.Errorf("damage queue holds %d clients after the sync", len(scr.miniQueue))
	}
	checkProjection(t, wm, scr, "one move among 128 clients")
}

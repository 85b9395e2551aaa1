package xserver

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/xproto"
)

// countObserver is a test LockObserver: atomic counters only, like the
// real obs-backed one.
type countObserver struct {
	n      atomic.Int64
	waitNs atomic.Int64
}

func (o *countObserver) StripeWait(ns int64) {
	o.n.Add(1)
	o.waitNs.Add(ns)
}

// TestLockObserverFiresOnContention proves the stripe-acquire slow path
// reports to the observer: the test holds a window's stripe directly
// (legal only in tests — the lockorder analyzer exempts _test.go files)
// while a second goroutine maps the window, which must wait on that
// stripe and fire StripeWait when it finally gets in.
func TestLockObserverFiresOnContention(t *testing.T) {
	s, c := newTestServer(t)
	w := mustCreate(t, c, s.Screens()[0].Root, xproto.Rect{X: 0, Y: 0, Width: 10, Height: 10})
	obs := &countObserver{}
	s.SetLockObserver(obs)

	st := &s.stripes[stripeIndex(w)]
	deadline := time.Now().Add(10 * time.Second)
	for obs.n.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("observer never fired despite a held stripe")
		}
		st.mu.Lock()
		done := make(chan struct{})
		go func() {
			// MapWindow acquires w's stripe via the doorway.
			c.MapWindow(w)
			c.UnmapWindow(w)
			close(done)
		}()
		// Yield so the goroutine reaches the contended acquire while the
		// stripe is held; one round is normally enough, the outer loop
		// retries if the scheduler didn't cooperate.
		time.Sleep(2 * time.Millisecond)
		st.mu.Unlock()
		<-done
	}
	if obs.waitNs.Load() <= 0 {
		t.Errorf("observer fired %d times but recorded %d ns total wait",
			obs.n.Load(), obs.waitNs.Load())
	}
}

// TestConcurrentPropertyChurn hammers one window with 64 goroutines of
// interleaved ChangeProperty/GetProperty. Run under -race this checks
// the copy-on-write property table: readers must never observe a torn
// entry, and every read must see a value some writer actually stored.
func TestConcurrentPropertyChurn(t *testing.T) {
	s, c := newTestServer(t)
	w := mustCreate(t, c, s.Screens()[0].Root, xproto.Rect{X: 0, Y: 0, Width: 10, Height: 10})
	prop := c.InternAtom("CHURN")
	typ := c.InternAtom("STRING")

	const goroutines = 64
	const rounds = 50
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%2 == 0 {
				payload := []byte(fmt.Sprintf("writer-%02d", g))
				for i := 0; i < rounds; i++ {
					if err := c.ChangeProperty(w, prop, typ, 8, xproto.PropModeReplace, payload); err != nil {
						errs <- fmt.Errorf("ChangeProperty: %w", err)
						return
					}
				}
			} else {
				for i := 0; i < rounds; i++ {
					p, ok, err := c.GetProperty(w, prop)
					if err != nil {
						errs <- fmt.Errorf("GetProperty: %w", err)
						return
					}
					if ok && (len(p.Data) != 9 || string(p.Data[:7]) != "writer-") {
						errs <- fmt.Errorf("torn property read: %q", p.Data)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestConcurrentReparentVsQueryTree pits structural writers against the
// lock-free QueryTree read path: windows bounce between two parents
// while readers walk the tree. Under -race this exercises the
// copy-on-write children slices and the ascending two-stripe doorway.
func TestConcurrentReparentVsQueryTree(t *testing.T) {
	s, c := newTestServer(t)
	root := s.Screens()[0].Root
	r := xproto.Rect{X: 0, Y: 0, Width: 10, Height: 10}
	pa := mustCreate(t, c, root, r)
	pb := mustCreate(t, c, root, r)
	const kids = 8
	wins := make([]xproto.XID, kids)
	for i := range wins {
		wins[i] = mustCreate(t, c, pa, r)
	}

	var wg sync.WaitGroup
	errs := make(chan error, kids+4)
	for i, w := range wins {
		wg.Add(1)
		go func(i int, w xproto.XID) {
			defer wg.Done()
			for round := 0; round < 40; round++ {
				dst := pa
				if (round+i)%2 == 0 {
					dst = pb
				}
				if err := c.ReparentWindow(w, dst, i, i); err != nil {
					errs <- fmt.Errorf("ReparentWindow: %w", err)
					return
				}
			}
		}(i, w)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 100; round++ {
				na, nb := 0, 0
				if _, _, ch, err := c.QueryTree(pa); err == nil {
					na = len(ch)
				} else {
					errs <- fmt.Errorf("QueryTree(pa): %w", err)
					return
				}
				if _, _, ch, err := c.QueryTree(pb); err == nil {
					nb = len(ch)
				} else {
					errs <- fmt.Errorf("QueryTree(pb): %w", err)
					return
				}
				// Weakly consistent cut: each parent individually must
				// never report more children than exist in total.
				if na > kids || nb > kids {
					errs <- fmt.Errorf("impossible child counts: pa=%d pb=%d", na, nb)
					return
				}
				for _, w := range wins {
					if _, parent, _, err := c.QueryTree(w); err != nil {
						errs <- fmt.Errorf("QueryTree(win): %w", err)
						return
					} else if parent != pa && parent != pb {
						errs <- fmt.Errorf("window 0x%x has parent 0x%x, want pa or pb", uint32(w), uint32(parent))
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestQueryTreeDuringDestroy races lock-free QueryTree readers against
// DestroyWindow: a reader answers either BadWindow or the window's real
// parent, never a live-looking window whose parent is None.
func TestQueryTreeDuringDestroy(t *testing.T) {
	s, c := newTestServer(t)
	root := s.Screens()[0].Root
	r := xproto.Rect{X: 0, Y: 0, Width: 10, Height: 10}
	p := mustCreate(t, c, root, r)
	const rounds = 2000
	ids := make(chan xproto.XID, 1)
	done := make(chan struct{})
	errs := make(chan error, 1)
	go func() {
		defer close(done)
		for id := range ids {
			for i := 0; i < 50; i++ {
				_, parent, _, err := c.QueryTree(id)
				if isBadWindow(err) {
					break
				}
				if err != nil || parent != p {
					select {
					case errs <- fmt.Errorf("QueryTree(0x%x) = parent 0x%x, %v; want 0x%x or BadWindow", uint32(id), uint32(parent), err, uint32(p)):
					default:
					}
					break
				}
			}
		}
	}()
	for i := 0; i < rounds; i++ {
		w := mustCreate(t, c, p, r)
		ids <- w
		if err := c.DestroyWindow(w); err != nil {
			t.Fatal(err)
		}
	}
	close(ids)
	<-done
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestTranslateCoordinatesUnderRestack races lock-free
// TranslateCoordinates against tree edits among 256 siblings. Writers
// move, raise, lower, destroy and recreate every child but one, and never
// place a window over that stationary child, so every translate of a
// point inside it must name it, whatever the stacking order does.
func TestTranslateCoordinatesUnderRestack(t *testing.T) {
	s, c := newTestServer(t)
	root := s.Screens()[0].Root
	parent := mustCreate(t, c, root, xproto.Rect{Width: 2000, Height: 2000})
	if err := c.MapWindow(parent); err != nil {
		t.Fatal(err)
	}
	const kids, writers, rounds = 256, 4, 300
	// Movers stay in x < 900; the stationary child sits at x >= 1000.
	still := xproto.Rect{X: 1000, Y: 1000, Width: 100, Height: 100}
	const px, py = 1050, 1050
	conns := make([]*Conn, writers)
	owned := make([][]xproto.XID, writers)
	var stillID xproto.XID
	for i := 0; i < kids; i++ {
		if i == kids/2 {
			stillID = mustCreate(t, c, parent, still)
			if err := c.MapWindow(stillID); err != nil {
				t.Fatal(err)
			}
			continue
		}
		g := i % writers
		if conns[g] == nil {
			conns[g] = s.Connect(fmt.Sprintf("writer-%d", g))
		}
		w := mustCreate(t, conns[g], parent, xproto.Rect{X: i * 3 % 850, Y: i * 7 % 1900, Width: 40, Height: 40})
		if err := conns[g].MapWindow(w); err != nil {
			t.Fatal(err)
		}
		owned[g] = append(owned[g], w)
	}

	var wg sync.WaitGroup
	var stop atomic.Bool
	errs := make(chan error, writers+4)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			wc, mine := conns[g], owned[g]
			for round := 0; round < rounds; round++ {
				k := (round*7 + g) % len(mine)
				w := mine[k]
				var err error
				switch round % 4 {
				case 0:
					err = wc.MoveWindow(w, (round*13+g)%850, (round*17)%1900)
				case 1:
					err = wc.RaiseWindow(w)
				case 2:
					err = wc.LowerWindow(w)
				case 3:
					if err = wc.DestroyWindow(w); err != nil {
						break
					}
					r := xproto.Rect{X: round % 850, Y: (round * 5) % 1900, Width: 40, Height: 40}
					if mine[k], err = wc.CreateWindow(parent, r, 1, WindowAttributes{}); err == nil {
						err = wc.MapWindow(mine[k])
					}
				}
				if err != nil {
					errs <- fmt.Errorf("writer %d round %d: %w", g, round, err)
					return
				}
			}
		}(g)
	}
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for n := 0; !stop.Load() || n < 100; n++ {
				_, _, child, err := c.TranslateCoordinates(parent, parent, px, py)
				if err != nil || child != stillID {
					errs <- fmt.Errorf("TranslateCoordinates = child 0x%x, %v; want 0x%x", uint32(child), err, uint32(stillID))
					return
				}
			}
		}()
	}
	wg.Wait()
	stop.Store(true)
	readers.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestConcurrentConnectClose cycles connections while other clients
// keep issuing requests — the lifecycle path (Connect registers in the
// conn table, Close escalates to the exclusive lock and reaps
// owner-attributed state) racing the lock-free request paths.
func TestConcurrentConnectClose(t *testing.T) {
	s, c := newTestServer(t)
	root := s.Screens()[0].Root
	r := xproto.Rect{X: 0, Y: 0, Width: 10, Height: 10}
	w := mustCreate(t, c, root, r)

	var wg sync.WaitGroup
	errs := make(chan error, 21)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 25; round++ {
				cc := s.Connect(fmt.Sprintf("churn-%d-%d", g, round))
				id, err := cc.CreateWindow(root, r, 0, WindowAttributes{})
				if err != nil {
					errs <- fmt.Errorf("CreateWindow: %w", err)
					return
				}
				if err := cc.MapWindow(id); err != nil {
					errs <- fmt.Errorf("MapWindow: %w", err)
					return
				}
				cc.Close()
			}
		}(g)
	}
	// Creates on one shared connection under different parents hold
	// different stripes, so they race on its owned-window set.
	shared := s.Connect("shared")
	for g := 0; g < 4; g++ {
		parent := mustCreate(t, shared, root, r)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 25; round++ {
				if _, err := shared.CreateWindow(parent, r, 0, WindowAttributes{}); err != nil {
					errs <- fmt.Errorf("shared CreateWindow: %w", err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for round := 0; round < 200; round++ {
			if _, err := c.GetGeometry(w); err != nil {
				errs <- fmt.Errorf("GetGeometry: %w", err)
				return
			}
			if _, _, _, err := c.QueryTree(root); err != nil {
				errs <- fmt.Errorf("QueryTree(root): %w", err)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := int(s.NumWindows()); got < 1 {
		t.Errorf("NumWindows = %d after churn, want >= 1", got)
	}
	shared.Close()
	if got := s.NumWindows(); got != 2 {
		t.Errorf("NumWindows = %d after closing the churn connections, want 2 (root and w)", got)
	}
	c.Close()
}

// indexPages returns the (stripe, directory index) of every page the
// index holds, failing t if a page's occupancy count disagrees with
// its slots or a linked page is empty.
func indexPages(t *testing.T, s *Server) map[[2]uint32]bool {
	t.Helper()
	pages := make(map[[2]uint32]bool)
	for si := range s.stripes {
		dp := s.stripes[si].dir.Load()
		if dp == nil {
			continue
		}
		for pi := range *dp {
			pg := (*dp)[pi].Load()
			if pg == nil {
				continue
			}
			n := 0
			for i := range pg.slots {
				if pg.slots[i].Load() != nil {
					n++
				}
			}
			if n == 0 || int32(n) != pg.live.Load() {
				t.Errorf("stripe %d page %d: %d occupied slots, live count %d", si, pi, n, pg.live.Load())
			}
			pages[[2]uint32{uint32(si), uint32(pi)}] = true
		}
	}
	return pages
}

// pageKey is the index page that holds (or would hold) id.
func pageKey(s *Server, id xproto.XID) [2]uint32 {
	_, pi, _ := s.slotOf(id)
	return [2]uint32{stripeIndex(id), pi}
}

func isBadWindow(err error) bool {
	var xe *xproto.XError
	return errors.As(err, &xe) && xe.Code == xproto.BadWindow
}

// TestIndexReclaimsPages churns 100k windows through the index and
// checks that only pages holding live windows survive, that the window
// count stays exact, and that stale XIDs answer BadWindow whether their
// page was freed or freed and recreated.
func TestIndexReclaimsPages(t *testing.T) {
	s, c := newTestServer(t)
	root := s.Screens()[0].Root
	r := xproto.Rect{Width: 10, Height: 10}
	live := []xproto.XID{root}
	for i := 0; i < 10; i++ {
		live = append(live, mustCreate(t, c, root, r))
	}
	first := mustCreate(t, c, root, r)
	if err := c.DestroyWindow(first); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100_000; i++ {
		id := mustCreate(t, c, root, r)
		if err := c.DestroyWindow(id); err != nil {
			t.Fatal(err)
		}
		if i%25_000 == 0 {
			live = append(live, mustCreate(t, c, root, r))
		}
	}

	want := make(map[[2]uint32]bool)
	for _, id := range live {
		want[pageKey(s, id)] = true
	}
	got := indexPages(t, s)
	if len(got) != len(want) {
		t.Errorf("index holds %d pages, want %d (one per page with a live window)", len(got), len(want))
	}
	for k := range want {
		if !got[k] {
			t.Errorf("page %v of a live window is missing", k)
		}
	}
	if n := s.NumWindows(); n != len(live) {
		t.Errorf("NumWindows = %d, want %d", n, len(live))
	}

	// A stale XID whose page was freed.
	if got[pageKey(s, first)] {
		t.Fatalf("page %v of destroyed window 0x%x still linked", pageKey(s, first), uint32(first))
	}
	if _, err := c.GetGeometry(first); !isBadWindow(err) {
		t.Errorf("GetGeometry(freed-page stale 0x%x) = %v, want BadWindow", uint32(first), err)
	}

	// A stale XID whose page was freed and then recreated: destroy x,
	// then walk the allocator forward until a new window lands on x's
	// page (x must not sit in the page's last slot for that to happen).
	var x xproto.XID
	for {
		x = mustCreate(t, c, root, r)
		if err := c.DestroyWindow(x); err != nil {
			t.Fatal(err)
		}
		if _, _, si := s.slotOf(x); si != pageMask {
			break
		}
	}
	if indexPages(t, s)[pageKey(s, x)] {
		t.Fatalf("page of destroyed window 0x%x still linked", uint32(x))
	}
	for {
		y := mustCreate(t, c, root, r)
		if pageKey(s, y) == pageKey(s, x) {
			break
		}
		if err := c.DestroyWindow(y); err != nil {
			t.Fatal(err)
		}
	}
	if !indexPages(t, s)[pageKey(s, x)] {
		t.Fatalf("page of 0x%x not recreated", uint32(x))
	}
	if _, err := c.GetGeometry(x); !isBadWindow(err) {
		t.Errorf("GetGeometry(recreated-page stale 0x%x) = %v, want BadWindow", uint32(x), err)
	}
}

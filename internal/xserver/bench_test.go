package xserver

import (
	"testing"

	"repro/internal/xproto"
)

func BenchmarkCreateDestroyWindow(b *testing.B) {
	s := NewServer()
	c := s.Connect("bench")
	root := s.Screens()[0].Root
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w, err := c.CreateWindow(root, xproto.Rect{Width: 100, Height: 100}, 0, WindowAttributes{})
		if err != nil {
			b.Fatal(err)
		}
		if err := c.DestroyWindow(w); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMapUnmap(b *testing.B) {
	s := NewServer()
	c := s.Connect("bench")
	root := s.Screens()[0].Root
	w, err := c.CreateWindow(root, xproto.Rect{Width: 100, Height: 100}, 0, WindowAttributes{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.MapWindow(w); err != nil {
			b.Fatal(err)
		}
		if err := c.UnmapWindow(w); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConfigureWindow(b *testing.B) {
	s := NewServer()
	c := s.Connect("bench")
	root := s.Screens()[0].Root
	w, err := c.CreateWindow(root, xproto.Rect{Width: 100, Height: 100}, 0, WindowAttributes{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.MoveWindow(w, i%500, i%400); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPropertyChange(b *testing.B) {
	s := NewServer()
	c := s.Connect("bench")
	root := s.Screens()[0].Root
	w, _ := c.CreateWindow(root, xproto.Rect{Width: 10, Height: 10}, 0, WindowAttributes{})
	prop := c.InternAtom("BENCH")
	str := c.InternAtom("STRING")
	data := []byte("some property value")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.ChangeProperty(w, prop, str, 8, xproto.PropModeReplace, data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkButtonEventDispatch(b *testing.B) {
	s := NewServer()
	c := s.Connect("bench")
	root := s.Screens()[0].Root
	// A stack of 10 nested windows; the deepest selects button events.
	parent := root
	var leaf xproto.XID
	for i := 0; i < 10; i++ {
		w, err := c.CreateWindow(parent, xproto.Rect{X: 1, Y: 1, Width: 500 - i, Height: 500 - i}, 0, WindowAttributes{})
		if err != nil {
			b.Fatal(err)
		}
		if err := c.MapWindow(w); err != nil {
			b.Fatal(err)
		}
		parent, leaf = w, w
	}
	if err := c.SelectInput(leaf, xproto.ButtonPressMask|xproto.ButtonReleaseMask); err != nil {
		b.Fatal(err)
	}
	s.FakeMotion(100, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.FakeButtonPress(1, 0)
		s.FakeButtonRelease(1, 0)
		// Drain to keep the queue bounded.
		for {
			if _, ok := c.PollEvent(); !ok {
				break
			}
		}
	}
}

func BenchmarkQueryTreeDeep(b *testing.B) {
	s := NewServer()
	c := s.Connect("bench")
	root := s.Screens()[0].Root
	for i := 0; i < 50; i++ {
		if _, err := c.CreateWindow(root, xproto.Rect{Width: 10, Height: 10}, 0, WindowAttributes{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, children, err := c.QueryTree(root); err != nil || len(children) != 50 {
			b.Fatal("query failed")
		}
	}
}

func BenchmarkTranslateCoordinates(b *testing.B) {
	s := NewServer()
	c := s.Connect("bench")
	root := s.Screens()[0].Root
	parent := root
	var leaf xproto.XID
	for i := 0; i < 8; i++ {
		w, err := c.CreateWindow(parent, xproto.Rect{X: 3, Y: 4, Width: 400, Height: 400}, 0, WindowAttributes{})
		if err != nil {
			b.Fatal(err)
		}
		parent, leaf = w, w
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := c.TranslateCoordinates(leaf, root, 0, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConnCloseAfterHistory closes a connection holding 10 windows
// on a server where another connection has already created and
// destroyed 1k or 100k windows. XIDs are never reused, so the cost of
// Close must not depend on that history. Only Close is timed; each
// iteration's own 10 windows add to the history.
func BenchmarkConnCloseAfterHistory(b *testing.B) {
	for _, bc := range []struct {
		name    string
		history int
	}{{"1k", 1_000}, {"100k", 100_000}} {
		b.Run(bc.name, func(b *testing.B) {
			s := NewServer()
			root := s.Screens()[0].Root
			r := xproto.Rect{Width: 10, Height: 10}
			h := s.Connect("history")
			for i := 0; i < bc.history; i++ {
				w, err := h.CreateWindow(root, r, 0, WindowAttributes{})
				if err != nil {
					b.Fatal(err)
				}
				if err := h.DestroyWindow(w); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c := s.Connect("client")
				for j := 0; j < 10; j++ {
					if _, err := c.CreateWindow(root, r, 0, WindowAttributes{}); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				c.Close()
			}
		})
	}
}

// siblingFamily creates a mapped parent with n mapped children, as the
// Virtual Desktop holds every client frame.
func siblingFamily(b *testing.B, c *Conn, n int) (parent xproto.XID, kids []xproto.XID) {
	b.Helper()
	root := c.server.Screens()[0].Root
	parent, err := c.CreateWindow(root, xproto.Rect{Width: 4000, Height: 4000}, 0, WindowAttributes{})
	if err != nil {
		b.Fatal(err)
	}
	kids = make([]xproto.XID, n)
	for i := range kids {
		r := xproto.Rect{X: i * 7 % 3900, Y: i * 13 % 3900, Width: 50, Height: 50}
		if kids[i], err = c.CreateWindow(parent, r, 1, WindowAttributes{}); err != nil {
			b.Fatal(err)
		}
		if err := c.MapWindow(kids[i]); err != nil {
			b.Fatal(err)
		}
	}
	return parent, kids
}

const benchSiblings = 512

// BenchmarkRaiseAmongSiblings raises the bottom-most of 512 siblings,
// so every iteration restacks and republishes the parent's child list.
func BenchmarkRaiseAmongSiblings(b *testing.B) {
	s := NewServer()
	c := s.Connect("bench")
	_, kids := siblingFamily(b, c, benchSiblings)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Raising in creation order always lifts the current bottom.
		if err := c.RaiseWindow(kids[i%len(kids)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDestroyAmongSiblings destroys the bottom-most of 512
// siblings and creates its replacement on top, the way a desktop of
// clients churns. The destroy detaches from the parent's child list;
// the create appends in place.
func BenchmarkDestroyAmongSiblings(b *testing.B) {
	s := NewServer()
	c := s.Connect("bench")
	parent, kids := siblingFamily(b, c, benchSiblings)
	r := xproto.Rect{X: 10, Y: 10, Width: 50, Height: 50}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(kids)
		if err := c.DestroyWindow(kids[k]); err != nil {
			b.Fatal(err)
		}
		w, err := c.CreateWindow(parent, r, 1, WindowAttributes{})
		if err != nil {
			b.Fatal(err)
		}
		kids[k] = w
	}
}

package xserver

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/xproto"
)

// failureSequence runs n GetGeometry requests against a fresh
// connection with the given policy and returns the indices that failed.
func failureSequence(t *testing.T, policy FaultPolicy, n int) []int {
	t.Helper()
	s := NewServer()
	conn := s.Connect("probe")
	win, err := conn.CreateWindow(s.Screens()[0].Root,
		xproto.Rect{Width: 50, Height: 50}, 0, WindowAttributes{})
	if err != nil {
		t.Fatalf("CreateWindow: %v", err)
	}
	conn.SetFaultPolicy(&policy)
	var failed []int
	for i := 0; i < n; i++ {
		if _, err := conn.GetGeometry(win); err != nil {
			failed = append(failed, i)
		}
	}
	return failed
}

func TestFaultPolicySeededRateIsDeterministic(t *testing.T) {
	policy := FaultPolicy{Seed: 42, Rate: 0.3, Code: xproto.BadWindow}
	first := failureSequence(t, policy, 200)
	second := failureSequence(t, policy, 200)
	if len(first) == 0 {
		t.Fatal("rate 0.3 over 200 requests injected nothing")
	}
	if len(first) != len(second) {
		t.Fatalf("same seed produced %d then %d failures", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("failure sequences diverge at %d: %d vs %d", i, first[i], second[i])
		}
	}
	// A different seed must (overwhelmingly) produce a different schedule.
	other := failureSequence(t, FaultPolicy{Seed: 43, Rate: 0.3}, 200)
	same := len(other) == len(first)
	if same {
		for i := range first {
			if first[i] != other[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("seeds 42 and 43 produced identical failure sequences")
	}
}

func TestFaultPolicyEveryN(t *testing.T) {
	failed := failureSequence(t, FaultPolicy{EveryN: 3}, 12)
	want := []int{2, 5, 8, 11}
	if len(failed) != len(want) {
		t.Fatalf("EveryN=3 over 12 requests failed at %v, want %v", failed, want)
	}
	for i := range want {
		if failed[i] != want[i] {
			t.Fatalf("EveryN=3 failed at %v, want %v", failed, want)
		}
	}
}

func TestFaultPolicyTimesCap(t *testing.T) {
	failed := failureSequence(t, FaultPolicy{EveryN: 2, Times: 3}, 50)
	if len(failed) != 3 {
		t.Fatalf("Times=3 injected %d faults", len(failed))
	}
}

func TestFaultPolicyOpsFilterAndCount(t *testing.T) {
	s := NewServer()
	conn := s.Connect("probe")
	win, err := conn.CreateWindow(s.Screens()[0].Root,
		xproto.Rect{Width: 50, Height: 50}, 0, WindowAttributes{})
	if err != nil {
		t.Fatalf("CreateWindow: %v", err)
	}
	conn.SetFaultPolicy(&FaultPolicy{EveryN: 1, Code: xproto.BadMatch, Ops: []string{"GetGeometry"}})

	// Filtered-out requests never fault.
	if err := conn.MapWindow(win); err != nil {
		t.Fatalf("MapWindow should not fault: %v", err)
	}
	err = nil
	if _, err = conn.GetGeometry(win); err == nil {
		t.Fatal("GetGeometry should fault with EveryN=1")
	}
	if !errors.Is(err, xproto.ErrBadMatch) {
		t.Errorf("injected error %v is not BadMatch", err)
	}
	var xe *xproto.XError
	if !errors.As(err, &xe) || xe.Major != "GetGeometry" || xe.Resource != win {
		t.Errorf("injected error carries %+v", xe)
	}
	if got := conn.FaultCount(); got != 1 {
		t.Errorf("FaultCount = %d, want 1", got)
	}
	// Removing the policy stops injection and resets the count.
	conn.SetFaultPolicy(nil)
	if _, err := conn.GetGeometry(win); err != nil {
		t.Errorf("GetGeometry after removing policy: %v", err)
	}
	if got := conn.FaultCount(); got != 0 {
		t.Errorf("FaultCount after removal = %d, want 0", got)
	}
}

func TestFaultPolicyKillTarget(t *testing.T) {
	s := NewServer()
	wmConn := s.Connect("wm")
	clConn := s.Connect("client")
	win, err := clConn.CreateWindow(s.Screens()[0].Root,
		xproto.Rect{Width: 50, Height: 50}, 0, WindowAttributes{})
	if err != nil {
		t.Fatalf("CreateWindow: %v", err)
	}
	wmConn.SetFaultPolicy(&FaultPolicy{EveryN: 1, Times: 1, KillTarget: true})

	if err := wmConn.MapWindow(win); err == nil {
		t.Fatal("expected an injected fault")
	}
	// The client's window really is gone now: the death race is real,
	// not just reported.
	if _, err := clConn.GetGeometry(win); !errors.Is(err, xproto.ErrBadWindow) {
		t.Errorf("target window survived KillTarget: err=%v", err)
	}
	// The WM's own furniture is never killed: roots are immune.
	wmConn.SetFaultPolicy(&FaultPolicy{EveryN: 1, Times: 1, KillTarget: true})
	root := s.Screens()[0].Root
	if err := wmConn.MapWindow(root); err == nil {
		t.Fatal("expected an injected fault on the root request")
	}
	if _, err := wmConn.GetGeometry(root); err != nil {
		t.Errorf("root window was harmed by KillTarget: %v", err)
	}
}

func TestErrorHandlerSeesEachErrorOnce(t *testing.T) {
	s := NewServer()
	conn := s.Connect("probe")
	var codes []xproto.ErrorCode
	conn.SetErrorHandler(func(xe *xproto.XError) { codes = append(codes, xe.Code) })

	// A genuine error (no fault policy): BadWindow for a bogus id.
	if err := conn.MapWindow(xproto.XID(0xdeadbeef)); err == nil {
		t.Fatal("MapWindow of a bogus id should fail")
	}
	// An injected error.
	conn.SetFaultPolicy(&FaultPolicy{EveryN: 1, Times: 1, Code: xproto.BadAccess})
	root := s.Screens()[0].Root
	if _, err := conn.GetGeometry(root); err == nil {
		t.Fatal("expected an injected fault")
	}
	if len(codes) != 2 || codes[0] != xproto.BadWindow || codes[1] != xproto.BadAccess {
		t.Errorf("handler observed %v, want [BadWindow BadAccess]", codes)
	}
}

// TestFaultPolicyKeepsRequestsLockFree pins that a fault policy changes
// no request's locking: with the server lock held elsewhere, every
// lock-free request still completes, and the schedule still fires on
// every second request.
func TestFaultPolicyKeepsRequestsLockFree(t *testing.T) {
	s := NewServer()
	conn := s.Connect("probe")
	root := s.Screens()[0].Root
	win, err := conn.CreateWindow(root, xproto.Rect{Width: 50, Height: 50}, 0, WindowAttributes{})
	if err != nil {
		t.Fatalf("CreateWindow: %v", err)
	}
	name, str := conn.InternAtom("WM_NAME"), conn.InternAtom("STRING")
	requests := []struct {
		major string
		run   func() error
	}{
		{"GetGeometry", func() error { _, err := conn.GetGeometry(win); return err }},
		{"GetWindowAttributes", func() error { _, err := conn.GetWindowAttributes(win); return err }},
		{"QueryTree", func() error { _, _, _, err := conn.QueryTree(win); return err }},
		{"TranslateCoordinates", func() error { _, _, _, err := conn.TranslateCoordinates(win, root, 1, 1); return err }},
		{"GetProperty", func() error { _, _, err := conn.GetProperty(win, name); return err }},
		{"GetProperties", func() error {
			out := make([]PropResult, 1)
			conn.GetProperties(win, []xproto.Atom{name}, out)
			return out[0].Err
		}},
		{"ListProperties", func() error { _, err := conn.ListProperties(win); return err }},
		{"ChangeProperty", func() error {
			return conn.ChangeProperty(win, name, str, 8, xproto.PropModeReplace, []byte("probe"))
		}},
		{"DeleteProperty", func() error { return conn.DeleteProperty(win, name) }},
		{"SetWindowLabel", func() error { return conn.SetWindowLabel(win, "probe") }},
		{"SetWindowFill", func() error { return conn.SetWindowFill(win, '#') }},
		{"ShapeQuery", func() error { _, _, err := conn.ShapeQuery(win); return err }},
		{"ConfigureWindow", func() error { return conn.MoveWindow(win, 5, 5) }},
	}
	conn.SetFaultPolicy(&FaultPolicy{EveryN: 2})

	s.mu.Lock()
	done := make(chan []error, 1)
	go func() {
		errs := make([]error, len(requests))
		for i, r := range requests {
			errs[i] = r.run()
		}
		done <- errs
	}()
	var errs []error
	select {
	case errs = <-done:
		s.mu.Unlock()
	case <-time.After(2 * time.Second):
		s.mu.Unlock()
		t.Fatal("requests on a connection with a fault policy blocked on the server lock")
	}

	for i, err := range errs {
		if i%2 == 1 {
			if !errors.Is(err, xproto.ErrBadWindow) {
				t.Errorf("%s (request %d): err = %v, want the injected BadWindow", requests[i].major, i+1, err)
			}
		} else if err != nil {
			t.Errorf("%s (request %d): unexpected error %v", requests[i].major, i+1, err)
		}
	}
	if got, want := conn.FaultCount(), len(requests)/2; got != want {
		t.Errorf("FaultCount = %d, want %d", got, want)
	}
}

// TestGetPropertiesKillTargetMidCall covers the death race inside one
// GetProperties call: the fault that kills the window fails its own
// entry, and every later entry fails its own lookup, exactly as the
// equivalent serial GetProperty calls would.
func TestGetPropertiesKillTargetMidCall(t *testing.T) {
	s := NewServer()
	wm := s.Connect("wm")
	cl := s.Connect("client")
	win, err := cl.CreateWindow(s.Screens()[0].Root, xproto.Rect{Width: 50, Height: 50}, 0, WindowAttributes{})
	if err != nil {
		t.Fatalf("CreateWindow: %v", err)
	}
	names := []string{"WM_NAME", "WM_CLASS", "WM_HINTS", "WM_NORMAL_HINTS"}
	atoms := make([]xproto.Atom, len(names))
	wm.InternAtoms(names, atoms)
	if err := cl.ChangeProperty(win, atoms[0], wm.InternAtom("STRING"), 8, xproto.PropModeReplace, []byte("xterm")); err != nil {
		t.Fatalf("ChangeProperty: %v", err)
	}
	in := &recordingInstrument{}
	wm.SetInstrument(in)
	wm.SetFaultPolicy(&FaultPolicy{EveryN: 2, Times: 1, KillTarget: true})

	out := make([]PropResult, len(atoms))
	wm.GetProperties(win, atoms, out)

	if out[0].Err != nil || !out[0].OK || string(out[0].Prop.Data) != "xterm" {
		t.Errorf("entry 0 = %+v, want WM_NAME \"xterm\"", out[0])
	}
	var xe *xproto.XError
	if !errors.As(out[1].Err, &xe) || !strings.Contains(xe.Detail, "injected fault #1") {
		t.Errorf("entry 1 err = %v, want the injected fault", out[1].Err)
	}
	for i := 2; i < len(out); i++ {
		var xe *xproto.XError
		if !errors.As(out[i].Err, &xe) || xe.Code != xproto.BadWindow || strings.Contains(xe.Detail, "injected") {
			t.Errorf("entry %d err = %v, want a genuine BadWindow from its own lookup", i, out[i].Err)
		}
	}
	if got := wm.FaultCount(); got != 1 {
		t.Errorf("FaultCount = %d, want 1", got)
	}
	if got := in.requests["GetProperty"]; got != len(atoms) {
		t.Errorf("instrument saw %d GetProperty requests, want %d", got, len(atoms))
	}
	if _, err := cl.GetGeometry(win); !errors.Is(err, xproto.ErrBadWindow) {
		t.Errorf("target window survived KillTarget: err=%v", err)
	}
}

// TestFaultPolicyConcurrentRequests drives one connection with a fault
// policy from several goroutines at once. The schedule's counters are
// shared between them, so the count must come out exact, and the
// KillTarget destroys race the other goroutines' lock-free requests on
// the same windows.
func TestFaultPolicyConcurrentRequests(t *testing.T) {
	s := NewServer()
	wm := s.Connect("wm")
	cl := s.Connect("client")
	root := s.Screens()[0].Root
	const nwin, workers, perWorker, everyN = 64, 4, 210, 7
	wins := make([]xproto.XID, nwin)
	for i := range wins {
		w, err := cl.CreateWindow(root, xproto.Rect{X: i, Y: i, Width: 20, Height: 20}, 0, WindowAttributes{})
		if err != nil {
			t.Fatalf("CreateWindow: %v", err)
		}
		wins[i] = w
	}
	wm.SetFaultPolicy(&FaultPolicy{EveryN: everyN, KillTarget: true})

	var injected atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				w := wins[(g*perWorker+i)%nwin]
				var err error
				switch i % 3 {
				case 0:
					_, err = wm.GetGeometry(w)
				case 1:
					_, _, _, err = wm.QueryTree(w)
				default:
					err = wm.MoveWindow(w, i, g)
				}
				var xe *xproto.XError
				if errors.As(err, &xe) && strings.HasPrefix(xe.Detail, "injected fault") {
					injected.Add(1)
				}
				if n := wm.FaultCount(); n > workers*perWorker/everyN {
					t.Errorf("FaultCount = %d mid-run, above the schedule's total", n)
				}
			}
		}()
	}
	wg.Wait()

	want := workers * perWorker / everyN
	if got := wm.FaultCount(); got != want {
		t.Errorf("FaultCount = %d, want %d", got, want)
	}
	if got := injected.Load(); got != int64(want) {
		t.Errorf("requests saw %d injected faults, want %d", got, want)
	}
	if got := s.NumWindows(); got >= len(s.Screens())+nwin {
		t.Errorf("NumWindows = %d: no KillTarget fault destroyed its window", got)
	}
}

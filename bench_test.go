// Package repro_bench holds the top-level benchmark harness that
// regenerates the paper's evaluation (§8) and the figure workloads.
// See DESIGN.md §4 for the experiment index and EXPERIMENTS.md for
// paper-vs-measured results.
//
// The paper's evaluation is qualitative: "swm, like any toolkit based
// window manager, has somewhat slower performance than a window manager
// written directly on top of Xlib" (E1), and the X resource database
// beats a private config file for configurability (E2). The benches
// below reproduce the *shape* of those claims across the three window
// managers built in this repository:
//
//	twm  — direct, hardcoded decoration     (fastest)
//	swm  — object/toolkit based, policy-free (middle)
//	gwm  — policy interpreted in Lisp       (slowest)
package repro_bench

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/baseline/gwm"
	"repro/internal/baseline/twm"
	"repro/internal/clients"
	"repro/internal/core"
	"repro/internal/perfbench"
	"repro/internal/session"
	"repro/internal/templates"
	"repro/internal/xproto"
	"repro/internal/xrdb"
	"repro/internal/xserver"
)

// wmUnderTest abstracts the three window managers for the comparative
// benchmarks.
type wmUnderTest struct {
	name     string
	setup    func(b *testing.B) (srv *xserver.Server, pump func() int, shutdown func())
	titleWin func(win xproto.XID) xproto.XID
}

func newSwm(b *testing.B, s *xserver.Server) (*core.WM, func() int, func()) {
	b.Helper()
	db, err := templates.Load(templates.OpenLook)
	if err != nil {
		b.Fatal(err)
	}
	wm, err := core.New(s, core.Options{DB: db, VirtualDesktop: true})
	if err != nil {
		b.Fatal(err)
	}
	return wm, wm.Pump, wm.Shutdown
}

func newTwm(b *testing.B, s *xserver.Server) (*twm.WM, func() int, func()) {
	b.Helper()
	wm, err := twm.New(s, nil)
	if err != nil {
		b.Fatal(err)
	}
	return wm, wm.Pump, wm.Shutdown
}

func newGwm(b *testing.B, s *xserver.Server) (*gwm.WM, func() int, func()) {
	b.Helper()
	wm, err := gwm.New(s, "")
	if err != nil {
		b.Fatal(err)
	}
	return wm, wm.Pump, wm.Shutdown
}

// launchN starts n clients and pumps the WM once.
func launchN(b *testing.B, s *xserver.Server, pump func() int, n int) []*clients.App {
	b.Helper()
	apps := make([]*clients.App, n)
	for i := 0; i < n; i++ {
		app, err := clients.Launch(s, clients.Config{
			Instance: fmt.Sprintf("bench%d", i), Class: "Bench",
			Width: 200, Height: 150, X: 10 + i, Y: 10 + i,
		})
		if err != nil {
			b.Fatal(err)
		}
		apps[i] = app
	}
	pump()
	return apps
}

// --- E1: manage cost — twm < swm < gwm -------------------------------------

func benchManage(b *testing.B, n int, mk func(b *testing.B, s *xserver.Server) (func() int, func())) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := xserver.NewServer()
		pump, shutdown := mk(b, s)
		apps := make([]*clients.App, n)
		for j := 0; j < n; j++ {
			app, err := clients.Launch(s, clients.Config{
				Instance: fmt.Sprintf("w%d", j), Class: "Bench",
				Width: 200, Height: 150, X: 10 + j, Y: 10 + j,
			})
			if err != nil {
				b.Fatal(err)
			}
			apps[j] = app
		}
		b.StartTimer()
		pump() // MapRequest -> manage for all n windows
		b.StopTimer()
		shutdown()
	}
}

func BenchmarkManageWindow_swm_1(b *testing.B) {
	benchManage(b, 1, func(b *testing.B, s *xserver.Server) (func() int, func()) {
		_, pump, down := newSwm(b, s)
		return pump, down
	})
}

func BenchmarkManageWindow_twm_1(b *testing.B) {
	benchManage(b, 1, func(b *testing.B, s *xserver.Server) (func() int, func()) {
		_, pump, down := newTwm(b, s)
		return pump, down
	})
}

func BenchmarkManageWindow_gwm_1(b *testing.B) {
	benchManage(b, 1, func(b *testing.B, s *xserver.Server) (func() int, func()) {
		_, pump, down := newGwm(b, s)
		return pump, down
	})
}

func BenchmarkManageWindow_swm_25(b *testing.B) {
	benchManage(b, 25, func(b *testing.B, s *xserver.Server) (func() int, func()) {
		_, pump, down := newSwm(b, s)
		return pump, down
	})
}

func BenchmarkManageWindow_twm_25(b *testing.B) {
	benchManage(b, 25, func(b *testing.B, s *xserver.Server) (func() int, func()) {
		_, pump, down := newTwm(b, s)
		return pump, down
	})
}

func BenchmarkManageWindow_gwm_25(b *testing.B) {
	benchManage(b, 25, func(b *testing.B, s *xserver.Server) (func() int, func()) {
		_, pump, down := newGwm(b, s)
		return pump, down
	})
}

// --- E1: button dispatch cost ------------------------------------------------

// benchButtonDispatch measures one titlebar click (press+release)
// through each WM's event machinery.
func BenchmarkButtonDispatch_swm(b *testing.B) {
	s := xserver.NewServer()
	wm, pump, _ := newSwm(b, s)
	apps := launchN(b, s, pump, 1)
	c, _ := wm.ClientOf(apps[0].Win)
	nameObj := c.Frame().Find("name")
	rx, ry, _, err := wm.Conn().TranslateCoordinates(nameObj.Window, wm.Screens()[0].Root, 2, 2)
	if err != nil {
		b.Fatal(err)
	}
	s.FakeMotion(rx, ry)
	pump()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.FakeButtonPress(xproto.Button1, 0)
		s.FakeButtonRelease(xproto.Button1, 0)
		pump()
	}
}

func BenchmarkButtonDispatch_twm(b *testing.B) {
	s := xserver.NewServer()
	wm, pump, _ := newTwm(b, s)
	apps := launchN(b, s, pump, 1)
	c, _ := wm.ClientOf(apps[0].Win)
	rx, ry, _, err := wm.Conn().TranslateCoordinates(c.Title, s.Screens()[0].Root, 2, 2)
	if err != nil {
		b.Fatal(err)
	}
	s.FakeMotion(rx, ry)
	pump()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.FakeButtonPress(xproto.Button1, 0)
		s.FakeButtonRelease(xproto.Button1, 0)
		pump()
	}
}

func BenchmarkButtonDispatch_gwm(b *testing.B) {
	s := xserver.NewServer()
	wm, pump, _ := newGwm(b, s)
	apps := launchN(b, s, pump, 1)
	c, _ := wm.ClientOf(apps[0].Win)
	rx, ry, _, err := wm.Conn().TranslateCoordinates(c.Title, s.Screens()[0].Root, 2, 2)
	if err != nil {
		b.Fatal(err)
	}
	s.FakeMotion(rx, ry)
	pump()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.FakeButtonPress(xproto.Button1, 0)
		s.FakeButtonRelease(xproto.Button1, 0)
		pump()
	}
}

// --- E1: move/resize round trips ----------------------------------------------

func BenchmarkResizeRoundTrip_swm(b *testing.B) {
	s := xserver.NewServer()
	_, pump, _ := newSwm(b, s)
	apps := launchN(b, s, pump, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := apps[0].Resize(200+i%50, 150+i%50); err != nil {
			b.Fatal(err)
		}
		pump()
	}
}

func BenchmarkResizeRoundTrip_twm(b *testing.B) {
	s := xserver.NewServer()
	_, pump, _ := newTwm(b, s)
	apps := launchN(b, s, pump, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := apps[0].Resize(200+i%50, 150+i%50); err != nil {
			b.Fatal(err)
		}
		pump()
	}
}

func BenchmarkResizeRoundTrip_gwm(b *testing.B) {
	s := xserver.NewServer()
	_, pump, _ := newGwm(b, s)
	apps := launchN(b, s, pump, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := apps[0].Resize(200+i%50, 150+i%50); err != nil {
			b.Fatal(err)
		}
		pump()
	}
}

// --- E2 / ABL1: configuration lookup — resource DB vs private file ------------

func BenchmarkConfigLookup_xrdb(b *testing.B) {
	db, err := templates.Load(templates.OpenLook)
	if err != nil {
		b.Fatal(err)
	}
	names := []string{"swm", "color", "screen0", "XTerm", "xterm", "decoration"}
	classes := []string{"Swm", "Color", "Screen0", "XTerm", "XTerm", "Decoration"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := db.Query(names, classes); !ok {
			b.Fatal("no match")
		}
	}
}

func BenchmarkConfigLookup_twmrc(b *testing.B) {
	cfg, err := twm.ParseConfig(`
BorderWidth 2
ShowIconManager
NoTitle { "xclock" }
Button1 = : title : f.raise
Button2 = : title : f.move
Button3 = : title : f.iconify
`)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if cfg.ButtonFunction(2, twm.ContextTitle) == "" {
			b.Fatal("no match")
		}
	}
}

func BenchmarkConfigParse_xrdbTemplate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := templates.Load(templates.OpenLook); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConfigParse_twmrc(b *testing.B) {
	src := `
BorderWidth 2
TitleFont "fixed"
ShowIconManager
NoTitle { "xclock" "XBiff" }
Button1 = : title : f.raise
Button2 = : title : f.move
Button3 = : title : f.iconify
`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := twm.ParseConfig(src); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ABL2: object-tree decoration vs direct decoration -------------------------
//
// The same visual frame built through swm's object system vs direct
// window calls; isolates the toolkit overhead the paper attributes to
// OI.

func BenchmarkDecorationAblation_objects(b *testing.B) {
	db, err := templates.Load(templates.OpenLook)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := xserver.NewServer()
		wm, err := core.New(s, core.Options{DB: db.Clone()})
		if err != nil {
			b.Fatal(err)
		}
		app, err := clients.Launch(s, clients.Config{
			Instance: "xterm", Class: "XTerm", Width: 300, Height: 200,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		wm.Pump()
		b.StopTimer()
		_ = app
		wm.Shutdown()
	}
}

func BenchmarkDecorationAblation_direct(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := xserver.NewServer()
		wm, err := twm.New(s, nil)
		if err != nil {
			b.Fatal(err)
		}
		app, err := clients.Launch(s, clients.Config{
			Instance: "xterm", Class: "XTerm", Width: 300, Height: 200,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		wm.Pump()
		b.StopTimer()
		_ = app
		wm.Shutdown()
	}
}

// --- Virtual Desktop operations (FIG3 workload) --------------------------------

func BenchmarkDesktopPan(b *testing.B) {
	s := xserver.NewServer()
	wm, pump, _ := newSwm(b, s)
	launchN(b, s, pump, 10)
	scr := wm.Screens()[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wm.PanTo(scr, (i%8)*256, (i%5)*128)
	}
}

func BenchmarkPannerUpdate(b *testing.B) {
	s := xserver.NewServer()
	db, _ := templates.Load(templates.OpenLook)
	wm, err := core.New(s, core.Options{DB: db, VirtualDesktop: true, EnablePanner: true})
	if err != nil {
		b.Fatal(err)
	}
	launchN(b, s, wm.Pump, 15)
	c := wm.Clients()[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A move marks the panner dirty; the pump flushes the coalesced
		// incremental sync, so the pair is one full panner update.
		wm.MoveClientTo(c, 100+i%500, 100+i%400)
		wm.Pump()
	}
}

func BenchmarkStickUnstick(b *testing.B) {
	s := xserver.NewServer()
	wm, pump, _ := newSwm(b, s)
	apps := launchN(b, s, pump, 1)
	c, _ := wm.ClientOf(apps[0].Win)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := wm.Stick(c); err != nil {
			b.Fatal(err)
		}
		if err := wm.Unstick(c); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E7: swmcmd round trip -------------------------------------------------------

func BenchmarkSwmcmdRoundTrip(b *testing.B) {
	s := xserver.NewServer()
	wm, pump, _ := newSwm(b, s)
	launchN(b, s, pump, 1)
	cmdr := s.Connect("swmcmd")
	root := s.Screens()[0].Root
	atom := cmdr.InternAtom("SWM_COMMAND")
	str := cmdr.InternAtom("STRING")
	payload := []byte("f.iconify(Bench)")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cmdr.ChangeProperty(root, atom, str, 8, xproto.PropModeReplace, payload); err != nil {
			b.Fatal(err)
		}
		pump()
	}
	_ = wm
}

// --- E3: session save / restore ----------------------------------------------------

func BenchmarkSessionSave(b *testing.B) {
	s := xserver.NewServer()
	wm, pump, _ := newSwm(b, s)
	for i := 0; i < 20; i++ {
		_, err := clients.Launch(s, clients.Config{
			Instance: fmt.Sprintf("app%d", i), Class: "App",
			Width: 100, Height: 80, X: i * 10, Y: i * 8,
			Command: []string{fmt.Sprintf("app%d", i), "-flag"},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	pump()
	ctx := &core.FuncContext{Screen: wm.Screens()[0]}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := wm.ExecuteString(ctx, "f.places"); err != nil {
			b.Fatal(err)
		}
	}
	if !strings.Contains(wm.LastPlaces(), "app7") {
		b.Fatal("places output incomplete")
	}
}

func BenchmarkSessionHintMatch(b *testing.B) {
	var sb strings.Builder
	for i := 0; i < 50; i++ {
		sb.WriteString(session.Encode(session.Hint{
			Geometry: "100x80+10+10", State: "NormalState",
			Cmd: fmt.Sprintf("app%d -flag ", i),
		}))
		sb.WriteByte('\n')
	}
	data := sb.String()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tbl, bad := session.NewTable(data)
		if bad != 0 {
			b.Fatal("bad records")
		}
		if _, ok := tbl.Match([]string{"app49", "-flag"}, ""); !ok {
			b.Fatal("no match")
		}
	}
}

// --- Lisp interpretation cost (the gwm tax in isolation) ----------------------------

func BenchmarkWoolPolicyCall(b *testing.B) {
	env := gwm.NewEnv()
	if _, err := gwm.EvalString(env, gwm.DefaultPolicy); err != nil {
		b.Fatal(err)
	}
	fn, _ := env.Get("describe-window")
	args := []gwm.Value{gwm.Str("shell"), gwm.Str("XTerm")}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := gwm.Apply(env, fn, args); err != nil {
			b.Fatal(err)
		}
	}
}

// The equivalent decision in swm: one resource lookup.
func BenchmarkSwmPolicyLookup(b *testing.B) {
	db, err := templates.Load(templates.OpenLook)
	if err != nil {
		b.Fatal(err)
	}
	names := []string{"swm", "color", "screen0", "XTerm", "xterm", "decoration"}
	classes := []string{"Swm", "Color", "Screen0", "XTerm", "XTerm", "Decoration"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := db.Query(names, classes); !ok {
			b.Fatal("no match")
		}
	}
	_ = xrdb.New()
}

// --- Tracked perf workloads (cmd/swmbench, BENCH_*.json) ---------------------

// The workloads below are shared with cmd/swmbench through
// internal/perfbench, so `go test -bench 'Perf'` and the JSON report
// measure exactly the same code.

func BenchmarkPerfManage100Clients(b *testing.B) { perfbench.ManageClients(100)(b) }
func BenchmarkPerfRestartAdopt200(b *testing.B)  { perfbench.RestartAdopt(200)(b) }
func BenchmarkPerfXrdbQuery(b *testing.B)        { perfbench.XrdbQuery(b) }
func BenchmarkPerfMoveStorm(b *testing.B)        { perfbench.MoveStorm(b) }
func BenchmarkPerfPanStorm(b *testing.B)         { perfbench.PanStorm(b) }
func BenchmarkPerfPanStormTraced(b *testing.B)   { perfbench.PanStormTraced(b) }

// BenchmarkPerfFleet1000Sessions is the fleet-mode lifecycle at full
// scale; expect seconds per op (it builds and tears down a thousand
// sessions each iteration).
func BenchmarkPerfFleet1000Sessions(b *testing.B) { perfbench.FleetSessions(1000, 10)(b) }

// BenchmarkPerfConcurrentClients64 is the contended 64-connection
// storm against one server — the workload the xserver lock striping is
// gated on.
func BenchmarkPerfConcurrentClients64(b *testing.B) { perfbench.ConcurrentClients(64)(b) }

// BenchmarkPerfHTTPStatsQuery is one warm stats query through the
// full in-process handler stack — the snapshot-cache hit path the
// zero-alloc serving work is gated on (blocking at ≤20 allocs/op).
func BenchmarkPerfHTTPStatsQuery(b *testing.B) { perfbench.HTTPStatsQuery()(b) }

// BenchmarkPerfHTTPStatsMiss is one stats query right after an exec
// invalidated the session's snapshot cache — the lane re-render of
// stats, clients and desktop the instrument index is gated on.
func BenchmarkPerfHTTPStatsMiss(b *testing.B) { perfbench.HTTPStatsMiss()(b) }

// BenchmarkPerfSwmloadFleetHTTP is the network service layer under
// load: a 64-session fleet behind the swmhttp transport on a loopback
// listener, driven by 128 concurrent swmload workers (one op is a
// complete 20,000-request run).
func BenchmarkPerfSwmloadFleetHTTP(b *testing.B) { perfbench.FleetHTTPLoad(64, 128, 20000)(b) }

// BenchmarkXrdbQueryCold defeats the DB.Query memo with a fresh clone
// per iteration, measuring the raw matching walk the memo shortcuts.
func BenchmarkXrdbQueryCold(b *testing.B) {
	base, err := templates.Load(templates.OpenLook)
	if err != nil {
		b.Fatal(err)
	}
	names := []string{"swm", "color", "screen0", "XTerm", "xterm", "decoration"}
	classes := []string{"Swm", "Color", "Screen0", "XTerm", "XTerm", "Decoration"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		db := base.Clone()
		if _, ok := db.Query(names, classes); !ok {
			b.Fatal("no match")
		}
	}
}

package fleet

import (
	"encoding/json"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/swmproto"
)

func serveFleet(t *testing.T, sessions int) *Manager {
	t.Helper()
	m, err := New(Config{Sessions: sessions, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	m.StartAll()
	m.Drain()
	return m
}

func TestServeSessionQueryRoundTrip(t *testing.T) {
	m := serveFleet(t, 2)
	launchClients(t, m, 1, 3)
	m.Drain()

	resp := m.ServeSession(1, swmproto.Request{ID: 7, Op: swmproto.OpQuery, Target: swmproto.TargetClients})
	if !resp.OK {
		t.Fatalf("clients query failed: %+v", resp)
	}
	if resp.V != swmproto.Version || resp.ID != 7 {
		t.Errorf("envelope header v=%d id=%d, want v=%d id=7", resp.V, resp.ID, swmproto.Version)
	}
	var res swmproto.ClientsResult
	if err := json.Unmarshal(resp.Result, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Clients) != 3 {
		t.Errorf("session 1 clients = %d, want 3", len(res.Clients))
	}

	// Sessions are isolated: session 0 has no clients.
	resp = m.ServeSession(0, swmproto.Request{Op: swmproto.OpQuery, Target: swmproto.TargetClients})
	if !resp.OK {
		t.Fatalf("session 0 query failed: %+v", resp)
	}
	if err := json.Unmarshal(resp.Result, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Clients) != 0 {
		t.Errorf("session 0 clients = %d, want 0", len(res.Clients))
	}
}

func TestServeSessionExec(t *testing.T) {
	m := serveFleet(t, 1)
	launchClients(t, m, 0, 1)
	m.Drain()

	resp := m.ServeSession(0, swmproto.Request{Op: swmproto.OpExec, Command: "f.iconify(XTerm)"})
	if !resp.OK {
		t.Fatalf("exec failed: %+v", resp)
	}
	resp = m.ServeSession(0, swmproto.Request{Op: swmproto.OpExec, Command: "f.bogus()"})
	if resp.OK || resp.Code != swmproto.CodeExecFailed {
		t.Errorf("bogus exec = %+v, want code %s", resp, swmproto.CodeExecFailed)
	}
}

func TestServeSessionErrorEnvelopes(t *testing.T) {
	m := serveFleet(t, 2)

	if resp := m.ServeSession(99, swmproto.Request{Op: swmproto.OpQuery, Target: swmproto.TargetStats}); resp.OK || resp.Code != swmproto.CodeUnknownSession {
		t.Errorf("out-of-range session = %+v", resp)
	}
	if resp := m.ServeSession(-1, swmproto.Request{}); resp.OK || resp.Code != swmproto.CodeUnknownSession {
		t.Errorf("negative session = %+v", resp)
	}

	m.Stop(1)
	m.Drain()
	if resp := m.ServeSession(1, swmproto.Request{Op: swmproto.OpQuery, Target: swmproto.TargetStats}); resp.OK || resp.Code != swmproto.CodeSessionDown {
		t.Errorf("stopped session = %+v", resp)
	}

	if resp := m.ServeSession(0, swmproto.Request{Op: swmproto.OpQuery, Target: "nonsense"}); resp.OK || resp.Code != swmproto.CodeUnknownTarget {
		t.Errorf("unknown target = %+v", resp)
	}
	if resp := m.ServeSession(0, swmproto.Request{Op: "mystery"}); resp.OK || resp.Code != swmproto.CodeUnknownOp {
		t.Errorf("unknown op = %+v", resp)
	}
}

// TestServeSessionTimeout pins the degrade path: a request stuck
// behind a slow lane answers with a timeout envelope instead of
// hanging the transport.
func TestServeSessionTimeout(t *testing.T) {
	m, err := New(Config{Sessions: 1, Workers: 1, ServeTimeout: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	m.StartAll()
	m.Drain()

	// Occupy the session's lane so the serve task queues behind it
	// past the timeout.
	release := make(chan struct{})
	m.sessions[0].post(taskWork, func() { <-release })
	resp := m.ServeSession(0, swmproto.Request{ID: 3, Op: swmproto.OpQuery, Target: swmproto.TargetStats})
	close(release)
	if resp.OK || resp.Code != swmproto.CodeTimeout {
		t.Errorf("stuck lane = %+v, want code %s", resp, swmproto.CodeTimeout)
	}
	if resp.ID != 3 {
		t.Errorf("timeout envelope id = %d, want 3", resp.ID)
	}
	m.Drain()
	// The lane drained; the session serves again.
	if resp := m.ServeSession(0, swmproto.Request{Op: swmproto.OpQuery, Target: swmproto.TargetDesktop}); !resp.OK {
		t.Errorf("after unblocking = %+v", resp)
	}
}

// TestServeSessionFailedLane pins the crashed-session path: a Failed
// session answers session_down, and serves again after Restart.
func TestServeSessionFailedLane(t *testing.T) {
	m := serveFleet(t, 1)
	s := m.sessions[0]
	s.post(taskWork, func() { panic("serve fixture crash") })
	m.Drain()
	if st := s.State(); st != StateFailed {
		t.Fatalf("session state = %s, want failed", st)
	}
	if resp := m.ServeSession(0, swmproto.Request{}); resp.Code != swmproto.CodeSessionDown {
		t.Errorf("failed session = %+v", resp)
	}
	m.Restart(0)
	m.Drain()
	if resp := m.ServeSession(0, swmproto.Request{Op: swmproto.OpQuery, Target: swmproto.TargetDesktop}); !resp.OK {
		t.Errorf("restarted session = %+v", resp)
	}
}

// TestServeSessionConcurrent hammers one small fleet from many
// goroutines — the HTTP transport's concurrency shape, checked here
// under -race without the HTTP layer in the way. Queries, protocol
// execs and Pump posts mix with probe tasks that keep a per-session
// in-task counter; probes enter both through a caller's idle-lane turn
// and through the workers, and no probe may ever find another task of
// its session running.
func TestServeSessionConcurrent(t *testing.T) {
	m := serveFleet(t, 4)
	for i := 0; i < 4; i++ {
		launchClients(t, m, i, 2)
	}
	m.Drain()

	const goroutines = 16
	const perG = 42
	targets := []string{swmproto.TargetStats, swmproto.TargetClients, swmproto.TargetDesktop, swmproto.TargetTrace}
	inTask := make([]atomic.Int32, m.Sessions())
	var overlaps atomic.Int64
	probe := func(i int) func() {
		return func() {
			if inTask[i].Add(1) != 1 {
				overlaps.Add(1)
			}
			runtime.Gosched()
			inTask[i].Add(-1)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan string, goroutines*perG)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				session := (g + i) % m.Sessions()
				var resp swmproto.Response
				switch op := (g + i) % 7; {
				case op < len(targets):
					resp = m.ServeSession(session, swmproto.Request{
						ID: uint64(g*1000 + i), Op: swmproto.OpQuery, Target: targets[op],
					})
				case op == 4:
					resp = m.ServeSession(session, swmproto.Request{
						ID: uint64(g*1000 + i), Op: swmproto.OpExec, Command: "f.nop",
					})
				case op == 5:
					m.Pump(session)
					m.Exec(session, func(*core.WM) { probe(session)() })
					continue
				default:
					s := m.sessions[session]
					if s.runOnCaller(taskWork, probe(session), false) == laneBusy {
						s.post(taskWork, probe(session))
					}
					continue
				}
				if !resp.OK {
					errs <- resp.Error
				}
			}
		}(g)
	}
	wg.Wait()
	m.Drain()
	close(errs)
	for e := range errs {
		t.Errorf("concurrent request failed: %s", e)
	}
	if n := overlaps.Load(); n > 0 {
		t.Errorf("%d tasks ran while another task of their session was running", n)
	}
}

// TestServeSessionPanicOnIdleLane pins the caller-run failure path: a
// request whose task panics on an idle lane answers at once with a
// session_down envelope — the caller ran the task, so it knows nobody
// will answer — and the panic wall marks the session Failed.
func TestServeSessionPanicOnIdleLane(t *testing.T) {
	const timeout = 10 * time.Second
	m, err := New(Config{Sessions: 1, Workers: 1, ServeTimeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	m.StartAll()
	m.Drain()

	// A nil WM makes the request's ServeProto call panic inside the
	// lane task.
	s := m.sessions[0]
	wm := s.wm
	s.wm = nil
	start := time.Now()
	resp := m.ServeSession(0, swmproto.Request{ID: 5, Op: swmproto.OpExec, Command: "f.nop"})
	elapsed := time.Since(start)
	s.wm = wm // Close releases it

	if resp.OK || resp.Code != swmproto.CodeSessionDown || resp.ID != 5 {
		t.Errorf("panicking task = %+v, want a session_down envelope with id 5", resp)
	}
	if elapsed >= timeout/2 {
		t.Errorf("panicking task answered after %v, want at once (ServeTimeout %v)", elapsed, timeout)
	}
	if st := s.State(); st != StateFailed {
		t.Errorf("session state = %s, want failed", st)
	}
	if n := s.Panics(); n != 1 {
		t.Errorf("session panics = %d, want 1", n)
	}
}

// TestCallerRunsOnlyItsOwnTask pins the idle-lane turn's bound: a
// caller that owns the lane runs its own task and returns, while
// another goroutine keeps posting pumps; what was posted during the
// turn goes to the workers, and Drain waits for every pump. One posted
// task blocks until the caller has returned, so a caller that ran
// tasks it did not post would stall on it.
func TestCallerRunsOnlyItsOwnTask(t *testing.T) {
	m := serveFleet(t, 1)
	s := m.sessions[0]
	cycles := s.wm.Metrics().Counter("pump.cycles")
	before := cycles.Value()

	const pumps = 300
	turnStarted := make(chan struct{})
	gatePosted := make(chan struct{})
	callerReturned := make(chan struct{})
	posterDone := make(chan struct{})
	go func() {
		defer close(posterDone)
		select {
		case <-turnStarted:
		case <-callerReturned: // the turn never ran; the test fails below
			return
		}
		for i := 0; i < pumps; i++ {
			m.Pump(0)
			if i == 20 {
				m.Exec(0, func(*core.WM) {
					select {
					case <-callerReturned:
					case <-time.After(2 * time.Second):
						t.Error("a task posted during the caller's turn ran before the caller returned")
					}
				})
				close(gatePosted)
			}
		}
	}()

	turn := s.runOnCaller(taskWork, func() {
		close(turnStarted)
		<-gatePosted
	}, false)
	close(callerReturned)
	if turn != laneRan {
		t.Fatalf("idle lane turn = %d, want laneRan", turn)
	}

	<-posterDone
	m.Drain()
	if got := cycles.Value() - before; got != pumps {
		t.Errorf("after Drain %d pumps ran, want all %d posted", got, pumps)
	}
}

// TestIdleLaneTurnAllocatesNothing pins the caller-run path's cost: no
// channel, no timer, no task record — a turn on an idle lane is two
// short critical sections around the caller's own function.
func TestIdleLaneTurnAllocatesNothing(t *testing.T) {
	m := serveFleet(t, 1)
	s := m.sessions[0]
	n := 0
	allocs := testing.AllocsPerRun(100, func() {
		if s.runOnCaller(taskWork, func() { n++ }, true) != laneRan {
			t.Fatal("lane was not idle")
		}
	})
	if allocs != 0 {
		t.Errorf("idle lane turn allocates %.1f times, want 0", allocs)
	}
	if n != 101 {
		t.Errorf("task ran %d times, want 101", n)
	}
}

func TestSessionRegistryLifecycle(t *testing.T) {
	m := serveFleet(t, 2)
	if m.SessionRegistry(0) == nil {
		t.Fatal("running session has nil registry")
	}
	if m.SessionRegistry(0) != m.Session(0).WM().Metrics() {
		t.Error("SessionRegistry disagrees with the WM's registry")
	}
	if m.SessionRegistry(99) != nil || m.SessionRegistry(-1) != nil {
		t.Error("out-of-range session returned a registry")
	}
	m.Stop(0)
	m.Drain()
	if m.SessionRegistry(0) != nil {
		t.Error("stopped session kept its registry published")
	}
	m.Start(0)
	m.Drain()
	if m.SessionRegistry(0) == nil {
		t.Error("restarted session did not republish its registry")
	}
	if m.SessionState(0) != "running" || m.SessionState(99) != "unknown" {
		t.Errorf("states = %s/%s", m.SessionState(0), m.SessionState(99))
	}
}

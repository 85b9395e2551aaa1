package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/clients"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/swmhttp"
	"repro/internal/swmproto"
	"repro/internal/templates"
)

// The HTTP workloads' server runs in a child process of the benchmark,
// built from the public APIs swmhttpd uses: fleet.New, clients.Launch
// and swmhttp.New(backend).Handler(). It talks to the benchmark over its
// standard streams:
//
//	child → "ready <addr>"            set-up done, serving on addr
//	parent → "mark"                   child → "mark <markReply JSON>"
//	parent closes stdin               child → "report <serverReport JSON>", exits
//
// Untraced, it serves exactly the handler stack swmhttpd serves. Traced
// (a spans file is given), the same stack is wrapped from outside: a
// span around Handler().ServeHTTP and a timing swmhttp.Backend around
// *fleet.Manager that spans each ServeSession.

// spanHeader carries the loader's request id to the traced server.
const spanHeader = "X-E2e-Span"

// markReply is the server's resource use at a mark, plus the traced
// backend's counters since the previous mark.
type markReply struct {
	Proc          procSample `json:"proc"`
	QueueDepthMax int64      `json:"queue_depth_max"`
	Queries       int64      `json:"queries"` // cacheable queries
	Misses        int64      `json:"misses"`  // first cacheable query after an exec or at start
}

// serverReport is what the server reports at exit.
type serverReport struct {
	Proc     procSample `json:"proc"`
	ManageNs []int64    `json:"manage_ns"` // per client: launch until the session's WM managed it
}

// buildFleet brings up the fleet of workload w with the seed's clients,
// timing each client from its launch until its session's WM has managed
// it, and checks that every session manages exactly its clients.
func buildFleet(w httpWorkload, seed int64) (*fleet.Manager, []int64, error) {
	db, err := templates.LoadByName("openlook")
	if err != nil {
		return nil, nil, err
	}
	m, err := fleet.New(fleet.Config{Sessions: w.sessions, DB: db})
	if err != nil {
		return nil, nil, err
	}
	m.StartAll()
	m.Drain()
	var manage []int64
	for i, cfgs := range fleetClients(w, seed) {
		srv := m.Session(i).Server()
		for _, cfg := range cfgs {
			t0 := time.Now()
			if _, err := clients.Launch(srv, cfg); err != nil {
				m.Close()
				return nil, nil, err
			}
			m.Pump(i)
			m.Drain()
			manage = append(manage, time.Since(t0).Nanoseconds())
		}
		if n := len(m.Session(i).WM().Clients()); n != w.perSession {
			m.Close()
			return nil, nil, fmt.Errorf("session %d manages %d clients, want %d", i, n, w.perSession)
		}
	}
	return m, manage, nil
}

// tracedBackend is the timing swmhttp.Backend over *fleet.Manager: it
// spans every ServeSession and models the fleet's query cache from
// outside, marking a session dirty on exec and counting the first
// cacheable query after it as a miss.
type tracedBackend struct {
	*fleet.Manager
	rec *recorder
	// depth is the fleet's existing queue-depth gauge, sampled on every
	// call; depthMax is the largest value seen since the last mark.
	depth    *obs.Gauge
	depthMax atomic.Int64
	// Per session: the stats/clients/desktop trio renders together on a
	// miss, trace renders alone (fleet.serveSession).
	trioDirty, traceDirty []atomic.Bool
	queries, misses       atomic.Int64
}

func newTracedBackend(m *fleet.Manager) *tracedBackend {
	b := &tracedBackend{Manager: m, rec: &recorder{}, depth: m.Metrics().Gauge("fleet.queue_depth"),
		trioDirty: make([]atomic.Bool, m.Sessions()), traceDirty: make([]atomic.Bool, m.Sessions())}
	for i := range b.trioDirty {
		b.trioDirty[i].Store(true) // nothing is rendered yet
		b.traceDirty[i].Store(true)
	}
	return b
}

func (b *tracedBackend) ServeSession(id int, req swmproto.Request) swmproto.Response {
	name := "fleet.serve"
	if req.Op == swmproto.OpExec {
		name = "fleet.exec"
	} else if req.Screen == 0 && id >= 0 && id < len(b.trioDirty) {
		dirty := &b.trioDirty[id]
		if req.Target == swmproto.TargetTrace {
			dirty = &b.traceDirty[id]
		}
		b.queries.Add(1)
		if dirty.Swap(false) {
			b.misses.Add(1)
		}
	}
	if d := b.depth.Value(); d > b.depthMax.Load() {
		b.depthMax.Store(d)
	}
	t0 := wallNow()
	resp := b.Manager.ServeSession(id, req)
	b.rec.add(span{Req: req.ID, ID: 3, Parent: 2, Name: name, Start: t0, End: wallNow()})
	if req.Op == swmproto.OpExec && id >= 0 && id < len(b.trioDirty) {
		b.trioDirty[id].Store(true)
		b.traceDirty[id].Store(true)
	}
	return resp
}

// serveMain is the server process: build, serve, answer marks, report.
func serveMain(workload string, seed int64, spansPath string) error {
	w, ok := httpWorkloads[workload]
	if !ok {
		return fmt.Errorf("no HTTP workload %q", workload)
	}
	m, manage, err := buildFleet(w, seed)
	if err != nil {
		return err
	}
	defer m.Close()

	var handler http.Handler
	var tb *tracedBackend
	if spansPath == "" {
		handler = swmhttp.New(m, swmhttp.Config{}).Handler()
	} else {
		tb = newTracedBackend(m)
		inner := swmhttp.New(tb, swmhttp.Config{}).Handler()
		handler = http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			req, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
			t0 := wallNow()
			inner.ServeHTTP(rw, r)
			if req != 0 {
				tb.rec.add(span{Req: req, ID: 2, Parent: 1, Name: "swmhttp.handler", Start: t0, End: wallNow()})
			}
		})
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: handler}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	fmt.Printf("ready %s\n", ln.Addr())

	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		if in.Text() != "mark" {
			continue
		}
		reply := markReply{Proc: sampleProc()}
		if tb != nil {
			reply.QueueDepthMax = tb.depthMax.Swap(0)
			reply.Queries, reply.Misses = tb.queries.Swap(0), tb.misses.Swap(0)
		}
		if err := printJSON("mark", reply); err != nil {
			return err
		}
	}
	srv.Close()
	<-serveDone
	rep := serverReport{Proc: sampleProc(), ManageNs: manage}
	if tb != nil {
		tb.rec.mu.Lock()
		err := writeSpans(spansPath, tb.rec.spans)
		tb.rec.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return printJSON("report", rep)
}

func printJSON(tag string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s %s\n", tag, b)
	return err
}

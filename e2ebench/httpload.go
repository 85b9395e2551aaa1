package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"
)

// serverProc is a running server child.
type serverProc struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	out   *bufio.Reader
	addr  string
}

// startServer starts a server child and waits until it answers
// GET /healthz. It returns the child and the time from start to ready.
func startServer(workload string, seed int64, spans string) (*serverProc, time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	cmd := exec.Command(exe, "-serve", "-workload", workload, "-seed", strconv.FormatInt(seed, 10), "-spans", spans)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, 0, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	p := &serverProc{cmd: cmd, stdin: stdin, out: bufio.NewReader(stdout)}
	line, err := p.out.ReadString('\n')
	addr, ok := strings.CutPrefix(strings.TrimSpace(line), "ready ")
	if err != nil || !ok {
		p.kill()
		return nil, 0, fmt.Errorf("server did not come up: %q %v", line, err)
	}
	p.addr = addr
	if err := healthz(addr); err != nil {
		p.kill()
		return nil, 0, err
	}
	return p, time.Since(t0), nil
}

func healthz(addr string) error {
	c, err := dial(addr)
	if err != nil {
		return err
	}
	defer c.conn.Close()
	c.wbuf = append(c.wbuf[:0], "GET /healthz HTTP/1.1\r\nHost: bench\r\n\r\n"...)
	status, body, err := c.roundTrip()
	if err != nil {
		return err
	}
	if status != 200 || !bytes.Contains(body, []byte(`"status":"ok"`)) {
		return fmt.Errorf("healthz: %d %s", status, body)
	}
	return nil
}

// kill ends a child that failed to start and waits for it.
func (p *serverProc) kill() {
	p.stdin.Close()
	_ = p.cmd.Process.Kill() // it may have exited already
	_ = p.cmd.Wait()         // the exit status of a killed child carries nothing
}

func (p *serverProc) reply(tag string, v any) error {
	line, err := p.out.ReadString('\n')
	rest, ok := strings.CutPrefix(line, tag+" ")
	if err != nil || !ok {
		return fmt.Errorf("server: want %s line, got %q: %v", tag, line, err)
	}
	return json.Unmarshal([]byte(rest), v)
}

func (p *serverProc) mark() (markReply, error) {
	var m markReply
	if _, err := io.WriteString(p.stdin, "mark\n"); err != nil {
		return m, err
	}
	return m, p.reply("mark", &m)
}

// stop asks the child to exit and returns its report.
func (p *serverProc) stop() (serverReport, error) {
	var r serverReport
	p.stdin.Close()
	err := p.reply("report", &r)
	if werr := p.cmd.Wait(); err == nil {
		err = werr
	}
	return r, err
}

// httpConn is one keep-alive HTTP/1.1 loader connection with hand-built
// requests and an in-place response reader, so the loader spends little
// CPU beside the server it measures.
type httpConn struct {
	conn net.Conn
	br   *bufio.Reader
	wbuf []byte
	body []byte
}

func dial(addr string) (*httpConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &httpConn{conn: c, br: bufio.NewReaderSize(c, 64<<10)}, nil
}

const execBody = `{"command":"f.nop"}`

func (c *httpConn) build(op httpOp, spanID uint64) {
	b := c.wbuf[:0]
	if op.target == execTarget {
		b = append(b, "POST /v1/sessions/"...)
		b = strconv.AppendInt(b, int64(op.session), 10)
		b = append(b, "/exec HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: "...)
		b = strconv.AppendInt(b, int64(len(execBody)), 10)
		b = append(b, "\r\n"...)
	} else {
		b = append(b, "GET /v1/sessions/"...)
		b = strconv.AppendInt(b, int64(op.session), 10)
		b = append(b, '/')
		b = append(b, targets[op.target]...)
		b = append(b, " HTTP/1.1\r\nHost: bench\r\n"...)
	}
	if spanID != 0 {
		b = append(b, spanHeader+": "...)
		b = strconv.AppendUint(b, spanID, 10)
		b = append(b, "\r\n"...)
	}
	b = append(b, "\r\n"...)
	if op.target == execTarget {
		b = append(b, execBody...)
	}
	c.wbuf = b
}

// roundTrip writes the built request and reads one response. The body
// aliases c.body until the next call.
func (c *httpConn) roundTrip() (int, []byte, error) {
	if _, err := c.conn.Write(c.wbuf); err != nil {
		return 0, nil, err
	}
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	status, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	n := -1
	for {
		h, err := c.br.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		if len(h) <= 2 {
			break
		}
		if k, v, ok := bytes.Cut(h, []byte(":")); ok && bytes.EqualFold(k, []byte("Content-Length")) {
			if n, err = strconv.Atoi(string(bytes.TrimSpace(v))); err != nil {
				return 0, nil, fmt.Errorf("bad Content-Length %q", v)
			}
		}
	}
	if n < 0 {
		return 0, nil, errors.New("response without Content-Length")
	}
	if cap(c.body) < n {
		c.body = make([]byte, n)
	}
	c.body = c.body[:n]
	if _, err := io.ReadFull(c.br, c.body); err != nil {
		return 0, nil, err
	}
	return status, c.body, nil
}

// checker verifies every response envelope. A body identical, apart
// from its id, to one already checked for the same session and target
// has the same answer, so it is compared instead of parsed again.
type checker struct {
	w    httpWorkload
	memo map[int][]byte
}

const envPrefix = `{"v":1,"id":`

// splitID extracts the envelope id and the bytes after it.
func splitID(body []byte) (uint64, []byte, bool) {
	if !bytes.HasPrefix(body, []byte(envPrefix)) {
		return 0, nil, false
	}
	rest := body[len(envPrefix):]
	i := 0
	var id uint64
	for i < len(rest) && rest[i] >= '0' && rest[i] <= '9' {
		id = id*10 + uint64(rest[i]-'0')
		i++
	}
	return id, rest[i:], i > 0
}

func (ck *checker) check(op httpOp, status int, body []byte) (uint64, error) {
	id, rest, ok := splitID(body)
	key := op.session*8 + op.target
	if ok && status == 200 && bytes.Equal(ck.memo[key], rest) {
		return id, nil
	}
	var env struct {
		V      int             `json:"v"`
		ID     uint64          `json:"id"`
		OK     bool            `json:"ok"`
		Code   string          `json:"code"`
		Error  string          `json:"error"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		return 0, fmt.Errorf("envelope: %v", err)
	}
	if !env.OK || status != 200 || env.V != 1 {
		return env.ID, fmt.Errorf("status %d: %s: %s", status, env.Code, env.Error)
	}
	if err := ck.checkResult(op.target, env.Result); err != nil {
		return env.ID, err
	}
	if ok {
		ck.memo[key] = append(ck.memo[key][:0], rest...)
	}
	return env.ID, nil
}

func (ck *checker) checkResult(target int, res json.RawMessage) error {
	if target == execTarget {
		if len(res) != 0 {
			return fmt.Errorf("exec answered with a result: %s", res)
		}
		return nil
	}
	switch targets[target] {
	case "stats":
		var r struct {
			Metrics struct {
				Counters map[string]int64 `json:"counters"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal(res, &r); err != nil {
			return err
		}
		if n := r.Metrics.Counters["wm.managed"]; n != int64(ck.w.perSession) {
			return fmt.Errorf("stats: wm.managed = %d, want %d", n, ck.w.perSession)
		}
	case "trace":
		var r struct {
			Cap int `json:"cap"`
		}
		if err := json.Unmarshal(res, &r); err != nil {
			return err
		}
		if r.Cap <= 0 {
			return fmt.Errorf("trace: cap %d", r.Cap)
		}
	case "clients":
		var r struct {
			Clients []struct {
				Window uint32 `json:"window"`
			} `json:"clients"`
		}
		if err := json.Unmarshal(res, &r); err != nil {
			return err
		}
		if len(r.Clients) != ck.w.perSession {
			return fmt.Errorf("clients: %d listed, want %d", len(r.Clients), ck.w.perSession)
		}
		for _, c := range r.Clients {
			if c.Window == 0 {
				return errors.New("clients: window 0")
			}
		}
	case "desktop":
		var r struct {
			Screens []struct {
				Screen int `json:"screen"`
			} `json:"screens"`
		}
		if err := json.Unmarshal(res, &r); err != nil {
			return err
		}
		if len(r.Screens) == 0 || r.Screens[0].Screen != 0 {
			return fmt.Errorf("desktop: screens %+v do not start with screen 0", r.Screens)
		}
	}
	return nil
}

// loadResult is what the loader measured in one phase.
type loadResult struct {
	lat          windowed // round trips of successful requests, ns
	ops, failed  int64
	bytes, count [execTarget + 1]int64 // response body bytes and responses per target
	spans        []span                // loader round-trip spans (traced)
	protoOf      map[uint64]uint64     // server envelope id → loader request id (traced)
	connErr      error
}

// loadPhase drives the server at addr closed-loop for d: each of conns
// connections sends its seeded request stream, waiting for every reply.
func loadPhase(addr string, w httpWorkload, seed int64, conns int, d time.Duration, traced bool) loadResult {
	per := make([]loadResult, conns)
	var wg sync.WaitGroup
	start := time.Now()
	for k := 0; k < conns; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			per[k] = loadConn(addr, w, seed, k, start, d, traced)
		}(k)
	}
	wg.Wait()
	out := loadResult{lat: newWindowed(start, d), protoOf: map[uint64]uint64{}}
	for _, r := range per {
		out.lat.merge(r.lat)
		out.ops += r.ops
		out.failed += r.failed
		for t := range r.bytes {
			out.bytes[t] += r.bytes[t]
			out.count[t] += r.count[t]
		}
		out.spans = append(out.spans, r.spans...)
		for p, l := range r.protoOf {
			out.protoOf[p] = l
		}
		if out.connErr == nil {
			out.connErr = r.connErr
		}
	}
	return out
}

func loadConn(addr string, w httpWorkload, seed int64, k int, start time.Time, d time.Duration, traced bool) loadResult {
	r := loadResult{lat: newWindowed(start, d), protoOf: map[uint64]uint64{}}
	deadline := start.Add(d)
	c, err := dial(addr)
	if err != nil {
		r.connErr = err
		return r
	}
	defer c.conn.Close()
	ck := &checker{w: w, memo: map[int][]byte{}}
	stream := newHTTPStream(w, seed, k)
	for n := uint64(1); time.Now().Before(deadline); n++ {
		op := stream.next()
		var spanID uint64
		if traced {
			spanID = uint64(k+1)<<32 | n
		}
		c.build(op, spanID)
		t0 := time.Now()
		status, body, err := c.roundTrip()
		t1 := time.Now()
		r.ops++
		if err != nil {
			r.failed++
			r.connErr = err
			return r
		}
		r.bytes[op.target] += int64(len(body))
		r.count[op.target]++
		id, err := ck.check(op, status, body)
		if err != nil {
			r.failed++
			logf("%s %d: %v", targetName(op.target), op.session, err)
		} else {
			r.lat.add(t1, t1.Sub(t0).Nanoseconds())
		}
		if traced {
			r.spans = append(r.spans, span{Req: spanID, ID: 1, Name: "loader.round_trip", Start: t0.UnixNano(), End: t1.UnixNano()})
			r.protoOf[id] = spanID
		}
	}
	return r
}

func targetName(t int) string {
	if t == execTarget {
		return "exec"
	}
	return targets[t]
}

package main

import (
	"bytes"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/swmhttp"
)

// TestMain lets the test binary stand in for the benchmark binary as the
// server child: startServer re-executes os.Executable with -serve.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-serve" {
		fs := flag.NewFlagSet("serve", flag.ExitOnError)
		fs.Bool("serve", true, "")
		workload := fs.String("workload", "", "")
		seed := fs.Int64("seed", 1, "")
		spans := fs.String("spans", "", "")
		_ = fs.Parse(os.Args[1:]) // ExitOnError: a bad flag exits
		if err := serveMain(*workload, *seed, *spans); err != nil {
			os.Stderr.WriteString(err.Error() + "\n")
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestChildMatchesInProcessHandler pins that the untraced server child
// serves, over its socket, the bytes an in-process
// swmhttp.New(fleet).Handler() serves for the same seed and requests.
// The stats target is compared without its latency histograms, which
// time the process itself rather than describe the fleet's state.
func TestChildMatchesInProcessHandler(t *testing.T) {
	const seed = 7
	w := httpWorkloads["http-write"]
	srv, _, err := startServer("http-write", seed, "")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if _, err := srv.stop(); err != nil {
			t.Error(err)
		}
	}()
	m, _, err := buildFleet(w, seed)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	local := swmhttp.New(m, swmhttp.Config{}).Handler()
	c, err := dial(srv.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.conn.Close()

	var ops []httpOp
	for s := 0; s < 3; s++ {
		for tgt := 0; tgt <= execTarget; tgt++ {
			ops = append(ops, httpOp{session: s, target: tgt})
		}
		ops = append(ops, httpOp{session: s, target: 2}) // clients again, after the exec
	}
	for _, op := range ops {
		c.build(op, 0)
		status, remote, err := c.roundTrip()
		if err != nil {
			t.Fatal(err)
		}
		url := "/v1/sessions/" + strconv.Itoa(op.session) + "/" + targetName(op.target)
		var req *http.Request
		if op.target == execTarget {
			req = httptest.NewRequest("POST", url, strings.NewReader(execBody))
		} else {
			req = httptest.NewRequest("GET", url, nil)
		}
		rec := httptest.NewRecorder()
		local.ServeHTTP(rec, req)
		want := rec.Body.Bytes()
		if status != rec.Code {
			t.Errorf("%s: child status %d, in-process %d", url, status, rec.Code)
		}
		got := remote
		if targetName(op.target) == "stats" {
			got, want = withoutHistograms(t, got), withoutHistograms(t, want)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: child and in-process bodies differ\nchild:      %s\nin-process: %s", url, got, want)
		}
	}
}

// withoutHistograms cuts the "histograms" object out of a stats body.
func withoutHistograms(t *testing.T, body []byte) []byte {
	t.Helper()
	i := bytes.Index(body, []byte(`"histograms":{`))
	if i < 0 {
		t.Fatalf("stats body has no histograms: %s", body)
	}
	depth := 0
	for j := i + len(`"histograms":`); j < len(body); j++ {
		switch body[j] {
		case '{':
			depth++
		case '}':
			depth--
			if depth == 0 {
				return append(append([]byte(nil), body[:i]...), body[j+1:]...)
			}
		}
	}
	t.Fatalf("unterminated histograms in %s", body)
	return nil
}

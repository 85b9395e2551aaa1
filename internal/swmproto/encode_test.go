package swmproto

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/obs"
)

// parity fails the test unless got is byte-identical to
// json.Marshal(v) — the encoder contract.
func parity(t *testing.T, got []byte, v any) {
	t.Helper()
	want, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("json.Marshal: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("encoder diverges from encoding/json\n got: %s\nwant: %s", got, want)
	}
}

// trickyStrings covers every escaping class appendJSONString handles:
// metacharacters, control bytes, the HTML trio, invalid UTF-8, the
// JS line separators, and the unescaped tail (DEL, multibyte runes).
var trickyStrings = []string{
	"",
	"plain ascii",
	`quote " and backslash \`,
	"tab\tnewline\nreturn\r backspace\b formfeed\f",
	"low controls \x00\x01\x1f",
	"html <tag> & entity",
	"del \x7f survives",
	"multibyte héllo ☃ 日本",
	"invalid \xff\xfe utf8",
	"truncated rune \xe2\x80",
	string(rune(0x2028)) + " line seps " + string(rune(0x2029)),
	"mixed \xffé<&> end",
}

func TestAppendJSONStringParity(t *testing.T) {
	for _, s := range trickyStrings {
		parity(t, appendJSONString(nil, s), s)
	}
}

func TestAppendResponseParity(t *testing.T) {
	result, err := json.Marshal(map[string]any{"clients": []int{1, 2}, "note": "a<b&c\xff"})
	if err != nil {
		t.Fatal(err)
	}
	cases := []Response{
		{},
		{V: Version, ID: 42, OK: true},
		{V: Version, ID: 1, OK: true, Result: result},
		{V: Version, ID: 7, OK: false, Code: CodeExecFailed, Error: `unknown function "f.bogus"`},
		{V: Version, ID: 9, OK: false, Code: CodeTimeout, Error: "session 3 did not serve request 9 within 5s"},
	}
	for _, resp := range cases {
		parity(t, AppendResponse(nil, &resp), resp)

		// The HTTP transport's contract is json.Encoder.Encode parity:
		// the envelope plus a trailing newline.
		var wire bytes.Buffer
		if err := json.NewEncoder(&wire).Encode(resp); err != nil {
			t.Fatal(err)
		}
		got := append(AppendResponse(nil, &resp), '\n')
		if !bytes.Equal(got, wire.Bytes()) {
			t.Errorf("envelope wire form diverges\n got: %q\nwant: %q", got, wire.Bytes())
		}
	}
}

// statsParity fails the test unless AppendStats renders reg exactly as
// encoding/json renders the map-based StatsResult built from its
// Snapshot.
func statsParity(t *testing.T, reg *obs.Registry, degraded int, lastErr string) {
	t.Helper()
	parity(t, AppendStats(nil, reg, degraded, lastErr),
		StatsResult{Metrics: reg.Snapshot(), Degraded: degraded, LastError: lastErr})
}

// kindRegistry registers one instrument of each kind whose bit is set
// in kinds (1 counters, 2 gauges, 4 histograms), named from names.
func kindRegistry(kinds int, names []string) *obs.Registry {
	reg := obs.NewRegistry()
	for i, name := range names {
		if kinds&1 != 0 {
			reg.Counter(name).Add(int64(i + 1))
		}
		if kinds&2 != 0 {
			reg.Gauge(name).Set(int64(-i))
		}
		if kinds&4 != 0 {
			h := reg.Histogram(name, []int64{10, 100})
			h.Observe(int64(i * 40))
			h.Observe(1 << 40)
		}
	}
	return reg
}

func TestAppendStatsParity(t *testing.T) {
	plain := []string{"wm.managed", "a.first", "Z.capital-sorts-first", "pump.latency_ns"}
	// Every subset of kinds: the empty registry (0), each kind alone,
	// and each kind empty while the other two are not.
	for kinds := 0; kinds < 8; kinds++ {
		reg := kindRegistry(kinds, plain)
		statsParity(t, reg, 0, "")
		statsParity(t, reg, 2, "X error <Window> & more\n")
	}
	// Names that need escaping, and names whose byte order differs
	// from their escaped order.
	statsParity(t, kindRegistry(7, trickyStrings), 1, `quote " and <tag> & \ é`)

	// A bound-less histogram renders its lone overflow bucket.
	reg := obs.NewRegistry()
	reg.Histogram("only.overflow", nil).Observe(3)
	statsParity(t, reg, 0, "")
}

func TestAppendClientsResultParity(t *testing.T) {
	cases := []ClientsResult{
		{}, // nil slice
		{Clients: []ClientInfo{}},
		{Clients: []ClientInfo{
			{Window: 0x400001, Name: "xterm <1>", Class: "XTerm", Instance: "s0c0",
				State: "normal", X: -4, Y: 12, Width: 120, Height: 90},
			{Window: 2, State: "iconic", Sticky: true, Transient: true},
		}},
	}
	for _, res := range cases {
		parity(t, AppendClientsResult(nil, &res), res)
	}
}

func TestAppendDesktopResultParity(t *testing.T) {
	cases := []DesktopResult{
		{}, // nil slice
		{Screens: []DesktopInfo{}},
		{Screens: []DesktopInfo{
			{Screen: 0, Enabled: true, Width: 3456, Height: 2700, ViewWidth: 1152,
				ViewHeight: 900, PanX: 1152, PanY: -900, CurrentDesktop: 2, Desktops: 3},
			{Screen: 1, Width: 1152, Height: 900, ViewWidth: 1152, ViewHeight: 900},
		}},
	}
	for _, res := range cases {
		parity(t, AppendDesktopResult(nil, &res), res)
	}
}

// FuzzStringEncodeParity pins appendJSONString to encoding/json across
// arbitrary byte sequences — the invalid-UTF-8 and escaping corners a
// table can miss.
func FuzzStringEncodeParity(f *testing.F) {
	for _, s := range trickyStrings {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got := appendJSONString(nil, s)
		want, err := json.Marshal(s)
		if err != nil {
			t.Skip() // encoding/json cannot marshal it either
		}
		if !bytes.Equal(got, want) {
			t.Errorf("appendJSONString(%q) = %s, want %s", s, got, want)
		}
	})
}

// FuzzResponseEncodeParity pins the whole envelope: arbitrary header
// fields plus a marshal-produced result payload.
func FuzzResponseEncodeParity(f *testing.F) {
	f.Add(uint64(1), true, "", "", "payload")
	f.Add(uint64(0), false, CodeBadRequest, "bad <body> & worse", "")
	f.Add(^uint64(0), false, "weird\xffcode", "err\nline", "res\x00ult")
	f.Fuzz(func(t *testing.T, id uint64, ok bool, code, errStr, resultStr string) {
		resp := Response{V: Version, ID: id, OK: ok, Code: code, Error: errStr}
		if resultStr != "" {
			raw, err := json.Marshal(resultStr)
			if err != nil {
				t.Skip()
			}
			resp.Result = raw
		}
		parity(t, AppendResponse(nil, &resp), resp)
	})
}

// FuzzStatsEncodeParity pins AppendStats to encoding/json over
// registries built from fuzzed names and values: names is split on
// '|', and the i-th name goes to counters, gauges or histograms by
// i mod 3 (a repeated name reuses its instrument).
func FuzzStatsEncodeParity(f *testing.F) {
	f.Add("wm.managed|fleet.live|pump.ns", int64(7), 0, "")
	f.Add("b|a|c|a|b|c", int64(-3), 2, "lost <window> & more")
	f.Add("html <tag> & entity|invalid \xff\xfe utf8|multibyte héllo ☃ 日本|quote \" \\", int64(1)<<40, 1, "\x00\u2028")
	f.Fuzz(func(t *testing.T, names string, v int64, degraded int, lastErr string) {
		reg := obs.NewRegistry()
		for i, name := range strings.Split(names, "|") {
			switch i % 3 {
			case 0:
				reg.Counter(name).Add(v)
			case 1:
				reg.Gauge(name).Set(v - int64(i))
			default:
				h := reg.Histogram(name, obs.SizeBounds)
				h.Observe(v)
				h.Observe(int64(i))
			}
		}
		statsParity(t, reg, degraded, lastErr)
	})
}

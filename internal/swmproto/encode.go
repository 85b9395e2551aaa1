// Hand-rolled append encoders for the protocol's hot response shapes.
//
// The reflective encoding/json path costs ~25 allocations and a
// reflect walk per stats response — measurable at fleet traffic rates
// (BENCH_9: ~170 allocs per HTTP round-trip). These encoders build the
// identical bytes with nothing but appends into a caller-supplied
// buffer, so the serving path can render into pooled or cached storage
// with zero garbage.
//
// The parity contract: for every value these functions accept, the
// output is byte-identical to encoding/json.Marshal of the same value
// (and AppendResponse plus a trailing '\n' matches
// json.Encoder.Encode). The contract is pinned by golden tests and a
// fuzzer in encode_test.go; any divergence is a bug here, never a new
// dialect. Two consequences worth naming:
//
//   - Strings use encoding/json's HTML-escaping form ('<', '>', '&'
//     become \u003c, \u003e, \u0026), invalid UTF-8 collapses to
//     \ufffd, and U+2028/U+2029 are escaped — exactly the default
//     Marshal behavior the property transport has always produced.
//   - AppendResponse copies Response.Result verbatim, so the envelope
//     matches Marshal only when Result holds compact marshal-produced
//     JSON. Every producer in this repository satisfies that (results
//     come from Marshal or from these encoders); the fuzzer generates
//     results the same way.
package swmproto

import (
	"strconv"
	"unicode/utf8"

	"repro/internal/obs"
)

const hexDigits = "0123456789abcdef"

// jsonSafe marks the ASCII bytes encoding/json emits verbatim inside a
// string literal with HTML escaping on: everything from 0x20 up except
// the JSON metacharacters '"' and '\\' and the HTML trio '<' '>' '&'.
var jsonSafe = func() (t [utf8.RuneSelf]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		switch b {
		case '"', '\\', '<', '>', '&':
		default:
			t[b] = true
		}
	}
	return
}()

// appendJSONString appends s as a JSON string literal, byte-identical
// to encoding/json.Marshal(s).
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if jsonSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				// Control characters and the HTML trio take the
				// \u00xx form (lowercase hex, as encoding/json).
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			i++
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

func appendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, "true"...)
	}
	return append(dst, "false"...)
}

// AppendResponse appends the envelope's JSON form. With a trailing
// '\n' added by the caller it is byte-identical to what
// json.NewEncoder(w).Encode(resp) writes, provided Result is compact
// marshal-produced JSON (see the package comment).
func AppendResponse(dst []byte, resp *Response) []byte {
	dst = append(dst, `{"v":`...)
	dst = strconv.AppendInt(dst, int64(resp.V), 10)
	dst = append(dst, `,"id":`...)
	dst = strconv.AppendUint(dst, resp.ID, 10)
	dst = append(dst, `,"ok":`...)
	dst = appendBool(dst, resp.OK)
	if resp.Code != "" {
		dst = append(dst, `,"code":`...)
		dst = appendJSONString(dst, resp.Code)
	}
	if resp.Error != "" {
		dst = append(dst, `,"error":`...)
		dst = appendJSONString(dst, resp.Error)
	}
	if len(resp.Result) > 0 {
		dst = append(dst, `,"result":`...)
		dst = append(dst, resp.Result...)
	}
	return append(dst, '}')
}

// AppendStats appends the TargetStats payload for reg, byte-identical
// to json.Marshal(StatsResult{Metrics: reg.Snapshot(), Degraded:
// degraded, LastError: lastErr}). It streams from reg.Visit, whose
// name order within each kind is encoding/json's map-key order, so the
// render builds no snapshot maps and sorts nothing.
func AppendStats(dst []byte, reg *obs.Registry, degraded int, lastErr string) []byte {
	e := &statsEncoder{dst: append(dst, `{"metrics":{"counters":{`...)}
	reg.Visit(e)
	e.enter(len(statsSectionEnds))
	dst = append(e.dst, `,"degraded":`...)
	dst = strconv.AppendInt(dst, int64(degraded), 10)
	if lastErr != "" {
		dst = append(dst, `,"last_error":`...)
		dst = appendJSONString(dst, lastErr)
	}
	return append(dst, '}')
}

// statsSectionEnds closes each metrics section in Visit order
// (counters, gauges, histograms) and opens the next.
var statsSectionEnds = [...]string{`},"gauges":{`, `},"histograms":{`, `}}`}

// statsEncoder is the obs.Visitor behind AppendStats.
type statsEncoder struct {
	dst     []byte
	section int  // index into statsSectionEnds of the open section
	more    bool // the open section already holds an entry
}

// enter closes open sections until section is the open one.
func (e *statsEncoder) enter(section int) {
	for ; e.section < section; e.section++ {
		e.dst = append(e.dst, statsSectionEnds[e.section]...)
		e.more = false
	}
}

// key starts the entry called name in section.
func (e *statsEncoder) key(section int, name string) {
	e.enter(section)
	if e.more {
		e.dst = append(e.dst, ',')
	}
	e.more = true
	e.dst = appendJSONString(e.dst, name)
	e.dst = append(e.dst, ':')
}

func (e *statsEncoder) VisitCounter(name string, value int64) {
	e.key(0, name)
	e.dst = strconv.AppendInt(e.dst, value, 10)
}

func (e *statsEncoder) VisitGauge(name string, value int64) {
	e.key(1, name)
	e.dst = strconv.AppendInt(e.dst, value, 10)
}

// VisitHistogram renders the obs.HistogramSnapshot form of h.
func (e *statsEncoder) VisitHistogram(name string, h *obs.Histogram) {
	e.key(2, name)
	e.dst = append(e.dst, `{"count":`...)
	e.dst = strconv.AppendInt(e.dst, h.Count(), 10)
	e.dst = append(e.dst, `,"sum":`...)
	e.dst = strconv.AppendInt(e.dst, h.Sum(), 10)
	e.dst = append(e.dst, `,"buckets":[`...)
	first := true
	h.Range(func(upperBound, count int64) {
		if !first {
			e.dst = append(e.dst, ',')
		}
		first = false
		e.dst = append(e.dst, `{"le":`...)
		e.dst = strconv.AppendInt(e.dst, upperBound, 10)
		e.dst = append(e.dst, `,"count":`...)
		e.dst = strconv.AppendInt(e.dst, count, 10)
		e.dst = append(e.dst, '}')
	})
	e.dst = append(e.dst, "]}"...)
}

// AppendClientsResult appends the TargetClients payload, byte-identical
// to json.Marshal(*res).
func AppendClientsResult(dst []byte, res *ClientsResult) []byte {
	dst = append(dst, `{"clients":`...)
	if res.Clients == nil {
		dst = append(dst, "null"...)
		return append(dst, '}')
	}
	dst = append(dst, '[')
	for i := range res.Clients {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendClientInfo(dst, &res.Clients[i])
	}
	dst = append(dst, ']')
	return append(dst, '}')
}

func appendClientInfo(dst []byte, c *ClientInfo) []byte {
	dst = append(dst, `{"window":`...)
	dst = strconv.AppendUint(dst, uint64(c.Window), 10)
	if c.Name != "" {
		dst = append(dst, `,"name":`...)
		dst = appendJSONString(dst, c.Name)
	}
	if c.Class != "" {
		dst = append(dst, `,"class":`...)
		dst = appendJSONString(dst, c.Class)
	}
	if c.Instance != "" {
		dst = append(dst, `,"instance":`...)
		dst = appendJSONString(dst, c.Instance)
	}
	dst = append(dst, `,"state":`...)
	dst = appendJSONString(dst, c.State)
	if c.Sticky {
		dst = append(dst, `,"sticky":true`...)
	}
	if c.Transient {
		dst = append(dst, `,"transient":true`...)
	}
	dst = append(dst, `,"x":`...)
	dst = strconv.AppendInt(dst, int64(c.X), 10)
	dst = append(dst, `,"y":`...)
	dst = strconv.AppendInt(dst, int64(c.Y), 10)
	dst = append(dst, `,"width":`...)
	dst = strconv.AppendInt(dst, int64(c.Width), 10)
	dst = append(dst, `,"height":`...)
	dst = strconv.AppendInt(dst, int64(c.Height), 10)
	return append(dst, '}')
}

// AppendDesktopResult appends the TargetDesktop payload, byte-identical
// to json.Marshal(*res).
func AppendDesktopResult(dst []byte, res *DesktopResult) []byte {
	dst = append(dst, `{"screens":`...)
	if res.Screens == nil {
		dst = append(dst, "null"...)
		return append(dst, '}')
	}
	dst = append(dst, '[')
	for i := range res.Screens {
		if i > 0 {
			dst = append(dst, ',')
		}
		d := &res.Screens[i]
		dst = append(dst, `{"screen":`...)
		dst = strconv.AppendInt(dst, int64(d.Screen), 10)
		dst = append(dst, `,"enabled":`...)
		dst = appendBool(dst, d.Enabled)
		dst = append(dst, `,"width":`...)
		dst = strconv.AppendInt(dst, int64(d.Width), 10)
		dst = append(dst, `,"height":`...)
		dst = strconv.AppendInt(dst, int64(d.Height), 10)
		dst = append(dst, `,"view_width":`...)
		dst = strconv.AppendInt(dst, int64(d.ViewWidth), 10)
		dst = append(dst, `,"view_height":`...)
		dst = strconv.AppendInt(dst, int64(d.ViewHeight), 10)
		dst = append(dst, `,"pan_x":`...)
		dst = strconv.AppendInt(dst, int64(d.PanX), 10)
		dst = append(dst, `,"pan_y":`...)
		dst = strconv.AppendInt(dst, int64(d.PanY), 10)
		dst = append(dst, `,"current_desktop":`...)
		dst = strconv.AppendInt(dst, int64(d.CurrentDesktop), 10)
		dst = append(dst, `,"desktops":`...)
		dst = strconv.AppendInt(dst, int64(d.Desktops), 10)
		dst = append(dst, '}')
	}
	dst = append(dst, ']')
	return append(dst, '}')
}

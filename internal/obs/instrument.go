package obs

import (
	"slices"
	"sync/atomic"

	"repro/internal/xproto"
)

// ConnInstrument observes X connection traffic. It structurally
// satisfies xserver.Instrument without this package importing xserver:
// both sides speak in terms of the leaf xproto package only.
//
// Request fires inside the server's request gate — possibly under the
// server's read lock, possibly concurrently from several connections —
// so it is restricted to atomic adds, reads of a map that is never
// written after construction, and the trace's leaf mutex.
type ConnInstrument struct {
	requests *Counter
	byMajor  map[string]*Counter // built once in NewConnInstrument, read-only after
	other    *Counter
	flushes  *Counter
	batchSz  *Histogram
	trace    *Trace // may be nil
}

// NewConnInstrument registers the connection instruments in reg and
// prebuilds one counter per request major in majors (callers pass
// xserver.RequestMajors). Requests with an unlisted major fall into
// xreq.other. trace may be nil to skip trace records.
func NewConnInstrument(reg *Registry, trace *Trace, majors []string) *ConnInstrument {
	names := requestCounterNames(majors)
	in := &ConnInstrument{
		requests: reg.Counter("xreq.total"),
		byMajor:  make(map[string]*Counter, len(majors)),
		other:    reg.Counter("xreq.other"),
		flushes:  reg.Counter("batch.flushes"),
		batchSz:  reg.Histogram("batch.size", SizeBounds),
		trace:    trace,
	}
	for i, m := range majors {
		in.byMajor[m] = reg.Counter(names[i])
	}
	return in
}

// requestNames pairs a majors list with its "xreq."+major counter
// names.
type requestNames struct {
	majors, names []string
}

// lastRequestNames holds the names built for the most recent majors
// list. Every WM passes the same list, so the names are built once per
// process rather than once per connection.
var lastRequestNames atomic.Pointer[requestNames]

// requestCounterNames returns the counter name of each major, reusing
// the previous call's names when the list is the same.
func requestCounterNames(majors []string) []string {
	if rn := lastRequestNames.Load(); rn != nil && slices.Equal(rn.majors, majors) {
		return rn.names
	}
	rn := &requestNames{majors: slices.Clone(majors), names: make([]string, len(majors))}
	for i, m := range majors {
		rn.names[i] = "xreq." + m
	}
	lastRequestNames.Store(rn)
	return rn.names
}

// Request records one X request. major must be a static string.
func (in *ConnInstrument) Request(major string, target xproto.XID) {
	in.requests.Inc()
	if c, ok := in.byMajor[major]; ok {
		c.Inc()
	} else {
		in.other.Inc()
	}
	if in.trace != nil {
		in.trace.Record(KindRequest, major, uint32(target), 0, 0)
	}
}

// BatchFlush records one batch flush of ops requests.
func (in *ConnInstrument) BatchFlush(ops int) {
	in.flushes.Inc()
	in.batchSz.Observe(int64(ops))
	if in.trace != nil {
		in.trace.Record(KindBatch, "flush", 0, int64(ops), 0)
	}
}

// LockInstrument observes striped-lock contention in the X server. It
// structurally satisfies xserver.LockObserver without this package
// importing xserver. StripeWait fires from the stripe-acquire slow
// path — concurrently from any number of connections — so it is
// restricted to atomic ops on prebuilt instruments.
type LockInstrument struct {
	contended *Counter
	waitNs    *Histogram
}

// NewLockInstrument registers the stripe-contention instruments in reg.
func NewLockInstrument(reg *Registry) *LockInstrument {
	return &LockInstrument{
		contended: reg.Counter("xserver.stripe_contention"),
		waitNs:    reg.Histogram("xserver.lock_wait_ns", LatencyBounds),
	}
}

// StripeWait records one contended stripe acquisition that waited ns
// nanoseconds for the holder to release.
func (in *LockInstrument) StripeWait(ns int64) {
	in.contended.Inc()
	in.waitNs.Observe(ns)
}

// Contended returns the number of contended stripe acquisitions so far.
func (in *LockInstrument) Contended() int64 { return in.contended.Value() }

// SessionInstrument observes session-manager activity. It structurally
// satisfies session.Instrument.
type SessionInstrument struct {
	hits   *Counter
	misses *Counter
	bad    *Counter
}

// NewSessionInstrument registers the session instruments in reg.
func NewSessionInstrument(reg *Registry) *SessionInstrument {
	return &SessionInstrument{
		hits:   reg.Counter("session.hint_hits"),
		misses: reg.Counter("session.hint_misses"),
		bad:    reg.Counter("session.bad_records"),
	}
}

// HintMatch records one hint-table lookup.
func (in *SessionInstrument) HintMatch(hit bool) {
	if hit {
		in.hits.Inc()
	} else {
		in.misses.Inc()
	}
}

// BadRecords records n malformed hint records dropped while parsing.
func (in *SessionInstrument) BadRecords(n int) {
	in.bad.Add(int64(n))
}

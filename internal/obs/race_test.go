package obs_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
	"repro/internal/swmproto"
)

// TestConcurrentRegistry races registrations against every reader of
// the published instrument index — Visit, CounterNames and the
// streamed stats render — and checks that no reader ever sees a name
// twice or out of order, nor loses a name it saw before.
func TestConcurrentRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	var writers sync.WaitGroup
	for i := 0; i < 8; i++ {
		writers.Add(1)
		go func(i int) {
			defer writers.Done()
			for j := 0; j < 1000; j++ {
				reg.Counter("shared").Inc()
				reg.Histogram("lat", obs.LatencyBounds).Observe(int64(j))
				if j%10 == 0 {
					// Interleaved names, so inserts land all over the index.
					name := fmt.Sprintf("w.%03d.%d", j/10, i)
					reg.Counter(name).Inc()
					reg.Gauge(name).Set(int64(j))
					reg.Histogram(name, obs.SizeBounds).Observe(int64(j))
				}
			}
		}(i)
	}

	var done atomic.Bool
	var readers sync.WaitGroup
	readers.Add(3)
	go func() {
		defer readers.Done()
		seen := 0
		for !done.Load() {
			v := &orderVisitor{}
			reg.Visit(v)
			if v.err != nil {
				t.Errorf("Visit: %v", v.err)
				return
			}
			if v.counters < seen {
				t.Errorf("Visit saw %d counters after seeing %d", v.counters, seen)
				return
			}
			seen = v.counters
		}
	}()
	go func() {
		defer readers.Done()
		for !done.Load() {
			if err := ascending(reg.CounterNames()); err != nil {
				t.Errorf("CounterNames: %v", err)
				return
			}
		}
	}()
	go func() {
		defer readers.Done()
		for !done.Load() {
			if err := statsKeysAscending(swmproto.AppendStats(nil, reg, 0, "")); err != nil {
				t.Errorf("AppendStats: %v", err)
				return
			}
		}
	}()
	writers.Wait()
	done.Store(true)
	readers.Wait()

	if got := reg.Counter("shared").Value(); got != 8000 {
		t.Errorf("shared = %d, want 8000", got)
	}
	if got := reg.Histogram("lat", obs.LatencyBounds).Count(); got != 8000 {
		t.Errorf("lat count = %d, want 8000", got)
	}
	if got, want := len(reg.CounterNames()), 1+8*100; got != want {
		t.Errorf("%d counters registered, want %d", got, want)
	}
}

// orderVisitor checks that each kind arrives in strictly ascending name
// order, and counts the counters.
type orderVisitor struct {
	kind, last string
	counters   int
	err        error
}

func (v *orderVisitor) see(kind, name string) {
	if v.err == nil && kind == v.kind && name <= v.last {
		v.err = fmt.Errorf("%s %q after %q", kind, name, v.last)
	}
	v.kind, v.last = kind, name
}

func (v *orderVisitor) VisitCounter(name string, _ int64) { v.see("counter", name); v.counters++ }
func (v *orderVisitor) VisitGauge(name string, _ int64)   { v.see("gauge", name) }
func (v *orderVisitor) VisitHistogram(name string, _ *obs.Histogram) {
	v.see("histogram", name)
}

func ascending(names []string) error {
	for i := 1; i < len(names); i++ {
		if names[i] <= names[i-1] {
			return fmt.Errorf("%q after %q", names[i], names[i-1])
		}
	}
	return nil
}

// statsKeysAscending walks a stats payload's JSON tokens and checks
// that the keys of each metrics map (the objects three levels deep:
// payload, metrics, counters/gauges/histograms) are strictly ascending.
func statsKeysAscending(data []byte) error {
	type frame struct {
		object, wantKey bool
		keys            []string
	}
	var stack []*frame
	dec := json.NewDecoder(bytes.NewReader(data))
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		var top *frame
		if len(stack) > 0 {
			top = stack[len(stack)-1]
		}
		switch tok {
		case json.Delim('{'), json.Delim('['):
			if top != nil && top.object {
				top.wantKey = true
			}
			stack = append(stack, &frame{object: tok == json.Delim('{'), wantKey: true})
			continue
		case json.Delim('}'), json.Delim(']'):
			if len(stack) == 3 {
				if err := ascending(top.keys); err != nil {
					return err
				}
			}
			stack = stack[:len(stack)-1]
			continue
		}
		if top != nil && top.object {
			if top.wantKey {
				top.keys = append(top.keys, tok.(string))
			}
			top.wantKey = !top.wantKey
		}
	}
}

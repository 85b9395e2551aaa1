package obs

import (
	"encoding/json"
	"slices"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("a")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	if reg.Counter("a") != c {
		t.Error("Counter not idempotent")
	}
	g := reg.Gauge("g")
	g.Set(7)
	g.Set(3)
	if g.Value() != 3 {
		t.Errorf("gauge = %d, want 3", g.Value())
	}
}

func TestHistogramBucketing(t *testing.T) {
	h := NewHistogram([]int64{10, 100, 1000})
	// One value per region: first bucket, boundary (inclusive), middle,
	// last bucket, overflow.
	for _, v := range []int64{5, 10, 11, 1000, 5000} {
		h.Observe(v)
	}
	snap := h.snapshot()
	if snap.Count != 5 || snap.Sum != 5+10+11+1000+5000 {
		t.Fatalf("count=%d sum=%d", snap.Count, snap.Sum)
	}
	want := []struct {
		le    int64
		count int64
	}{{10, 2}, {100, 1}, {1000, 1}, {-1, 1}}
	if len(snap.Buckets) != len(want) {
		t.Fatalf("buckets = %+v", snap.Buckets)
	}
	for i, w := range want {
		if snap.Buckets[i].UpperBound != w.le || snap.Buckets[i].Count != w.count {
			t.Errorf("bucket %d = %+v, want le=%d count=%d", i, snap.Buckets[i], w.le, w.count)
		}
	}
}

func TestHistogramRejectsUnsortedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for unsorted bounds")
		}
	}()
	NewHistogram([]int64{10, 10})
}

func TestRegistrySnapshot(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("c").Add(2)
	reg.Gauge("g").Set(9)
	reg.Histogram("h", []int64{1}).Observe(5)
	snap := reg.Snapshot()
	if snap.Counters["c"] != 2 || snap.Gauges["g"] != 9 {
		t.Errorf("snapshot = %+v", snap)
	}
	h := snap.Histograms["h"]
	if h.Count != 1 || h.Sum != 5 {
		t.Errorf("histogram snapshot = %+v", h)
	}
	// The snapshot must be JSON-serializable: it is the stats query's
	// wire payload.
	if _, err := json.Marshal(snap); err != nil {
		t.Fatal(err)
	}
	names := reg.CounterNames()
	if len(names) != 1 || names[0] != "c" {
		t.Errorf("CounterNames = %v", names)
	}
}

func TestCounterRecordAllocs(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("hot")
	h := reg.Histogram("hist", SizeBounds)
	if n := testing.AllocsPerRun(100, func() { c.Inc(); h.Observe(3) }); n != 0 {
		t.Errorf("record path allocates %v/op, want 0", n)
	}
}

// TestConnInstrumentNamesBuiltOnce: every WM passes the same majors
// list, so a fleet of WMs must not rebuild the "xreq." names per
// connection; a different list still gets its own names.
func TestConnInstrumentNamesBuiltOnce(t *testing.T) {
	majors := []string{"GetGeometry", "MapWindow"}
	first := requestCounterNames(majors)
	if allocs := testing.AllocsPerRun(20, func() { requestCounterNames(majors) }); allocs != 0 {
		t.Errorf("names for an unchanged majors list cost %.0f allocs, want 0", allocs)
	}
	if got := requestCounterNames(slices.Clone(majors)); &got[0] != &first[0] {
		t.Error("an equal majors list rebuilt the names")
	}
	if got := requestCounterNames([]string{"QueryTree"}); !slices.Equal(got, []string{"xreq.QueryTree"}) {
		t.Errorf("names for a new list = %v", got)
	}
	reg := NewRegistry()
	NewConnInstrument(reg, nil, majors)
	if got := reg.CounterNames(); !slices.Contains(got, "xreq.GetGeometry") || !slices.Contains(got, "xreq.MapWindow") {
		t.Errorf("registered counters %v lack the per-major names", got)
	}
}

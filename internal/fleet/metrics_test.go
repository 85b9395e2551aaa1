package fleet

import (
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/swmproto"
)

// TestMetricsTextMatchesSnapshotReference renders the /metrics
// exposition for a 2-session fleet two ways — obs.ExportText over the
// registries exactly as swmhttp's /metrics handler lists them, and a
// reference built here from each registry's Snapshot maps with every
// ordering done explicitly — and requires the two to agree byte for
// byte, so the instrument index behind Visit cannot change /metrics.
func TestMetricsTextMatchesSnapshotReference(t *testing.T) {
	m := serveFleet(t, 2)
	launchClients(t, m, 0, 2)
	launchClients(t, m, 1, 3)
	for i := 0; i < 2; i++ {
		m.ServeSession(i, swmproto.Request{Op: swmproto.OpQuery, Target: swmproto.TargetStats})
	}
	m.Drain()

	regs := []obs.LabeledRegistry{{Registry: m.Metrics()}}
	for i := 0; i < m.Sessions(); i++ {
		regs = append(regs, obs.LabeledRegistry{
			Registry: m.SessionRegistry(i),
			Prefix:   obs.PrerenderLabels([]obs.Label{{Key: "session", Value: strconv.Itoa(i)}}),
		})
	}
	var got strings.Builder
	if err := obs.ExportText(&got, regs...); err != nil {
		t.Fatal(err)
	}
	want := referenceExport(regs)
	if got.String() != want {
		t.Errorf("ExportText diverges from the Snapshot reference\n got:\n%s\nwant:\n%s", got.String(), want)
	}
	if !strings.Contains(want, `swm_wm_managed{session="1"} 3`) {
		t.Errorf("reference lacks session 1's managed count:\n%s", want)
	}
}

// referenceExport is the Prometheus text exposition of regs, built from
// Snapshot maps: families sorted by mangled name, each declared once,
// with one series per registry in registry order.
func referenceExport(regs []obs.LabeledRegistry) string {
	type series struct {
		labels string
		value  int64
		hist   *obs.HistogramSnapshot
	}
	type family struct {
		kind   string
		series []series
	}
	families := map[string]*family{}
	add := func(name, kind string, s series) {
		f := families[mangle(name)]
		if f == nil {
			f = &family{kind: kind}
			families[mangle(name)] = f
		}
		f.series = append(f.series, s)
	}
	for _, lr := range regs {
		snap := lr.Registry.Snapshot()
		for _, name := range sortedNames(snap.Counters) {
			add(name, "counter", series{labels: lr.Prefix, value: snap.Counters[name]})
		}
		for _, name := range sortedNames(snap.Gauges) {
			add(name, "gauge", series{labels: lr.Prefix, value: snap.Gauges[name]})
		}
		for _, name := range sortedNames(snap.Histograms) {
			h := snap.Histograms[name]
			add(name, "histogram", series{labels: lr.Prefix, hist: &h})
		}
	}
	var b strings.Builder
	braced := func(labels string) string {
		if labels == "" {
			return ""
		}
		return "{" + labels + "}"
	}
	for _, name := range sortedNames(families) {
		f := families[name]
		b.WriteString("# TYPE " + name + " " + f.kind + "\n")
		for _, s := range f.series {
			if s.hist == nil {
				b.WriteString(name + braced(s.labels) + " " + strconv.FormatInt(s.value, 10) + "\n")
				continue
			}
			var cum int64
			for _, bk := range s.hist.Buckets {
				cum += bk.Count
				le := strconv.FormatInt(bk.UpperBound, 10)
				if bk.UpperBound < 0 {
					le = "+Inf"
				}
				lbl := `le="` + le + `"`
				if s.labels != "" {
					lbl = s.labels + "," + lbl
				}
				b.WriteString(name + "_bucket{" + lbl + "} " + strconv.FormatInt(cum, 10) + "\n")
			}
			b.WriteString(name + "_sum" + braced(s.labels) + " " + strconv.FormatInt(s.hist.Sum, 10) + "\n")
			b.WriteString(name + "_count" + braced(s.labels) + " " + strconv.FormatInt(s.hist.Count, 10) + "\n")
		}
	}
	return b.String()
}

func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// mangle is the exposition's metric-name rule: a swm_ prefix, and every
// byte outside [a-zA-Z0-9_] replaced by '_'.
func mangle(name string) string {
	out := []byte("swm_" + name)
	for i := len("swm_"); i < len(out); i++ {
		switch c := out[i]; {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
		default:
			out[i] = '_'
		}
	}
	return string(out)
}

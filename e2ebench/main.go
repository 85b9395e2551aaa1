// Command e2ebench is swm's end-to-end benchmark. It runs one seeded
// workload for a fixed time and prints, as the last line of its output,
// one JSON object with the run's correctness, operation counts and
// metrics:
//
//	bash e2ebench/run.sh --workload http-read --seed 1 --seconds 10 --trace 0
//
// Workloads (see BENCHMARK.json for why each exists):
//
//	http-read   closed-loop queries against a 64-session fleet served by a child process
//	http-write  closed-loop exec/query pairs against a 16-session fleet, invalidating its cache
//	wm-churn    one window manager managing, moving, renaming, panning and unmanaging clients
//	            while a pager reads the window tree
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// measures half the time untraced and half traced, and reports the
// per-layer metrics taken from spans the benchmark records around each
// call into a layer.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports in its JSON line.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_us", "us"},
	{"manage_p50_us", "us"},
	{"cpu_us_per_op", "us"},
	{"rss_peak_mb", "MB"},
}

// summaryOnly are end-to-end figures an untraced run prints in its
// summary on standard error but not in its JSON line: on a shared
// two-vCPU VM their run-to-run spread follows the host's CPU steal and
// exceeds any bound the benchmark could keep. Traced runs report them as
// the e2e.* per-layer metrics.
var summaryOnly = []metricDef{
	{"throughput_ops", "1/s"},
	{"latency_p99_us", "us"},
	{"manage_p99_us", "us"},
	{"error_rate", "ratio"},
	{"latency_samples", "count"},
	{"manage_samples", "count"},
}

var perLayer = []metricDef{
	{"loader.cpu_us_per_op", "us"},
	{"net.overhead_p50_us", "us"},
	{"swmhttp.handler_p50_us", "us"},
	{"swmhttp.handler_p99_us", "us"},
	{"swmhttp.self_p50_us", "us"},
	{"fleet.serve_p50_us", "us"},
	{"fleet.serve_p99_us", "us"},
	{"fleet.exec_p50_us", "us"},
	{"fleet.query_miss_share", "ratio"},
	{"fleet.queue_depth_max", "count"},
	{"swmproto.resp_bytes_mean.stats", "B"},
	{"swmproto.resp_bytes_mean.trace", "B"},
	{"swmproto.resp_bytes_mean.clients", "B"},
	{"swmproto.resp_bytes_mean.desktop", "B"},
	{"swmproto.resp_bytes_mean.exec", "B"},
	{"core.pump_p50_us", "us"},
	{"core.pump_p99_us", "us"},
	{"core.events_per_pump", "count"},
	{"core.managed", "count"},
	{"core.unmanaged", "count"},
	{"objects.proto_hit_ratio", "ratio"},
	{"xserver.client_req_p50_us", "us"},
	{"xserver.read_p50_us", "us"},
	{"xserver.reads_per_s", "1/s"},
	{"xserver.torn_reads", "count"},
	{"xserver.stripe_contention", "count"},
	{"xserver.lock_wait_ms", "ms"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.gc_cpu_share", "ratio"},
	{"trace.overhead_share", "ratio"},
	{"path.net_share", "ratio"},
	{"path.swmhttp_share", "ratio"},
	{"path.fleet_share", "ratio"},
	{"path.step_share", "ratio"},
	{"path.client_share", "ratio"},
	{"path.pan_share", "ratio"},
	{"path.pump_share", "ratio"},
	{"trace.path_sum_error", "ratio"},
	{"e2e.throughput_ops", "1/s"},
	{"e2e.latency_p99_us", "us"},
	{"e2e.manage_p99_us", "us"},
	{"e2e.error_rate", "ratio"},
	{"e2e.latency_samples", "count"},
	{"e2e.manage_samples", "count"},
}

// pathTolerance bounds how far the blocking-path times of the traced
// requests, summed over layers, may stray from the end-to-end latency
// the loader measured for all requests of the traced phase.
const pathTolerance = 0.02

// setupRepeats is how many times a run sets its system up; setup_s is
// the median.
const setupRepeats = 40

// outcome is one run's result before printing.
type outcome struct {
	correct           bool
	attempted, failed int64
	metrics           map[string]float64
}

var logged atomic.Int64

// logf reports a failure on standard error, at most 20 lines a run.
func logf(format string, args ...any) {
	if logged.Add(1) <= 20 {
		fmt.Fprintf(os.Stderr, "e2ebench: "+format+"\n", args...)
	}
}

func main() {
	workload := flag.String("workload", "", "workload: http-read, http-write or wm-churn")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	workdir := flag.String("workdir", ".bench_build", "directory for span files")
	serve := flag.Bool("serve", false, "run as the HTTP workloads' server process")
	spans := flag.String("spans", "", "with -serve: trace, and write spans to this file at exit")
	flag.Parse()

	if *serve {
		if err := serveMain(*workload, *seed, *spans); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench server:", err)
			os.Exit(1)
		}
		return
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "e2ebench: --seconds must be at least 1 and --trace 0 or 1")
		os.Exit(2)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	d := time.Duration(*seconds) * time.Second
	traced := *trace == 1
	var out outcome
	var err error
	switch {
	case *workload == "wm-churn":
		out, err = runChurn(*seed, d, traced, *workdir)
	case httpWorkloads[*workload] != httpWorkload{}:
		out, err = runHTTP(*workload, *seed, d, traced, *workdir)
	default:
		err = fmt.Errorf("unknown workload %q", *workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{out.correct, out.attempted, out.failed, map[string]value{}}
	for _, m := range defs {
		v := out.metrics[strings.TrimPrefix(m.name, "e2e.")]
		res.Metrics[m.name] = value{v, m.unit}
		fmt.Fprintf(os.Stderr, "%-34s %14.6g %s\n", m.name, v, m.unit)
	}
	if !traced {
		for _, m := range summaryOnly {
			fmt.Fprintf(os.Stderr, "%-34s %14.6g %s\n", m.name, out.metrics[m.name], m.unit)
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// runHTTP runs an HTTP workload. Untraced, the server child set-up is
// repeated setupRepeats times and the last child is measured. Traced,
// an untraced child is measured for half the time, then a traced one.
func runHTTP(name string, seed int64, d time.Duration, traced bool, workdir string) (outcome, error) {
	w := httpWorkloads[name]
	conns := min(runtime.NumCPU(), 2)
	var setups []float64
	var manage []int64
	var srv *serverProc
	for i := 0; i < setupRepeats; i++ {
		if srv != nil {
			rep, err := srv.stop()
			if err != nil {
				return outcome{}, err
			}
			manage = append(manage, rep.ManageNs...)
		}
		p, dt, err := startServer(name, seed, "")
		if err != nil {
			return outcome{}, err
		}
		srv = p
		setups = append(setups, dt.Seconds())
	}
	phaseD := d
	if traced {
		phaseD = d / 2
	}
	untraced, rep, err := measureHTTP(srv, w, seed, conns, phaseD, false)
	if err != nil {
		return outcome{}, err
	}
	manage = append(manage, rep.ManageNs...)
	setManage := func(m map[string]float64) {
		m["setup_s"] = medianF(setups)
		m["manage_p50_us"] = us(quantile(manage, 0.50))
		m["manage_p99_us"] = us(quantile(manage, 0.99))
		m["manage_samples"] = float64(len(manage))
	}
	if !traced {
		out := untraced.outcome()
		setManage(out.metrics)
		return out, nil
	}

	path := filepath.Join(workdir, "spans-"+name+"-server.jsonl")
	srv, _, err = startServer(name, seed, path)
	if err != nil {
		return outcome{}, err
	}
	tr, _, err := measureHTTP(srv, w, seed, conns, phaseD, true)
	if err != nil {
		return outcome{}, err
	}
	serverSpans, err := readSpans(path)
	if err != nil {
		return outcome{}, err
	}
	out := tr.outcome()
	m := out.metrics
	setManage(m)
	m["loader.cpu_us_per_op"] = float64(tr.loaderCPU) / 1e3 / float64(tr.load.ops)
	if tr.marks.Queries > 0 {
		m["fleet.query_miss_share"] = float64(tr.marks.Misses) / float64(tr.marks.Queries)
	}
	m["fleet.queue_depth_max"] = float64(tr.marks.QueueDepthMax)
	for t := range tr.load.count {
		if n := tr.load.count[t]; n > 0 {
			m["swmproto.resp_bytes_mean."+targetName(t)] = float64(tr.load.bytes[t]) / float64(n)
		}
	}
	m["trace.overhead_share"] = overhead(untraced.load.lat, tr.load.lat)

	// Join: server spans to loader requests. Handler spans carry the
	// loader's id; fleet spans carry the envelope id the loader read.
	all := tr.load.spans
	for _, s := range serverSpans {
		if strings.HasPrefix(s.Name, "fleet.") {
			req, ok := tr.load.protoOf[s.Req]
			if !ok {
				continue
			}
			s.Req = req
		}
		all = append(all, s)
	}
	var handler, hself, netSelf, serve, execs []int64
	paths := map[string]int64{}
	var complete int64
	for _, req := range byRequest(all) {
		if len(req) != 3 || req[0].Name != "loader.round_trip" {
			continue
		}
		complete++
		self := selfTimes(req)
		netSelf = append(netSelf, self[0])
		handler = append(handler, req[1].dur())
		hself = append(hself, self[1])
		if req[2].Name == "fleet.exec" {
			execs = append(execs, req[2].dur())
		} else {
			serve = append(serve, req[2].dur())
		}
		for k, v := range pathTimes(req) {
			paths[k] += v
		}
	}
	m["net.overhead_p50_us"] = us(quantile(netSelf, 0.5))
	m["swmhttp.handler_p50_us"] = us(quantile(handler, 0.5))
	m["swmhttp.handler_p99_us"] = us(quantile(handler, 0.99))
	m["swmhttp.self_p50_us"] = us(quantile(hself, 0.5))
	m["fleet.serve_p50_us"] = us(quantile(serve, 0.5))
	m["fleet.serve_p99_us"] = us(quantile(serve, 0.99))
	m["fleet.exec_p50_us"] = us(quantile(execs, 0.5))
	ok := pathShares(m, paths, complete, tr.load.lat, map[string]string{
		"loader.round_trip": "path.net_share",
		"swmhttp.handler":   "path.swmhttp_share",
		"fleet.serve":       "path.fleet_share",
		"fleet.exec":        "path.fleet_share",
	})
	out.correct = out.correct && ok
	if err := writeSpans(filepath.Join(workdir, "spans-"+name+".jsonl"), all); err != nil {
		return outcome{}, err
	}
	return out, nil
}

// httpPhase is one measured HTTP phase: the loader's view plus the
// server's resource use between the marks around it.
type httpPhase struct {
	load      loadResult
	server    procDelta
	marks     markReply // the traced backend's counters over the phase
	loaderCPU int64
	rssKB     int64
}

// measureHTTP runs one load phase against srv, then stops srv.
func measureHTTP(srv *serverProc, w httpWorkload, seed int64, conns int, d time.Duration, traced bool) (httpPhase, serverReport, error) {
	var ph httpPhase
	runtime.GC()
	m0, err := srv.mark()
	if err != nil {
		srv.kill()
		return ph, serverReport{}, err
	}
	l0 := sampleProc()
	ph.load = loadPhase(srv.addr, w, seed, conns, d, traced)
	l1 := sampleProc()
	m1, err := srv.mark()
	if err != nil {
		srv.kill()
		return ph, serverReport{}, err
	}
	rep, err := srv.stop()
	if err != nil {
		return ph, rep, err
	}
	ph.server = deltaProc(m0.Proc, m1.Proc)
	ph.marks = m1
	ph.loaderCPU = l1.CPUNs - l0.CPUNs
	ph.rssKB = rep.Proc.PeakRSSKB
	if ph.load.connErr != nil {
		logf("loader connection: %v", ph.load.connErr)
	}
	if ph.load.ops == 0 {
		return ph, rep, fmt.Errorf("no request completed: %v", ph.load.connErr)
	}
	return ph, rep, nil
}

func (ph httpPhase) outcome() outcome {
	l := ph.load
	ops := float64(l.ops)
	out := outcome{
		correct:   l.failed == 0 && l.connErr == nil,
		attempted: l.ops,
		failed:    l.failed,
		metrics: map[string]float64{
			"throughput_ops":        l.lat.rate(),
			"latency_p50_us":        l.lat.quantileUS(0.50),
			"latency_p99_us":        l.lat.quantileUS(0.99),
			"cpu_us_per_op":         float64(ph.server.cpuNs) / 1e3 / ops,
			"rss_peak_mb":           float64(ph.rssKB) / 1024,
			"runtime.allocs_per_op": float64(ph.server.allocs) / ops,
			"runtime.gc_cpu_share":  ph.server.gcShare,
			"error_rate":            float64(l.failed) / ops,
			"latency_samples":       float64(l.ops - l.failed),
		},
	}
	return out
}

// overhead is the traced median latency over the untraced one, minus 1.
func overhead(untraced, traced windowed) float64 {
	u := untraced.quantileUS(0.5)
	if u == 0 {
		return 0
	}
	return traced.quantileUS(0.5)/u - 1
}

// pathShares reports each layer's share of the blocking path, from
// pathTimes summed over the complete traced requests, and checks that
// the shares add up to the end-to-end latency: the mean path time of a
// complete request against the mean latency of every request measured.
func pathShares(m map[string]float64, paths map[string]int64, complete int64, lat windowed, metric map[string]string) bool {
	var total int64
	names := make([]string, 0, len(paths))
	for k, v := range paths {
		total += v
		names = append(names, k)
	}
	sort.Strings(names)
	if total == 0 || complete == 0 {
		logf("trace: no complete request")
		return false
	}
	for _, k := range names {
		m[metric[k]] += float64(paths[k]) / float64(total)
	}
	ratio := float64(total) / float64(complete) / mean(lat.all())
	m["trace.path_sum_error"] = math.Abs(ratio - 1)
	if math.Abs(ratio-1) > pathTolerance {
		logf("trace: blocking-path times sum to %.4f of the end-to-end latency (tolerance %.2f)", ratio, pathTolerance)
		return false
	}
	return true
}

// runChurn runs wm-churn in this process. Traced, the first half is
// measured untraced and the second traced.
func runChurn(seed int64, d time.Duration, traced bool, workdir string) (outcome, error) {
	var setups []float64
	var sys *churnSystem
	for i := 0; i < setupRepeats; i++ {
		if sys != nil {
			sys.close()
		}
		t0 := time.Now()
		var err error
		if sys, err = newChurnSystem(seed); err != nil {
			return outcome{}, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() { sys.close() }()
	runtime.GC()

	var untraced churnPhase
	if traced {
		// Both halves start from a fresh system, so they play the same
		// script from the same state.
		d /= 2
		untraced = sys.run(d, false)
		sys.close()
		var err error
		if sys, err = newChurnSystem(seed); err != nil {
			return outcome{}, err
		}
		runtime.GC()
	}
	st0 := sys.wm.Stats()
	snap0 := sys.wm.Metrics().Snapshot()
	p0 := sampleProc()
	t0 := time.Now()
	ph := sys.run(d, traced)
	elapsed := time.Since(t0).Seconds()
	p1 := sampleProc()
	st1 := sys.wm.Stats()
	snap1 := sys.wm.Metrics().Snapshot()
	proc := deltaProc(p0, p1)

	// Torn reads come from the striped xserver's detach-then-attach
	// reparent race, a known defect of the system under test whose count
	// varies from run to run. They are reported on their own, as
	// xserver.torn_reads and on standard error, not as failed operations.
	pg := ph.pager
	out := outcome{
		correct:   ph.badSteps == 0 && pg.bad == 0,
		attempted: ph.steps + pg.reads,
		failed:    ph.badSteps + pg.bad,
	}
	if pg.torn > 0 {
		logf("wm-churn pager: %d torn reads of %d (xserver reparent race)", pg.torn, pg.reads)
	}
	steps := float64(ph.steps)
	out.metrics = map[string]float64{
		"setup_s":               medianF(setups),
		"throughput_ops":        ph.lat.rate(),
		"latency_p50_us":        ph.lat.quantileUS(0.50),
		"latency_p99_us":        ph.lat.quantileUS(0.99),
		"manage_p50_us":         ph.manage.quantileUS(0.50),
		"manage_p99_us":         ph.manage.quantileUS(0.99),
		"cpu_us_per_op":         float64(proc.cpuNs) / 1e3 / steps,
		"rss_peak_mb":           float64(proc.peakRSSKB) / 1024,
		"runtime.allocs_per_op": float64(proc.allocs) / steps,
		"runtime.gc_cpu_share":  proc.gcShare,
		"error_rate":            float64(out.failed) / float64(out.attempted),
		"latency_samples":       steps,
		"manage_samples":        float64(len(ph.manage.all())),
		"core.events_per_pump":  float64(ph.events) / steps,
		"core.managed":          float64(st1.Managed - st0.Managed),
		"core.unmanaged":        float64(st1.Unmanaged - st0.Unmanaged),
		"xserver.reads_per_s":   float64(pg.reads) / elapsed,
		"xserver.torn_reads":    float64(pg.torn),
		"xserver.stripe_contention": float64(snap1.Counters["xserver.stripe_contention"] -
			snap0.Counters["xserver.stripe_contention"]),
		"xserver.lock_wait_ms": float64(snap1.Histograms["xserver.lock_wait_ns"].Sum-
			snap0.Histograms["xserver.lock_wait_ns"].Sum) / 1e6,
	}
	if hits, misses := st1.ProtoHits-st0.ProtoHits, st1.ProtoMisses-st0.ProtoMisses; hits+misses > 0 {
		out.metrics["objects.proto_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	if !traced {
		return out, nil
	}

	m := out.metrics
	m["trace.overhead_share"] = overhead(untraced.lat, ph.lat)
	var pump, client, reads []int64
	paths := map[string]int64{}
	var complete int64
	for _, req := range byRequest(append(ph.spans, pg.spans...)) {
		switch {
		case strings.HasPrefix(req[0].Name, "xserver."):
			reads = append(reads, req[0].dur())
		case len(req) == 3:
			complete++
			if req[1].Name == "xserver.client" {
				client = append(client, req[1].dur())
			}
			pump = append(pump, req[2].dur())
			for k, v := range pathTimes(req) {
				paths[k] += v
			}
		}
	}
	m["core.pump_p50_us"] = us(quantile(pump, 0.50))
	m["core.pump_p99_us"] = us(quantile(pump, 0.99))
	m["xserver.client_req_p50_us"] = us(quantile(client, 0.50))
	m["xserver.read_p50_us"] = us(quantile(reads, 0.50))
	ok := pathShares(m, paths, complete, ph.lat, map[string]string{
		"churn.step":     "path.step_share",
		"xserver.client": "path.client_share",
		"core.pan_to":    "path.pan_share",
		"core.pump":      "path.pump_share",
	})
	out.correct = out.correct && ok
	if err := writeSpans(filepath.Join(workdir, "spans-wm-churn.jsonl"), append(ph.spans, pg.spans...)); err != nil {
		return outcome{}, err
	}
	return out, nil
}

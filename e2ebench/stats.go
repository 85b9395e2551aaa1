package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs, sorting xs in
// place. It returns 0 for an empty slice.
func quantile(xs []int64, q float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	if !sort.SliceIsSorted(xs, func(i, j int) bool { return xs[i] < xs[j] }) {
		sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	}
	k := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(k, 0), len(xs)-1)]
}

func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += float64(x)
	}
	return sum / float64(len(xs))
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

// procSample is a reading of the process's own resource use: what the
// benchmark reports for the process under test.
type procSample struct {
	CPUNs     int64   `json:"cpu_ns"`      // user+system CPU time
	PeakRSSKB int64   `json:"peak_rss_kb"` // maximum resident set size
	Allocs    uint64  `json:"allocs"`      // heap objects allocated
	GCCPU     float64 `json:"gc_cpu_s"`    // estimated GC CPU time
	TotalCPU  float64 `json:"total_cpu_s"` // runtime's estimate of all CPU time
}

var procMetrics = []string{
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func sampleProc() procSample {
	var ru syscall.Rusage
	var p procSample
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		p.CPUNs = ru.Utime.Nano() + ru.Stime.Nano()
		p.PeakRSSKB = ru.Maxrss
	}
	ms := make([]metrics.Sample, len(procMetrics))
	for i, name := range procMetrics {
		ms[i].Name = name
	}
	metrics.Read(ms)
	if ms[0].Value.Kind() == metrics.KindUint64 {
		p.Allocs = ms[0].Value.Uint64()
	}
	if ms[1].Value.Kind() == metrics.KindFloat64 {
		p.GCCPU = ms[1].Value.Float64()
	}
	if ms[2].Value.Kind() == metrics.KindFloat64 {
		p.TotalCPU = ms[2].Value.Float64()
	}
	return p
}

// procDelta is the resource use between two samples of one process.
type procDelta struct {
	cpuNs     int64
	allocs    uint64
	gcShare   float64
	peakRSSKB int64
}

func deltaProc(a, b procSample) procDelta {
	d := procDelta{cpuNs: b.CPUNs - a.CPUNs, allocs: b.Allocs - a.Allocs, peakRSSKB: b.PeakRSSKB}
	if tot := b.TotalCPU - a.TotalCPU; tot > 0 {
		d.gcShare = (b.GCCPU - a.GCCPU) / tot
	}
	return d
}

// window is the length of the stretches a phase is cut into.
const window = 500 * time.Millisecond

// windowed holds latencies by the window of the phase they completed
// in. A run reports the median over its windows of each per-window
// figure, so one stalled stretch does not move the run.
type windowed struct {
	start time.Time
	win   [][]int64
}

func newWindowed(start time.Time, d time.Duration) windowed {
	return windowed{start: start, win: make([][]int64, max(int(d/window), 1))}
}

// add records a latency that completed at t. An operation that ends past
// the phase counts in its last window.
func (w *windowed) add(t time.Time, lat int64) {
	i := min(int(t.Sub(w.start)/window), len(w.win)-1)
	w.win[i] = append(w.win[i], lat)
}

func (w *windowed) merge(o windowed) {
	for i := range o.win {
		w.win[i] = append(w.win[i], o.win[i]...)
	}
}

func (w windowed) all() []int64 {
	var out []int64
	for _, x := range w.win {
		out = append(out, x...)
	}
	return out
}

// quantileUS is the median over windows of each window's q-quantile, in
// microseconds.
func (w windowed) quantileUS(q float64) float64 {
	var per []float64
	for _, x := range w.win {
		if len(x) > 0 {
			per = append(per, us(quantile(x, q)))
		}
	}
	return medianF(per)
}

// rate is the median over windows of operations completed per second.
func (w windowed) rate() float64 {
	per := make([]float64, len(w.win))
	for i, x := range w.win {
		per[i] = float64(len(x)) / window.Seconds()
	}
	return medianF(per)
}

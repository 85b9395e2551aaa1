package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Spans of one request share Req; Parent is the ID of the span
// that caused this one (0 for the request's root). Times are wall-clock
// nanoseconds so that spans taken in the loader and in the server
// process share one time base.
type span struct {
	Req    uint64 `json:"req"`
	ID     uint32 `json:"id"`
	Parent uint32 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

func (s span) dur() int64 { return s.End - s.Start }

func wallNow() int64 { return time.Now().UnixNano() }

// recorder keeps spans in memory until the run ends.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readSpans(path string) ([]span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []span
	dec := json.NewDecoder(bufio.NewReader(f))
	for dec.More() {
		var s span
		if err := dec.Decode(&s); err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// byRequest groups spans by request id, each group sorted by span ID so
// the root comes first.
func byRequest(spans []span) [][]span {
	sorted := append([]span(nil), spans...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Req != sorted[j].Req {
			return sorted[i].Req < sorted[j].Req
		}
		return sorted[i].ID < sorted[j].ID
	})
	var out [][]span
	for i := 0; i < len(sorted); {
		j := i
		for j < len(sorted) && sorted[j].Req == sorted[i].Req {
			j++
		}
		out = append(out, sorted[i:j])
		i = j
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Children are clipped to the
// parent and their union is taken, so overlapping children count once.
func selfTimes(req []span) []int64 {
	out := make([]int64, len(req))
	for i, p := range req {
		var kids [][2]int64
		for _, c := range req {
			if c.Parent != p.ID || c.ID == p.ID {
				continue
			}
			s, e := max(c.Start, p.Start), min(c.End, p.End)
			if s < e {
				kids = append(kids, [2]int64{s, e})
			}
		}
		out[i] = p.dur() - unionLen(kids)
	}
	return out
}

func unionLen(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE int64
	open := false
	for _, x := range iv {
		if open && x[0] <= curE {
			curE = max(curE, x[1])
			continue
		}
		if open {
			total += curE - curS
		}
		curS, curE, open = x[0], x[1], true
	}
	if open {
		total += curE - curS
	}
	return total
}

// pathTimes splits the root span's interval (req[0]) among the spans on
// the blocking path: each instant goes to the deepest span running then,
// and between overlapping siblings to the one that ends last, since the
// parent waits for it. The returned times, keyed by span name, sum to
// the root's duration.
func pathTimes(req []span) map[string]int64 {
	root := req[0]
	parentOf := make(map[uint32]uint32, len(req))
	for _, s := range req {
		parentOf[s.ID] = s.Parent
	}
	depth := make([]int, len(req))
	for i, s := range req {
		for p := s.Parent; p != 0 && depth[i] < len(req); p = parentOf[p] {
			depth[i]++
		}
	}
	cuts := []int64{root.Start, root.End}
	for _, s := range req[1:] {
		for _, t := range []int64{s.Start, s.End} {
			if t > root.Start && t < root.End {
				cuts = append(cuts, t)
			}
		}
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	out := make(map[string]int64, len(req))
	for k := 0; k+1 < len(cuts); k++ {
		a, b := cuts[k], cuts[k+1]
		if a == b {
			continue
		}
		best := 0
		for i, s := range req {
			if s.Start > a || s.End < b {
				continue
			}
			bs := req[best]
			if depth[i] > depth[best] || depth[i] == depth[best] && (s.End > bs.End || s.End == bs.End && s.Start > bs.Start) {
				best = i
			}
		}
		out[req[best].Name] += b - a
	}
	return out
}

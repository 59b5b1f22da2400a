package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call: its layer-qualified name, when it ran, the span
// that caused it, and the identifier all spans of one frame, query or
// resize share.
type span struct {
	Name    string `json:"name"`
	ID      uint64 `json:"id"`
	Parent  int    `json:"parent"` // index into the span list, -1 for a root
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory for the whole run and writes them out
// once, at exit. A nil *tracer is tracing off.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its handle for end and for children.
func (t *tracer) begin(name string, id uint64, parent int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, StartNs: now})
	h := len(t.spans) - 1
	t.mu.Unlock()
	return h
}

func (t *tracer) end(h int) {
	if t == nil || h < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[h].EndNs = now
	t.mu.Unlock()
}

// timed runs fn inside a span and returns how long it took; with tracing
// off it only times.
func (t *tracer) timed(name string, id uint64, parent int, fn func()) time.Duration {
	h := t.begin(name, id, parent)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	t.end(h)
	return d
}

// layerTotal is one span name's aggregate.
type layerTotal struct {
	Count  int   `json:"count"`
	WallNs int64 `json:"wall_ns"`
	// SelfNs is wall time minus the part of each span's interval its
	// child spans cover.
	SelfNs int64 `json:"self_ns"`
}

// spanTotals aggregates spans by name.
func spanTotals(spans []span) map[string]layerTotal {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := map[string]layerTotal{}
	for i, s := range spans {
		wall := s.EndNs - s.StartNs
		lt := out[s.Name]
		lt.Count++
		lt.WallNs += wall
		lt.SelfNs += wall - covered(spans, children[i], s.StartNs, s.EndNs)
		out[s.Name] = lt
	}
	return out
}

// covered is the length of the union of the child spans' intervals,
// clipped to [lo, hi] — overlapping children are not subtracted twice.
func covered(spans []span, kids []int, lo, hi int64) int64 {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].StartNs, lo), min(spans[k].EndNs, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = lo
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// write dumps every span plus the per-name totals as one JSON document.
func (t *tracer) write(path string, meta map[string]any) error {
	t.mu.Lock()
	doc := map[string]any{
		"meta":   meta,
		"totals": spanTotals(t.spans),
		"spans":  t.spans,
	}
	t.mu.Unlock()
	raw, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

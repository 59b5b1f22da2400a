// Package netsim is a packet-level discrete-event network simulator — the
// stand-in for the NS3 setup the paper's Figs 1, 2, 7, 8 and 11 were
// produced with. It models:
//
//   - store-and-forward switches with per-egress-port FIFO queues, finite
//     shared-nothing buffers, and tail drop,
//   - links with configurable bandwidth and propagation delay, including
//     serialization time that grows with telemetry overhead bytes (the
//     exact mechanism §2 identifies: every INT byte consumes bottleneck
//     capacity and inflates queueing),
//   - hosts that attach transport endpoints (TCP-Reno-like and HPCC live
//     in internal/transport),
//   - telemetry hook points at dequeue time, where INT/PINT encoders run
//     in a deployment's egress pipeline.
//
// The simulator is single-threaded and fully deterministic: events at the
// same timestamp fire in scheduling order.
package netsim

import (
	"container/heap"
	"fmt"
)

// Sim is the event loop. Times are int64 nanoseconds.
type Sim struct {
	now    int64
	events eventHeap
	seq    uint64
}

// NewSim creates an empty simulation at t=0.
func NewSim() *Sim { return &Sim{} }

// Now returns the current simulation time in ns.
func (s *Sim) Now() int64 { return s.now }

// At schedules fn at absolute time t (>= now).
func (s *Sim) At(t int64, fn func()) {
	if t < s.now {
		panic(fmt.Sprintf("netsim: scheduling into the past (%d < %d)", t, s.now))
	}
	s.seq++
	heap.Push(&s.events, event{t: t, seq: s.seq, fn: fn})
}

// After schedules fn d nanoseconds from now.
func (s *Sim) After(d int64, fn func()) { s.At(s.now+d, fn) }

// Run executes events until the queue empties or the clock passes until.
// It returns the number of events processed.
func (s *Sim) Run(until int64) int {
	n := 0
	for len(s.events) > 0 {
		ev := s.events[0]
		if ev.t > until {
			break
		}
		heap.Pop(&s.events)
		s.now = ev.t
		ev.fn()
		n++
	}
	if s.now < until {
		s.now = until
	}
	return n
}

type event struct {
	t   int64
	seq uint64
	fn  func()
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

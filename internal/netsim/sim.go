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

import "fmt"

// Sim is the event loop. Times are int64 nanoseconds.
//
// The queue is a binary min-heap of pointer-free (t, seq, slot) keys,
// ordered by (t, seq): seq is unique, so the order is total and the pop
// order is the scheduling order among equal times. The closures wait in
// a slot table beside it, and a fired event's slot is reused, so at a
// steady event count scheduling and running allocate nothing.
type Sim struct {
	now    int64
	events []eventKey // the heap
	fns    []func()   // slot → closure; nil while the slot is free
	free   []uint32   // free slots
	seq    uint64
}

type eventKey struct {
	t    int64
	seq  uint64
	slot uint32
}

func (a eventKey) before(b eventKey) bool {
	return a.t < b.t || a.t == b.t && a.seq < b.seq
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
	var slot uint32
	if n := len(s.free); n > 0 {
		slot = s.free[n-1]
		s.free = s.free[:n-1]
		s.fns[slot] = fn
	} else {
		slot = uint32(len(s.fns))
		s.fns = append(s.fns, fn)
	}
	s.seq++
	s.events = append(s.events, eventKey{t: t, seq: s.seq, slot: slot})
	s.up(len(s.events) - 1)
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
		last := len(s.events) - 1
		s.events[0] = s.events[last]
		s.events = s.events[:last]
		s.down(0)
		fn := s.fns[ev.slot]
		s.fns[ev.slot] = nil
		s.free = append(s.free, ev.slot)
		s.now = ev.t
		fn()
		n++
	}
	if s.now < until {
		s.now = until
	}
	return n
}

func (s *Sim) up(i int) {
	h := s.events
	for i > 0 {
		p := (i - 1) / 2
		if !h[i].before(h[p]) {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func (s *Sim) down(i int) {
	h := s.events
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && h[r].before(h[c]) {
			c = r
		}
		if !h[c].before(h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

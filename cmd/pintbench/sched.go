package main

import (
	"context"
	"time"
)

// clock is the time source of the open-loop machinery; the unit tests
// drive it with a fake.
type clock interface {
	Now() time.Time
	// Sleep blocks for d or until ctx is done.
	Sleep(ctx context.Context, d time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

func (wallClock) Sleep(ctx context.Context, d time.Duration) {
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// opKind says what a scheduled operation is.
type opKind int

const (
	opPoint  opKind = iota // /snapshot?flow=F
	opFull                 // full /snapshot
	opWindow               // /snapshot?since=…&flow=F
	opResize               // Fleet.Resize
)

// op is one scheduled operation: what, and when it is due relative to
// the schedule's start.
type op struct {
	kind opKind
	due  time.Duration
	seq  int // position among operations of its kind
}

// obs is one executed operation. Latency runs from the due time, not the
// send time: a stall that delays later operations is charged to them, as
// an independent user would experience it.
type obs struct {
	op      op
	late    time.Duration // how long after its due time the operation started
	latency time.Duration // due time → completion
	ok      bool
}

// queryCycles builds the durable-query schedule: every cycle opens with
// one heavy query (alternating full and window), reserves gap for it,
// then issues points point queries spaced apart. Cycles that would not
// fit in total are dropped.
func queryCycles(total, cycle, gap, spacing time.Duration, points int) []op {
	var ops []op
	var nPoint, nFull, nWindow int
	for c := 0; time.Duration(c+1)*cycle <= total; c++ {
		base := time.Duration(c) * cycle
		if c%2 == 0 {
			ops = append(ops, op{kind: opFull, due: base, seq: nFull})
			nFull++
		} else {
			ops = append(ops, op{kind: opWindow, due: base, seq: nWindow})
			nWindow++
		}
		for j := 0; j < points; j++ {
			ops = append(ops, op{kind: opPoint, due: base + gap + time.Duration(j)*spacing, seq: nPoint})
			nPoint++
		}
	}
	return ops
}

// resizeCycles builds the fleet-resize schedule: every cycle issues
// points point queries spaced apart, one full query, then a resize.
func resizeCycles(total, cycle, spacing time.Duration, points int) []op {
	var ops []op
	var nPoint, n int
	for c := 0; time.Duration(c+1)*cycle <= total; c++ {
		base := time.Duration(c) * cycle
		for j := 0; j < points; j++ {
			ops = append(ops, op{kind: opPoint, due: base + time.Duration(j)*spacing, seq: nPoint})
			nPoint++
		}
		after := base + time.Duration(points)*spacing
		ops = append(ops, op{kind: opFull, due: after, seq: n}, op{kind: opResize, due: after + spacing, seq: n})
		n++
	}
	return ops
}

// runSchedule executes ops in order from one client: it waits for each
// operation's due time, never skips one, and when it is behind it issues
// the next immediately. do reports whether the operation succeeded.
func runSchedule(ctx context.Context, clk clock, start time.Time, ops []op, do func(op) bool) []obs {
	out := make([]obs, 0, len(ops))
	for _, o := range ops {
		due := start.Add(o.due)
		clk.Sleep(ctx, due.Sub(clk.Now()))
		if ctx.Err() != nil {
			break
		}
		began := clk.Now()
		ok := do(o)
		out = append(out, obs{op: o, late: began.Sub(due), latency: clk.Now().Sub(due), ok: ok})
	}
	return out
}

// pace sends n frames open-loop: frame i is due at start + i·period,
// send(i) runs no earlier than that, and the returned slice holds how
// late each frame left (milliseconds). A frame that cannot leave on time
// — back-pressure reached the exporter — makes the following frames late
// too; none is skipped, so the packet count is the same on every run.
func pace(ctx context.Context, clk clock, start time.Time, n int, period time.Duration, send func(i int) error) ([]float64, error) {
	late := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * period)
		clk.Sleep(ctx, due.Sub(clk.Now()))
		if err := ctx.Err(); err != nil {
			return late, err
		}
		late = append(late, ms(float64(clk.Now().Sub(due))))
		if err := send(i); err != nil {
			return late, err
		}
	}
	return late, nil
}

// collect returns the latencies (milliseconds) of the observations of
// one kind.
func collect(all []obs, kind opKind) []float64 {
	var out []float64
	for _, o := range all {
		if o.op.kind == kind {
			out = append(out, ms(float64(o.latency)))
		}
	}
	return out
}

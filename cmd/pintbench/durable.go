package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"repro/internal/collector"
	"repro/internal/core"
)

// durable-query: reads beside writes on one durable daemon. One session
// paces frames open-loop far below saturation, so the daemon's state at
// time t is the same on every commit; one query client works through a
// fixed open-loop schedule and is timed from each query's due time. The
// run ends with the crash test: SIGKILL, restart on the same directory,
// time to "listening on", and answers equal to the ones before the kill.

// durableInst is one set-up daemon with its session and inputs.
type durableInst struct {
	tb      *collector.Testbench
	dataDir string
	d       *daemon
	fe      *collector.FleetExporter
	flows   [][]core.PacketDigest
}

func (e *env) durableArgs(p params, dataDir string) []string {
	return []string{"-pprof", "-shards", strconv.Itoa(p.Shards), "-seed", strconv.FormatUint(e.seed, 10),
		"-data-dir", dataDir, "-checkpoint", fmt.Sprintf("%dms", p.CheckpointMs)}
}

// setupDurable is everything before the first timed operation: plan,
// data directory, daemon, handshake, and the encode of the replayed flows.
func setupDurable(ctx context.Context, e *env, p params) (*durableInst, error) {
	tb, err := collector.NewTestbench(e.seed, 5)
	if err != nil {
		return nil, err
	}
	in := &durableInst{tb: tb}
	if in.dataDir, err = e.scratchDir("data-"); err != nil {
		return nil, err
	}
	if in.d, err = startDaemon(ctx, e.pintd, e.durableArgs(p, in.dataDir)...); err != nil {
		in.close()
		return nil, err
	}
	in.fe, err = collector.Connect(tb.Engine, 1, "bench-1",
		collector.WithAddrs(in.d.ingest), collector.WithFrameBatch(p.FrameBatch))
	if err != nil {
		in.close()
		return nil, err
	}
	in.flows = encodeFlows(tb, 1, p.Flows, p.PktsPerFlow)
	return in, nil
}

// close tears the instance down on any path; the data directory goes
// with it.
func (in *durableInst) close() {
	if in.fe != nil {
		in.fe.Close()
	}
	if in.d != nil {
		in.d.kill()
	}
	if in.dataDir != "" {
		os.RemoveAll(in.dataDir)
	}
}

// shutdown is the clean teardown of an instance nothing was measured on.
func (in *durableInst) shutdown() error {
	defer in.close()
	err := in.fe.Close()
	in.fe = nil
	if err != nil {
		return err
	}
	return in.d.drain()
}

func runDurable(ctx context.Context, e *env, name string, p params) (*result, error) {
	r := newResult(name)
	// Set up several times and keep the last: one set-up is a single
	// sample of a ~half-second figure.
	var setups []float64
	var in *durableInst
	for i := 0; i < max(1, p.SetupReps); i++ {
		if in != nil {
			if err := in.shutdown(); err != nil {
				return r, err
			}
		}
		t0 := time.Now()
		var err error
		if in, err = setupDurable(ctx, e, p); err != nil {
			return r, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer in.close()
	r.setMedian("setup_s", setups)

	period := framePeriod(p)
	total := time.Duration(e.seconds * float64(time.Second))
	frames := int(total / period)
	ops := queryCycles(total, ms2d(p.CycleMs), ms2d(p.HeavyGapMs), ms2d(p.PointSpacingMs), p.PointPerCycle)

	// ---- timed window: the paced session and the query client together.
	read := e.daemonMeter(ctx, in.d)
	childCPU0, alloc0, err := read()
	if err != nil {
		return r, err
	}
	ownCPU0 := selfCPU()
	start := time.Now()
	var wg sync.WaitGroup
	var late []float64
	var sendErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		late, sendErr = pace(ctx, wallClock{}, start, frames, period, func(i int) error {
			h := e.tr.begin("e2e.send", uint64(i), -1)
			defer e.tr.end(h)
			return in.fe.Send(in.flows[i%len(in.flows)])
		})
		if sendErr == nil {
			sendErr = in.fe.Flush()
		}
	}()
	observed := runSchedule(ctx, wallClock{}, start, ops, func(o op) bool {
		return e.liveQuery(ctx, r, in.d.httpBase, o, p, in.tb)
	})
	wg.Wait()
	if sendErr != nil {
		return r, fmt.Errorf("paced session: %w", sendErr)
	}
	sent, wireBytes := in.fe.Packets(), in.fe.Bytes()
	r.ops(int64(sent))
	st, err := e.settle(ctx, in.d.httpBase, sent, func() error {
		fe := in.fe
		in.fe = nil
		return fe.Close()
	})
	wall := time.Since(start)
	if err != nil {
		return r, err
	}
	childCPU1, alloc1, err := read()
	if err != nil {
		return r, err
	}
	ownCPU1 := selfCPU()

	r.set("ingest_mpps", float64(sent)/wall.Seconds()/1e6)
	r.set("collector_alloc_b_per_pkt", float64(alloc1-alloc0)/float64(sent))
	r.set("collector_cpu_s", (childCPU1 - childCPU0).Seconds())
	r.set("collector_cpu_ns_per_pkt", float64(childCPU1-childCPU0)/float64(sent))
	r.set("exporter_cpu_ns_per_pkt", float64(ownCPU1-ownCPU0)/float64(sent))
	r.set("wire_bytes_per_pkt", float64(wireBytes)/float64(sent))
	r.setMedian("query_point_p50_ms", collect(observed, opPoint))
	r.setTail("query_point_p95_ms", collect(observed, opPoint), 95)
	r.setMedian("query_full_p50_ms", collect(observed, opFull))
	r.setMedian("query_window_p50_ms", collect(observed, opWindow))
	r.setTail("ingest_late_p95_ms", late, 95)
	r.set("collector.stall_ns_per_pkt", st.stallNs)
	r.set("pipeline.stalls_per_kbatch", st.stallsPerKBatch())
	r.set("pipeline.shard_skew", shardSkew(st.final))
	if len(observed) != len(ops) {
		r.ops(int64(len(ops) - len(observed)))
		r.fail(int64(len(ops)-len(observed)), "%d scheduled queries never ran", len(ops)-len(observed))
	}

	// ---- output checks.
	st.checkConservation(r, sent)
	o, err := newOracle(in.tb, sampleFlows(in.tb, 1, p.Flows, p.SampleFlows), e.flipOracle)
	if err != nil {
		return r, err
	}
	if err := o.feedPaced(in.flows, frames, 0); err != nil {
		return r, err
	}
	// The crash test needs everything sent to be on disk first: a SIGKILL
	// loses exactly the unflushed tail, by design.
	if _, err := e.waitStats(ctx, in.d.httpBase, func(doc collector.StatsV1) (bool, error) {
		return doc.Durable != nil && doc.Durable.Store.Packets >= sent, nil
	}); err != nil {
		return r, err
	}
	tail, err := e.queryTail(ctx, r, o, in.d.httpBase, p.Flows, p.FullQueries, read)
	if err != nil {
		return r, err
	}
	r.setTailCost(tail)
	hwm, err := in.d.peakRSS()
	if err != nil {
		return r, err
	}
	r.set("peak_rss_mb", float64(hwm)/(1<<20))
	in.d.kill()
	in.d = nil
	d2, err := startDaemon(ctx, e.pintd, e.durableArgs(p, in.dataDir)...)
	if err != nil {
		return r, fmt.Errorf("restart after SIGKILL: %w", err)
	}
	in.d = d2
	r.set("recover_s", d2.listenAfter.Seconds())
	r.ops(1)
	if doc, err := e.stats(ctx, d2.httpBase); err != nil {
		r.fail(1, "after recovery: %v", err)
	} else if doc.Durable == nil || doc.Durable.Replayed != sent {
		r.fail(1, "recovery replayed %v packets, %d were durable before the kill", doc.Durable, sent)
	}
	e.checkAgainst(ctx, r, o, d2.httpBase, "after recovery")
	if err := d2.drain(); err != nil {
		return r, err
	}
	in.d = nil
	r.set("fail_share", r.failShare())
	return r, nil
}

func ms2d(n int) time.Duration { return time.Duration(n) * time.Millisecond }

// liveQuery issues one scheduled query against a daemon that is ingesting.
// The state is moving, so the check is structural: 200, not partial, and
// no more flows in the answer than were asked for.
func (e *env) liveQuery(ctx context.Context, r *result, base string, o op, p params, tb *collector.Testbench) bool {
	flow := tb.FlowKeyFor(1, (o.seq*61)%p.Flows)
	url, most := base+"/snapshot", p.Flows
	switch o.kind {
	case opPoint:
		url, most = flowURL(base, flow), 1
	case opWindow:
		since := time.Now().Add(-ms2d(p.WindowBackMs)).UnixNano()
		url, most = fmt.Sprintf("%s/snapshot?since=%d&flow=%d", base, since, uint64(flow)), 1
	}
	h := e.tr.begin("e2e.query", uint64(o.due), -1)
	status, hdr, body, err := e.get(ctx, url)
	e.tr.end(h)
	r.ops(1)
	switch {
	case err != nil:
		r.fail(1, "query %s: %v", url, err)
	case status != http.StatusOK:
		r.fail(1, "query %s: status %d: %s", url, status, bytes.TrimSpace(body))
	case hdr.Get(collector.PartialHeader) != "":
		r.fail(1, "query %s: partial answer", url)
	case countFlows(body) > most:
		r.fail(1, "query %s: %d flows in the answer, at most %d asked for", url, countFlows(body), most)
	default:
		return true
	}
	return false
}

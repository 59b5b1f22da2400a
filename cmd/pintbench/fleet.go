package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/internal/collector"
	"repro/internal/core"
	"repro/internal/federation"
)

// fleet-resize: the only workload that crosses internal/federation. An
// in-process fleet (the resize coordinator exists only as Fleet.Resize)
// stands behind a real merging frontend on a loopback listener; one
// exporter session paced open-loop follows every resize through its
// roster fetch, and one client alternates queries through the gate with
// resizes between the fleet's two sizes.

// fleetInst is one set-up fleet with its gate, session and inputs.
type fleetInst struct {
	tb      *collector.Testbench
	fleet   *federation.Fleet
	gate    *federation.Frontend
	gateSrv *http.Server
	gateURL string
	fe      *collector.FleetExporter
	flows   [][]core.PacketDigest
	// seen is every member the fleet ever had: a shrink stops members,
	// and their counters still belong in the conservation sum.
	seen map[*federation.Member]bool
}

func setupFleet(ctx context.Context, e *env, p params) (*fleetInst, error) {
	tb, err := collector.NewTestbench(e.seed, 5)
	if err != nil {
		return nil, err
	}
	in := &fleetInst{tb: tb, seen: map[*federation.Member]bool{}}
	in.fleet, err = federation.NewFleet(tb, federation.WithSize(p.FleetSizes[0]), federation.WithShards(p.Shards))
	if err != nil {
		return nil, err
	}
	in.note()
	gateMap, err := in.gateCopy()
	if err == nil {
		in.gate, err = federation.NewFrontend(federation.WithFleetMap(gateMap))
	}
	if err != nil {
		in.close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		in.close()
		return nil, err
	}
	in.gateSrv = collector.HardenedHTTPServer(in.gate.Handler())
	in.gateURL = "http://" + ln.Addr().String()
	go in.gateSrv.Serve(ln)
	in.fe, err = collector.Connect(tb.Engine, 1, "bench-1",
		collector.WithFleetMap(in.fleet.CurrentMap()), collector.WithRosterFetch(in.fleet.RosterFetch()),
		collector.WithFrameBatch(p.FrameBatch))
	if err != nil {
		in.close()
		return nil, err
	}
	in.flows = encodeFlows(tb, 1, p.Flows, p.PktsPerFlow)
	// Preload at full speed so the first resize already moves real state.
	for sent := 0; sent < p.PreloadPkts; {
		for _, pkts := range in.flows {
			if err := in.fe.Send(pkts); err != nil {
				in.close()
				return nil, err
			}
			sent += len(pkts)
		}
	}
	if err := in.fe.Flush(); err != nil {
		in.close()
		return nil, err
	}
	if err := in.waitDecoded(ctx, in.fe.Packets()); err != nil {
		in.close()
		return nil, err
	}
	return in, nil
}

// gateCopy is the fleet's published map as a value of the gate's own:
// the frontend re-validates (and so rewrites) the map it is handed, and
// the published one is being routed with by the exporter at that moment.
func (in *fleetInst) gateCopy() (*federation.FleetMap, error) {
	cur := in.fleet.CurrentMap()
	return federation.NewFleetMap(cur.Epoch, cur.Members)
}

// note records the fleet's current members.
func (in *fleetInst) note() {
	for _, m := range in.fleet.Members {
		in.seen[m] = true
	}
}

// decoded sums the packets every member, past and present, has decoded.
func (in *fleetInst) decoded() (packets, shed, connErrors uint64) {
	for m := range in.seen {
		st := m.Srv.Stats()
		packets += st.Packets
		shed += st.Shed
		connErrors += st.ConnErrors
	}
	return packets, shed, connErrors
}

func (in *fleetInst) waitDecoded(ctx context.Context, want uint64) error {
	for {
		got, _, _ := in.decoded()
		if got >= want {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("fleet decoded %d of %d packets: %w", got, want, ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}

func (in *fleetInst) close() {
	if in.fe != nil {
		in.fe.Close()
	}
	if in.gateSrv != nil {
		in.gateSrv.Close()
	}
	if in.fleet != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		in.fleet.Shutdown(ctx)
		cancel()
	}
}

// setCounters stores the per-layer figures the members' own counters
// give: hand-off time per packet over the live sessions, and stalls and
// skew over every sink the fleet ever had.
func (in *fleetInst) setCounters(r *result) {
	var stallNs, connPkts, stalls, batches, most, total uint64
	var shards int
	for m := range in.seen {
		for _, c := range m.Srv.ConnStats() {
			stallNs += c.StallNs
			connPkts += c.Packets
		}
		sum, per := m.Sink.Stats()
		stalls += sum.Stalls
		batches += sum.Batches
		total += sum.Packets
		for _, sh := range per {
			most = max(most, sh.Packets)
			shards++
		}
	}
	r.set("collector.stall_ns_per_pkt", float64(stallNs)/float64(max(1, connPkts)))
	r.set("pipeline.stalls_per_kbatch", 1000*float64(stalls)/float64(max(1, batches)))
	r.set("pipeline.shard_skew", float64(most)*float64(shards)/float64(max(1, total)))
}

// selfAlloc is the bytes this process has allocated so far.
func selfAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// threadCPU is the calling OS thread's user+system CPU; meaningful only
// on a goroutine locked to its thread.
func threadCPU() time.Duration {
	const rusageThread = 1 // RUSAGE_THREAD (Linux)
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func runFleet(ctx context.Context, e *env, name string, p params) (*result, error) {
	r := newResult(name)
	var setups []float64
	var in *fleetInst
	for i := 0; i < max(1, p.SetupReps); i++ {
		if in != nil {
			in.close()
		}
		t0 := time.Now()
		var err error
		if in, err = setupFleet(ctx, e, p); err != nil {
			return r, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer in.close()
	r.setMedian("setup_s", setups)
	preloaded, preloadBytes := in.fe.Packets(), in.fe.Bytes()

	period := framePeriod(p)
	total := time.Duration(e.seconds * float64(time.Second))
	frames := int(total / period)
	ops := resizeCycles(total, ms2d(p.CycleMs), ms2d(p.PointSpacingMs), p.PointPerCycle)

	// ---- timed window. Everything is one process, so the exporter's and
	// the client's CPU are read per thread (both goroutines stay locked
	// to theirs) and the collector tier is the process's remainder.
	ownCPU0, alloc0 := selfCPU(), selfAlloc()
	start := time.Now()
	var wg sync.WaitGroup
	var late []float64
	var sendErr error
	var exporterCPU, clientCPU time.Duration
	// scheduleDone closes when the client has run its last operation.
	scheduleDone := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		cpu0 := threadCPU()
		late, sendErr = pace(ctx, wallClock{}, start, frames, period, func(i int) error {
			h := e.tr.begin("e2e.send", uint64(i), -1)
			defer e.tr.end(h)
			return in.fe.Send(in.flows[i%len(in.flows)])
		})
		if sendErr == nil {
			sendErr = in.fe.Flush()
		}
		exporterCPU = threadCPU() - cpu0
		// A resize waits for every stale session to close, and a session
		// only notices the fence when its exporter sends or pokes. If the
		// client runs behind schedule its last resize can start after the
		// last frame; keep servicing reroutes until the client is done.
		for sendErr == nil {
			select {
			case <-scheduleDone:
				return
			case <-time.After(time.Millisecond):
				sendErr = in.fe.Poke()
			}
		}
	}()
	size := p.FleetSizes[0]
	var resizeMs []float64
	var moved int
	var observed []obs
	func() {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		cpu0 := threadCPU()
		observed = runSchedule(ctx, wallClock{}, start, ops, func(o op) bool {
			if o.kind != opResize {
				return e.gateQuery(ctx, r, in, o, p)
			}
			size = p.FleetSizes[0] + p.FleetSizes[1] - size
			n, d, ok := in.resize(ctx, e, r, size, uint64(o.seq), time.Duration(p.DeadlineS)*time.Second/5)
			if ok {
				resizeMs = append(resizeMs, ms(float64(d)))
				moved += n
			}
			return ok
		})
		clientCPU = threadCPU() - cpu0
	}()
	close(scheduleDone)
	wg.Wait()
	if sendErr != nil {
		return r, fmt.Errorf("paced session: %w", sendErr)
	}
	sent := preloaded + uint64(frames*p.FrameBatch)
	r.ops(int64(sent))
	if err := in.waitDecoded(ctx, sent); err != nil {
		return r, err
	}
	wall := time.Since(start)
	ownCPU1, alloc1 := selfCPU(), selfAlloc()
	in.setCounters(r)
	if err := in.fe.Close(); err != nil {
		return r, err
	}
	in.fe = nil

	paced := float64(frames * p.FrameBatch)
	r.set("ingest_mpps", paced/wall.Seconds()/1e6)
	r.set("collector_alloc_b_per_pkt", float64(alloc1-alloc0)/paced)
	r.set("exporter_cpu_ns_per_pkt", float64(exporterCPU)/paced)
	r.set("collector_cpu_ns_per_pkt", float64(ownCPU1-ownCPU0-exporterCPU-clientCPU)/paced)
	// A rehome restarts the session counters, so bytes per packet comes
	// from the preload, which one session generation carried whole.
	r.set("wire_bytes_per_pkt", float64(preloadBytes)/float64(preloaded))
	r.set("peak_rss_mb", float64(selfMaxRSS())/(1<<20))
	r.setMedian("query_point_p50_ms", collect(observed, opPoint))
	r.setTail("query_point_p95_ms", collect(observed, opPoint), 95)
	r.setMedian("query_full_p50_ms", collect(observed, opFull))
	r.setTail("ingest_late_p95_ms", late, 95)
	r.setMedian("resize_ms", resizeMs)
	var resizeTotal float64
	for _, v := range resizeMs {
		resizeTotal += v
	}
	if resizeTotal > 0 {
		r.set("handoff_flows_per_s", float64(moved)/(resizeTotal/1e3))
	}
	if len(observed) != len(ops) {
		r.ops(int64(len(ops) - len(observed)))
		r.fail(int64(len(ops)-len(observed)), "%d scheduled operations never ran", len(ops)-len(observed))
	}

	// ---- output checks: conservation across every member the fleet ever
	// had, then the quiescent answers through the gate.
	waitCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	for {
		var active int64
		for m := range in.seen {
			active += m.Srv.Stats().Active
		}
		if active == 0 || waitCtx.Err() != nil {
			break
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	decoded, shed, connErrs := in.decoded()
	if decoded != sent || shed != 0 {
		r.fail(int64(sent-min(sent, decoded)+shed), "members decoded %d of %d packets sent (shed %d)", decoded, sent, shed)
	}
	// A session an exporter closes while the fence is writing it a reroute
	// nudge can end on a reset instead of an EOF (about one resize in a few
	// hundred here). The member counts that as a connection error even when
	// it had already read every frame, so on this workload the count is a
	// failure only together with a conservation break; alone it is noted.
	if connErrs > 0 {
		if decoded == sent && shed == 0 {
			r.notes = append(r.notes, fmt.Sprintf("conn_errors: %d sessions ended on a reset with every packet already decoded (a close racing a reroute nudge)", connErrs))
		} else {
			r.fail(int64(sent), "%d sessions ended on a connection error", connErrs)
		}
	}
	var dispatched uint64
	for m := range in.seen {
		st, _ := m.Sink.Stats()
		dispatched += st.Packets
	}
	if dispatched != sent {
		r.fail(int64(sent-min(sent, dispatched)), "member sinks hold %d of %d packets sent", dispatched, sent)
	}
	o, err := newOracle(in.tb, sampleFlows(in.tb, 1, p.Flows, p.SampleFlows), e.flipOracle)
	if err != nil {
		return r, err
	}
	if err := o.feedPaced(in.flows, frames, int(preloaded)/(p.Flows*p.PktsPerFlow)); err != nil {
		return r, err
	}
	// Through the gate after the last resize. The collector tier's CPU is
	// the process's minus this (locked) client thread's.
	runtime.LockOSThread()
	tail, err := e.queryTail(ctx, r, o, in.gateURL, p.Flows, p.FullQueries, func() (time.Duration, uint64, error) {
		return selfCPU() - threadCPU(), selfAlloc(), nil
	})
	runtime.UnlockOSThread()
	if err != nil {
		return r, err
	}
	r.setTailCost(tail)
	r.set("fail_share", r.failShare())
	return r, nil
}

// gateQuery issues one scheduled query through the merging frontend while
// the fleet ingests.
func (e *env) gateQuery(ctx context.Context, r *result, in *fleetInst, o op, p params) bool {
	url, most := in.gateURL+"/snapshot", p.Flows
	if o.kind == opPoint {
		url, most = flowURL(in.gateURL, in.tb.FlowKeyFor(1, (o.seq*61)%p.Flows)), 1
	}
	h := e.tr.begin("e2e.query", uint64(o.due), -1)
	status, hdr, body, err := e.get(ctx, url)
	e.tr.end(h)
	r.ops(1)
	switch {
	case err != nil:
		r.fail(1, "gate query %s: %v", url, err)
	case status != http.StatusOK:
		r.fail(1, "gate query %s: status %d", url, status)
	case hdr.Get(federation.PartialHeader) != "":
		r.fail(1, "gate query %s: partial answer (%s members missing)", url, hdr.Get(federation.PartialHeader))
	case o.kind == opFull && countFlows(body) != most:
		r.fail(1, "gate query %s: %d flows in the answer, the fleet tracks %d", url, countFlows(body), most)
	case countFlows(body) > most:
		r.fail(1, "gate query %s: %d flows in the answer, %d asked for", url, countFlows(body), most)
	default:
		return true
	}
	return false
}

// resize moves the fleet to n members, points the gate at the new map,
// and checks the executed plan against an independent Rebalance over the
// same two maps. It returns the flows moved and the Resize wall time.
func (in *fleetInst) resize(ctx context.Context, e *env, r *result, n int, id uint64, limit time.Duration) (int, time.Duration, bool) {
	r.ops(1)
	oldMap := in.fleet.CurrentMap()
	var moves []federation.Move
	var err error
	// Resize runs on its own goroutine so the coordinator's CPU is not
	// charged to the client thread.
	done := make(chan struct{})
	h := e.tr.begin("e2e.resize", id, -1)
	t0 := time.Now()
	go func() {
		defer close(done)
		// Resize waits as long as its context allows; one that cannot
		// finish in a fifth of the workload's deadline is a failed resize,
		// not a reason to spend the rest of it.
		rctx, cancel := context.WithTimeout(ctx, limit)
		defer cancel()
		moves, err = in.fleet.Resize(rctx, n)
	}()
	<-done
	d := time.Since(t0)
	e.tr.end(h)
	in.note()
	if err != nil {
		r.fail(1, "resize to %d: %v", n, err)
		return 0, d, false
	}
	newMap := in.fleet.CurrentMap()
	gateMap, err := in.gateCopy()
	if err == nil {
		err = in.gate.SetFleetMap(gateMap)
	}
	if err != nil {
		r.fail(1, "resize to %d: gate refused the new map: %v", n, err)
		return 0, d, false
	}
	// Every flow has been sent at least once by the end of the preload.
	all := make([]core.FlowKey, len(in.flows))
	for f := range all {
		all[f] = in.tb.FlowKeyFor(1, f)
	}
	plan, err := federation.Rebalance(oldMap, newMap, all)
	if err != nil {
		r.fail(1, "resize to %d: %v", n, err)
		return 0, d, false
	}
	if !samePlan(plan, moves) {
		r.fail(1, "resize to %d moved %d flows, Rebalance plans %d", n, len(moves), len(plan))
		return 0, d, false
	}
	return len(moves), d, true
}

// samePlan reports whether two move lists relocate the same flows
// between the same members, order aside.
func samePlan(a, b []federation.Move) bool {
	if len(a) != len(b) {
		return false
	}
	want := make(map[federation.Move]bool, len(a))
	for _, m := range a {
		want[m] = true
	}
	for _, m := range b {
		if !want[m] {
			return false
		}
	}
	return true
}

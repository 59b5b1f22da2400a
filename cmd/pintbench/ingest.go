package main

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/collector"
	"repro/internal/core"
)

// The two closed-loop ingest workloads share one shape: a fresh
// `pintd -shards N` child per rep, p.Sessions exporter sessions driven
// from this process, a timed window that ends when /stats says the sink
// holds every packet sent, then — outside the window — the output checks
// and the quiescent queries, then a SIGTERM drain.
//
//	ingest-saturate  replays digests encoded during set-up, count-bounded
//	encode-stream    encodes every flow through all k hops, then sends it

// ingestRep is what one rep measured.
type ingestRep struct {
	setupS      float64
	mpps        float64
	allocB      float64 // child bytes allocated per packet over the timed window
	collectorNs float64 // child CPU ns per packet over the timed window
	exporterNs  float64 // own CPU ns per packet over the timed window
	bytesPerPkt float64
	rssMB       float64
	stallNs     float64 // conns[].stall_ns per packet, read before sessions close
	stallsPerK  float64
	shardSkew   float64
	tail        tailCost
}

func runIngest(ctx context.Context, e *env, name string, p params, encode bool) (*result, error) {
	r := newResult(name)
	var reps []ingestRep
	// A set-up with nothing to encode is a few milliseconds; time extra
	// ones so its median is not a handful of process spawns.
	var setups []float64
	for i := 0; i < p.SetupReps; i++ {
		t0 := time.Now()
		in, err := setupIngest(ctx, e, p, encode)
		if err != nil {
			return r, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if err := in.shutdown(); err != nil {
			return r, err
		}
	}
	began := time.Now()
	for len(reps) < p.MinReps || time.Since(began).Seconds() < e.seconds {
		rep, err := ingestOnce(ctx, e, r, p, encode, len(reps))
		if err != nil {
			return r, fmt.Errorf("rep %d: %w", len(reps), err)
		}
		reps = append(reps, rep)
		e.logf("  rep %d: %.3f Mpkt/s, collector %.1f ns/pkt, exporter %.1f ns/pkt, rss %.1f MB, %.1f B allocated/pkt, setup %.3f s",
			len(reps), rep.mpps, rep.collectorNs, rep.exporterNs, rep.rssMB, rep.allocB, rep.setupS)
	}
	col := func(f func(ingestRep) float64) []float64 {
		out := make([]float64, len(reps))
		for i, rep := range reps {
			out[i] = f(rep)
		}
		return out
	}
	var point, full []float64
	for _, rep := range reps {
		point = append(point, rep.tail.pointMs...)
		full = append(full, rep.tail.fullMs...)
	}
	r.setMedian("setup_s", append(setups, col(func(x ingestRep) float64 { return x.setupS })...))
	r.setMedian("ingest_mpps", col(func(x ingestRep) float64 { return x.mpps }))
	r.setMedian("collector_cpu_ns_per_pkt", col(func(x ingestRep) float64 { return x.collectorNs }))
	r.setMedian("exporter_cpu_ns_per_pkt", col(func(x ingestRep) float64 { return x.exporterNs }))
	r.setMedian("wire_bytes_per_pkt", col(func(x ingestRep) float64 { return x.bytesPerPkt }))
	r.setMedian("peak_rss_mb", col(func(x ingestRep) float64 { return x.rssMB }))
	r.setMedian("collector_alloc_b_per_pkt", col(func(x ingestRep) float64 { return x.allocB }))
	r.setMedian("query_point_cpu_ms", col(func(x ingestRep) float64 { return x.tail.pointCPUMs }))
	r.setMedian("query_full_cpu_ms", col(func(x ingestRep) float64 { return x.tail.fullCPUMs }))
	r.setMedian("query_point_alloc_mb", col(func(x ingestRep) float64 { return x.tail.pointAllocMB }))
	r.setMedian("query_full_alloc_mb", col(func(x ingestRep) float64 { return x.tail.fullAllocMB }))
	r.setMedian("query_point_p50_ms", point)
	r.setMedian("query_full_p50_ms", full)
	r.set("fail_share", r.failShare())
	// From /stats of the same reps; the traced run reports them.
	r.setMedian("collector.stall_ns_per_pkt", col(func(x ingestRep) float64 { return x.stallNs }))
	r.setMedian("pipeline.stalls_per_kbatch", col(func(x ingestRep) float64 { return x.stallsPerK }))
	r.setMedian("pipeline.shard_skew", col(func(x ingestRep) float64 { return x.shardSkew }))
	return r, nil
}

// ingestInst is one set-up daemon with its sessions and, for the replay
// workload, the digests encoded ahead of the window.
type ingestInst struct {
	tb       *collector.Testbench
	d        *daemon
	sessions []*collector.FleetExporter
	replay   [][][]core.PacketDigest // session → flow → digests
	sweeps   int
}

// setupIngest is everything before the first timed operation: plan,
// daemon, handshakes, and (replay only) the encode.
func setupIngest(ctx context.Context, e *env, p params, encode bool) (*ingestInst, error) {
	tb, err := collector.NewTestbench(e.seed, 5)
	if err != nil {
		return nil, err
	}
	in := &ingestInst{tb: tb, sweeps: 1, sessions: make([]*collector.FleetExporter, p.Sessions)}
	in.d, err = startDaemon(ctx, e.pintd, "-pprof", "-shards", strconv.Itoa(p.Shards), "-seed", strconv.FormatUint(e.seed, 10))
	if err != nil {
		return nil, err
	}
	for s := range in.sessions {
		exp := uint64(s) + 1
		in.sessions[s], err = collector.Connect(tb.Engine, exp, fmt.Sprintf("bench-%d", exp),
			collector.WithAddrs(in.d.ingest), collector.WithFrameBatch(p.FrameBatch))
		if err != nil {
			in.close()
			return nil, err
		}
	}
	if encode {
		// Warm-up: encode a few flows into the void so pools, pages and
		// caches are filled before the window, as a long-lived exporter's
		// would be.
		var pkts []core.PacketDigest
		vals := make([]core.HopValues, p.PktsPerFlow)
		for s := 0; s < p.Sessions; s++ {
			for f := 0; f < p.WarmupFlows; f++ {
				pkts = tb.FlowBatch(uint64(s)+1, f, p.PktsPerFlow, pkts, vals)
			}
		}
	} else {
		in.replay = make([][][]core.PacketDigest, p.Sessions)
		for s := range in.replay {
			in.replay[s] = encodeFlows(tb, uint64(s)+1, p.Flows, p.PktsPerFlow)
		}
		if per := p.Sessions * p.Flows * p.PktsPerFlow; p.PktsPerRep > per {
			in.sweeps = p.PktsPerRep / per
		}
	}
	return in, nil
}

// close tears the instance down on any path; after a clean drain it is a
// no-op.
func (in *ingestInst) close() {
	for _, fe := range in.sessions {
		if fe != nil {
			fe.Close()
		}
	}
	if in.d != nil {
		in.d.kill()
	}
}

// shutdown is the clean teardown of an instance nothing was measured on:
// sessions end first (the daemon's drain waits for them), then SIGTERM.
func (in *ingestInst) shutdown() error {
	defer in.close()
	for s, fe := range in.sessions {
		in.sessions[s] = nil
		if err := fe.Close(); err != nil {
			return err
		}
	}
	return in.d.drain()
}

func ingestOnce(ctx context.Context, e *env, r *result, p params, encode bool, repNo int) (rep ingestRep, err error) {
	t0 := time.Now()
	in, err := setupIngest(ctx, e, p, encode)
	if err != nil {
		return rep, err
	}
	defer in.close()
	rep.setupS = time.Since(t0).Seconds()
	tb, d, sessions, sweeps := in.tb, in.d, in.sessions, in.sweeps

	// ---- timed window.
	read := e.daemonMeter(ctx, d)
	childCPU0, alloc0, err := read()
	if err != nil {
		return rep, err
	}
	ownCPU0 := selfCPU()
	start := time.Now()
	sendErrs := make([]error, p.Sessions)
	var wg sync.WaitGroup
	for s := range sessions {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			fe := sessions[s]
			if encode {
				sendErrs[s] = encodeAndSend(e.tr, tb, fe, uint64(s)+1, p)
			} else {
				sendErrs[s] = replayFlows(e.tr, fe, in.replay[s], sweeps, uint64(s))
			}
			if sendErrs[s] == nil {
				sendErrs[s] = fe.Flush()
			}
		}(s)
	}
	wg.Wait()
	for s, serr := range sendErrs {
		if serr != nil {
			return rep, fmt.Errorf("session %d: %w", s+1, serr)
		}
	}
	var sent, wireBytes uint64
	for _, fe := range sessions {
		sent += fe.Packets()
		wireBytes += fe.Bytes()
	}
	r.ops(int64(sent))
	st, err := e.settle(ctx, d.httpBase, sent, func() error {
		for s, fe := range sessions {
			sessions[s] = nil
			if err := fe.Close(); err != nil {
				return fmt.Errorf("session %d: close: %w", s+1, err)
			}
		}
		return nil
	})
	wall := time.Since(start)
	if err != nil {
		return rep, err
	}
	childCPU1, alloc1, err := read()
	if err != nil {
		return rep, err
	}
	ownCPU1 := selfCPU()

	rep.mpps = float64(sent) / wall.Seconds() / 1e6
	rep.allocB = float64(alloc1-alloc0) / float64(sent)
	rep.collectorNs = float64(childCPU1-childCPU0) / float64(sent)
	rep.exporterNs = float64(ownCPU1-ownCPU0) / float64(sent)
	rep.bytesPerPkt = float64(wireBytes) / float64(sent)
	rep.stallNs, rep.stallsPerK, rep.shardSkew = st.stallNs, st.stallsPerKBatch(), shardSkew(st.final)

	// ---- output checks (outside the window).
	st.checkConservation(r, sent)
	o, err := newOracle(tb, sampleFlows(tb, p.Sessions, p.Flows, p.SampleFlows), e.flipOracle && repNo == 0)
	if err != nil {
		return rep, err
	}
	var scratch []core.PacketDigest
	vals := make([]core.HopValues, p.PktsPerFlow)
	for _, flow := range o.flows {
		exp, f := flowSlot(flow)
		scratch = tb.FlowBatch(exp, f, p.PktsPerFlow, scratch, vals)
		for s := 0; s < sweeps; s++ {
			if err := o.feed(scratch); err != nil {
				return rep, err
			}
		}
	}
	if rep.tail, err = e.queryTail(ctx, r, o, d.httpBase, p.Sessions*p.Flows, p.FullQueries, read); err != nil {
		return rep, err
	}

	// ---- the child's peak, end-state queries included, then a clean drain.
	hwm, err := d.peakRSS()
	if err != nil {
		return rep, err
	}
	rep.rssMB = float64(hwm) / (1 << 20)
	return rep, d.drain()
}

// encodeFlows pre-encodes one session's flows: n digests each, through
// all k hops.
func encodeFlows(tb *collector.Testbench, exp uint64, flows, n int) [][]core.PacketDigest {
	out := make([][]core.PacketDigest, flows)
	vals := make([]core.HopValues, n)
	for f := range out {
		out[f] = tb.FlowBatch(exp, f, n, nil, vals)
	}
	return out
}

// replayFlows sends every flow once per sweep. On the traced run each
// Send is a span; frames of one session share the session's id space.
func replayFlows(tr *tracer, fe *collector.FleetExporter, flows [][]core.PacketDigest, sweeps int, session uint64) error {
	frame := session << 32
	for s := 0; s < sweeps; s++ {
		for _, pkts := range flows {
			frame++
			h := tr.begin("e2e.send", frame, -1)
			err := fe.Send(pkts)
			tr.end(h)
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// encodeAndSend is the exporter-bound loop: every flow is encoded through
// all k hops right before it is sent, so each reaches the collector cold.
func encodeAndSend(tr *tracer, tb *collector.Testbench, fe *collector.FleetExporter, exp uint64, p params) error {
	var pkts []core.PacketDigest
	vals := make([]core.HopValues, p.PktsPerFlow)
	for f := 0; f < p.Flows; f++ {
		id := exp<<32 | uint64(f)
		h := tr.begin("e2e.encode", id, -1)
		pkts = tb.FlowBatch(exp, f, p.PktsPerFlow, pkts, vals)
		tr.end(h)
		h = tr.begin("e2e.send", id, -1)
		err := fe.Send(pkts)
		tr.end(h)
		if err != nil {
			return err
		}
	}
	return nil
}

// shardSkew is the busiest shard's packet count over the mean shard's: 1
// is a perfect split.
func shardSkew(doc collector.StatsV1) float64 {
	if len(doc.SinkShards) == 0 || doc.Sink.Packets == 0 {
		return 1
	}
	var most uint64
	for _, sh := range doc.SinkShards {
		most = max(most, sh.Packets)
	}
	return float64(most) * float64(len(doc.SinkShards)) / float64(doc.Sink.Packets)
}

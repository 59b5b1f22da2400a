package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/admit"
	"repro/internal/collector"
	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/hash"
	"repro/internal/kernels"
	"repro/internal/pipeline"
	"repro/internal/segstore"
	"repro/internal/topology"
	"repro/internal/wire"
)

// The per-layer ledger. Every number here is a span recorded from this
// file around a call into a layer's public function, on inputs generated
// from the workload's own sizes and seed; nothing inside the layers is
// instrumented. Layer names are the packages'. A layer's self time is
// its span minus the separately timed calls it contains, which for calls
// that cannot be nested from outside (Exporter.Send contains the marshal)
// is the difference of two per-packet figures.

// layerInputs is the traced run's share of the workload's inputs.
type layerInputs struct {
	tb    *collector.Testbench
	p     params
	flows [][]core.PacketDigest // exporter 1's flows, n digests each
	// sweeps × len(flows) × n ≈ p.LayerPkts
	sweeps int
	pkts   int // packets one full replay of the inputs carries
}

func newLayerInputs(e *env, p params) (*layerInputs, error) {
	tb, err := collector.NewTestbench(e.seed, 5)
	if err != nil {
		return nil, err
	}
	nFlows := min(p.Flows, max(1, p.LayerPkts/p.PktsPerFlow))
	in := &layerInputs{tb: tb, p: p, flows: encodeFlows(tb, 1, nFlows, p.PktsPerFlow)}
	in.sweeps = max(1, p.LayerPkts/(nFlows*p.PktsPerFlow))
	in.pkts = in.sweeps * nFlows * p.PktsPerFlow
	return in, nil
}

// replay calls fn for every frame-sized batch of every sweep, in the
// order an exporter would send them.
func (in *layerInputs) replay(fn func(batch []core.PacketDigest) error) error {
	for s := 0; s < in.sweeps; s++ {
		for _, flow := range in.flows {
			for len(flow) > 0 {
				n := min(in.p.FrameBatch, len(flow))
				if err := fn(flow[:n]); err != nil {
					return err
				}
				flow = flow[n:]
			}
		}
	}
	return nil
}

// nsPer is a total over a count, in nanoseconds.
func nsPer(d time.Duration, n int) float64 { return float64(d) / float64(max(1, n)) }

// runLayers measures every per-layer metric that needs no end-to-end
// pass and stores it in r.
func runLayers(ctx context.Context, e *env, r *result, p params) error {
	in, err := newLayerInputs(e, p)
	if err != nil {
		return err
	}
	steps := []struct {
		name string
		fn   func(context.Context, *env, *result, *layerInputs) error
	}{
		{"encode", layerEncode},
		{"record", layerRecord},
		{"observe", layerObserve},
		{"wire and pipeline", layerIngestChain},
		{"send", layerSend},
		{"snapshot", layerSnapshot},
		{"segstore", layerDurable},
		{"federation", layerFederation},
	}
	for _, s := range steps {
		t0 := time.Now()
		if err := s.fn(ctx, e, r, in); err != nil {
			return fmt.Errorf("layer suite, %s: %w", s.name, err)
		}
		e.logf("  layers: %-18s %6.2f s", s.name, time.Since(t0).Seconds())
	}
	return nil
}

// layerEncode times Engine.EncodeHopBatch over all k hops on freshly
// generated packets, and kernels.HashPktHop over the same packet-ID
// columns. Inputs are generated outside the spans.
func layerEncode(ctx context.Context, e *env, r *result, in *layerInputs) error {
	g, err := topology.FatTree(8)
	if err != nil {
		return err
	}
	universe := g.SwitchIDUniverse()
	k, n := in.tb.K, in.p.PktsPerFlow
	rng := hash.NewRNG(uint64(hash.Seed(e.seed).Derive(0xBE7C)))
	pkts := make([]core.PacketDigest, n)
	vals := make([][]core.HopValues, k)
	for hop := range vals {
		vals[hop] = make([]core.HopValues, n)
	}
	ids, dst := make([]uint64, n), make([]uint64, n)
	var encode, hashing time.Duration
	var mallocs uint64
	var ms0, ms1 runtime.MemStats
	flows := max(1, in.p.LayerPkts/n)
	for f := 0; f < flows; f++ {
		flow := in.tb.FlowKeyFor(9, f)
		for j := range pkts {
			pkts[j] = core.PacketDigest{Flow: flow, PktID: rng.Uint64(), PathLen: k}
			ids[j] = pkts[j].PktID
		}
		for hop := range vals {
			sw := universe[rng.Intn(len(universe))]
			for j := range vals[hop] {
				vals[hop][j] = core.HopValues{SwitchID: sw, LatencyNs: 4000 + rng.Uint64()%8000}
			}
		}
		runtime.ReadMemStats(&ms0)
		encode += e.tr.timed("core.encode", uint64(f), -1, func() {
			for hop := 1; hop <= k; hop++ {
				in.tb.Engine.EncodeHopBatch(hop, pkts, vals[hop-1])
			}
		})
		runtime.ReadMemStats(&ms1)
		mallocs += ms1.Mallocs - ms0.Mallocs
		hashing += e.tr.timed("kernels.hash_pkt_hop", uint64(f), -1, func() {
			for hop := 1; hop <= k; hop++ {
				kernels.HashPktHop(dst, ids, e.seed, uint64(hop))
			}
		})
	}
	r.set("core.encode_ns_per_pkt", nsPer(encode, flows*n))
	r.set("core.encode_allocs_per_pkt", float64(mallocs)/float64(flows*n))
	r.set("kernels.hash_pkt_hop_ns_per_elem", nsPer(hashing, flows*n*k))
	return nil
}

// layerRecord times Recording.RecordBatch: the first sweep sees every
// flow for the first time (cold decoders), later sweeps see converged
// ones.
func layerRecord(ctx context.Context, e *env, r *result, in *layerInputs) error {
	rec, err := core.NewRecordingSeeded(in.tb.Engine, 0, in.tb.Base)
	if err != nil {
		return err
	}
	var cold, warm time.Duration
	var coldN, warmN int
	for s := 0; s < max(2, in.sweeps); s++ {
		for f, flow := range in.flows {
			var rerr error
			name := "core.record"
			if s == 0 {
				name = "core.record_cold"
			}
			d := e.tr.timed(name, uint64(f), -1, func() { rerr = rec.RecordBatch(flow) })
			if rerr != nil {
				return rerr
			}
			if s == 0 {
				cold, coldN = cold+d, coldN+len(flow)
			} else {
				warm, warmN = warm+d, warmN+len(flow)
			}
		}
	}
	r.set("core.record_cold_ns_per_pkt", nsPer(cold, coldN))
	r.set("core.record_ns_per_pkt", nsPer(warm, warmN))
	return nil
}

// layerObserve feeds each flow's digests to a cold path decoder until it
// decodes, timing PathQuery.ObserveInto and counting the packets needed.
func layerObserve(ctx context.Context, e *env, r *result, in *layerInputs) error {
	pathQ := in.tb.PathQ
	var total time.Duration
	var observed int
	var needed []float64
	type obsIn struct {
		id, bits uint64
		nth      int // position in the flow's stream, from 1
	}
	var carrying []obsIn
	for f, flow := range in.flows {
		dec, err := pathQ.NewDecoder(in.tb.K)
		if err != nil {
			return err
		}
		// Slice the path query's bits out of every digest that carries
		// them, outside the span.
		carrying = carrying[:0]
		for j := range flow {
			set := in.tb.Engine.SetFor(flow[j].PktID)
			if set == nil {
				continue
			}
			for qi, q := range set.Queries {
				if q == core.Query(pathQ) {
					mask := uint64(1)<<uint(pathQ.Bits()) - 1
					carrying = append(carrying, obsIn{flow[j].PktID, flow[j].Digest >> uint(set.Offsets[qi]) & mask, j + 1})
				}
			}
		}
		used, fed := 0, 0
		total += e.tr.timed("coding.observe", uint64(f), -1, func() {
			for _, c := range carrying {
				pathQ.ObserveInto(dec, c.id, c.bits)
				fed++
				if dec.Done() {
					used = c.nth
					return
				}
			}
		})
		observed += fed
		if used > 0 {
			needed = append(needed, float64(used))
		}
	}
	if len(needed) == 0 {
		return fmt.Errorf("no flow's path decoded within %d packets", in.p.PktsPerFlow)
	}
	r.set("coding.observe_ns_per_pkt", nsPer(total, observed))
	r.set("coding.pkts_to_decode_p50", median(needed))
	r.notes = append(r.notes, fmt.Sprintf("coding.pkts_to_decode_p50: %d of %d flows decoded within %d packets",
		len(needed), len(in.flows), in.p.PktsPerFlow))
	return nil
}

// layerIngestChain replays the collector's per-frame loop in-process:
// marshal+frame on the exporter side, then FrameReader.Next over memory,
// the fused decode+shard into a Stage, the admission decision, and the
// stripe-lock hand-off. One pass barriers after every frame so the
// hand-off span is self time (no worker queue is ever full); a second
// pass runs free and times only the final Barrier — the workers' lag.
func layerIngestChain(ctx context.Context, e *env, r *result, in *layerInputs) error {
	// Exporter side: one frame per batch.
	var stream []byte
	var scratch []byte
	var marshal time.Duration
	var frames int
	err := in.replay(func(batch []core.PacketDigest) error {
		var merr error
		marshal += e.tr.timed("wire.marshal_frame", uint64(frames), -1, func() {
			scratch, merr = wire.AppendMarshalFrame(scratch[:0], batch)
		})
		stream = append(stream, scratch...)
		frames++
		return merr
	})
	if err != nil {
		return err
	}
	r.set("wire.marshal_frame_ns_per_pkt", nsPer(marshal, in.pkts))
	r.set("wire.bytes_per_pkt", float64(len(stream))/float64(in.pkts))

	adm, err := admit.NewAdmitter(admit.Policy{Default: admit.Quota{Rate: 1e15}})
	if err != nil {
		return err
	}
	tenant := adm.Tenant("")
	for pass := 0; pass < 2; pass++ {
		sink, err := pipeline.NewSink(in.tb.Engine, pipeline.Config{Shards: in.p.Shards, Base: in.tb.Base})
		if err != nil {
			return err
		}
		fr := wire.NewFrameReader(bytes.NewReader(stream), 0)
		st := sink.NewStage()
		var read, unmarshal, decide, handoff time.Duration
		for f := 0; ; f++ {
			id := uint64(f)
			h := e.tr.begin("frame", id, -1)
			var payload []byte
			var n int
			var ferr error
			read += e.tr.timed("wire.frame_read", id, h, func() { payload, ferr = fr.Next() })
			if ferr == io.EOF {
				e.tr.end(h)
				break
			}
			if ferr == nil {
				unmarshal += e.tr.timed("wire.unmarshal_sharded", id, h, func() {
					n, ferr = wire.AppendUnmarshalSharded(st.Buffers(), payload)
				})
			}
			if ferr != nil {
				sink.Close()
				return ferr
			}
			decide += e.tr.timed("admit.decide", id, h, func() {
				d := tenant.Decide(n)
				if !d.Admit() {
					ferr = fmt.Errorf("the never-shedding policy shed a frame")
				}
				tenant.Account(n, n)
			})
			if ferr != nil {
				sink.Close()
				return ferr
			}
			handoff += e.tr.timed("pipeline.ingest_stage", id, h, func() { sink.IngestStage(st) })
			e.tr.end(h)
			if pass == 0 {
				sink.Barrier()
			}
		}
		if pass == 0 {
			r.set("wire.frame_read_ns_per_pkt", nsPer(read, in.pkts))
			r.set("wire.unmarshal_sharded_ns_per_pkt", nsPer(unmarshal, in.pkts))
			r.set("admit.decide_ns_per_frame", nsPer(decide, frames))
			r.set("pipeline.ingest_stage_ns_per_pkt", nsPer(handoff, in.pkts))
		} else {
			lag := e.tr.timed("pipeline.barrier_wait", 0, -1, sink.Barrier)
			r.set("pipeline.barrier_wait_ns_per_pkt", nsPer(lag, in.pkts))
		}
		if err := sink.Close(); err != nil {
			return err
		}
	}
	return nil
}

// layerSend times Exporter.Send+Flush against a loopback peer that
// handshakes and then only reads frames, so the span is marshal plus
// socket and nothing of the collector's.
func layerSend(ctx context.Context, e *env, r *result, in *layerInputs) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	var peerFrames atomic.Int64
	peerDone := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			peerDone <- err
			return
		}
		defer conn.Close()
		if _, err := wire.ReadHello(conn); err != nil {
			peerDone <- err
			return
		}
		if _, err := conn.Write([]byte{wire.AckOK}); err != nil {
			peerDone <- err
			return
		}
		fr := wire.NewFrameReader(conn, 0)
		for {
			if _, err := fr.Next(); err != nil {
				if err == io.EOF {
					err = nil
				}
				peerDone <- err
				return
			}
			peerFrames.Add(1)
		}
	}()
	fe, err := collector.Connect(in.tb.Engine, 1, "bench-layer",
		collector.WithAddrs(ln.Addr().String()), collector.WithFrameBatch(in.p.FrameBatch))
	if err != nil {
		return err
	}
	var send time.Duration
	var frames int
	err = in.replay(func(batch []core.PacketDigest) error {
		var serr error
		send += e.tr.timed("collector.send", uint64(frames), -1, func() { serr = fe.Send(batch) })
		frames++
		return serr
	})
	if err == nil {
		var ferr error
		send += e.tr.timed("collector.send", uint64(frames), -1, func() { ferr = fe.Flush() })
		err = ferr
	}
	if cerr := fe.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := <-peerDone; err != nil {
		return fmt.Errorf("frame-reading peer: %w", err)
	}
	// The exporter re-batches what it is handed into frame_batch-sized
	// frames, whatever sizes Send was called with.
	if got, want := int(peerFrames.Load()), (in.pkts+in.p.FrameBatch-1)/in.p.FrameBatch; got != want {
		return fmt.Errorf("frame-reading peer saw %d of %d frames", got, want)
	}
	perPkt := nsPer(send, in.pkts)
	r.set("collector.send_ns_per_pkt", perPkt)
	r.set("collector.socket_ns_per_pkt", perPkt-r.values["wire.marshal_frame_ns_per_pkt"])
	return nil
}

// loadSink replays the inputs into sink and waits until they are recorded.
func (in *layerInputs) loadSink(sink *pipeline.Sink) {
	in.replay(func(batch []core.PacketDigest) error {
		sink.Ingest(batch)
		return nil
	})
	sink.Barrier()
}

// layerSnapshot times the read path at the inputs' end state: the
// worker-side clone, the merge, the answer evaluation, and — the
// remainder of a real GET /snapshot — HTTP and JSON.
func layerSnapshot(ctx context.Context, e *env, r *result, in *layerInputs) error {
	sink, err := pipeline.NewSink(in.tb.Engine, pipeline.Config{Shards: in.p.Shards, Base: in.tb.Base})
	if err != nil {
		return err
	}
	defer sink.Close()
	in.loadSink(sink)
	srv, err := collector.New(in.tb.Engine, collector.WithSink(sink), collector.WithQueries(in.tb.Queries()...))
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpSrv := srv.HTTPServer(nil)
	go httpSrv.Serve(ln)
	defer httpSrv.Close()

	const rounds = 3
	var snapMs, mergeMs, answersUs, selfMs []float64
	for i := 0; i < rounds; i++ {
		id := uint64(i)
		h := e.tr.begin("query", id, -1)
		var snap *pipeline.Snapshot
		var merged *core.Recording
		var merr error
		var nFlows int
		dSnap := e.tr.timed("pipeline.snapshot", id, h, func() { snap = sink.Snapshot() })
		dMerge := e.tr.timed("core.merge", id, h, func() { merged, merr = snap.Merged() })
		if merr != nil {
			return merr
		}
		dAns := e.tr.timed("collector.answers", id, h, func() {
			flows := merged.Flows()
			nFlows = len(flows)
			collector.Answers(merged, in.tb.Queries(), flows)
		})
		e.tr.end(h)
		var status int
		var gerr error
		dGet := e.tr.timed("collector.http_snapshot", id, -1, func() {
			status, _, _, gerr = e.get(ctx, "http://"+ln.Addr().String()+"/snapshot")
		})
		if gerr != nil || status != 200 {
			return fmt.Errorf("GET /snapshot: status %d: %v", status, gerr)
		}
		snapMs = append(snapMs, ms(float64(dSnap)))
		mergeMs = append(mergeMs, ms(float64(dMerge)))
		answersUs = append(answersUs, float64(dAns)/1e3/float64(max(1, nFlows)))
		selfMs = append(selfMs, ms(float64(dGet-dSnap-dMerge-dAns)))
	}
	r.set("pipeline.snapshot_ms", median(snapMs))
	r.set("core.merge_ms", median(mergeMs))
	r.set("collector.answers_us_per_flow", median(answersUs))
	r.set("collector.http_snapshot_self_ms", median(selfMs))
	return nil
}

// timedPersister is a pipeline.Persister that spans every PersistIngest
// on its way to the real writer.
type timedPersister struct {
	*segstore.Writer
	tr    *tracer
	spent atomic.Int64
	calls atomic.Int64
}

func (t *timedPersister) PersistIngest(batch []core.PacketDigest) {
	d := t.tr.timed("segstore.persist", uint64(t.calls.Add(1)), -1, func() { t.Writer.PersistIngest(batch) })
	t.spent.Add(int64(d))
}

// layerDurable times the durable tier: the persist hook on the ingest
// path, a checkpoint barrier, the writer's flush+fsync, a window scan,
// and a cold open + replay of the whole log.
func layerDurable(ctx context.Context, e *env, r *result, in *layerInputs) error {
	dir, err := e.scratchDir("layer-data-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	pcfg := pipeline.Config{Shards: in.p.Shards, Base: in.tb.Base}
	d, err := collector.OpenDurableSink(in.tb.Engine, in.tb.Queries(), pcfg, collector.DurableOptions{DataDir: dir})
	if err != nil {
		return err
	}
	tp := &timedPersister{Writer: d.Writer, tr: e.tr}
	d.Sink.SetPersister(tp)
	begin := uint64(time.Now().UnixNano())
	var ckptMs, syncMs []float64
	// Checkpoint a few times along the way, as the daemon's cadence does.
	const rounds = 4
	var batches int
	in.replay(func([]core.PacketDigest) error { batches++; return nil })
	perRound := max(1, batches/rounds)
	var fed int
	var serr error
	in.replay(func(batch []core.PacketDigest) error {
		d.Sink.Ingest(batch)
		if fed++; fed%perRound == 0 && serr == nil {
			ckptMs = append(ckptMs, ms(float64(e.tr.timed("pipeline.checkpoint", uint64(fed), -1, func() { d.Sink.Checkpoint() }))))
			syncMs = append(syncMs, ms(float64(e.tr.timed("segstore.sync", uint64(fed), -1, func() { serr = d.Writer.Sync() }))))
		}
		return nil
	})
	if serr != nil {
		d.Close()
		return serr
	}
	if len(ckptMs) == 0 {
		ckptMs = append(ckptMs, ms(float64(e.tr.timed("pipeline.checkpoint", 0, -1, func() { d.Sink.Checkpoint() }))))
		syncMs = append(syncMs, ms(float64(e.tr.timed("segstore.sync", 0, -1, func() { serr = d.Writer.Sync() }))))
	}
	r.set("segstore.persist_ns_per_pkt", nsPer(time.Duration(tp.spent.Load()), in.pkts))
	r.set("pipeline.checkpoint_ms", median(ckptMs))
	r.set("segstore.sync_ms", median(syncMs))
	// The window the durable-query workload asks for: the recent half.
	end := uint64(time.Now().UnixNano())
	var blocks int
	scan := e.tr.timed("segstore.scan", 0, -1, func() {
		serr = d.Store.Scan(begin+(end-begin)/2, end, func(segstore.Block) error { blocks++; return nil })
	})
	if serr != nil {
		d.Close()
		return serr
	}
	r.set("segstore.scan_ms", ms(float64(scan)))
	if err := d.Close(); err != nil {
		return err
	}
	var logBytes int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		if fi, err := os.Stat(filepath.Join(dir, ent.Name())); err == nil {
			logBytes += fi.Size()
		}
	}
	r.set("segstore.bytes_per_pkt", float64(logBytes)/float64(in.pkts))

	// Cold open + replay, as a restarted daemon does before it listens.
	sink, err := pipeline.NewSink(in.tb.Engine, pcfg)
	if err != nil {
		return err
	}
	defer sink.Close()
	var replayed uint64
	replay := e.tr.timed("segstore.replay", 0, -1, func() {
		var store *segstore.Store
		if store, _, serr = segstore.Open(dir, segstore.Options{}); serr != nil {
			return
		}
		replayed, serr = collector.ReplayInto(store, sink)
		store.Close()
	})
	if serr != nil {
		return serr
	}
	if replayed != uint64(in.pkts) {
		return fmt.Errorf("replay returned %d of %d packets", replayed, in.pkts)
	}
	r.set("segstore.replay_mpps", float64(replayed)/replay.Seconds()/1e6)
	return nil
}

// loadFleet sends the inputs to the first n members of f, partitioned
// over exactly those members, and waits until they are decoded.
func (in *layerInputs) loadFleet(ctx context.Context, f *federation.Fleet, n int) error {
	members := make([]federation.FleetMember, n)
	for i, m := range f.Members[:n] {
		members[i] = federation.FleetMember{Name: m.Name, Ingest: m.TCPAddr(), Query: m.HTTPURL()}
	}
	fm, err := federation.NewFleetMap(f.Epoch, members)
	if err != nil {
		return err
	}
	fe, err := collector.Connect(in.tb.Engine, 1, "bench-layer",
		collector.WithFleetMap(fm), collector.WithFrameBatch(in.p.FrameBatch))
	if err != nil {
		return err
	}
	err = in.replay(fe.Send)
	if cerr := fe.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return f.WaitIngested(uint64(in.pkts), 60*time.Second)
}

// layerFederation times the gate's overhead over its slowest member and
// the pieces of a resize — plan, drain, marshal, ship+import — beside a
// whole Fleet.Resize over an identically loaded fleet, so the resize's
// self time (fence, quiesce, publish waits) is what remains.
func layerFederation(ctx context.Context, e *env, r *result, in *layerInputs) error {
	small, big := in.p.FleetSizes[0], in.p.FleetSizes[1]

	// Fleet A: loaded at the small size, queried through a gate, then
	// resized whole.
	fa, err := federation.NewFleet(in.tb, federation.WithSize(small), federation.WithShards(in.p.Shards))
	if err != nil {
		return err
	}
	defer fa.Shutdown(context.Background())
	if err := in.loadFleet(ctx, fa, small); err != nil {
		return err
	}
	gate, err := federation.NewFrontend(federation.WithFleetMap(fa.CurrentMap()))
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	gateSrv := collector.HardenedHTTPServer(gate.Handler())
	go gateSrv.Serve(ln)
	defer gateSrv.Close()
	var overhead []float64
	for i := 0; i < 3; i++ {
		var slowest time.Duration
		for _, url := range fa.HTTPURLs() {
			var gerr error
			var status int
			d := e.tr.timed("federation.member_snapshot", uint64(i), -1, func() { status, _, _, gerr = e.get(ctx, url+"/snapshot") })
			if gerr != nil || status != 200 {
				return fmt.Errorf("member /snapshot: status %d: %v", status, gerr)
			}
			slowest = max(slowest, d)
		}
		var gerr error
		var status int
		d := e.tr.timed("federation.gate_snapshot", uint64(i), -1, func() {
			status, _, _, gerr = e.get(ctx, "http://"+ln.Addr().String()+"/snapshot")
		})
		if gerr != nil || status != 200 {
			return fmt.Errorf("gate /snapshot: status %d: %v", status, gerr)
		}
		overhead = append(overhead, ms(float64(d-slowest)))
	}
	r.set("federation.gate_overhead_ms", median(overhead))
	var rerr error
	var moves []federation.Move
	whole := e.tr.timed("federation.resize", 0, -1, func() { moves, rerr = fa.Resize(ctx, big) })
	if rerr != nil {
		return rerr
	}

	// Fleet B: already at the big size, loaded on its first members only,
	// so the same moves can be made one public call at a time.
	fb, err := federation.NewFleet(in.tb, federation.WithSize(big), federation.WithShards(in.p.Shards), federation.WithFleetEpoch(2))
	if err != nil {
		return err
	}
	defer fb.Shutdown(context.Background())
	if err := in.loadFleet(ctx, fb, small); err != nil {
		return err
	}
	newMap := fb.CurrentMap()
	oldMap, err := federation.NewFleetMap(newMap.Epoch-1, newMap.Members[:small])
	if err != nil {
		return err
	}
	flows := make([]core.FlowKey, len(in.flows))
	for f := range flows {
		flows[f] = in.tb.FlowKeyFor(1, f)
	}
	var plan []federation.Move
	dPlan := e.tr.timed("federation.rebalance", 0, -1, func() { plan, rerr = federation.Rebalance(oldMap, newMap, flows) })
	if rerr != nil {
		return rerr
	}
	if !samePlan(plan, moves) {
		return fmt.Errorf("Fleet.Resize moved %d flows, Rebalance plans %d", len(moves), len(plan))
	}
	if len(plan) == 0 {
		return fmt.Errorf("the resize %d→%d moves no flow", small, big)
	}
	byFrom := map[string][]core.FlowKey{}
	for _, mv := range plan {
		byFrom[mv.From] = append(byFrom[mv.From], mv.Flow)
	}
	var dExport, dMarshal, dSend time.Duration
	for _, src := range fb.Members[:small] {
		moving := byFrom[src.Name]
		if len(moving) == 0 {
			continue
		}
		var states []wire.FlowState
		dExport += e.tr.timed("collector.export_flows", 0, -1, func() { states, rerr = src.Srv.ExportFlows(moving) })
		if rerr != nil {
			return rerr
		}
		byDest := map[int][]wire.FlowState{}
		for _, st := range states {
			byDest[newMap.FlowHome(st.Flow)] = append(byDest[newMap.FlowHome(st.Flow)], st)
		}
		for dest, batch := range byDest {
			dMarshal += e.tr.timed("wire.handoff_marshal", uint64(dest), -1, func() { wire.AppendMarshalHandoff(nil, batch) })
			hello := collector.HelloFor(in.tb.Engine, 1<<62, "bench-handoff")
			hello.Epoch = newMap.Epoch
			dSend += e.tr.timed("collector.send_handoff", uint64(dest), -1, func() {
				_, rerr = collector.SendHandoff(newMap.Members[dest].Ingest, hello, batch)
			})
			if rerr != nil {
				return rerr
			}
		}
	}
	// The destinations acknowledge nothing; like Fleet.Resize, wait once
	// for their import counters and charge the wait to the shipping.
	dSend += e.tr.timed("collector.send_handoff", uint64(big), -1, func() {
		for ctx.Err() == nil {
			var imported uint64
			for _, m := range fb.Members {
				imported += m.Srv.HandoffFlows()
			}
			if imported >= uint64(len(plan)) {
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
	})
	nMoved := len(plan)
	usPer := func(d time.Duration) float64 { return float64(d) / 1e3 / float64(nMoved) }
	r.set("federation.rebalance_us_per_flow", float64(dPlan)/1e3/float64(len(flows)))
	r.set("collector.export_us_per_flow", usPer(dExport))
	r.set("wire.handoff_marshal_us_per_flow", usPer(dMarshal))
	// SendHandoff marshals the batch itself; its self time excludes that.
	r.set("collector.send_handoff_us_per_flow", usPer(dSend-dMarshal))
	r.set("federation.resize_self_ms", ms(float64(whole-dPlan-dExport-dSend)))
	return nil
}

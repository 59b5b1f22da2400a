// Benchmarks of the system's layers — encode hot path, sink ingest, wire
// codec, collector sockets, admission, fleet hand-off — the numbers the
// bench gate (cmd/benchgate, bench_baseline.txt) reads. No experiment
// runs here: the paper's figures, tables, ablations and appendix are
// scenarios (`go run ./cmd/pintfig -run all`).
package repro

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/admit"
	"repro/internal/collector"
	"repro/internal/core"
	"repro/internal/hash"
	"repro/internal/pipeline"
	"repro/internal/scenario"
	"repro/internal/segstore"
	"repro/internal/wire"
)

// --- Encode hot path ---
//
// BenchmarkHotPath_BatchEncodeExtract times the one encode path — the
// column passes behind EncodeHopBatch — on the Fig-11 combined plan (path
// 2x(b=4) + latency + HPCC in 16 bits): a full 5-hop encode plus
// sink-side extract per packet, at the batch sizes a simulator's
// per-dequeue hook (n=1), a small burst (n=16) and an exporter (n=256)
// drive. The bar is 0 allocs/op at every size.

func benchCombinedPlan(b *testing.B) (*core.Engine, []core.Query) {
	b.Helper()
	universe := make([]uint64, 128)
	for i := range universe {
		universe[i] = uint64(0xAB000000 + i*7)
	}
	master := hash.Seed(0xF16)
	cfg, err := core.DefaultPathConfig(4, 2, 5)
	if err != nil {
		b.Fatal(err)
	}
	path, err := core.NewPathQuery("path", cfg, 1, master, universe)
	if err != nil {
		b.Fatal(err)
	}
	lat, err := core.NewLatencyQuery("lat", 8, 0.04, 15.0/16, master)
	if err != nil {
		b.Fatal(err)
	}
	util, err := core.NewUtilQuery("hpcc", 8, 0.025, 1.0/16, 1000, master)
	if err != nil {
		b.Fatal(err)
	}
	queries := []core.Query{path, lat, util}
	eng, err := core.Compile(queries, 16, master.Derive(0x51B))
	if err != nil {
		b.Fatal(err)
	}
	return eng, queries
}

const benchHops = 5

func BenchmarkHotPath_BatchEncodeExtract(b *testing.B) {
	eng, _ := benchCombinedPlan(b)
	for _, batch := range []int{1, 16, 256} {
		b.Run(fmt.Sprintf("n=%d", batch), func(b *testing.B) {
			pkts := make([]core.PacketDigest, batch)
			vals := make([]core.HopValues, batch)
			for j := range vals {
				vals[j] = core.HopValues{SwitchID: 0xAB000007, LatencyNs: 12345, Util: 501}
			}
			var buf []core.Extracted
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += batch {
				n := min(batch, b.N-i)
				for j := 0; j < n; j++ {
					pkts[j] = core.PacketDigest{Flow: 1, PktID: hash.Mix64(uint64(i + j)), PathLen: benchHops}
				}
				for hop := 1; hop <= benchHops; hop++ {
					eng.EncodeHopBatch(hop, pkts[:n], vals[:n])
				}
				for j := 0; j < n; j++ {
					buf = eng.ExtractInto(pkts[j].PktID, pkts[j].Digest, buf[:0])
				}
			}
		})
	}
}

// benchDigestStream builds an encoded nPkts-packet stream over nFlows
// flows, shared by the sink/collector ingest benchmarks.
func benchDigestStream(eng *core.Engine, nFlows, nPkts int) []core.PacketDigest {
	pkts := make([]core.PacketDigest, nPkts)
	vals := make([]core.HopValues, nPkts)
	for i := range pkts {
		pkts[i] = core.PacketDigest{
			Flow:    core.FlowKey(uint64(i%nFlows)*2654435761 + 1),
			PktID:   hash.Mix64(uint64(i)),
			PathLen: benchHops,
		}
		vals[i] = core.HopValues{SwitchID: 0xAB000007, LatencyNs: 12345, Util: 501}
	}
	for hop := 1; hop <= benchHops; hop++ {
		eng.EncodeHopBatch(hop, pkts, vals)
	}
	return pkts
}

// BenchmarkSinkIngest compares serial Recording against the sharded sink
// at 1/2/4/8 workers over a pre-encoded multi-flow digest stream, at
// steady state: the Recording/Sink is built and warmed once, outside the
// timer, so ns/op is per packet and allocs/op measures recording — not
// the tens of thousands of construction and cold-start flow-admission
// allocations a fresh-instance-per-iteration loop would charge to it.
// The residual allocations are intrinsic sketch growth (KLL compactors,
// latency samples), not ingest machinery; the machinery itself is pinned
// allocation-free by TestStageZeroAllocSteadyState.
func BenchmarkSinkIngest(b *testing.B) {
	eng, _ := benchCombinedPlan(b)
	pkts := benchDigestStream(eng, 256, 1<<14)
	b.Run("serial", func(b *testing.B) {
		rec, err := core.NewRecordingSeeded(eng, 32, 7)
		if err != nil {
			b.Fatal(err)
		}
		if err := rec.RecordBatch(pkts); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for done := 0; done < b.N; {
			n := len(pkts)
			if rem := b.N - done; rem < n {
				n = rem
			}
			if err := rec.RecordBatch(pkts[:n]); err != nil {
				b.Fatal(err)
			}
			done += n
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "Mpkt/s")
	})
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run("shards="+itoa(shards), func(b *testing.B) {
			sink, err := pipeline.NewSink(eng, pipeline.Config{
				Shards: shards, SketchItems: 32, Base: 7})
			if err != nil {
				b.Fatal(err)
			}
			sink.Ingest(pkts)
			sink.Flush()
			sink.Barrier()
			b.ReportAllocs()
			b.ResetTimer()
			for done := 0; done < b.N; {
				n := len(pkts)
				if rem := b.N - done; rem < n {
					n = rem
				}
				sink.Ingest(pkts[:n])
				done += n
			}
			sink.Flush()
			sink.Barrier()
			b.StopTimer()
			if err := sink.Close(); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "Mpkt/s")
		})
	}
}

// BenchmarkCollectorIngestParallel is the collector's multi-core ingest
// surface in miniature: every parallel worker plays one exporter
// connection, owning a pipeline.Stage and a pre-marshaled wire payload,
// and each operation is one frame's collector-side work — fused
// decode-and-shard straight into the stage, then the striped-lock
// hand-off to the sink. Run with -cpu 1,2,4 for the scaling curve; the
// -cpu 1 row doubles as the single-core no-regression guard.
func BenchmarkCollectorIngestParallel(b *testing.B) {
	eng, _ := benchCombinedPlan(b)
	const nPkts = 4096
	pkts := benchDigestStream(eng, 256, nPkts)
	payload, err := wire.Marshal(pkts)
	if err != nil {
		b.Fatal(err)
	}
	for _, shards := range []int{1, 4} {
		b.Run("shards="+itoa(shards), func(b *testing.B) {
			sink, err := pipeline.NewSink(eng, pipeline.Config{
				Shards: shards, SketchItems: 32, Base: 7})
			if err != nil {
				b.Fatal(err)
			}
			// Warm: admit the flow set and grow the sketches outside the
			// timer, mirroring the steady-state framing above.
			warm := sink.NewStage()
			if _, err := wire.AppendUnmarshalSharded(warm.Buffers(), payload); err != nil {
				b.Fatal(err)
			}
			sink.IngestStage(warm)
			sink.Flush()
			sink.Barrier()
			b.SetBytes(int64(len(payload)))
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				st := sink.NewStage()
				bufs := st.Buffers()
				for pb.Next() {
					if _, err := wire.AppendUnmarshalSharded(bufs, payload); err != nil {
						b.Error(err)
						return
					}
					sink.IngestStage(st)
				}
			})
			sink.Flush()
			sink.Barrier()
			b.StopTimer()
			if err := sink.Close(); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(nPkts)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mpkt/s")
		})
	}
}

// BenchmarkSinkIngestDurable is BenchmarkSinkIngest with the persistence
// writer attached: every batch is also framed, CRC'd, and appended to a
// segment log (NoSync — the fsync cadence is the checkpoint's job, not
// the hot path's). The delta against the plain shards=N rows is the total
// durability tax on ingest throughput.
func BenchmarkSinkIngestDurable(b *testing.B) {
	eng, _ := benchCombinedPlan(b)
	const nPkts = 1 << 14
	pkts := benchDigestStream(eng, 256, nPkts)
	for _, shards := range []int{1, 4} {
		b.Run("shards="+itoa(shards), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				store, _, err := segstore.Open(b.TempDir(), segstore.Options{NoSync: true})
				if err != nil {
					b.Fatal(err)
				}
				sink, err := pipeline.NewSink(eng, pipeline.Config{
					Shards: shards, SketchItems: 32, Base: 7})
				if err != nil {
					b.Fatal(err)
				}
				w := segstore.NewWriter(store, segstore.WriterOptions{})
				sink.SetPersister(w)
				b.StartTimer()
				sink.Ingest(pkts)
				if err := sink.Close(); err != nil {
					b.Fatal(err)
				}
				if err := w.Close(); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if err := store.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(nPkts)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mpkt/s")
		})
	}
}

// BenchmarkSegstoreAppend is the durable tier's write path alone: one
// 256-packet batch marshaled, framed and checksummed in the store's block
// buffer and written from it (NoSync, retention at two segments so the
// run's disk footprint stays bounded). Its 0 allocs/op is the bench gate's
// count rule for the segment log — rotations and directory growth amortise
// to nothing per batch — so a per-batch buffer cannot come back unnoticed.
func BenchmarkSegstoreAppend(b *testing.B) {
	eng, _ := benchCombinedPlan(b)
	batch := benchDigestStream(eng, 256, 256)
	store, _, err := segstore.Open(b.TempDir(), segstore.Options{NoSync: true, MaxSegments: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := store.AppendDigests(batch); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := store.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkWireCodec measures the bulk wire codec over a sink-shaped
// 4096-packet encoded batch: two-pass marshal, fast-path unmarshal, and
// the one-pass frame marshal (header + payload + CRC in one buffer). All
// three are 0 B/op at steady state.
func BenchmarkWireCodec(b *testing.B) {
	eng, _ := benchCombinedPlan(b)
	const n = 4096
	pkts := benchDigestStream(eng, 256, n)
	flat, err := wire.Marshal(pkts)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("marshal", func(b *testing.B) {
		buf := append([]byte(nil), flat...)
		b.SetBytes(int64(len(flat)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var err error
			buf, err = wire.AppendMarshal(buf[:0], pkts)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mpkt/s")
	})
	b.Run("unmarshal", func(b *testing.B) {
		out := make([]core.PacketDigest, 0, n)
		b.SetBytes(int64(len(flat)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var err error
			out, err = wire.AppendUnmarshal(out[:0], flat)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mpkt/s")
	})
	b.Run("frame", func(b *testing.B) {
		buf := make([]byte, 0, len(flat)+wire.FrameHeaderLen)
		b.SetBytes(int64(len(flat) + wire.FrameHeaderLen))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var err error
			buf, err = wire.AppendMarshalFrame(buf[:0], pkts)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mpkt/s")
	})
}

// BenchmarkSinkIngestBounded pins the streaming-collector acceptance
// criterion: ingest with an eviction policy enabled allocates nothing in
// steady state. The plan is latency (KLL-sketched) + frequent-values —
// the per-flow stores that reuse their space; path queries are excluded
// because their decoders buffer per-packet constraint records by design.
// "steady" keeps a stable flow set under an ample LRU cap (the policy
// meters every packet but never fires); "churn" runs 4x as many flows as
// the cap admits and reports the eviction rate instead.
func BenchmarkSinkIngestBounded(b *testing.B) {
	master := hash.Seed(0xB0B)
	lat, err := core.NewLatencyQuery("lat", 8, 0.04, 0.75, master)
	if err != nil {
		b.Fatal(err)
	}
	freq, err := core.NewFreqQuery("freq", 8, 0.25, master)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := core.Compile([]core.Query{lat, freq}, 8, master.Derive(2))
	if err != nil {
		b.Fatal(err)
	}
	const (
		k         = 5
		streamLen = 1 << 13
		cap       = 128
	)
	encode := func(nFlows int) []core.PacketDigest {
		pkts := make([]core.PacketDigest, streamLen)
		vals := make([]core.HopValues, streamLen)
		for i := range pkts {
			pkts[i] = core.PacketDigest{
				Flow:    core.FlowKey(uint64(i%nFlows)*2654435761 + 1),
				PktID:   hash.Mix64(uint64(i)),
				PathLen: k,
			}
			vals[i] = core.HopValues{LatencyNs: 1000 + hash.Mix64(uint64(i))%100000,
				FreqValue: hash.Mix64(uint64(i)) % 16}
		}
		for hop := 1; hop <= k; hop++ {
			eng.EncodeHopBatch(hop, pkts, vals)
		}
		return pkts
	}
	for _, mode := range []struct {
		name   string
		nFlows int
	}{{"steady", 64}, {"churn", 4 * cap}} {
		b.Run(mode.name, func(b *testing.B) {
			pkts := encode(mode.nFlows)
			evictions := 0
			sink, err := pipeline.NewSink(eng, pipeline.Config{
				Shards: 1, SketchItems: 32, Base: 7,
				Policy:  func() pipeline.EvictionPolicy { return pipeline.NewLRU(cap) },
				OnEvict: func(ev pipeline.Eviction, rec *core.Recording) { evictions++ },
			})
			if err != nil {
				b.Fatal(err)
			}
			// Warm: admit the flow set, grow the sketches, fill the
			// buffer free lists. The Snapshot drains the workers, so
			// resetting the eviction counter afterwards is race-free and
			// the metric covers only the timed packets.
			sink.Ingest(pkts)
			sink.Flush()
			sink.Snapshot()
			evictions = 0
			b.ReportAllocs()
			b.ResetTimer()
			for done := 0; done < b.N; {
				n := len(pkts)
				if rem := b.N - done; rem < n {
					n = rem
				}
				sink.Ingest(pkts[:n])
				done += n
			}
			sink.Flush()
			b.StopTimer()
			if err := sink.Close(); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "Mpkt/s")
			b.ReportMetric(float64(evictions)/float64(b.N), "evictions/pkt")
		})
	}
}

// metric sanitizes a label for use as a benchmark metric unit (testing
// rejects whitespace).
func metric(parts ...string) string {
	out := ""
	for _, p := range parts {
		for _, r := range p {
			switch r {
			case ' ':
				out += "_"
			default:
				out += string(r)
			}
		}
	}
	return out
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// BenchmarkScenarioRunner runs the full registry (every paper figure plus
// the non-paper scenarios) at quick scale through the shared trial
// runner, at 1 and GOMAXPROCS workers — the registry's wall-clock scaling
// axis. Output is bit-identical across the two (pinned by the golden
// tests); only the wall clock moves.
func BenchmarkScenarioRunner(b *testing.B) {
	s := scenario.Quick()
	for _, par := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run("parallel="+itoa(par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				results, err := scenario.RunNames([]string{"all"}, scenario.Options{Scale: s, Parallel: par})
				if err != nil {
					b.Fatal(err)
				}
				if want := len(scenario.Names()); len(results) != want {
					b.Fatalf("%d of %d scenarios ran", len(results), want)
				}
			}
			b.ReportMetric(b.Elapsed().Seconds()/float64(b.N), "s/catalog")
		})
	}
}

// BenchmarkAdmitDecision is the QoS tier's per-frame tax: one admission
// decision — token-bucket refill, quota shaping, AIMD capacity grant —
// under an injected clock, in the regime where the tenant is over quota
// (the expensive branch: sampling probability + threshold computed).
// The decision runs once per frame, not per packet, but it sits on the
// session goroutine's frame loop, so it must stay allocation-free and
// in the tens of nanoseconds.
func BenchmarkAdmitDecision(b *testing.B) {
	var now uint64
	policy, err := admit.ParsePolicy("bench=1e6/1e5")
	if err != nil {
		b.Fatal(err)
	}
	policy.Capacity.Initial = 5e6
	policy.Clock = func() uint64 { now += 1000; return now }
	a, err := admit.NewAdmitter(policy)
	if err != nil {
		b.Fatal(err)
	}
	tn := a.Tenant("bench")
	b.ReportAllocs()
	b.ResetTimer()
	var admitted int
	for i := 0; i < b.N; i++ {
		if tn.Decide(256).Admit() {
			admitted++
		}
	}
	b.StopTimer()
	if admitted == b.N && b.N > 1000 {
		b.Fatal("bench tenant never went over quota")
	}
}

// BenchmarkFleetHandoff is the elastic-resize hand-off cycle end to end
// over loopback TCP: one op is ExportFlows draining 64 live flow states
// from the source collector, SendHandoff framing and shipping them in
// one CRC-framed hand-off session, and the destination's read loop
// folding every state into its sink via Recording.Merge. The flow set
// ping-pongs between two collectors, so every iteration drains
// realistically warm state — each flow carries 256 packets of decoder
// and sketch history — without untimed re-seeding.
func BenchmarkFleetHandoff(b *testing.B) {
	eng, queries := benchCombinedPlan(b)
	const (
		nFlows  = 64
		pktsPer = 256
	)
	pkts := benchDigestStream(eng, nFlows, nFlows*pktsPer)
	seen := make(map[core.FlowKey]bool, nFlows)
	flows := make([]core.FlowKey, 0, nFlows)
	for _, p := range pkts {
		if !seen[p.Flow] {
			seen[p.Flow] = true
			flows = append(flows, p.Flow)
		}
	}

	type node struct {
		*collector.Server
		addr string
	}
	newNode := func() node {
		sink, err := pipeline.NewSink(eng, pipeline.Config{Shards: 2, SketchItems: 32, Base: 7})
		if err != nil {
			b.Fatal(err)
		}
		srv, err := collector.New(eng, collector.WithSink(sink), collector.WithQueries(queries...))
		if err != nil {
			b.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		go srv.Serve(ln)
		b.Cleanup(func() {
			srv.Shutdown(context.Background())
			sink.Close()
		})
		return node{srv, ln.Addr().String()}
	}
	src, dst := newNode(), newNode()

	// Seed the source through a normal exporter session, then wait for
	// the read loop to drain it.
	ex, err := collector.Connect(eng, 1, "seed", collector.WithAddrs(src.addr))
	if err != nil {
		b.Fatal(err)
	}
	if err := ex.Send(pkts); err != nil {
		b.Fatal(err)
	}
	if err := ex.Close(); err != nil {
		b.Fatal(err)
	}
	for st := src.Stats(); st.Packets < uint64(len(pkts)) || st.Active != 0; st = src.Stats() {
		time.Sleep(time.Millisecond)
	}

	// One untimed warm round sizes SetBytes and leaves the flows on dst,
	// so the timed loop starts mid-ping-pong like any later iteration.
	handoff := func(from, to node) int64 {
		states, err := from.ExportFlows(flows)
		if err != nil {
			b.Fatal(err)
		}
		if len(states) != nFlows {
			b.Fatalf("exported %d of %d flows", len(states), nFlows)
		}
		var bytes int64
		for _, st := range states {
			bytes += int64(len(st.State))
		}
		before := to.HandoffFlows()
		if n, err := collector.SendHandoff(to.addr, collector.HelloFor(eng, 1<<40, "bench-handoff"), states); err != nil || n != nFlows {
			b.Fatalf("shipped %d flows: %v", n, err)
		}
		deadline := time.Now().Add(30 * time.Second)
		for to.HandoffFlows() < before+nFlows {
			if !time.Now().Before(deadline) {
				b.Fatalf("destination imported %d of %d flows at deadline", to.HandoffFlows()-before, nFlows)
			}
			time.Sleep(50 * time.Microsecond)
		}
		return bytes
	}
	b.SetBytes(handoff(src, dst))
	src, dst = dst, src

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		handoff(src, dst)
		src, dst = dst, src
	}
	b.StopTimer()
	b.ReportMetric(float64(nFlows)*float64(b.N)/b.Elapsed().Seconds(), "flows/s")
}

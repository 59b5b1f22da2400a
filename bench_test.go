// The two benchmarks nothing else times: ingest under an eviction policy
// and the scenario registry's wall clock. Neither is gated. Every other
// layer's clock is a per-layer row of cmd/pintbench, read against
// BENCHMARK.json, and every zero-allocation claim is a
// testing.AllocsPerRun test in the package that makes it.
package repro

import (
	"runtime"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/hash"
	"repro/internal/pipeline"
	"repro/internal/scenario"
)

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

// BenchmarkScenarioRunner runs the full registry (every paper figure plus
// the non-paper scenarios) at quick scale through the shared trial
// runner, at 1 and GOMAXPROCS workers — the registry's wall-clock scaling
// axis. Output is bit-identical across the two (pinned by the golden
// tests); only the wall clock moves.
func BenchmarkScenarioRunner(b *testing.B) {
	s := scenario.Quick()
	for _, par := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run("parallel="+strconv.Itoa(par), func(b *testing.B) {
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

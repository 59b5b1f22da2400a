// The benchmarks nothing else times: the scenario registry's wall clock
// and what a full garbage collection costs a collector per flow it holds.
// Neither is gated. Every layer's clock is a per-layer row of
// cmd/pintbench, read against BENCHMARK.json, and every zero-allocation
// claim is a testing.AllocsPerRun test in the package that makes it.
package repro

import (
	"runtime"
	"strconv"
	"testing"

	"repro/internal/collector"
	"repro/internal/core"
	"repro/internal/scenario"
)

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

// BenchmarkFullGCWithFlows reports the wall time of a forced full
// collection, in ns per flow, while one Recording holds 262,144 cold
// 16-packet testbench flows (~100 MB of heap): the mark work a
// collector's flow state costs every GC cycle.
func BenchmarkFullGCWithFlows(b *testing.B) {
	const flows, pkts = 1 << 18, 16
	tb, err := collector.NewTestbench(1, 5)
	if err != nil {
		b.Fatal(err)
	}
	rec, err := core.NewRecording(tb.Engine)
	if err != nil {
		b.Fatal(err)
	}
	var batch []core.PacketDigest
	vals := make([]core.HopValues, pkts)
	for f := range flows {
		batch = tb.FlowBatch(1, f, pkts, batch, vals)
		if err := rec.RecordBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
	runtime.GC()
	b.ResetTimer()
	for range b.N {
		runtime.GC()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/flows, "ns/flow")
	runtime.KeepAlive(rec)
}

// The one benchmark nothing else times: the scenario registry's wall
// clock. It is not gated. Every layer's clock is a per-layer row of
// cmd/pintbench, read against BENCHMARK.json, and every zero-allocation
// claim is a testing.AllocsPerRun test in the package that makes it.
package repro

import (
	"runtime"
	"strconv"
	"testing"

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

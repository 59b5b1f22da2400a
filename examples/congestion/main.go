// Command congestion runs the paper's congestion-control use case end to
// end on the packet simulator: HPCC senders over a loaded leaf-spine
// fabric, first fed by classic per-hop INT, then by PINT's 8-bit
// bottleneck-utilization digests, and prints the flow-completion
// comparison (the Fig 7 experiment at example scale).
//
// Run with:
//
//	go run ./examples/congestion
package main

import (
	"fmt"
	"log"

	"repro/internal/scenario"
	"repro/internal/workload"
)

func main() {
	scale := scenario.Scale{
		HostBps:     1_000_000_000,
		TierBps:     4_000_000_000,
		SizeDivisor: 64,
		DurationNs:  40_000_000,
		Pods:        2,
		HostsPerTor: 4,
		Trials:      20,
		Seed:        11,
	}

	fmt.Println("HPCC over a 50%-loaded leaf-spine fabric, web-search workload")
	fmt.Println("(scaled to example size; see cmd/pintfig for larger runs)")
	fmt.Println()

	type result struct {
		name    string
		kind    scenario.TransportKind
		avgFCT  float64
		goodput float64
		flows   int
	}
	longThr := int64(workload.WebSearch().Scaled(scale.SizeDivisor).Quantile(0.8))
	var results []result
	for _, tc := range []struct {
		name string
		kind scenario.TransportKind
	}{
		{"HPCC(INT): 8B header + 12B per hop on every packet", scenario.KindHPCCINT},
		{"HPCC(PINT): 1B digest on every packet", scenario.KindHPCCPINT},
	} {
		res, err := scenario.RunLoad(scenario.LoadRunConfig{
			Scale: scale, Dist: workload.WebSearch(), Load: 0.5,
			Kind: tc.kind, MinFlows: 100,
		})
		if err != nil {
			log.Fatal(err)
		}
		results = append(results, result{
			name:    tc.name,
			kind:    tc.kind,
			avgFCT:  res.AvgFCT(),
			goodput: res.AvgGoodputLong(longThr),
			flows:   len(res.Collector.Completed()),
		})
	}

	for _, r := range results {
		fmt.Printf("%-55s\n", r.name)
		fmt.Printf("  completed flows: %d\n", r.flows)
		fmt.Printf("  average FCT:     %.2f ms\n", r.avgFCT/1e6)
		fmt.Printf("  long-flow goodput (>= %d B): %.1f Mbps\n\n",
			longThr, r.goodput/1e6)
	}
	if len(results) == 2 && results[1].goodput > 0 {
		gain := (results[1].goodput - results[0].goodput) / results[0].goodput * 100
		fmt.Printf("PINT long-flow goodput gain over INT: %+.1f%%\n", gain)
		fmt.Println("(the paper reports gains growing with load, up to 71% at 70% load)")
	}
}

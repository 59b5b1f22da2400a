// Command latency demonstrates the dynamic per-flow aggregation (§4.1,
// §6.2): estimating each hop's median and tail latency from b-bit digests,
// with and without KLL sketches bounding per-flow storage, against exact
// ground truth.
//
// Run with:
//
//	go run ./examples/latency
package main

import (
	"fmt"
	"log"
	"math"

	"repro/internal/core"
	"repro/internal/hash"
	"repro/internal/sketch"
)

func main() {
	const (
		k       = 5     // hops
		packets = 20000 // flow length
	)
	seed := hash.Seed(33)
	rng := hash.NewRNG(5)

	// Synthetic per-hop latency regimes: hop 3 is congested with a heavy
	// tail, the others are quiet.
	sample := func(hop int) float64 {
		base := []float64{1000, 1200, 15000, 1100, 900}[hop-1]
		jitter := math.Exp(rng.NormFloat64() * 0.4)
		if hop == 3 && rng.Float64() < 0.05 {
			jitter *= 20 // tail spikes at the congested hop
		}
		return base * jitter
	}

	for _, tc := range []struct {
		label       string
		bits        int
		eps         float64
		sketchItems int
	}{
		{"b=8, raw samples", 8, 0.04, 0},
		{"b=8, 64-item KLL sketches (PINTS)", 8, 0.04, 64},
		{"b=4, raw samples (coarse compression)", 4, 0.9, 0},
	} {
		q, err := core.NewLatencyQuery("lat", tc.bits, tc.eps, 1, seed)
		if err != nil {
			log.Fatal(err)
		}
		engine, err := core.Compile([]core.Query{q}, tc.bits, seed)
		if err != nil {
			log.Fatal(err)
		}
		rec, err := core.NewRecording(engine, tc.sketchItems, hash.NewRNG(rng.Uint64()))
		if err != nil {
			log.Fatal(err)
		}
		flow := core.FlowKey(1)

		truth := make([][]float64, k)
		for i := 0; i < packets; i++ {
			pktID := rng.Uint64()
			var digest uint64
			for hop := 1; hop <= k; hop++ {
				v := sample(hop)
				truth[hop-1] = append(truth[hop-1], v)
				digest = engine.EncodeHopValues(pktID, hop, digest,
					&core.HopValues{LatencyNs: uint64(v)})
			}
			if err := rec.Record(flow, k, pktID, digest); err != nil {
				log.Fatal(err)
			}
		}

		fmt.Printf("--- %s ---\n", tc.label)
		fmt.Printf("%4s  %12s  %12s  %12s  %12s\n",
			"hop", "true median", "est median", "true p99", "est p99")
		for hop := 1; hop <= k; hop++ {
			tm := sketch.ExactQuantile(truth[hop-1], 0.5)
			tt := sketch.ExactQuantile(truth[hop-1], 0.99)
			em, err := rec.LatencyQuantile(q, flow, hop, 0.5)
			if err != nil {
				log.Fatal(err)
			}
			et, err := rec.LatencyQuantile(q, flow, hop, 0.99)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%4d  %12.0f  %12.0f  %12.0f  %12.0f\n", hop, tm, em, tt, et)
		}
		fmt.Println()
	}
	fmt.Println("note the congested hop 3 stands out in every configuration;")
	fmt.Println("b=4's coarse codes shift absolute values but preserve the ranking.")
}

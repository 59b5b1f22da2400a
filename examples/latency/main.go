// Command latency demonstrates the dynamic per-flow aggregation (§4.1,
// §6.2): estimating each hop's median and tail latency from b-bit digests
// against exact ground truth. The Recording counts each hop's codes; the
// PINTS configuration instead feeds them, as the sink extracts them, to
// one KLL sketch per hop, which bounds per-flow storage.
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
		rec, err := core.NewRecording(engine)
		if err != nil {
			log.Fatal(err)
		}
		flow := core.FlowKey(1)
		// Each configuration draws the sketches' seed, so the samples
		// after it are the same whichever way the codes are kept.
		sketches, err := hopSketches(q, flow, k, tc.sketchItems, hash.Seed(hash.NewRNG(rng.Uint64()).Uint64()))
		if err != nil {
			log.Fatal(err)
		}
		var ex []core.Extracted

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
			if sketches == nil {
				if err := rec.Record(flow, k, pktID, digest); err != nil {
					log.Fatal(err)
				}
				continue
			}
			ex = engine.ExtractInto(pktID, digest, ex[:0])
			for _, x := range ex {
				if x.Query == q {
					sketches[q.Winner(pktID, k)-1].Add(float64(x.Bits))
				}
			}
		}
		estimate := func(hop int, phi float64) (float64, error) {
			if sketches == nil {
				return rec.LatencyQuantile(q, flow, hop, phi)
			}
			s := sketches[hop-1]
			if s.Count() == 0 {
				return 0, fmt.Errorf("no samples for hop %d", hop)
			}
			return q.Decode(uint64(s.Quantiles(phi)[0] + 0.5)), nil
		}

		fmt.Printf("--- %s ---\n", tc.label)
		fmt.Printf("%4s  %12s  %12s  %12s  %12s\n",
			"hop", "true median", "est median", "true p99", "est p99")
		for hop := 1; hop <= k; hop++ {
			tm := sketch.ExactQuantile(truth[hop-1], 0.5)
			tt := sketch.ExactQuantile(truth[hop-1], 0.99)
			em, err := estimate(hop, 0.5)
			if err != nil {
				log.Fatal(err)
			}
			et, err := estimate(hop, 0.99)
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

// hopSketches returns one KLL sketch of accuracy parameter items per hop
// of a k-hop flow, nil when items is 0. The sketch of a hop draws from an
// RNG seeded by (base, q's name, flow, hop).
func hopSketches(q *core.LatencyQuery, flow core.FlowKey, k, items int, base hash.Seed) ([]*sketch.KLL, error) {
	if items == 0 {
		return nil, nil
	}
	sketches := make([]*sketch.KLL, k)
	for hop := 1; hop <= k; hop++ {
		rng := hash.NewRNG(base.Hash3(hash.Seed(0).HashString(q.Name()), uint64(flow), uint64(hop)))
		var err error
		if sketches[hop-1], err = sketch.NewKLL(items, rng); err != nil {
			return nil, err
		}
	}
	return sketches, nil
}

// Command pathtracing reproduces the §6.3 scenario interactively: trace
// flows across an ISP-scale topology (a US-Carrier-like graph, 157
// switches, diameter 36) with different per-packet budgets and compare
// against what classic INT would have cost.
//
// Run with:
//
//	go run ./examples/pathtracing
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/hash"
	"repro/internal/topology"
)

func main() {
	g, err := topology.USCarrierLike()
	if err != nil {
		log.Fatal(err)
	}
	universe := g.SwitchIDUniverse()
	fmt.Printf("topology: %s (%d switches, diameter %d)\n\n",
		g.Name, len(universe), 36)

	seed := hash.Seed(7)
	rng := hash.NewRNG(99)

	for _, tc := range []struct {
		label     string
		bits      int
		instances int
	}{
		{"1-bit budget", 1, 1},
		{"4-bit budget", 4, 1},
		{"2 x 8-bit hashes", 8, 2},
	} {
		fmt.Printf("--- PINT with %s ---\n", tc.label)
		for _, hops := range []int{8, 16, 24, 36} {
			pairs := g.SwitchPairsAtDistance(hops, 1, uint64(hops))
			if len(pairs) == 0 {
				continue
			}
			nodePath := g.Path(pairs[0][0], pairs[0][1], 1)
			var values []uint64
			for _, n := range nodePath {
				values = append(values, g.Nodes[n].SwitchID)
			}

			cfg, err := core.DefaultPathConfig(tc.bits, tc.instances, 10)
			if err != nil {
				log.Fatal(err)
			}
			q, err := core.NewPathQuery("path", cfg, 1, seed, universe)
			if err != nil {
				log.Fatal(err)
			}
			engine, err := core.Compile([]core.Query{q}, tc.bits*tc.instances, seed)
			if err != nil {
				log.Fatal(err)
			}
			rng.Uint64() // once a Recording's seed; drawn so later packet IDs stay put
			rec, err := core.NewRecording(engine)
			if err != nil {
				log.Fatal(err)
			}
			flow := core.FlowKey(uint64(hops))

			packets := 0
			for {
				packets++
				pktID := rng.Uint64()
				var digest uint64
				for hop := 1; hop <= len(values); hop++ {
					digest = engine.EncodeHopValues(pktID, hop, digest,
						&core.HopValues{SwitchID: values[hop-1]})
				}
				if err := rec.Record(flow, len(values), pktID, digest); err != nil {
					log.Fatal(err)
				}
				if _, done := rec.Path(q, flow); done {
					break
				}
				if packets > 2_000_000 {
					log.Fatalf("did not decode %d hops", len(values))
				}
			}
			intBytes := 8 + len(values)*4 // INT header + one 4B value per hop
			pintBytes := (tc.bits*tc.instances + 7) / 8
			fmt.Printf("  %2d hops: decoded after %6d packets "+
				"(%dB/pkt vs INT's %dB/pkt on every packet)\n",
				len(values), packets, pintBytes, intBytes)
		}
		fmt.Println()
	}
}

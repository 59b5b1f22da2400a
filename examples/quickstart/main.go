// Command quickstart is a one-minute tour of the PINT engine (core): trace a
// 10-hop flow's path with an 8-bit per-packet budget, watch the decoder
// converge, then run a latency-quantile query on the same engine.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/hash"
)

func main() {
	const (
		seed   = hash.Seed(2020) // shared by switches and the collector
		k      = 10              // path length
		budget = 16              // global per-packet bit budget
	)

	// The network's switch IDs: the universe the inference module matches
	// hashed digests against.
	universe := make([]uint64, 200)
	for i := range universe {
		universe[i] = 0x5A000000 + uint64(i)
	}
	path := universe[:k] // ground truth: the flow traverses switches 0..9

	// Two concurrent queries sharing the 16-bit budget: path tracing on
	// every packet, per-hop latency on every packet.
	cfg, err := core.DefaultPathConfig(8, 1, k)
	if err != nil {
		log.Fatal(err)
	}
	pathQ, err := core.NewPathQuery("path", cfg, 1.0, seed, universe)
	if err != nil {
		log.Fatal(err)
	}
	latQ, err := core.NewLatencyQuery("latency", 8, 0.04, 1.0, seed)
	if err != nil {
		log.Fatal(err)
	}
	engine, err := core.Compile([]core.Query{pathQ, latQ}, budget, seed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(engine.Plan())

	rec, err := core.NewRecording(engine)
	if err != nil {
		log.Fatal(err)
	}
	flow := core.FlowKeyOf(seed, "10.0.0.1:1234->10.0.0.2:80")

	// Simulate the flow's packets: every switch on the path runs the
	// engine's Encoding Module; the sink records the extracted digest.
	rng := hash.NewRNG(42)
	hopLatency := []uint64{900, 1100, 20000, 1000, 950, 5000, 1000, 1050, 980, 1020}
	packets := 0
	for decodedAt := 0; decodedAt == 0; packets++ {
		pktID := rng.Uint64()
		var digest uint64
		for hop := 1; hop <= k; hop++ {
			digest = engine.EncodeHopValues(pktID, hop, digest, &core.HopValues{
				SwitchID:  path[hop-1],                          // the switch writes its own ID
				LatencyNs: hopLatency[hop-1] + rng.Uint64()%300, // jittered per-hop latency
			})
		}
		if err := rec.Record(flow, k, pktID, digest); err != nil {
			log.Fatal(err)
		}
		if ids, done := rec.Path(pathQ, flow); done {
			fmt.Printf("\npath decoded after %d packets:\n  ", packets+1)
			for _, id := range ids {
				fmt.Printf("%x ", id)
			}
			fmt.Println()
			decodedAt = packets + 1
		}
	}

	// The same packets fed the latency query: ask for per-hop medians.
	fmt.Println("\nper-hop median latency estimates (true medians jittered around hopLatency):")
	for hop := 1; hop <= k; hop++ {
		med, err := rec.LatencyQuantile(latQ, flow, hop, 0.5)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  hop %2d: ~%6.0f ns (%d samples)\n",
			hop, med, rec.LatencySamples(latQ, flow, hop))
	}
	fmt.Printf("\ntotal per-packet overhead: %d bits (vs INT's %d bits for the same data)\n",
		budget, (8+k*4)*8)
}

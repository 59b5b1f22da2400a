// Command pinttrace measures packets-to-decode for path tracing over one
// of the evaluation topologies with a configurable budget — a
// parameterized instance of the scenario registry's path-trace scenario,
// executed by the shared trial runner. Every digest runs the production
// stack (engine batch encode → wire → sharded sink), and -parallel
// spreads the decode episodes over workers with bit-identical output.
//
// Usage:
//
//	pinttrace -topo kentucky -len 24 -bits 8 -instances 2 -trials 1000 -parallel 8
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/scenario"
)

func main() {
	topoName := flag.String("topo", "uscarrier", "topology: kentucky, uscarrier, fattree")
	pathLen := flag.Int("len", 12, "path length in switch hops")
	bits := flag.Int("bits", 8, "digest bits per hash instance")
	instances := flag.Int("instances", 1, "independent hash instances")
	d := flag.Int("d", 10, "assumed typical path length (layering parameter)")
	trials := flag.Int("trials", 1000, "trials")
	seed := flag.Uint64("seed", 1, "random seed")
	parallel := flag.Int("parallel", 1, "trial worker-pool size (output is bit-identical for any value)")
	shards := flag.Int("shards", 0, "recording-sink shard workers (answers are bit-identical)")
	baselines := flag.Bool("baselines", true, "also run PPM and AMS2")
	flag.Parse()

	sc := scenario.PathTrace(scenario.PathTraceSpec{
		Topo:      *topoName,
		PathLen:   *pathLen,
		Bits:      *bits,
		Instances: *instances,
		D:         *d,
		MaxPkts:   2_000_000,
		Baselines: *baselines,
	})
	s := scenario.Bench()
	s.Trials = *trials
	s.Seed = *seed
	s.Shards = *shards
	if err := s.Validate(); err != nil {
		log.Fatal(err)
	}
	res, err := scenario.Run(&sc, scenario.Options{Scale: s, Parallel: *parallel})
	if err != nil {
		log.Fatal(err)
	}
	for _, tb := range res.Tables {
		fmt.Println(tb)
	}
}

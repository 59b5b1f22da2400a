// Command pintplan compiles a set of telemetry queries and a global bit
// budget into a PINT execution plan (§3.4) and prints it, together with
// the switch pipeline layout (§5, Fig 6).
//
// Usage:
//
//	pintplan -budget 16 -queries "path:8:1,latency:8:0.9375,hpcc:8:0.0625"
//
// Each query is name:bits:frequency; names containing "path" become
// static per-flow queries, "lat" dynamic per-flow, anything else
// per-packet.
package main

import (
	"flag"
	"fmt"
	"log"
	"strconv"
	"strings"

	"repro/internal/core"
)

func main() {
	budget := flag.Int("budget", 16, "global per-packet bit budget")
	spec := flag.String("queries", "path:8:1,latency:8:0.9375,hpcc:8:0.0625",
		"comma-separated name:bits:frequency query list")
	flag.Parse()

	universe := make([]uint64, 256)
	for i := range universe {
		universe[i] = uint64(0x5A000000 + i)
	}
	var queries []core.Query
	for _, q := range strings.Split(*spec, ",") {
		parts := strings.Split(strings.TrimSpace(q), ":")
		if len(parts) != 3 {
			log.Fatalf("bad query spec %q (want name:bits:frequency)", q)
		}
		bits, err := strconv.Atoi(parts[1])
		if err != nil {
			log.Fatalf("bad bits in %q: %v", q, err)
		}
		freq, err := strconv.ParseFloat(parts[2], 64)
		if err != nil {
			log.Fatalf("bad frequency in %q: %v", q, err)
		}
		name := parts[0]
		switch {
		case strings.Contains(name, "path"):
			cfg, err := core.DefaultPathConfig(bits, 1, 10)
			if err != nil {
				log.Fatal(err)
			}
			pq, err := core.NewPathQuery(name, cfg, freq, 1, universe)
			if err != nil {
				log.Fatal(err)
			}
			queries = append(queries, pq)
		case strings.Contains(name, "lat"):
			lq, err := core.NewLatencyQuery(name, bits, 0.04, freq, 1)
			if err != nil {
				log.Fatal(err)
			}
			queries = append(queries, lq)
		default:
			uq, err := core.NewUtilQuery(name, bits, 0.025, freq, 1000, 1)
			if err != nil {
				log.Fatal(err)
			}
			queries = append(queries, uq)
		}
	}

	engine, err := core.Compile(queries, *budget, 2020)
	if err != nil {
		log.Fatalf("compile: %v", err)
	}
	fmt.Print(engine.Plan())

	layout, err := core.Layout(queries)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\npipeline: %d of %d stages used\n", layout.Stages, core.StageBudget)
	for _, col := range layout.Columns {
		fmt.Printf("  %-14s %s\n", col.Name+":", strings.Join(col.Ops, " -> "))
	}
}

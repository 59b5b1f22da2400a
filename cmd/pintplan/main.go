// Command pintplan compiles a set of telemetry queries and a global bit
// budget into a PINT execution plan (§3.4) and prints it, together with
// how many packets of a flow each query needs before it answers (the
// Appendix A bounds, at the bits and frequency given) and the switch
// pipeline layout (§5, Fig 6).
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
	"math"
	"strconv"
	"strings"

	"repro/internal/analysis"
	"repro/internal/core"
)

const (
	// hops is the path length the plan assumes: the d the path query's
	// layering is tuned for and the k of the convergence bounds.
	hops = 10
	// latencyEps is the latency query's error parameter.
	latencyEps = 0.04
	// delta is the failure probability of the high-probability bounds.
	delta = 0.01
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
			cfg, err := core.DefaultPathConfig(bits, 1, hops)
			if err != nil {
				log.Fatal(err)
			}
			pq, err := core.NewPathQuery(name, cfg, freq, 1, universe)
			if err != nil {
				log.Fatal(err)
			}
			queries = append(queries, pq)
		case strings.Contains(name, "lat"):
			lq, err := core.NewLatencyQuery(name, bits, latencyEps, freq, 1)
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

	fmt.Printf("\nconvergence (packets of one %d-hop flow until the answer):\n", hops)
	fmt.Printf("  %-14s %-9s %-9s %s\n", "query", "expected", "bound", "basis")
	for _, q := range queries {
		expected, bound, basis := convergence(q, len(universe))
		fmt.Printf("  %-14s %-9s %-9s %s\n", q.Name()+":", expected, bound, basis)
	}

	layout, err := core.Layout(queries)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\npipeline: %d of %d stages used\n", layout.Stages, core.StageBudget)
	for _, col := range layout.Columns {
		fmt.Printf("  %-14s %s\n", col.Name+":", strings.Join(col.Ops, " -> "))
	}
}

// convergence returns how many packets of a flow a query needs before it
// answers — in expectation and as a high-probability bound (probability
// 1-delta where the bound takes one), both divided by the fraction of
// packets that carry the query — and where the numbers come from.
func convergence(q core.Query, universe int) (expected, bound, basis string) {
	per := func(pkts float64) string { return strconv.Itoa(int(math.Ceil(pkts / q.Frequency()))) }
	switch q.Agg() {
	case core.StaticPerFlow:
		// A b-bit hash cuts a hop's candidate set by 2^b, so a hop needs
		// ⌈log2|universe| / b⌉ consistent digests where the theorems, stated
		// for full-width blocks, need one.
		rounds := math.Ceil(math.Log2(float64(universe)) / float64(q.Bits()))
		return per(rounds * analysis.Theorem3Packets(hops)),
			per(rounds * analysis.Lemma9Draws(hops, 1/float64(2*hops), delta)),
			fmt.Sprintf("Theorem 3 (Baseline alone: %s) / Lemma 9 at probability %g, x%g hash rounds",
				per(rounds*analysis.CouponCollectorMean(hops)), 1-delta, rounds)
	case core.DynamicPerFlow:
		return "-", per(float64(analysis.Theorem1Packets(hops, latencyEps))),
			fmt.Sprintf("Theorem 1: every hop's (phi±%g)-quantile", latencyEps)
	default:
		// Every packet that carries the query answers it: a geometric wait.
		wait := 1.0
		if f := q.Frequency(); f < 1 {
			wait = math.Log(delta) / math.Log(1-f)
		}
		return per(1), strconv.Itoa(int(math.Ceil(wait))),
			fmt.Sprintf("per-packet: the first packet that carries it / at probability %g", 1-delta)
	}
}

// Command pintfig drives the scenario registry: every paper figure and
// every non-paper scenario runs through the same declarative engine
// (internal/scenario), with trials spread over a worker pool and results
// bit-identical at any parallelism.
//
// Usage:
//
//	pintfig -list                          catalog of registered scenarios
//	pintfig -run fig10c                    one scenario
//	pintfig -run fig9,fig11                several scenarios, one shared pool
//	pintfig -run all                       everything
//	pintfig -run all -json                 machine-readable results
//	pintfig -run all -parallel 8           8 trial workers
//	pintfig -run all -scale quick          quick | bench | paper
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/scenario"
)

func main() {
	list := flag.Bool("list", false, "list registered scenarios and exit")
	run := flag.String("run", "", "scenario name(s) to run, comma-separated, or 'all'")
	scaleName := flag.String("scale", "bench", "experiment scale: quick, bench or paper")
	parallel := flag.Int("parallel", 1, "trial worker-pool size (results are bit-identical for any value)")
	jsonOut := flag.Bool("json", false, "emit results as JSON instead of tables")
	seed := flag.Uint64("seed", 0, "override the scale's random seed (0 keeps the default)")
	flag.Parse()

	if *list {
		printScenarios()
		return
	}
	if *run == "" {
		fmt.Fprintln(os.Stderr, "pintfig: nothing to do; use -list or -run <name|all>")
		flag.Usage()
		os.Exit(2)
	}

	var s scenario.Scale
	switch *scaleName {
	case "quick":
		s = scenario.Quick()
	case "bench":
		s = scenario.Bench()
	case "paper":
		s = scenario.Paper()
	default:
		log.Fatalf("unknown scale %q", *scaleName)
	}
	if *seed != 0 {
		s.Seed = *seed
	}
	if err := s.Validate(); err != nil {
		log.Fatal(err)
	}

	names := strings.Split(*run, ",")
	for i := range names {
		names[i] = strings.TrimSpace(names[i])
	}
	start := time.Now()
	results, err := scenario.RunNames(names, scenario.Options{Scale: s, Parallel: *parallel})
	if err != nil {
		log.Fatal(err)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			log.Fatal(err)
		}
	} else {
		for _, res := range results {
			fmt.Printf("# %s (%s, %d trials)\n", res.Scenario, res.Figure, res.Trials)
			for _, tb := range res.Tables {
				fmt.Println(tb)
			}
		}
	}
	fmt.Fprintf(os.Stderr, "ran %d scenario(s) at scale %s in %v (parallel=%d)\n",
		len(results), *scaleName, time.Since(start).Round(time.Millisecond), *parallel)
}

func printScenarios() {
	tb := scenario.Table{
		Title:   "Scenario catalog",
		Columns: []string{"name", "figure", "topology", "recording stack", "measures"},
	}
	for _, sc := range scenario.All() {
		tb.Rows = append(tb.Rows, []string{sc.Name, sc.Figure, sc.Topology, sc.Stack, sc.Desc})
	}
	fmt.Println(tb)
}

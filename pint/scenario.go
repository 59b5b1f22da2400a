package pint

import "repro/internal/scenario"

// The scenario API: the declarative experiment registry and its parallel,
// deterministic trial runner (internal/scenario). Downstream users can
// list and run every built-in scenario — the paper's figures and the
// non-paper workloads — or register their own Plan/Reduce pairs; results
// are bit-identical for any worker or shard count.

// Scenario declares one experiment: descriptive metadata plus a Plan
// (expand into hermetic trials at a Scale) and a Reduce (fold trial
// outputs into tables).
type Scenario = scenario.Scenario

// ScenarioTrial is one independent unit of a scenario's work.
type ScenarioTrial = scenario.Trial

// ScenarioResult is a scenario's reduced, JSON-stable output.
type ScenarioResult = scenario.Result

// Table is a printable, JSON-stable experiment result (the unit scenario
// Reduce functions emit).
type Table = scenario.Table

// ScenarioOptions configures a runner invocation (scale + worker count).
type ScenarioOptions = scenario.Options

// Scale bundles the knobs that size an experiment (durations, topology
// shape, trials, seed, recording-sink shards). See Quick/Bench/Paper.
type Scale = scenario.Scale

// QuickScale/BenchScale/PaperScale are the stock experiment sizes.
func QuickScale() Scale { return scenario.Quick() }

// BenchScale is pintfig's default size: seconds per scenario (see
// QuickScale).
func BenchScale() Scale { return scenario.Bench() }

// PaperScale approaches the paper's setup (see QuickScale).
func PaperScale() Scale { return scenario.Paper() }

// RegisterScenario adds a scenario to the registry (panics on duplicates
// or incomplete definitions — registration is an init-time act).
func RegisterScenario(sc Scenario) { scenario.Register(sc) }

// Scenarios returns every registered scenario name, sorted.
func Scenarios() []string { return scenario.Names() }

// LookupScenario returns a registered scenario by name.
func LookupScenario(name string) (*Scenario, bool) { return scenario.Lookup(name) }

// RunScenario plans, executes (across opts.Parallel workers), and reduces
// one scenario; results are bit-identical for any parallelism.
func RunScenario(sc *Scenario, opts ScenarioOptions) (*ScenarioResult, error) {
	return scenario.Run(sc, opts)
}

// RunScenarios resolves names ("all" included) and runs them over one
// shared worker pool.
func RunScenarios(names []string, opts ScenarioOptions) ([]*ScenarioResult, error) {
	return scenario.RunNames(names, opts)
}

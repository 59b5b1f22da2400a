// Package scenario is the declarative experiment engine of the
// reproduction: every paper figure — and any number of non-paper
// scenarios — is a Scenario value in a registry, executed by one shared
// Runner; no figure has any other driver.
//
// A Scenario declares what it is (name, paper figure or "new", topology,
// workload, transport, query set, recording stack) and how to run it:
//
//   - Plan expands the scenario into independent Trials at a given Scale.
//     Each trial owns all of its randomness up front — seeds are derived
//     by hash.RNG fan-out (or pure functions of the scale) during
//     planning, never drawn while trials execute;
//   - the Runner executes trials across a worker pool and stores each
//     output at its trial index;
//   - Reduce folds the indexed outputs into printable/JSON tables.
//
// Because trials are hermetic and outputs are reduced in plan order, a
// scenario's result is bit-identical for any worker count and any
// scheduling — the property the serial-vs-parallel golden tests pin for
// every registered scenario. Scenario count and core count are the two
// scaling axes: registering a new workload is writing a Plan/Reduce pair,
// and doubling the worker pool halves the wall clock without changing a
// byte of output.
//
// Scenarios that record digests encode them with the compiled Engine and
// record them into a core.Recording: the figures measure what the
// Recording and Inference modules get from the digests, not how a
// collector moves them. The collector stack (wire format, sharded sink,
// daemons) is tested by its own packages, which scenario does not import.
//
// An experiment lives in one file: its simulation or trial function, its
// trial axis and its table sit next to the Scenario that registers them
// (overhead.go, coding.go, hpcc.go, latency.go, path.go, combined.go,
// collection.go, ecmp.go, multitenant.go, ablation.go, and one file per
// system scenario). The harness they share is scale.go (Scale and its
// presets), load.go (the loaded-network simulation), record.go (the
// engine→Recording path) and table.go.
package scenario

import (
	"fmt"
	"sort"
	"sync"
)

// Trial is one independent unit of a scenario's work. Run must be
// hermetic: no shared mutable state with other trials and no randomness
// beyond what Plan baked in, so trials can execute on any worker in any
// order.
type Trial struct {
	Name string
	Run  func() (any, error)
}

// Scenario declares one experiment. The descriptive fields feed -list and
// the README catalog; Plan/Reduce define the computation.
type Scenario struct {
	// Name is the registry key (e.g. "fig10c", "route-change").
	Name string
	// Figure is the paper figure this reproduces, or "new" for scenarios
	// beyond the paper's evaluation.
	Figure string
	// Desc says what the scenario measures, in one line.
	Desc string
	// Topology/Workload/Transport/Queries/Stack describe the setup:
	// network shape, traffic, transport protocol, telemetry query set,
	// and the recording path ("engine→Recording" for scenarios that
	// record digests; transport- or coding-only studies have none).
	Topology  string
	Workload  string
	Transport string
	Queries   string
	Stack     string
	// Plan expands the scenario into trials at scale s.
	Plan func(s Scale) ([]Trial, error)
	// Reduce folds trial outputs (indexed exactly as Plan returned the
	// trials) into result tables. It runs after every trial finished.
	Reduce func(s Scale, outs []any) ([]Table, error)
}

// Setup labels several scenarios' descriptive fields share.
const (
	stackNone      = "transport sim (no recording path)"
	stackCoding    = "coding harness (no recording path)"
	stackRecording = "engine→Recording"
	leafSpineTopo  = "leaf-spine (Scale.Pods)"
	transportHPCC  = "HPCC(INT) vs HPCC(PINT)"
	transportPINTd = "HPCC(PINT)"
)

// trial is a Trial whose output type is known to its scenario.
type trial[T any] struct {
	Name string
	Run  func() (T, error)
}

// define builds a Scenario from a typed plan and reduce: every trial
// returns a T and reduce sees the outputs as a []T in plan order, so the
// assertion from the runner's []any happens once, here.
func define[T any](sc Scenario, plan func(s Scale) ([]trial[T], error), reduce func(s Scale, outs []T) ([]Table, error)) Scenario {
	sc.Plan = func(s Scale) ([]Trial, error) {
		typed, err := plan(s)
		if err != nil {
			return nil, err
		}
		trials := make([]Trial, len(typed))
		for i, t := range typed {
			trials[i] = Trial{Name: t.Name, Run: func() (any, error) { return t.Run() }}
		}
		return trials, nil
	}
	sc.Reduce = func(s Scale, outs []any) ([]Table, error) {
		typed := make([]T, len(outs))
		for i, out := range outs {
			typed[i] = out.(T)
		}
		return reduce(s, typed)
	}
	return sc
}

// Result is one scenario's reduced output: a JSON-stable, printable
// record (all table cells are strings, so serialization is byte-stable).
type Result struct {
	Scenario string  `json:"scenario"`
	Figure   string  `json:"figure"`
	Desc     string  `json:"desc,omitempty"`
	Trials   int     `json:"trials"`
	Tables   []Table `json:"tables"`
}

var (
	regMu    sync.Mutex
	registry = map[string]*Scenario{}
)

// Register adds a scenario to the registry; registering a nil Plan,
// nil Reduce, empty name, or a duplicate name is a programming error and
// panics (registration happens at init time).
func Register(sc Scenario) {
	if sc.Name == "" || sc.Plan == nil || sc.Reduce == nil {
		panic(fmt.Sprintf("scenario: incomplete registration %+v", sc.Name))
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[sc.Name]; dup {
		panic(fmt.Sprintf("scenario: duplicate registration %q", sc.Name))
	}
	registry[sc.Name] = &sc
}

// Lookup returns a registered scenario by name.
func Lookup(name string) (*Scenario, bool) {
	regMu.Lock()
	defer regMu.Unlock()
	sc, ok := registry[name]
	return sc, ok
}

// Names returns every registered scenario name, sorted.
func Names() []string {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// All returns every registered scenario in Names order.
func All() []*Scenario {
	names := Names()
	out := make([]*Scenario, len(names))
	for i, name := range names {
		out[i], _ = Lookup(name)
	}
	return out
}

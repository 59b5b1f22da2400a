package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
)

// The benchmark is declared in two files and nowhere in code:
// BENCHMARK.json at the repository root (the driver's contract: command,
// workloads, gated end-to-end metrics with bounds, per-layer metrics) and
// workloads.json beside this file (everything the contract's fixed key
// set has no room for: every size, the workload-scoped metrics that are
// reported but not gated by the driver, and each per-layer metric's
// predicted interactions).

// metricDecl is one metric as BENCHMARK.json declares it.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

// detailDecl is a workload-scoped end-to-end metric: reported and checked
// by -aa on the workloads it is declared on, but absent from the driver's
// list because the driver demands every listed metric from every workload.
type detailDecl struct {
	metricDecl
	// Floor is an absolute difference (in Unit) below which -aa never
	// flags the metric, whatever the relative bound says.
	Floor     float64  `json:"floor,omitempty"`
	Workloads []string `json:"workloads"`
}

// layerDecl records, before any measurement, which end-to-end metric a
// per-layer metric should move and where the prediction is no change.
type layerDecl struct {
	Name  string   `json:"name"`
	Call  string   `json:"call"`
	Moves []string `json:"moves"`
	Still []string `json:"still"`
}

// params sizes one workload at one scale. Fields a workload does not use
// stay zero.
type params struct {
	Shards      int `json:"shards"`
	Sessions    int `json:"sessions"`
	Flows       int `json:"flows"`         // per session
	PktsPerFlow int `json:"pkts_per_flow"` // digests generated per flow
	FrameBatch  int `json:"frame_batch"`   // packets per frame
	PktsPerRep  int `json:"pkts_per_rep"`  // count bound of one rep
	MinReps     int `json:"min_reps"`
	SetupReps   int `json:"setup_reps"`   // set-ups timed per run beyond the reps' own
	WarmupFlows int `json:"warmup_flows"` // flows per session encoded into the void during set-up
	SampleFlows int `json:"sample_flows"`
	FullQueries int `json:"full_queries"` // quiescent full /snapshot queries per rep

	PaceKpps       float64 `json:"pace_kpps"`
	CycleMs        int     `json:"cycle_ms"`
	HeavyGapMs     int     `json:"heavy_gap_ms"`
	PointPerCycle  int     `json:"point_per_cycle"`
	PointSpacingMs int     `json:"point_spacing_ms"`
	WindowBackMs   int     `json:"window_back_ms"`
	CheckpointMs   int     `json:"checkpoint_ms"`

	PreloadPkts int   `json:"preload_pkts"`
	FleetSizes  []int `json:"fleet_sizes"`

	// TraceShare scales the traced run's end-to-end pass relative to the
	// untraced one; LayerPkts sizes the per-layer calls.
	TraceShare float64 `json:"trace_share"`
	LayerPkts  int     `json:"layer_pkts"`

	DeadlineS int `json:"deadline_s"`
}

// check rejects sizes that would divide by zero or index past a slice
// somewhere far from the file that caused it.
func (p params) check() error {
	switch {
	case p.Shards < 1 || p.Sessions < 1 || p.Flows < 1 || p.PktsPerFlow < 1 || p.FrameBatch < 1:
		return fmt.Errorf("shards, sessions, flows, pkts_per_flow and frame_batch must be positive")
	case p.SampleFlows < 1 || p.DeadlineS < 1 || p.LayerPkts < 1:
		return fmt.Errorf("sample_flows, deadline_s and layer_pkts must be positive")
	case p.PaceKpps <= 0 || p.TraceShare <= 0 || p.TraceShare > 1:
		return fmt.Errorf("pace_kpps must be positive and trace_share in (0, 1]")
	case len(p.FleetSizes) != 2 || p.FleetSizes[0] < 1 || p.FleetSizes[1] < 1 || p.FleetSizes[0] == p.FleetSizes[1]:
		return fmt.Errorf("fleet_sizes must be two different positive sizes")
	}
	return nil
}

// workloadsFile mirrors workloads.json.
type workloadsFile struct {
	Host       string                       `json:"host"`
	MaxSenders int                          `json:"max_senders"`
	Workloads  map[string]map[string]params `json:"workloads"` // name → scale → sizes
	Detail     []detailDecl                 `json:"detail"`
	Layers     []layerDecl                  `json:"layers"`
}

//go:embed workloads.json
var workloadsJSON []byte

// spec is the loaded declaration.
type spec struct {
	bench benchmarkFile
	work  workloadsFile
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validName is the contract's rule for workload and metric names.
func validName(s string) bool { return nameRE.MatchString(s) }

func validUnit(s string) bool { return unitRE.MatchString(s) }

// findRoot walks up from dir to the directory holding BENCHMARK.json.
func findRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("pintbench: no BENCHMARK.json above the working directory")
		}
		dir = parent
	}
}

func loadSpec(root string) (*spec, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, fmt.Errorf("pintbench: %w", err)
	}
	return parseSpec(raw, workloadsJSON)
}

func parseSpec(benchRaw, workRaw []byte) (*spec, error) {
	var s spec
	if err := json.Unmarshal(benchRaw, &s.bench); err != nil {
		return nil, fmt.Errorf("pintbench: BENCHMARK.json: %w", err)
	}
	if err := json.Unmarshal(workRaw, &s.work); err != nil {
		return nil, fmt.Errorf("pintbench: workloads.json: %w", err)
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// validate checks what the two files must agree on: names are legal and
// used once, every workload has sizes, every scoped metric names declared
// workloads, and every per-layer metric has its interaction row.
func (s *spec) validate() error {
	seen := map[string]bool{}
	use := func(kind, name string) error {
		if !validName(name) {
			return fmt.Errorf("pintbench: %s name %q: want a letter or digit, then at most 63 of letters, digits, '_', '.', '-'", kind, name)
		}
		if seen[name] {
			return fmt.Errorf("pintbench: name %q is used twice", name)
		}
		seen[name] = true
		return nil
	}
	checkMetric := func(kind string, m metricDecl) error {
		if err := use(kind, m.Name); err != nil {
			return err
		}
		if !validUnit(m.Unit) {
			return fmt.Errorf("pintbench: %s %q: bad unit %q", kind, m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			return fmt.Errorf("pintbench: %s %q: better is %q, want lower or higher", kind, m.Name, m.Better)
		}
		return nil
	}
	workloads := map[string]bool{}
	for _, w := range s.bench.Workloads {
		if err := use("workload", w.Name); err != nil {
			return err
		}
		workloads[w.Name] = true
		scales := s.work.Workloads[w.Name]
		if _, ok := scales["full"]; !ok {
			return fmt.Errorf("pintbench: workloads.json has no full-scale sizes for %q", w.Name)
		}
		if _, ok := scales["smoke"]; !ok {
			return fmt.Errorf("pintbench: workloads.json has no smoke-scale sizes for %q", w.Name)
		}
		for scale, p := range scales {
			if err := p.check(); err != nil {
				return fmt.Errorf("pintbench: workloads.json, %s at %s scale: %w", w.Name, scale, err)
			}
		}
	}
	for name := range s.work.Workloads {
		if !workloads[name] {
			return fmt.Errorf("pintbench: workloads.json sizes %q, which BENCHMARK.json does not declare", name)
		}
	}
	hasSetup := false
	for _, m := range s.bench.EndToEnd {
		if err := checkMetric("end-to-end metric", m); err != nil {
			return err
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			return fmt.Errorf("pintbench: end-to-end metric %q: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		return fmt.Errorf("pintbench: BENCHMARK.json lacks setup_s [s, lower]")
	}
	for _, d := range s.work.Detail {
		if err := checkMetric("scoped metric", d.metricDecl); err != nil {
			return err
		}
		if len(d.Workloads) == 0 {
			return fmt.Errorf("pintbench: scoped metric %q names no workload", d.Name)
		}
		for _, w := range d.Workloads {
			if !workloads[w] {
				return fmt.Errorf("pintbench: scoped metric %q names unknown workload %q", d.Name, w)
			}
		}
	}
	layers := map[string]bool{}
	for _, l := range s.work.Layers {
		layers[l.Name] = true
	}
	for _, m := range s.bench.PerLayer {
		if err := checkMetric("per-layer metric", m); err != nil {
			return err
		}
		if !layers[m.Name] {
			return fmt.Errorf("pintbench: per-layer metric %q has no interaction row in workloads.json", m.Name)
		}
	}
	if len(layers) != len(s.bench.PerLayer) {
		return fmt.Errorf("pintbench: workloads.json has %d interaction rows for %d per-layer metrics", len(layers), len(s.bench.PerLayer))
	}
	return nil
}

// sizes returns the workload's sizes at scale.
func (s *spec) sizes(workload, scale string) (params, error) {
	p, ok := s.work.Workloads[workload][scale]
	if !ok {
		return params{}, fmt.Errorf("pintbench: no %s-scale sizes for workload %q", scale, workload)
	}
	return p, nil
}

// detailFor lists the scoped metrics declared on workload.
func (s *spec) detailFor(workload string) []detailDecl {
	var out []detailDecl
	for _, d := range s.work.Detail {
		for _, w := range d.Workloads {
			if w == workload {
				out = append(out, d)
			}
		}
	}
	return out
}

func (s *spec) workloadNames() []string {
	out := make([]string, len(s.bench.Workloads))
	for i, w := range s.bench.Workloads {
		out[i] = w.Name
	}
	return out
}

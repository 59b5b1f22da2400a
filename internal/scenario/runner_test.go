package scenario

import (
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
)

// syntheticScenario builds a scenario of n trials whose outputs encode
// their trial index, to pin runner ordering semantics without simulation
// cost.
func syntheticScenario(name string, n int, fail int) Scenario {
	return Scenario{
		Name:   name,
		Figure: "new",
		Desc:   "runner test scenario",
		Plan: func(s Scale) ([]Trial, error) {
			var trials []Trial
			for i := 0; i < n; i++ {
				i := i
				trials = append(trials, Trial{
					Name: fmt.Sprintf("t%d", i),
					Run: func() (any, error) {
						if i == fail {
							return nil, fmt.Errorf("boom at %d", i)
						}
						return i * i, nil
					},
				})
			}
			return trials, nil
		},
		Reduce: func(s Scale, outs []any) ([]Table, error) {
			t := Table{Title: "synthetic", Columns: []string{"i", "sq"}}
			for i, out := range outs {
				t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", i), fmt.Sprintf("%d", out.(int))})
			}
			return []Table{t}, nil
		},
	}
}

func TestRunnerOutputsIndexedByPlanOrder(t *testing.T) {
	sc := syntheticScenario("synth", 64, -1)
	for _, par := range []int{1, 3, 16} {
		res, err := Run(&sc, Options{Scale: Quick(), Parallel: par})
		if err != nil {
			t.Fatal(err)
		}
		if res.Trials != 64 {
			t.Fatalf("parallel=%d: %d trials", par, res.Trials)
		}
		for i, row := range res.Tables[0].Rows {
			if row[1] != fmt.Sprintf("%d", i*i) {
				t.Fatalf("parallel=%d: row %d out of order: %v", par, i, row)
			}
		}
	}
}

func TestRunnerDeterministicError(t *testing.T) {
	sc := syntheticScenario("synth-fail", 64, 17)
	for _, par := range []int{1, 8} {
		_, err := Run(&sc, Options{Scale: Quick(), Parallel: par})
		if err == nil || !strings.Contains(err.Error(), "t17") {
			t.Fatalf("parallel=%d: want trial t17 failure, got %v", par, err)
		}
	}
}

func TestRunnerValidatesScale(t *testing.T) {
	sc := syntheticScenario("synth-scale", 4, -1)
	bad := Quick()
	bad.Trials = 0
	if _, err := Run(&sc, Options{Scale: bad}); err == nil {
		t.Fatal("invalid Trials accepted")
	}
	if _, err := Run(&sc, Options{Scale: Quick(), Parallel: MaxParallel + 1}); err == nil {
		t.Fatal("oversized Parallel accepted")
	}
}

func TestRunManySharesThePool(t *testing.T) {
	var live, peak atomic.Int64
	mk := func(name string) Scenario {
		return Scenario{
			Name: name, Figure: "new",
			Plan: func(s Scale) ([]Trial, error) {
				var trials []Trial
				for i := 0; i < 8; i++ {
					trials = append(trials, Trial{Name: "t", Run: func() (any, error) {
						n := live.Add(1)
						for {
							p := peak.Load()
							if n <= p || peak.CompareAndSwap(p, n) {
								break
							}
						}
						live.Add(-1)
						return 0, nil
					}})
				}
				return trials, nil
			},
			Reduce: func(s Scale, outs []any) ([]Table, error) {
				return []Table{{Title: name}}, nil
			},
		}
	}
	a, b := mk("pool-a"), mk("pool-b")
	res, err := RunMany([]*Scenario{&a, &b}, Options{Scale: Quick(), Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[0].Scenario != "pool-a" || res[1].Scenario != "pool-b" {
		t.Fatalf("result order wrong: %+v", res)
	}
	if peak.Load() > 4 {
		t.Fatalf("pool exceeded Parallel: peak %d", peak.Load())
	}
}

// TestRunNamesResolution pins how a name list becomes a run: a set in
// first-mention order, "all" expanding to whatever is not yet listed.
func TestRunNamesResolution(t *testing.T) {
	rest := func(first string) []string { // first, then every other name in Names order
		out := []string{first}
		for _, name := range Names() {
			if name != first {
				out = append(out, name)
			}
		}
		return out
	}
	for _, tc := range []struct {
		names   []string
		want    []string
		wantErr string
	}{
		{names: []string{"fig1", "all"}, want: rest("fig1")},
		{names: []string{"all", "fig1"}, want: Names()},
		{names: []string{"fig1", "fig1"}, want: []string{"fig1"}},
		{names: []string{"fig9", "fig1"}, want: []string{"fig9", "fig1"}},
		{names: []string{"fig1", ""}, wantErr: "empty name at position 2"},
		{names: nil, wantErr: "nothing to run"},
	} {
		scs, err := resolveNames(tc.names)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("resolveNames(%q): error %v, want it to contain %q", tc.names, err, tc.wantErr)
			}
			if err != nil && strings.Contains(err.Error(), `unknown scenario ""`) {
				t.Errorf("resolveNames(%q) looked the empty name up: %v", tc.names, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("resolveNames(%q): %v", tc.names, err)
			continue
		}
		got := make([]string, len(scs))
		for i, sc := range scs {
			got[i] = sc.Name
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("resolveNames(%q) = %v, want %v", tc.names, got, tc.want)
		}
	}
}

func TestRegistryShape(t *testing.T) {
	names := Names()
	if len(names) < 16 {
		t.Fatalf("registry holds only %d scenarios: %v", len(names), names)
	}
	for i := 1; i < len(names); i++ {
		if names[i] <= names[i-1] {
			t.Fatalf("names not sorted at %d: %v", i, names)
		}
	}
	// Every paper figure and the required non-paper scenarios are present.
	for _, want := range []string{
		"fig1", "fig5", "medians", "fig7a", "fig7b", "fig7c", "fig8", "fig9",
		"fig10a", "fig10b", "fig10c", "fig11", "collection",
		"route-change", "ecmp-imbalance", "multi-tenant", "pathtrace",
		"ablation-hash-vs-fragment", "ablation-multi-instance", "ablation-lnc",
		"ablation-epsilon", "loop-detect",
	} {
		if _, ok := Lookup(want); !ok {
			t.Fatalf("scenario %q missing from registry", want)
		}
	}
	newCount := 0
	for _, sc := range All() {
		if sc.Figure == "new" {
			newCount++
		}
		if sc.Desc == "" {
			t.Fatalf("scenario %q has no description", sc.Name)
		}
	}
	if newCount < 3 {
		t.Fatalf("only %d non-paper scenarios registered", newCount)
	}
	if _, err := runByName("no-such-scenario", Options{Scale: Quick()}); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

func TestRegisterRejectsDuplicatesAndIncomplete(t *testing.T) {
	expectPanic := func(name string, sc Scenario) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: Register did not panic", name)
			}
		}()
		Register(sc)
	}
	dup := syntheticScenario("fig5", 1, -1) // already registered by the catalog
	expectPanic("duplicate", dup)
	expectPanic("incomplete", Scenario{Name: "half-baked"})
}

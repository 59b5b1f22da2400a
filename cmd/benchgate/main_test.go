package main

import (
	"os"
	"path/filepath"
	"testing"
)

func writeBench(t *testing.T, name, body string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestParseKeepsCpuVariants(t *testing.T) {
	p := writeBench(t, "bench.txt", `
goos: linux
BenchmarkA          	 1000	 100.0 ns/op	 0 B/op
BenchmarkA          	 1000	 110.0 ns/op	 0 B/op
BenchmarkPar/s=1    	  500	 200.0 ns/op
BenchmarkPar/s=1-2  	  500	 150.0 ns/op
BenchmarkPar/s=1-4  	  500	 120.0 ns/op
not a benchmark line
`)
	got, _, err := parse(p)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(got["BenchmarkA"][""]); n != 2 {
		t.Fatalf("BenchmarkA samples = %d, want 2", n)
	}
	par := got["BenchmarkPar/s=1"]
	if len(par) != 3 || len(par[""]) != 1 || len(par["-2"]) != 1 || len(par["-4"]) != 1 {
		t.Fatalf("cpu variants not kept: %+v", par)
	}
}

func TestFlattenCollapsesSingleCpuStripsAcrossMachines(t *testing.T) {
	// Baseline from an 8-core runner, fresh run from a 4-core one: a
	// single-variant benchmark must key by bare name in both.
	old := map[string]map[string][]float64{
		"BenchmarkA": {"-8": {100}},
	}
	fresh := map[string]map[string][]float64{
		"BenchmarkA": {"-4": {105}},
	}
	fo, fn := flatten(old, fresh)
	if _, ok := fo["BenchmarkA"]; !ok {
		t.Fatalf("old not collapsed: %+v", fo)
	}
	if _, ok := fn["BenchmarkA"]; !ok {
		t.Fatalf("new not collapsed: %+v", fn)
	}
}

func TestFlattenKeepsPerCpuCellsForScalingCurves(t *testing.T) {
	// A -cpu 1,2,4 run: each cpu count is its own gate cell, and the
	// suffixless GOMAXPROCS=1 row renders as "-1".
	old := map[string]map[string][]float64{
		"BenchmarkPar": {"": {300}, "-2": {170}, "-4": {100}},
	}
	fresh := map[string]map[string][]float64{
		"BenchmarkPar": {"": {300}, "-2": {165}, "-4": {240}},
	}
	fo, fn := flatten(old, fresh)
	for _, key := range []string{"BenchmarkPar-1", "BenchmarkPar-2", "BenchmarkPar-4"} {
		if len(fo[key]) != 1 || len(fn[key]) != 1 {
			t.Fatalf("missing per-cpu cell %s: old %+v new %+v", key, fo, fn)
		}
	}
	// The contention regression is visible in its own cell, not diluted
	// into a healthy median across cpu counts.
	if ratio := fn["BenchmarkPar-4"][0] / fo["BenchmarkPar-4"][0]; ratio < 2 {
		t.Fatalf("per-cpu cell lost the regression: ratio %.2f", ratio)
	}
}

// TestFlattenMultiInOneFileOnly pins the asymmetric case: when only one
// file has several cpu variants, both sides go per-cpu so the shared
// cells still line up.
func TestFlattenMultiInOneFileOnly(t *testing.T) {
	old := map[string]map[string][]float64{
		"BenchmarkPar": {"-2": {170}},
	}
	fresh := map[string]map[string][]float64{
		"BenchmarkPar": {"-2": {180}, "-4": {120}},
	}
	fo, fn := flatten(old, fresh)
	if len(fo["BenchmarkPar-2"]) != 1 {
		t.Fatalf("old side not per-cpu: %+v", fo)
	}
	if len(fn["BenchmarkPar-2"]) != 1 || len(fn["BenchmarkPar-4"]) != 1 {
		t.Fatalf("new side cells: %+v", fn)
	}
}

// TestAllocationGate: allocs/op is parsed where -benchmem printed it, and
// a benchmark that the baseline holds at 0 allocs/op fails the gate as
// soon as its fresh median is above 0 — per cpu cell, and only then.
func TestAllocationGate(t *testing.T) {
	base := writeBench(t, "base.txt", `
BenchmarkSinkIngest/serial   1000000   220.0 ns/op   4.5 Mpkt/s   3 B/op   0 allocs/op
BenchmarkSinkIngest/serial   1000000   221.0 ns/op   4.5 Mpkt/s   3 B/op   0 allocs/op
BenchmarkSinkIngest/serial   1000000   222.0 ns/op   4.5 Mpkt/s   4 B/op   1 allocs/op
BenchmarkPar/s=1             500       200.0 ns/op   64 B/op   0 allocs/op
BenchmarkPar/s=1-4           500       120.0 ns/op   64 B/op   0 allocs/op
BenchmarkAlways              1000      100.0 ns/op   48 B/op   2 allocs/op
BenchmarkNoMem               1000      100.0 ns/op
`)
	fresh := writeBench(t, "fresh.txt", `
BenchmarkSinkIngest/serial   1000000   220.0 ns/op   4.5 Mpkt/s   19 B/op   1 allocs/op
BenchmarkPar/s=1             500       200.0 ns/op   64 B/op   0 allocs/op
BenchmarkPar/s=1-4           500       120.0 ns/op   96 B/op   3 allocs/op
BenchmarkAlways              1000      100.0 ns/op   480 B/op   20 allocs/op
BenchmarkNoMem               1000      100.0 ns/op
`)
	_, oldAllocs, err := parse(base)
	if err != nil {
		t.Fatal(err)
	}
	_, newAllocs, err := parse(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := oldAllocs["BenchmarkNoMem"]; ok {
		t.Fatal("a line without an allocs/op column produced an allocation sample")
	}
	if got := oldAllocs["BenchmarkSinkIngest/serial"][""]; len(got) != 3 || median(got) != 0 {
		t.Fatalf("baseline SinkIngest allocs = %v, want three samples with median 0", got)
	}
	oldA, newA := flatten(oldAllocs, newAllocs)
	got := allocRegressions(oldA, newA)
	want := []string{"BenchmarkPar/s=1-4", "BenchmarkSinkIngest/serial"}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("allocation regressions = %v, want %v", got, want)
	}
	if again := allocRegressions(oldA, oldA); len(again) != 0 {
		t.Fatalf("a file gated against itself fails: %v", again)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Fatalf("even median = %v", m)
	}
}

package scenario

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the scenario golden files")

func marshalResult(t *testing.T, res *Result) []byte {
	t.Helper()
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// TestSerialVsParallelGolden is the registry's determinism contract:
// every registered scenario, at quick scale, produces byte-identical JSON
// under -parallel 1 and -parallel 8, and matches the committed golden
// file (refresh with `go test ./internal/scenario -run Golden -update`).
func TestSerialVsParallelGolden(t *testing.T) {
	serial, err := RunNames([]string{"all"}, Options{Scale: Quick(), Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunNames([]string{"all"}, Options{Scale: Quick(), Parallel: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("result counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		name := serial[i].Scenario
		sb := marshalResult(t, serial[i])
		pb := marshalResult(t, parallel[i])
		if !bytes.Equal(sb, pb) {
			t.Errorf("%s: serial and parallel runs differ:\nserial:   %s\nparallel: %s", name, sb, pb)
			continue
		}
		golden := filepath.Join("testdata", name+".golden.json")
		if *updateGolden {
			if err := os.WriteFile(golden, sb, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Errorf("%s: missing golden file (run with -update): %v", name, err)
			continue
		}
		if !bytes.Equal(sb, want) {
			t.Errorf("%s: output differs from %s\ngot:  %s\nwant: %s", name, golden, sb, want)
		}
	}
}

// TestRegistryHygiene keeps the registry's two satellites in step with it:
// every committed golden belongs to a registered scenario (a renamed or
// deleted scenario must take its golden with it), and README's "Scenario
// catalog" table has a row for every registered scenario.
func TestRegistryHygiene(t *testing.T) {
	goldens, err := filepath.Glob(filepath.Join("testdata", "*.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range goldens {
		name := strings.TrimSuffix(filepath.Base(g), ".golden.json")
		if _, ok := Lookup(name); !ok {
			t.Errorf("%s: no scenario %q is registered; delete or rename the golden", g, name)
		}
	}
	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, catalog, found := strings.Cut(string(readme), "### Scenario catalog\n")
	if !found {
		t.Fatal("README.md has no \"### Scenario catalog\" section")
	}
	if next := strings.Index(catalog, "\n#"); next >= 0 {
		catalog = catalog[:next]
	}
	for _, name := range Names() {
		if !strings.Contains(catalog, "| `"+name+"` |") {
			t.Errorf("README.md's scenario catalog has no row for %q", name)
		}
	}
	for _, line := range strings.Split(catalog, "\n") {
		row, ok := strings.CutPrefix(line, "| `")
		if !ok {
			continue
		}
		name, _, _ := strings.Cut(row, "`")
		if _, ok := Lookup(name); !ok {
			t.Errorf("README.md's scenario catalog has a row for %q, which is not registered", name)
		}
	}
}

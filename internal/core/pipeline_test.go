package core

import (
	"testing"
)

func TestStageCostPerAggregation(t *testing.T) {
	uni := testUniverse(5, 50)
	path := mustPath(t, "p", 8, 1, 1, uni)
	lat := mustLat(t, "l", 8, 1)
	util := mustUtil(t, "u", 8, 1)
	if StageCost(path) != 4 {
		t.Fatalf("path stages = %d, want 4 (§5)", StageCost(path))
	}
	if StageCost(lat) != 4 {
		t.Fatalf("latency stages = %d, want 4 (§5)", StageCost(lat))
	}
	if StageCost(util) != 8 {
		t.Fatalf("HPCC stages = %d, want 8 (§5: 6 arithmetic + compress + write)",
			StageCost(util))
	}
}

func TestLayoutColumnsMatchStageCost(t *testing.T) {
	uni := testUniverse(5, 50)
	path := mustPath(t, "p", 8, 1, 1, uni)
	util := mustUtil(t, "u", 8, 1)
	l, err := Layout([]Query{path, util})
	if err != nil {
		t.Fatal(err)
	}
	// One column per query in the order given, then the selector.
	if len(l.Columns) != 3 || l.Columns[0].Name != "p" || l.Columns[1].Name != "u" || l.Columns[2].Name != "query-select" {
		t.Fatalf("columns %+v, want p, u, query-select in that order", l.Columns)
	}
	if got := len(l.Columns[0].Ops); got != StageCost(path) {
		t.Fatalf("path column has %d ops, want %d", got, StageCost(path))
	}
	if got := len(l.Columns[1].Ops); got != StageCost(util) {
		t.Fatalf("util column has %d ops, want %d", got, StageCost(util))
	}
}

func TestLayoutSingleQueryNoSelector(t *testing.T) {
	uni := testUniverse(5, 50)
	path := mustPath(t, "p", 8, 1, 1, uni)
	l, err := Layout([]Query{path})
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Columns) != 1 || l.Columns[0].Name != "p" {
		t.Fatalf("columns %+v: a single query needs no subset selection stage", l.Columns)
	}
}

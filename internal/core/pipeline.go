package core

import "fmt"

// This file models the switch pipeline layout of §5 / Fig 6: hardware
// pipelines have a small fixed number of match-action stages, queries
// consume stages, and independent queries execute in parallel so a
// combination costs only as many stages as its deepest member (plus the
// query-subset selection, which overlaps HPCC's deep pipeline).

// StageBudget is the stage count of the modeled switch (Fig 6 shows 8).
const StageBudget = 8

// StageCost returns the pipeline depth of one query, per §5:
// path tracing 4 (choose layer, compute g, hash ID, write digest),
// latency 4 (compute latency, compress, compute g, write),
// HPCC congestion control 8 (6 arithmetic stages + compress + write).
func StageCost(q Query) int {
	switch q.Agg() {
	case StaticPerFlow:
		return 4
	case DynamicPerFlow:
		return 4
	case PerPacket:
		return 8
	default:
		return StageBudget
	}
}

// PipelineLayout describes how a query combination maps onto stages.
type PipelineLayout struct {
	Stages int
	// Columns holds each query's per-stage operation labels, in the order
	// the queries were given; the "query-select" column, when there is
	// one, comes last.
	Columns []struct {
		Name string
		Ops  []string
	}
}

func (l *PipelineLayout) addColumn(name string, ops []string) {
	l.Columns = append(l.Columns, struct {
		Name string
		Ops  []string
	}{name, ops})
}

// Layout computes the parallel layout for a set of queries (Fig 6): each
// query occupies its own column of stages, the deepest column sets the
// total, and the plan's query-subset choice is computed concurrently with
// the deep column — so combining the three use cases still fits in
// StageBudget. It errors if any single query exceeds the budget.
func Layout(queries []Query) (PipelineLayout, error) {
	var l PipelineLayout
	for _, q := range queries {
		cost := StageCost(q)
		if cost > StageBudget {
			return PipelineLayout{}, fmt.Errorf("core: query %q needs %d stages (> %d)",
				q.Name(), cost, StageBudget)
		}
		if cost > l.Stages {
			l.Stages = cost
		}
		l.addColumn(q.Name(), stageOps(q))
	}
	if len(queries) > 1 {
		// The query-subset selection runs in a spare column alongside the
		// deepest query; it costs one stage but never extends the total
		// because every combination already includes a >= 2-stage query.
		l.addColumn("query-select", []string{"choose a query subset"})
	}
	return l, nil
}

func stageOps(q Query) []string {
	switch q.Agg() {
	case StaticPerFlow:
		return []string{"choose layer", "compute g", "hash switch ID", "write digest"}
	case DynamicPerFlow:
		return []string{"compute latency", "value compression", "compute g", "write digest"}
	case PerPacket:
		return []string{
			"HPCC arithmetics", "HPCC arithmetics", "HPCC arithmetics",
			"HPCC arithmetics", "HPCC arithmetics", "HPCC arithmetics",
			"value compression", "write digest",
		}
	default:
		return nil
	}
}

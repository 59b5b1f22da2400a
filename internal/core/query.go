// Package core implements the PINT framework itself (§3): queries with
// per-packet bit budgets, the Query Engine that compiles a set of
// concurrent queries plus a global budget into an execution plan (a
// probability distribution over query sets), the switch-side Encoding
// Modules for all three aggregation types, and the sink-side Recording and
// Inference Modules.
//
// The three aggregation modes (§3.1) map to three Query implementations:
//
//   - PathQuery (static per-flow): distributed coding over switch IDs,
//   - LatencyQuery (dynamic per-flow): reservoir-sampled compressed
//     per-hop values, recorded into quantile sketches,
//   - UtilQuery (per-packet): max-aggregated compressed bottleneck values
//     (the congestion-control feed, §4.3 Example #3).
//
// The encode path is compiled (program.go) and runs as op-major column
// passes (soa.go) over the SIMD-friendly hash kernels of internal/kernels,
// for every batch size. README.md's "Hot path anatomy" section is the map
// of that machinery.
package core

import (
	"fmt"

	"repro/internal/hash"
)

// AggregationType enumerates §3.1's modes.
type AggregationType int

const (
	// PerPacket summarizes values across the packet's path (max/min/sum).
	PerPacket AggregationType = iota
	// StaticPerFlow recovers per-(flow,switch) constants, e.g. the path.
	StaticPerFlow
	// DynamicPerFlow summarizes the stream of values per (flow, switch).
	DynamicPerFlow
)

func (a AggregationType) String() string {
	switch a {
	case PerPacket:
		return "per-packet"
	case StaticPerFlow:
		return "static per-flow"
	case DynamicPerFlow:
		return "dynamic per-flow"
	default:
		return fmt.Sprintf("AggregationType(%d)", int(a))
	}
}

// Query is one telemetry query compiled into the execution plan: what the
// Query Engine needs to place it (name, aggregation type, bit budget,
// frequency). The query universe is closed — Compile lowers each of the
// three kinds to an op (program.go) — and the switch-side Encoding Module is
// that op's column pass in soa.go: it transforms only the query's slice of
// the packet digest and is stateless per the switch constraints of §3.5
// (all state lives in the global hash family and the digest itself).
type Query interface {
	// Name identifies the query in plans and reports.
	Name() string
	// Agg returns the aggregation type.
	Agg() AggregationType
	// Bits is the query's per-packet bit budget.
	Bits() int
	// Frequency is the fraction of packets that must serve this query.
	Frequency() float64
}

// FlowKey identifies a flow at the Recording Module (the query's
// flow-definition — 5-tuple, source IP, etc. — hashed to 64 bits).
type FlowKey uint64

// FlowKeyOf derives a key from a flow definition string.
func FlowKeyOf(s hash.Seed, def string) FlowKey {
	return FlowKey(s.HashString(def))
}

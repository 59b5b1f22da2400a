// Package pint is the public API of this PINT reproduction (Ben Basat et
// al., "PINT: Probabilistic In-band Network Telemetry", SIGCOMM 2020).
//
// PINT answers telemetry queries — "what path do this flow's packets
// take?", "what is the median latency at each hop?", "how utilized is the
// bottleneck link?" — while adding only a fixed, user-chosen number of
// bits to each packet (as low as one). Instead of stacking per-hop
// records like classic INT, switches probabilistically fold their
// information into a constant-width digest coordinated by global hash
// functions, and an offline Inference Module reconstructs the answers
// from many packets.
//
// # Quick start
//
//	universe := []uint64{...}                 // all switch IDs
//	cfg, _ := pint.DefaultPathConfig(8, 1, 10) // 8-bit budget, d=10
//	q, _ := pint.NewPathQuery("path", cfg, 1.0, seed, universe)
//	engine, _ := pint.Compile([]pint.Query{q}, 8, seed)
//
//	// On each switch (hop h), for the packets it forwards:
//	pkts := []pint.PacketDigest{{Flow: flowKey, PktID: pktID, PathLen: pathLen}, ...}
//	vals := []pint.HopValues{{SwitchID: mySwitchID}, ...}
//	engine.EncodeHopBatch(h, pkts, vals) // rewrites pkts[i].Digest in place
//
//	// At the sink:
//	rec, _ := pint.NewRecording(engine, 0, rng)
//	rec.RecordBatch(pkts)
//	ids, done := rec.Path(q, flowKey)
//
// A latency query (NewLatencyQuery, answered by LatencyQuantile) and a
// utilization query (NewUtilQuery, answered by UtilSeries) compile into the
// same engine; the switch fills HopValues.LatencyNs and HopValues.Util for
// them. These three are the whole query universe, one per aggregation mode.
//
// EncodeHopBatch is the one encode path: the compiled plan run as column
// passes over the batch, with no interface dispatch, no closures and zero
// per-packet allocations, at every batch size (Engine.EncodeHopValues is
// its one-packet form for a simulator's per-dequeue hook).
//
// # Sharded sink
//
// Sink-side recording shards across cores with answers bit-identical to
// the serial path:
//
//	sink, _ := pint.NewShardedSink(engine, pint.ShardConfig{Shards: 8, Base: seed})
//	sink.Ingest(pkts)
//	_ = sink.Close()
//	ids, done := sink.Recording(flow).Path(q, flow)
//
// The sink runs as a long-lived collector: digest batches travel
// switch→collector in a compact wire format (AppendMarshalDigests /
// AppendUnmarshalDigests), and Snapshot() answers queries concurrently
// with ingestion. A flow's state stays until a fleet resize hands it to
// another collector; nothing else retires it:
//
//	sink, _ := pint.NewShardedSink(engine, pint.ShardConfig{Shards: 8, Base: seed})
//	sink.Ingest(pkts)                   // from the tap, forever
//	rec, _ := sink.Snapshot().Merged() // from any goroutine, no flush needed
//	ids, done := rec.Path(q, flow)
//	one := sink.SnapshotFlows([]pint.FlowKey{flow}) // cost of one flow, not of the sink
//
// # Collector daemon and multi-tenant QoS
//
// NewCollector wraps a sink in the streaming collector daemon — TCP
// exporter sessions, versioned /stats, durable segment logs — configured
// through functional options:
//
//	policy, _ := pint.ParseTenantPolicy("hog=50000,*=1e6")
//	srv, _ := pint.NewCollector(engine,
//	    pint.WithSink(sink),
//	    pint.WithQueries(q),
//	    pint.WithTenantPolicy(policy),
//	)
//
// The switch side opens its session with Connect — the one exporter
// constructor, for a single collector (WithAddrs) and for a fleet
// (WithFleetMap) alike:
//
//	ex, _ := pint.Connect(engine, switchID, "tor-3-2", pint.WithAddrs("collector:9777"))
//	ex.Send(pkts)
//
// A tenant policy turns overload into accuracy instead of backpressure:
// each session's handshake names a tenant, an over-quota tenant's frames
// are thinned to a known per-tenant sampling rate p, and /stats publishes
// the resulting error envelope (count answers scale by 1/p; quantile
// answers gain a bounded rank error). In-quota tenants are untouched —
// their answers stay byte-identical to an unpoliced collector. See
// TenantPolicy, TenantStats and CapacityConfig.
//
// # Elastic fleet
//
// Collectors federate into fleets that resize live: an epoch-versioned
// FleetMap names the members, Connect routes each flow to its
// rendezvous-hash home (and re-homes mid-stream when the map's epoch
// moves), and a resize hands the moving flows' complete recording state
// to their new homes with zero loss — answers stay byte-identical to a
// fleet started at the new membership. See FleetMap, Connect,
// NewFrontend, and the runnable ExampleNewFrontend; federation.go in
// this package documents the invariants.
//
// The subpackages referenced here live under internal/; this package
// re-exports everything a downstream user needs.
package pint

import (
	"repro/internal/coding"
	"repro/internal/core"
	"repro/internal/hash"
	"repro/internal/pipeline"
	"repro/internal/wire"
)

// Seed identifies a deployment-wide global hash family. All switches and
// the inference plane must share it.
type Seed = hash.Seed

// RNG is the deterministic random generator used by recording-side
// sketches.
type RNG = hash.RNG

// NewRNG seeds an RNG.
func NewRNG(seed uint64) *RNG { return hash.NewRNG(seed) }

// Query is one telemetry query; see NewPathQuery, NewLatencyQuery and
// NewUtilQuery for the three aggregation modes of §3.1.
type Query = core.Query

// AggregationType enumerates the aggregation modes.
type AggregationType = core.AggregationType

// Aggregation modes.
const (
	PerPacket      = core.PerPacket
	StaticPerFlow  = core.StaticPerFlow
	DynamicPerFlow = core.DynamicPerFlow
)

// PathQuery recovers a flow's path (static per-flow aggregation).
type PathQuery = core.PathQuery

// LatencyQuery estimates per-hop latency quantiles (dynamic per-flow).
type LatencyQuery = core.LatencyQuery

// UtilQuery tracks the path's bottleneck utilization (per-packet).
type UtilQuery = core.UtilQuery

// CodingConfig configures a static query's distributed coding scheme.
type CodingConfig = coding.Config

// Layering distributes packets across Baseline and XOR coding layers.
type Layering = coding.Layering

// MultiLayer builds Algorithm 1's layering for assumed path length d.
func MultiLayer(d int, revised bool) Layering { return coding.MultiLayer(d, revised) }

// DefaultPathConfig returns the standard hashed-mode path-tracing setup:
// bits per hash instance, instance count, assumed path length d.
func DefaultPathConfig(bits, instances, d int) (CodingConfig, error) {
	return core.DefaultPathConfig(bits, instances, d)
}

// NewPathQuery creates a path-tracing query over a switch-ID universe.
func NewPathQuery(name string, cfg CodingConfig, freq float64, seed Seed, universe []uint64) (*PathQuery, error) {
	return core.NewPathQuery(name, cfg, freq, seed, universe)
}

// NewLatencyQuery creates a latency-quantile query with the given digest
// budget and multiplicative compression error eps.
func NewLatencyQuery(name string, bits int, eps, freq float64, seed Seed) (*LatencyQuery, error) {
	return core.NewLatencyQuery(name, bits, eps, freq, seed)
}

// NewUtilQuery creates a bottleneck-utilization query.
func NewUtilQuery(name string, bits int, eps, freq, scale float64, seed Seed) (*UtilQuery, error) {
	return core.NewUtilQuery(name, bits, eps, freq, scale, seed)
}

// Engine coordinates compiled queries between switches and the sink.
type Engine = core.Engine

// ExecutionPlan is the compiled distribution over query sets (§3.4).
type ExecutionPlan = core.ExecutionPlan

// Compile builds an execution plan for concurrent queries under a global
// per-packet bit budget.
func Compile(queries []Query, globalBits int, seed Seed) (*Engine, error) {
	return core.Compile(queries, globalBits, seed)
}

// Recording is the sink-side Recording + Inference module.
type Recording = core.Recording

// NewRecording creates a Recording module; sketchItems > 0 stores latency
// samples in KLL sketches of that accuracy parameter instead of raw lists.
func NewRecording(engine *Engine, sketchItems int, rng *RNG) (*Recording, error) {
	return core.NewRecording(engine, sketchItems, rng)
}

// NewRecordingSeeded creates a Recording module whose sketch randomness
// derives entirely from base, making per-flow answers independent of
// cross-flow arrival order (the contract the sharded sink relies on).
func NewRecordingSeeded(engine *Engine, sketchItems int, base Seed) (*Recording, error) {
	return core.NewRecordingSeeded(engine, sketchItems, base)
}

// HopValues carries everything a switch observes at one hop, one field per
// query kind — the input of the encode path (Engine.EncodeHopBatch /
// Engine.EncodeHopValues).
type HopValues = core.HopValues

// PacketDigest is one packet's telemetry state in the batch pipeline: its
// flow, path length, packet ID and digest. Engine.EncodeHopBatch rewrites
// Digest in place; Recording.RecordBatch and ShardedSink.Ingest consume it.
type PacketDigest = core.PacketDigest

// Extracted is one query's digest slice recovered at the sink; see
// Engine.ExtractInto.
type Extracted = core.Extracted

// ShardedSink is the multi-core sink: packets shard by flow key across a
// worker pool of per-shard Recordings, with answers bit-identical to the
// serial path for the same ShardConfig.Base (see internal/pipeline).
type ShardedSink = pipeline.Sink

// ShardConfig shapes a ShardedSink: shard count, batch size, queue depth,
// latency sketch size, and the shared sketch seed base.
type ShardConfig = pipeline.Config

// NewShardedSink builds a sharded sink over an engine and starts its
// workers. Feed it with Ingest; read answers from Recording(flow) after
// Close, or from Snapshot().Merged() at any time.
func NewShardedSink(engine *Engine, cfg ShardConfig) (*ShardedSink, error) {
	return pipeline.NewSink(engine, cfg)
}

// Snapshot is a point-in-time view of a ShardedSink's state: Merged folds
// it into one Recording that answers concurrently with ingestion, without
// a global flush. It owns everything that is mutated in place (decoders,
// sketches) and shares with the live shards only the append-only
// per-packet series, as length-and-capacity-clamped prefixes neither side
// can write through — so taking one costs in flows, not packets
// (SnapshotFlows: in the flows asked for). Queries only read the merged
// Recording, so any number of goroutines may ask it at once.
type Snapshot = pipeline.Snapshot

// AppendMarshalDigests appends a PacketDigest batch, encoded in the
// versioned switch→collector wire format (see internal/wire's package
// doc), to dst (nil or a reused buffer).
func AppendMarshalDigests(dst []byte, batch []PacketDigest) ([]byte, error) {
	return wire.AppendMarshal(dst, batch)
}

// AppendUnmarshalDigests decodes a wire-format batch, appending to dst
// (nil or a reused buffer); malformed input errors, never panics.
func AppendUnmarshalDigests(dst []PacketDigest, data []byte) ([]PacketDigest, error) {
	return wire.AppendUnmarshal(dst, data)
}

// FlowKey identifies a flow at the Recording module.
type FlowKey = core.FlowKey

// FlowKeyOf derives a FlowKey from a flow definition string.
func FlowKeyOf(seed Seed, def string) FlowKey { return core.FlowKeyOf(seed, def) }

// LoopDetector is the routing-loop detection extension (Appendix A.4).
type LoopDetector = core.LoopDetector

// NewLoopDetector builds a loop detector with digest width bits and
// confirmation threshold T.
func NewLoopDetector(bits int, T uint64, seed Seed) (*LoopDetector, error) {
	return core.NewLoopDetector(bits, T, seed)
}

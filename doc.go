// Package repro is a from-scratch Go reproduction of "PINT: Probabilistic
// In-band Network Telemetry" (Ben Basat et al., SIGCOMM 2020).
//
// The engine is internal/core: the Query Engine, the Encoding Module and
// the Recording/Inference pair of the paper's §3.4; examples/ drives it
// directly. README.md is the tour: the quick start, the package map, and
// one section per tier below.
//
//   - The compiled batch/sharded pipeline runs the per-packet hot path.
//   - The streaming collector (internal/pipeline, internal/wire) keeps
//     each flow's state until a fleet resize hands it to another collector
//     (nothing else retires a flow), defines the digest wire format and
//     answers snapshot queries.
//   - The networked collector daemon (internal/collector, run by cmd/pintd
//     with cmd/pintload as its load generator) takes framed TCP ingest
//     from many exporters. Each connection is a parallel ingest pipeline
//     that fused-decodes frames straight into per-shard staging buffers,
//     with per-flow ordering and bit-identical answers at any concurrency
//     (README.md, "Ingest concurrency"); plans are handshake-guarded,
//     snapshots are HTTP/JSON with per-connection counters, and shutdown
//     drains gracefully.
//   - The federated collector tier (internal/federation, fronted by
//     cmd/pintgate) is a fleet of daemons described by one
//     epoch-versioned fleet map, which exporters route by and carry the
//     epoch of, and a merging query frontend whose answers stay
//     byte-identical to a single collector, degrading to explicit partial
//     results when members die. The fleet is resizable live: the map is
//     served on /fleetmap, a minimal-move rebalance planner picks the
//     flows to move, and zero-loss per-flow state hand-off between
//     collectors makes a mid-stream grow or shrink answer byte-identically
//     to a fleet that started at the new membership (README.md, "Elastic
//     fleet").
//   - The durable storage tier (internal/segstore, enabled by pintd
//     -data-dir) is a crash-safe segment log replayed before serving, so a
//     SIGKILLed-and-restarted collector answers bit-for-bit identically
//     to one that never crashed, modulo an explicitly-reported unflushed
//     tail (README.md, "Durable storage": segment format, recovery
//     guarantees, retention knobs).
//   - The scenario engine (internal/scenario, driven by cmd/pintfig
//     -list/-run) holds every experiment — each
//     paper figure, table and ablation and the non-paper workloads — in a
//     declarative registry whose trial runner executes across a worker
//     pool with bit-identical results at any parallelism (README.md,
//     "Scenario catalog").
package repro

// Package repro is a from-scratch Go reproduction of "PINT: Probabilistic
// In-band Network Telemetry" (Ben Basat et al., SIGCOMM 2020).
//
// The public API lives in the pint subpackage. Every experiment — each
// paper figure and the non-paper workloads — is registered in the
// scenario engine (internal/scenario, re-exported by pint and driven by
// cmd/pintfig -list/-run): a declarative registry whose trial runner
// executes across a worker pool with bit-identical results at any
// parallelism. See README.md for the tour: the quick start, the package
// map, the compiled batch/sharded pipeline that runs the per-packet hot
// path, the streaming collector (bounded flow state, digest wire format,
// snapshot queries), the networked collector daemon
// (internal/collector, run by cmd/pintd with cmd/pintload as its load
// generator — framed TCP ingest from many exporters, each connection a
// parallel ingest pipeline that fused-decodes frames straight into
// per-shard staging buffers with per-flow ordering and bit-identical
// answers at any concurrency — see README.md's "Ingest concurrency"
// section — handshake-guarded plans, HTTP/JSON snapshots with
// per-connection counters, graceful drain), the federated collector
// tier (internal/federation, fronted by cmd/pintgate — a fleet of
// daemons described by one epoch-versioned fleet map, which exporters
// route by and carry the epoch of, and a merging query frontend whose answers stay byte-identical
// to a single collector, degrading to explicit partial results when
// members die — and, since the elastic-fleet layer, resizable live: an
// epoch-versioned fleet map on /fleetmap, a minimal-move rebalance
// planner, and zero-loss per-flow state hand-off between collectors, so
// a mid-stream grow or shrink answers byte-identically to a fleet that
// started at the new membership; see README.md's "Elastic fleet"
// section), the durable storage tier (internal/segstore, enabled by
// pintd -data-dir — a crash-safe segment log replayed before serving, so
// a SIGKILLed-and-restarted collector answers bit-for-bit identically to
// one that never crashed, modulo an explicitly-reported unflushed tail;
// see README.md's "Durable storage" section for the segment format,
// recovery guarantees, and retention knobs), and the scenario catalog.
package repro

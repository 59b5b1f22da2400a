package collector

import (
	"repro/internal/admit"
	"repro/internal/pipeline"
	"repro/internal/segstore"
)

// This file defines the versioned /stats document. Three consumers used
// to parse three ad-hoc JSON shapes (the daemon's map, the federation
// frontend's anonymous structs, substring probes); all of them now share
// one declared type, stamped with a schema tag so a
// consumer can refuse a document it does not understand instead of
// silently misreading it.

// StatsSchemaV1 is the schema tag every v1 stats document carries.
const StatsSchemaV1 = "pint.stats.v1"

// StatsV1 is the collector's full /stats document: server counters, sink
// totals, per-shard and per-connection breakdowns, and — when the QoS or
// durable tiers are configured — their sections. The federation frontend
// parses this same type per fleet member and sums members with
// Accumulate, so a fleet-wide total is the same shape as one daemon.
type StatsV1 struct {
	// Schema identifies the document layout (StatsSchemaV1).
	Schema string `json:"schema"`
	// Server is the daemon's session/frame/packet counters.
	Server Stats `json:"server"`
	// Sink is the sharded sink's fleet-wide totals; SinkShards is the
	// per-shard breakdown (omitted from merged fleet totals).
	Sink       pipeline.ShardStats   `json:"sink"`
	SinkShards []pipeline.ShardStats `json:"sink_shard,omitempty"`
	// Conns lists every live exporter session's ingest counters.
	Conns []ConnStats `json:"conns"`
	// Tenants is the QoS layer's per-tenant accounting and error
	// envelopes (absent without a tenant policy).
	Tenants []admit.TenantStats `json:"tenants,omitempty"`
	// Capacity is the AIMD controller's telemetry (absent without a
	// capacity config).
	Capacity *admit.CapacityStats `json:"capacity,omitempty"`
	// Durable is the segment-log tier's section (absent without one).
	Durable *DurableStatsV1 `json:"durable,omitempty"`
}

// DurableStatsV1 is the durable tier's /stats section.
type DurableStatsV1 struct {
	Store    segstore.Stats          `json:"store"`
	Recovery segstore.RecoveryReport `json:"recovery"`
	Replayed uint64                  `json:"replayed"`
}

// Accumulate folds another collector's document into s — the federation
// frontend's rule for fleet-wide totals. Counter sections sum; tenant
// sections merge by tenant name (re-deriving each error envelope from
// the summed counters); point-in-time sections that make no sense summed
// (per-shard breakdowns, per-connection lists, capacity estimates,
// durable stores) are left to the per-member documents.
func (s *StatsV1) Accumulate(o StatsV1) {
	s.Server.Accumulate(o.Server)
	s.Sink.Accumulate(o.Sink)
	s.Tenants = admit.MergeTenantStats(s.Tenants, o.Tenants)
}

// StatsV1 assembles the daemon's current document.
func (s *Server) StatsV1() StatsV1 {
	total, perShard := s.cfg.Sink.Stats()
	doc := StatsV1{
		Schema:     StatsSchemaV1,
		Server:     s.Stats(),
		Sink:       total,
		SinkShards: perShard,
		Conns:      s.ConnStats(),
		Tenants:    s.admitter.Snapshot(),
	}
	if cap, ok := s.admitter.Capacity(); ok {
		doc.Capacity = &cap
	}
	if d := s.cfg.Durable; d != nil {
		doc.Durable = &DurableStatsV1{Store: d.Store.Stats(), Recovery: d.Recovery, Replayed: d.Replayed}
	}
	return doc
}

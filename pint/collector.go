package pint

import (
	"repro/internal/admit"
	"repro/internal/collector"
	"repro/internal/pipeline"
)

// The networked collector API (internal/collector): the sharded sink
// behind real sockets. A Collector accepts many concurrent exporter
// connections, each streaming length-prefixed CRC-32C-framed digest
// batches (internal/wire's stream layer) that open with a versioned
// handshake carrying the exporter ID, its engine's PlanHash, and
// optionally a tenant label — a mismatched execution plan is refused at
// session setup. Decoded batches ingest into a ShardedSink with
// per-connection backpressure (bounded worker queues block the reader;
// TCP flow control does the rest), and Shutdown drains gracefully.
// Collector.Handler serves /healthz, /stats, and /snapshot over
// HTTP/JSON.
//
// Collectors are built from functional options over an engine:
//
//	sink, _ := pint.NewShardedSink(engine, pint.ShardConfig{Shards: 8, Base: seed})
//	srv, _ := pint.NewCollector(engine,
//	    pint.WithSink(sink),
//	    pint.WithQueries(queries...))
//	ln, _ := net.Listen("tcp", "0.0.0.0:9777")
//	go srv.Serve(ln)
//
//	// switch side
//	ex, _ := pint.Connect(engine, switchID, "tor-3-2", pint.WithAddrs("collector:9777"))
//	ex.Send(pkts)
//
// cmd/pintd wraps Collector as a daemon; cmd/pintload is the matching
// load generator.

// Collector is the TCP collector daemon.
type Collector = collector.Server

// CollectorOption configures a Collector during NewCollector.
type CollectorOption = collector.Option

// CollectorStats is a point-in-time view of a Collector's counters.
type CollectorStats = collector.Stats

// NewCollector builds a collector over an engine from functional
// options; at minimum WithSink (or WithDurable) is required.
func NewCollector(engine *Engine, opts ...CollectorOption) (*Collector, error) {
	return collector.New(engine, opts...)
}

// The collector's functional options (see each collector.With* for the
// full contract).
var (
	// WithSink directs decoded digest batches into a ShardedSink.
	WithSink = collector.WithSink
	// WithQueries lists the engine's queries for the HTTP snapshot
	// endpoints.
	WithQueries = collector.WithQueries
	// WithEpoch fences sessions to a cluster partitioning epoch.
	WithEpoch = collector.WithEpoch
	// WithMaxFramePayload caps a frame's payload bytes.
	WithMaxFramePayload = collector.WithMaxFramePayload
	// WithDurable attaches a DurableSink (crash-safe segment log).
	WithDurable = collector.WithDurable
	// WithCheckpointEvery sets the durable checkpoint+fsync cadence.
	WithCheckpointEvery = collector.WithCheckpointEvery
	// WithLogf directs per-session event lines to a printf-style logger.
	WithLogf = collector.WithLogf
	// WithTenantPolicy enables the multi-tenant QoS layer (see
	// TenantPolicy).
	WithTenantPolicy = collector.WithTenantPolicy
)

// StatsV1 is the collector's versioned /stats document (schema tag
// StatsSchemaV1): server counters, sink totals, per-connection ingest
// counters, and the QoS/durable sections when configured. The federation
// frontend sums members with its Accumulate.
type StatsV1 = collector.StatsV1

// StatsSchemaV1 is the schema tag every v1 stats document carries.
const StatsSchemaV1 = collector.StatsSchemaV1

// Multi-tenant QoS (internal/admit): when a tenant exceeds its quota —
// or the collector as a whole exceeds what the sink absorbs — digests
// are admitted at a known sampling probability instead of stalling
// exporters, and the realized rate is published per tenant so every
// answer carries its exact error inflation. See TenantStats for the
// error envelope; the shedding is seeded and reproducible.

// TenantPolicy is the declarative QoS configuration passed to
// WithTenantPolicy; the zero value disables the layer.
type TenantPolicy = admit.Policy

// TenantQuota is one tenant's admission contract (sustained
// packets/second, burst depth, sampling floor).
type TenantQuota = admit.Quota

// CapacityConfig shapes the AIMD capacity controller that adapts total
// admission to sink stall feedback.
type CapacityConfig = admit.CapacityConfig

// TenantStats is one tenant's accounting and error envelope, served
// under "tenants" in /stats: count-style answers scale by CountScale =
// 1/p̂, KLL-backed quantile ranks widen by QuantileRankError.
type TenantStats = admit.TenantStats

// CapacityStats is the AIMD controller's telemetry, served under
// "capacity" in /stats.
type CapacityStats = admit.CapacityStats

// ParseTenantPolicy builds the quota side of a TenantPolicy from a
// flag-friendly spec: comma-separated name=rate[/burst[/minsample]]
// entries ('*' names the default quota).
func ParseTenantPolicy(spec string) (TenantPolicy, error) { return admit.ParsePolicy(spec) }

// DefaultTenant is the tenant a session opened without WithTenant is
// accounted under.
const DefaultTenant = admit.DefaultTenant

// FlowAnswers is the JSON-stable per-flow query answer set the
// collector's snapshot endpoint serves (and Answers computes).
type FlowAnswers = collector.FlowAnswers

// Answers evaluates every query for every listed flow against a
// quiescent Recording (e.g. a merged snapshot), in a fixed order so
// equal states produce byte-identical JSON.
func Answers(rec *Recording, queries []Query, flows []FlowKey) []FlowAnswers {
	return collector.Answers(rec, queries, flows)
}

// ShardStats is one sink shard's ingest counters (see ShardedSink.Stats,
// whose stall counts are the sink's backpressure signal).
type ShardStats = pipeline.ShardStats

// DurableSink is a sharded sink joined to its crash-safe segment log
// (internal/segstore; pintd -data-dir): every ingested batch is appended
// to the log off the hot path, and opening replays the log — recovering
// from torn tails a SIGKILL left behind — before the first Ingest, so a
// restarted collector answers bit-for-bit identically to one that never
// crashed, modulo the explicitly reported unflushed tail in Recovery.
type DurableSink = collector.DurableSink

// DurableOptions shapes a DurableSink's segment log: directory, rotation
// size, retention, and fsync policy.
type DurableOptions = collector.DurableOptions

// OpenDurableSink opens (recovering if needed) the segment log under
// opts.DataDir, builds the sharded sink, replays the log into it, and
// attaches the persistence writer. Pass the result through WithDurable
// to serve it (checkpoint cadence, historical /snapshot?since=&until=
// windows).
func OpenDurableSink(eng *Engine, queries []Query, cfg ShardConfig, opts DurableOptions) (*DurableSink, error) {
	return collector.OpenDurableSink(eng, queries, cfg, opts)
}

package collector

import (
	"time"

	"repro/internal/admit"
	"repro/internal/core"
	"repro/internal/pipeline"
)

// This file is the Server's construction surface: the functional options
// New takes. Callers build a collector as
//
//	srv, err := collector.New(engine,
//		collector.WithSink(sink),
//		collector.WithQueries(queries...),
//		collector.WithEpoch(7),
//		collector.WithTenantPolicy(policy))
//
// and New validates the resolved form once, up front.

// Option sets one field of the configuration New resolves. Nil options
// are ignored.
type Option func(*config)

// WithSink directs every decoded digest batch into sink. Each
// connection ingests concurrently through its own pipeline.Stage;
// Shutdown flushes and barriers the sink; the caller still owns Close.
// Exactly one of WithSink or WithDurable is required (WithDurable
// implies its own sink).
func WithSink(sink *pipeline.Sink) Option {
	return func(c *config) { c.Sink = sink }
}

// WithQueries lists the engine's queries for the HTTP snapshot
// endpoints. Without it /snapshot serves empty answer sets.
func WithQueries(queries ...core.Query) Option {
	return func(c *config) { c.Queries = queries }
}

// WithEpoch sets the cluster partitioning epoch this collector belongs
// to (0, the default, means standalone). Sessions whose Hello carries a
// different epoch are refused with wire.AckEpochMismatch.
func WithEpoch(epoch uint64) Option {
	return func(c *config) { c.Epoch = epoch }
}

// WithDurable attaches the collector's durable tier (built with
// OpenDurableSink): the sink defaults to d.Sink, /snapshot gains the
// ?since=/?until= historical window parameters, and the server owns the
// checkpoint cadence. The caller still owns d.Close after Shutdown.
func WithDurable(d *DurableSink) Option {
	return func(c *config) { c.Durable = d }
}

// WithCheckpointEvery sets the background checkpoint+fsync interval
// when a durable tier is attached (default 1s; negative disables the
// cadence — checkpoints then happen only at Shutdown or by explicit
// call).
func WithCheckpointEvery(every time.Duration) Option {
	return func(c *config) { c.CheckpointEvery = every }
}

// WithLogf directs one line per session event (open, close, error) to
// logf. The default is silent.
func WithLogf(logf func(format string, args ...any)) Option {
	return func(c *config) { c.Logf = logf }
}

// WithTenantPolicy enables the multi-tenant QoS layer (internal/admit):
// per-tenant token-bucket quotas, optional AIMD capacity control from
// sink stall feedback, and probabilistic load shedding at a published
// per-tenant sampling rate. The zero policy (the default) disables the
// layer entirely — every frame is admitted whole and ingest is
// byte-identical to a collector built without tenancy.
func WithTenantPolicy(policy admit.Policy) Option {
	return func(c *config) { c.TenantPolicy = policy }
}

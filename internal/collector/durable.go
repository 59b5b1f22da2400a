package collector

import (
	"time"

	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/segstore"
)

// This file wires the durable tier (internal/segstore) into the
// collector: open-with-recovery, replay-before-serve, the background
// checkpoint cadence, and the historical /snapshot window path.

// DurableOptions shapes a collector's durable tier.
type DurableOptions struct {
	// DataDir is the segment-log directory (created if missing).
	DataDir string
	// Options is the log's rotation size, retention, fsync policy and
	// clock.
	segstore.Options
}

// DurableSink is a sharded sink joined to its segment log: the sink
// answers live queries, the log makes every ingested packet durable, and
// recovery rebuilds the sink from the log. Build with OpenDurableSink.
type DurableSink struct {
	Sink   *pipeline.Sink
	Store  *segstore.Store
	Writer *segstore.Writer
	// Recovery reports what Open found: surviving packets, and the torn
	// tail (if any) a crash left behind.
	Recovery segstore.RecoveryReport
	// Replayed counts the packets fed back into the sink at startup.
	Replayed uint64

	engine  *core.Engine
	queries []core.Query
	pcfg    pipeline.Config
}

// OpenDurableSink opens (recovering if needed) the segment log, builds
// the sink, replays the log into it — so the collector starts holding
// every packet the previous incarnation made durable — and only then
// attaches the persistence writer, so replayed packets are not re-logged.
func OpenDurableSink(engine *core.Engine, queries []core.Query, pcfg pipeline.Config, opts DurableOptions) (*DurableSink, error) {
	store, report, err := segstore.Open(opts.DataDir, opts.Options)
	if err != nil {
		return nil, err
	}
	sink, err := pipeline.NewSink(engine, pcfg)
	if err != nil {
		store.Close()
		return nil, err
	}
	d := &DurableSink{
		Sink:     sink,
		Store:    store,
		Recovery: *report,
		engine:   engine,
		queries:  queries,
		pcfg:     pcfg,
	}
	if d.Replayed, err = ReplayInto(store, sink); err != nil {
		sink.Close()
		store.Close()
		return nil, err
	}
	d.Writer = segstore.NewWriter(store)
	sink.SetPersister(d.Writer)
	return d, nil
}

// ReplayInto feeds every digest block in the store, in log order, into
// the sink and barriers it, returning the packet count. The sink must
// not have a persister attached yet (the replay would re-log itself) and
// the caller must hold the single-ingester role.
func ReplayInto(store *segstore.Store, sink *pipeline.Sink) (uint64, error) {
	var scratch []core.PacketDigest
	var packets uint64
	err := store.Scan(0, ^uint64(0), func(b segstore.Block) error {
		if b.Kind != segstore.KindDigests {
			return nil
		}
		var err error
		scratch, err = segstore.DecodeDigests(scratch, b.Body, nil)
		if err != nil {
			return err
		}
		sink.Ingest(scratch)
		packets += uint64(len(scratch))
		return nil
	})
	if err != nil {
		return 0, err
	}
	sink.Barrier()
	return packets, sink.Err()
}

// Checkpoint runs one full durability interval: a sink checkpoint
// barrier (every shard drains and reports), then a writer flush+fsync.
// It requires a quiescent ingest surface — the Server runs it under the
// write side of its ingest gate, so no connection's stage hand-off can
// straddle the round and the per-round conservation law stays exact.
func (d *DurableSink) Checkpoint() error {
	d.Sink.Checkpoint()
	return d.Writer.Sync()
}

// Close shuts the durable sink down in dependency order: a final
// checkpoint (so the log ends with a verifiable round), sink close, then
// writer and store. The caller must hold the single-ingester role.
func (d *DurableSink) Close() error {
	d.Sink.Checkpoint()
	err := d.Writer.Sync()
	if cerr := d.Sink.Close(); err == nil {
		err = cerr
	}
	if cerr := d.Writer.Close(); err == nil {
		err = cerr
	}
	if cerr := d.Store.Close(); err == nil {
		err = cerr
	}
	return err
}

// windowRecording replays the [since, until] window's digest blocks, in
// log order, into one fresh Recording (shard count never changes answers —
// the pipeline determinism contract) and returns it with the flows to
// answer for: the ones asked, or — flows nil — every flow seen in the
// window. Only the listed flows' digests are decoded and recorded — a
// flow's answers are a function of its own digests — so the replay costs a
// read of the window plus the digests and state of the flows asked for.
func (d *DurableSink) windowRecording(since, until uint64, flows []core.FlowKey) (*core.Recording, []core.FlowKey, error) {
	rec, err := pipeline.NewRecording(d.engine, d.pcfg)
	if err != nil {
		return nil, nil, err
	}
	var asked map[core.FlowKey]bool
	if flows != nil {
		asked = make(map[core.FlowKey]bool, len(flows))
		for _, f := range flows {
			asked[f] = true
		}
	}
	var scratch []core.PacketDigest
	err = d.Store.Scan(since, until, func(b segstore.Block) error {
		if b.Kind != segstore.KindDigests {
			return nil
		}
		// One lookup per flow run of the block; a run — or a whole block —
		// of flows nobody asked about is stepped over, not decoded.
		var err error
		if scratch, err = segstore.DecodeDigests(scratch, b.Body, asked); err != nil {
			return err
		}
		return rec.RecordBatch(scratch)
	})
	if err != nil {
		return nil, nil, err
	}
	if flows == nil {
		flows = rec.Flows()
	}
	return rec, flows, nil
}

// runCheckpoints is the Server's background durability cadence.
func (s *Server) runCheckpoints(every time.Duration) {
	defer s.ckptDone.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-s.stopCkpt:
			return
		case <-t.C:
			s.ingestGate.Lock()
			err := s.cfg.Durable.Checkpoint()
			s.ingestGate.Unlock()
			if err != nil {
				s.logf("collector: checkpoint: %v", err)
			}
		}
	}
}

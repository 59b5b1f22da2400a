package collector

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/segstore"
	"repro/internal/wire"
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
	Sink *pipeline.Sink
	// Store is the log, and the sink's persister.
	Store *segstore.Store
	// Writer holds the same pointer as Store.
	//
	// Deprecated: use Store. It goes with ROADMAP item 10, the benchmark
	// harness's unfreeze, which removes its last user.
	Writer *segstore.Store
	// Recovery reports what Open found: surviving packets, and the torn
	// tail (if any) a crash left behind.
	Recovery segstore.RecoveryReport
	// Replayed counts the packets fed back into the sink at startup.
	Replayed uint64

	engine  *core.Engine
	queries []core.Query
}

// OpenDurableSink opens (recovering if needed) the segment log, builds
// the sink, replays the log into it — so the collector starts holding
// every packet the previous incarnation made durable — and only then
// attaches the store as the sink's persister, so replayed packets are not
// re-logged.
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
		Writer:   store,
		Recovery: *report,
		engine:   engine,
		queries:  queries,
	}
	if d.Replayed, err = ReplayInto(store, sink); err != nil {
		sink.Close()
		store.Close()
		return nil, err
	}
	sink.SetPersister(store)
	return d, nil
}

// ReplayInto feeds every digest block in the store into the sink and
// barriers it, returning the packet count. Each shard records its packets
// in log order, which is the order it recorded them in before (see
// pipeline's persist.go), so the sink ends as the logging one did. The
// shards are dealt to lanes, one a CPU; each lane scans the log on its
// own goroutine and records only its shards' packets, so replay records
// on every CPU and hands nothing between goroutines. The sink must not
// have a persister attached yet (the replay would re-log itself), and
// nothing else may ingest until ReplayInto returns.
func ReplayInto(store *segstore.Store, sink *pipeline.Sink) (uint64, error) {
	lanes := min(len(sink.NewStage().Buffers()), runtime.GOMAXPROCS(0))
	packets := make([]uint64, lanes)
	errs := make([]error, lanes)
	var wg sync.WaitGroup
	for lane := range lanes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := sink.NewStage()
			bufs := st.Buffers()
			errs[lane] = store.Scan(0, ^uint64(0), func(b segstore.Block) error {
				if b.Kind != segstore.KindDigests {
					return nil
				}
				if _, err := wire.AppendUnmarshalSharded(bufs, b.Body); err != nil {
					return err
				}
				for i := range bufs {
					if i%lanes == lane {
						packets[lane] += uint64(len(bufs[i]))
					} else {
						bufs[i] = bufs[i][:0]
					}
				}
				sink.IngestStage(st)
				return nil
			})
		}()
	}
	wg.Wait()
	var total uint64
	for lane := range lanes {
		if errs[lane] != nil {
			return 0, errs[lane]
		}
		total += packets[lane]
	}
	sink.Barrier()
	return total, sink.Err()
}

// Checkpoint runs one full durability interval: a sink checkpoint round
// (every shard records its slab and reports, all under their locks), then
// a store fsync.
func (d *DurableSink) Checkpoint() error {
	d.Sink.Checkpoint()
	return d.Store.Sync()
}

// Close shuts the durable sink down in dependency order: a final
// checkpoint (so the log ends with a verifiable round), sink close, then
// store.
func (d *DurableSink) Close() error {
	d.Sink.Checkpoint()
	err := d.Store.Sync()
	if cerr := d.Sink.Close(); err == nil {
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
	rec, err := core.NewRecording(d.engine)
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
			if err := s.cfg.Durable.Checkpoint(); err != nil {
				s.logf("collector: checkpoint: %v", err)
			}
		}
	}
}

package collector

import (
	"context"
	"fmt"
	"net"
	"time"

	"repro/internal/core"
	"repro/internal/pipeline"
)

// LoopbackResult is one end-to-end run's outcome: the JSON-stable query
// answers for every flow and the packets the collector ingested. Both are
// pure functions of the testbench shape.
type LoopbackResult struct {
	Answers []FlowAnswers
	Packets uint64
}

// RunLoopback stands up a collector on an ephemeral loopback listener,
// streams a (nExporters × flowsPer × pktsPer) testbench deployment
// through real TCP sockets from nExporters concurrent exporter
// goroutines (each framing its flows in chunks of batch packets), drains
// the daemon, and evaluates every query for every flow. It is the
// networked twin of RunInProcess: identical inputs must yield
// byte-identical answers.
func (tb *Testbench) RunLoopback(shards, nExporters, flowsPer, pktsPer, batch int) (*LoopbackResult, error) {
	sink, err := pipeline.NewSink(tb.Engine, pipeline.Config{Shards: shards, Base: tb.Base})
	if err != nil {
		return nil, err
	}
	defer sink.Close()
	srv, err := New(tb.Engine, WithSink(sink), WithQueries(tb.Queries()...))
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	packets, _, err := tb.StreamDeployment(Standalone(ln.Addr().String()), nExporters, flowsPer, pktsPer, batch)
	if err != nil {
		srv.Shutdown(context.Background())
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return nil, fmt.Errorf("collector: drain: %w", err)
	}
	if err := <-serveErr; err != nil {
		return nil, fmt.Errorf("collector: serve: %w", err)
	}
	if err := sink.Err(); err != nil {
		return nil, err
	}
	st := srv.Stats()
	if st.Packets != packets {
		return nil, fmt.Errorf("collector: drain lost packets: sent %d, collector ingested %d",
			packets, st.Packets)
	}
	answers, err := SnapshotAnswers(sink.Snapshot(), tb.Queries(), tb.Flows(nExporters, flowsPer))
	if err != nil {
		return nil, err
	}
	return &LoopbackResult{Answers: answers, Packets: st.Packets}, nil
}

// RunInProcess runs the identical deployment without a socket in sight:
// the same flow batches ingest directly into a sharded sink, and the
// same queries run against its merged snapshot. The conformance contract
// of the collector daemon is Answers(RunLoopback) == Answers(RunInProcess),
// byte for byte, at every shard count.
func (tb *Testbench) RunInProcess(shards, nExporters, flowsPer, pktsPer int) (*LoopbackResult, error) {
	sink, err := pipeline.NewSink(tb.Engine, pipeline.Config{Shards: shards, Base: tb.Base})
	if err != nil {
		return nil, err
	}
	defer sink.Close()
	var pkts []core.PacketDigest
	vals := make([]core.HopValues, pktsPer)
	var packets uint64
	for e := 0; e < nExporters; e++ {
		for f := 0; f < flowsPer; f++ {
			pkts = tb.FlowBatch(uint64(e)+1, f, pktsPer, pkts, vals)
			sink.Ingest(pkts)
			packets += uint64(len(pkts))
		}
	}
	sink.Barrier()
	if err := sink.Err(); err != nil {
		return nil, err
	}
	answers, err := SnapshotAnswers(sink.Snapshot(), tb.Queries(), tb.Flows(nExporters, flowsPer))
	if err != nil {
		return nil, err
	}
	return &LoopbackResult{Answers: answers, Packets: packets}, nil
}

// SnapshotAnswers folds a sink snapshot into one merged Recording and
// answers every query for every tracked flow (or just the listed flows).
func SnapshotAnswers(snap *pipeline.Snapshot, queries []core.Query, flows []core.FlowKey) ([]FlowAnswers, error) {
	merged, err := snap.Merged()
	if err != nil {
		return nil, err
	}
	if flows == nil {
		flows = merged.Flows()
	}
	return Answers(merged, queries, flows), nil
}

// Flows enumerates every flow key of a deployment of nExporters
// exporters with flowsPer flows each, in (exporter, flow) order — the
// order the conformance comparison queries them in.
func (tb *Testbench) Flows(nExporters, flowsPer int) []core.FlowKey {
	out := make([]core.FlowKey, 0, nExporters*flowsPer)
	for exp := 0; exp < nExporters; exp++ {
		for f := 0; f < flowsPer; f++ {
			out = append(out, tb.FlowKeyFor(uint64(exp)+1, f))
		}
	}
	return out
}

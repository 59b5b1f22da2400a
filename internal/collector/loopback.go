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
// answers for every flow, plus transfer accounting. Answers, Packets,
// and WireBytes are pure functions of the testbench shape; Elapsed is
// wall clock (reporting only — never part of a conformance comparison).
type LoopbackResult struct {
	Answers   []FlowAnswers
	Packets   uint64
	WireBytes uint64
	Elapsed   time.Duration
}

// BytesPerPacket returns the mean wire cost of one digest, frame headers
// included.
func (r *LoopbackResult) BytesPerPacket() float64 {
	if r.Packets == 0 {
		return 0
	}
	return float64(r.WireBytes) / float64(r.Packets)
}

// RunLoopback stands up a collector on an ephemeral loopback listener,
// streams a (nExporters × flowsPer × pktsPer) testbench deployment
// through real TCP sockets from nExporters concurrent exporter
// goroutines (each framing its flows in chunks of batch packets), drains
// the daemon, and evaluates every query for every flow. It is the
// networked twin of RunInProcess: identical inputs must yield
// byte-identical answers.
func (tb *Testbench) RunLoopback(shards, nExporters, flowsPer, pktsPer, batch int) (*LoopbackResult, error) {
	if err := ValidateShape(nExporters, flowsPer, pktsPer); err != nil {
		return nil, err
	}
	if batch < 1 || batch > pktsPer {
		batch = pktsPer
	}
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
	addr := ln.Addr().String()

	start := time.Now()
	packets, bytes, err := tb.StreamDeployment(Standalone(addr), nExporters, flowsPer, pktsPer, batch)
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
	elapsed := time.Since(start)
	st := srv.Stats()
	if st.Packets != packets {
		return nil, fmt.Errorf("collector: drain lost packets: sent %d, collector ingested %d",
			packets, st.Packets)
	}
	answers, err := SnapshotAnswers(sink.Snapshot(), tb.Queries(), tb.Flows(nExporters, flowsPer))
	if err != nil {
		return nil, err
	}
	return &LoopbackResult{
		Answers:   answers,
		Packets:   st.Packets,
		WireBytes: bytes,
		Elapsed:   elapsed,
	}, nil
}

// RunInProcess runs the identical deployment without a socket in sight:
// the same flow batches ingest directly into a sharded sink, and the
// same queries run against its merged snapshot. The conformance contract
// of the collector daemon is Answers(RunLoopback) == Answers(RunInProcess),
// byte for byte, at every shard count.
func (tb *Testbench) RunInProcess(shards, nExporters, flowsPer, pktsPer int) (*LoopbackResult, error) {
	if err := ValidateShape(nExporters, flowsPer, pktsPer); err != nil {
		return nil, err
	}
	sink, err := pipeline.NewSink(tb.Engine, pipeline.Config{Shards: shards, Base: tb.Base})
	if err != nil {
		return nil, err
	}
	defer sink.Close()
	start := time.Now()
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
	return &LoopbackResult{
		Answers: answers,
		Packets: packets,
		Elapsed: time.Since(start),
	}, nil
}

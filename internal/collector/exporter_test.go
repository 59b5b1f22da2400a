package collector

import (
	"testing"
	"time"
)

// TestExporterCoalesce pins the write-coalescing contract: below the
// threshold frames stay in the exporter (the collector sees nothing),
// crossing it flushes everything in one write, and Flush/Close drain
// whatever remains — with the collector's decoded totals identical to
// the immediate-write path.
func TestExporterCoalesce(t *testing.T) {
	tb := mustTestbench(t, 23)
	_, srv := newServedSink(t, tb, 2)
	ex, err := dial(srv.Addr().String(), HelloFor(tb.Engine, 1, "coalesce-test"))
	if err != nil {
		t.Fatal(err)
	}
	// A huge threshold: every Send stages, nothing hits the wire.
	ex.SetCoalesce(1 << 20)
	if err := ex.Send(tb.FlowBatch(1, 0, 50, nil, nil)); err != nil {
		t.Fatal(err)
	}
	if err := ex.Send(tb.FlowBatch(1, 1, 50, nil, nil)); err != nil {
		t.Fatal(err)
	}
	// The frames are accounted but withheld; give the collector a moment
	// to prove it received none of them.
	time.Sleep(20 * time.Millisecond)
	if got := srv.Stats().Packets; got != 0 {
		t.Fatalf("collector saw %d packets before flush, want 0", got)
	}
	if ex.Packets() != 100 {
		t.Fatalf("exporter accounted %d packets, want 100", ex.Packets())
	}
	if err := ex.Flush(); err != nil {
		t.Fatal(err)
	}
	waitForPackets(t, srv, 100)

	// A tiny threshold: the first staged frame crosses it and flushes
	// immediately — coalescing degenerates to immediate writes.
	ex.SetCoalesce(1)
	if err := ex.Send(tb.FlowBatch(1, 2, 50, nil, nil)); err != nil {
		t.Fatal(err)
	}
	waitForPackets(t, srv, 150)

	// Close drains a partial coalescing buffer.
	ex.SetCoalesce(1 << 20)
	if err := ex.Send(tb.FlowBatch(1, 3, 25, nil, nil)); err != nil {
		t.Fatal(err)
	}
	if err := ex.Close(); err != nil {
		t.Fatal(err)
	}
	waitForPackets(t, srv, 175)
	shutdownServer(t, srv)
}

// TestStreamSteadyState runs the pintload -duration engine for a short
// burst against a live collector: every connection must report at least
// one full sweep of its flows, the collector must have ingested exactly
// the aggregate the loads report, and no packet may be lost or invented
// on the way through the parallel ingest path.
func TestStreamSteadyState(t *testing.T) {
	tb := mustTestbench(t, 29)
	const (
		conns    = 3
		flowsPer = 2
		pktsPer  = 100
	)
	_, srv := newServedSink(t, tb, 4)
	loads, err := tb.StreamSteadyState(Standalone(srv.Addr().String()),
		conns, flowsPer, pktsPer, 64, 4096, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(loads) != conns {
		t.Fatalf("got %d loads, want %d", len(loads), conns)
	}
	var total uint64
	for i, l := range loads {
		if l.Exporter != uint64(i)+1 {
			t.Fatalf("load %d has exporter %d", i, l.Exporter)
		}
		if l.Packets < flowsPer*pktsPer {
			t.Fatalf("conn %d sent %d packets, want at least one sweep (%d)",
				l.Exporter, l.Packets, flowsPer*pktsPer)
		}
		if l.Bytes == 0 || l.Elapsed <= 0 || l.Mpkts() <= 0 {
			t.Fatalf("conn %d load not populated: %+v", l.Exporter, l)
		}
		total += l.Packets
	}
	waitForPackets(t, srv, total)
	if got := srv.Stats().Packets; got != total {
		t.Fatalf("collector ingested %d packets, exporters sent %d", got, total)
	}
	shutdownServer(t, srv)
}

package pipeline

import (
	"testing"

	"repro/internal/core"
	"repro/internal/wire"
)

// TestConformanceWireSinkSnapshot is the end-to-end conformance suite for
// the streaming collector: a multi-query trace is batch-encoded, shipped
// through the wire format (marshal → unmarshal in transport-sized
// batches), ingested by the sharded sink, and queried three ways — via a
// pre-Close Snapshot, via the Close-d sink, and via a Snapshot taken
// after Close. Every answer of every query kind must be bit-identical to
// the serial Recording path that never saw the wire or the shards, for
// shard counts {1, 4, 16}.
func TestConformanceWireSinkSnapshot(t *testing.T) {
	t.Run("raw", func(t *testing.T) {
		eng, path, lat, util := testPlan(t, 401)
		const (
			nFlows      = 24
			pktsPerFlow = 300
			k           = 6
			xferBatch   = 256 // packets per simulated switch→collector transfer
		)
		pkts := encodeWorkload(eng, 11, nFlows, pktsPerFlow, k)

		// The wire leg: marshal in transport-sized batches, unmarshal
		// at the "collector", and verify the stream arrives intact.
		var buf []byte
		rx := make([]core.PacketDigest, 0, len(pkts))
		for off := 0; off < len(pkts); off += xferBatch {
			end := min(off+xferBatch, len(pkts))
			var err error
			buf, err = wire.AppendMarshal(buf[:0], pkts[off:end])
			if err != nil {
				t.Fatal(err)
			}
			rx, err = wire.AppendUnmarshalFlows(rx, buf, nil)
			if err != nil {
				t.Fatal(err)
			}
		}
		if len(rx) != len(pkts) {
			t.Fatalf("wire leg delivered %d packets, want %d", len(rx), len(pkts))
		}
		for i := range pkts {
			if rx[i].Flow != pkts[i].Flow || rx[i].PktID != pkts[i].PktID ||
				rx[i].PathLen != pkts[i].PathLen || rx[i].Digest != pkts[i].Digest {
				t.Fatalf("wire leg corrupted packet %d: %+v -> %+v", i, pkts[i], rx[i])
			}
		}

		serial, err := core.NewRecording(eng)
		if err != nil {
			t.Fatal(err)
		}
		if err := serial.RecordBatch(pkts); err != nil {
			t.Fatal(err)
		}

		for _, shards := range []int{1, 4, 16} {
			sink, err := NewSink(eng, Config{Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			sink.Ingest(rx)
			// Snapshot while the sink is still open: answerable without
			// Close, and already complete because Ingest returned on
			// this goroutine.
			snap := sink.Snapshot()
			for f := 0; f < nFlows; f++ {
				flow := core.FlowKey(uint64(f)*2654435761 + 1)
				compareFlow(t, shards, serial, snap.recording(flow), flow, k, path, lat, util)
			}
			if err := sink.Close(); err != nil {
				t.Fatal(err)
			}
			if got := sink.TrackedFlows(); got != serial.TrackedFlows() {
				t.Fatalf("shards=%d: sink tracks %d flows, serial %d", shards, got, serial.TrackedFlows())
			}
			for f := 0; f < nFlows; f++ {
				flow := core.FlowKey(uint64(f)*2654435761 + 1)
				compareFlow(t, shards, serial, sink.Recording(flow), flow, k, path, lat, util)
			}
			// Snapshot after Close still serves, from the quiesced
			// recordings — and Merged folds the shards into a single
			// Recording with every answer intact.
			post := sink.Snapshot()
			merged, err := post.Merged()
			if err != nil {
				t.Fatal(err)
			}
			if got := merged.TrackedFlows(); got != serial.TrackedFlows() {
				t.Fatalf("shards=%d: merged tracks %d flows, serial %d", shards, got, serial.TrackedFlows())
			}
			for f := 0; f < nFlows; f++ {
				flow := core.FlowKey(uint64(f)*2654435761 + 1)
				compareFlow(t, shards, serial, merged, flow, k, path, lat, util)
			}
		}
	})
}

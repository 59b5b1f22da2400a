package collector

import (
	"bytes"
	"testing"

	"repro/internal/core"
)

// TestLengtheningRouteOverLoopback is the remote half of core's
// TestLengtheningRouteRecords: one exporter session sends a flow at path
// length 3, then the same flow at path length 5 — nothing on the wire
// forbids it. The shard used to panic on the first packet that
// elected hop 4 or 5; now the daemon keeps serving, and its answer for the
// flow is byte-identical to a serial Recording fed the same packets.
func TestLengtheningRouteOverLoopback(t *testing.T) {
	tb := mustTestbench(t, 29)
	sink, srv := newServedSink(t, tb, 2)

	short := *tb
	short.K = 3
	stream := append(short.FlowBatch(1, 0, 300, nil, nil), tb.FlowBatch(1, 0, 900, nil, nil)...)
	flow := tb.FlowKeyFor(1, 0)

	ex, err := dial(srv.Addr().String(), HelloFor(tb.Engine, 1, "lengthening"))
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(stream); off += 100 {
		if err := ex.Send(stream[off : off+100]); err != nil {
			t.Fatal(err)
		}
	}
	if err := ex.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "lengthening flow ingest", func() bool {
		st := srv.Stats()
		return st.Packets >= uint64(len(stream)) && st.Active == 0
	})
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	got, err := SnapshotAnswers(sink.Snapshot(), tb.Queries(), []core.FlowKey{flow})
	if err != nil {
		t.Fatal(err)
	}

	ref, err := core.NewRecording(tb.Engine)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.RecordBatch(stream); err != nil {
		t.Fatal(err)
	}
	want := Answers(ref, tb.Queries(), []core.FlowKey{flow})
	if !bytes.Equal(answersJSON(t, got), answersJSON(t, want)) {
		t.Fatalf("daemon and serial reference disagree on a lengthening route:\n%s\n%s", answersJSON(t, got), answersJSON(t, want))
	}
	if hops := want[0].Answers[1].Hops; len(hops) != short.K {
		t.Fatalf("latency answer covers %d hops, want the first-seen %d", len(hops), short.K)
	}
	// The sink still records: a fresh exporter decodes.
	sendHealthyFlow(t, tb, srv, 7)
}

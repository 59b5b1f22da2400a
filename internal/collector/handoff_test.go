package collector

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/pipeline"
)

// TestHandoffLoopback is the collector-level hand-off contract: stream
// half of every flow into collector A, drain two flows' states with
// ExportFlows, ship them to collector B with SendHandoff over real TCP,
// stream each flow's second half to its current home, and require the
// merged A+B answers byte-identical to the whole deployment ingested
// in-process — moved state carries its exact decode and sketch
// positions.
func TestHandoffLoopback(t *testing.T) {
	const (
		flowsPer = 4
		pktsPer  = 80
		pktsA    = pktsPer / 2
		shards   = 2
	)
	tb := mustTestbench(t, 41)
	sinkA, srvA := newServedSink(t, tb, shards)
	sinkB, srvB := newServedSink(t, tb, shards)

	exp := uint64(1)
	batches := make([][]core.PacketDigest, flowsPer)
	for f := 0; f < flowsPer; f++ {
		batches[f] = tb.FlowBatch(exp, f, pktsPer, nil, nil)
	}

	// Phase A: everything into A.
	exA, err := dial(srvA.Addr().String(), HelloFor(tb.Engine, exp, "pre"))
	if err != nil {
		t.Fatal(err)
	}
	for f := 0; f < flowsPer; f++ {
		if err := exA.Send(batches[f][:pktsA]); err != nil {
			t.Fatal(err)
		}
	}
	if err := exA.Close(); err != nil {
		t.Fatal(err)
	}
	waitPackets(t, srvA, uint64(flowsPer*pktsA))

	// Move flows 0 and 2 to B.
	moving := []core.FlowKey{tb.FlowKeyFor(exp, 0), tb.FlowKeyFor(exp, 2)}
	states, err := srvA.ExportFlows(moving)
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != len(moving) {
		t.Fatalf("drained %d of %d flows", len(states), len(moving))
	}
	// A flow the source never tracked is skipped, not an error.
	if extra, err := srvA.ExportFlows([]core.FlowKey{99999}); err != nil || len(extra) != 0 {
		t.Fatalf("unknown flow: %d states, %v", len(extra), err)
	}
	sent, err := SendHandoff(srvB.Addr().String(), HelloFor(tb.Engine, 1<<40, "handoff"), states)
	if err != nil {
		t.Fatal(err)
	}
	if sent != len(moving) {
		t.Fatalf("shipped %d of %d flows", sent, len(moving))
	}
	if got := srvB.HandoffFlows(); got != uint64(len(moving)) {
		t.Fatalf("imported %d of %d handed-off flows when SendHandoff returned", got, len(moving))
	}

	// Phase B: second halves to each flow's current home.
	exA, err = dial(srvA.Addr().String(), HelloFor(tb.Engine, exp, "post-a"))
	if err != nil {
		t.Fatal(err)
	}
	exB, err := dial(srvB.Addr().String(), HelloFor(tb.Engine, exp, "post-b"))
	if err != nil {
		t.Fatal(err)
	}
	movedSet := map[core.FlowKey]bool{moving[0]: true, moving[1]: true}
	for f := 0; f < flowsPer; f++ {
		dst := exA
		if movedSet[tb.FlowKeyFor(exp, f)] {
			dst = exB
		}
		if err := dst.Send(batches[f][pktsA:]); err != nil {
			t.Fatal(err)
		}
	}
	if err := exA.Close(); err != nil {
		t.Fatal(err)
	}
	if err := exB.Close(); err != nil {
		t.Fatal(err)
	}
	waitPackets(t, srvA, uint64(flowsPer*pktsA+(flowsPer-len(moving))*(pktsPer-pktsA)))
	waitPackets(t, srvB, uint64(len(moving)*(pktsPer-pktsA)))

	// Merge A+B and compare against the in-process whole-deployment run.
	recA, err := sinkA.Snapshot().Merged()
	if err != nil {
		t.Fatal(err)
	}
	recB, err := sinkB.Snapshot().Merged()
	if err != nil {
		t.Fatal(err)
	}
	if err := recA.Merge(recB); err != nil {
		t.Fatal(err)
	}
	got := answersJSON(t, Answers(recA, tb.Queries(), recA.Flows()))

	ref, err := pipeline.NewSink(tb.Engine, pipeline.Config{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	for f := 0; f < flowsPer; f++ {
		ref.Ingest(batches[f])
	}
	ref.Barrier()
	refRec, err := ref.Snapshot().Merged()
	if err != nil {
		t.Fatal(err)
	}
	want := answersJSON(t, Answers(refRec, tb.Queries(), refRec.Flows()))
	if !bytes.Equal(got, want) {
		t.Fatal("handed-off deployment diverges from the in-process reference")
	}
}

// TestHandoffDuplicateRefused: importing a flow the destination already
// tracks must be refused (Recording.Merge detects the split), not
// silently double-counted.
func TestHandoffDuplicateRefused(t *testing.T) {
	tb := mustTestbench(t, 43)
	_, srvA := newServedSink(t, tb, 1)
	_, srvB := newServedSink(t, tb, 1)

	exp := uint64(2)
	batch := tb.FlowBatch(exp, 0, 50, nil, nil)
	ex, err := dial(srvA.Addr().String(), HelloFor(tb.Engine, exp, "dup"))
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Send(batch); err != nil {
		t.Fatal(err)
	}
	if err := ex.Close(); err != nil {
		t.Fatal(err)
	}
	waitPackets(t, srvA, 50)
	flow := tb.FlowKeyFor(exp, 0)
	states, err := srvA.ExportFlows([]core.FlowKey{flow})
	if err != nil || len(states) != 1 {
		t.Fatalf("export: %d states, %v", len(states), err)
	}
	if _, err := SendHandoff(srvB.Addr().String(), HelloFor(tb.Engine, 1<<40, "dup-1"), states); err != nil {
		t.Fatal(err)
	}
	if got := srvB.HandoffFlows(); got != 1 {
		t.Fatalf("imported %d of 1 handed-off flow when SendHandoff returned", got)
	}

	// Ship the same flow again: the import must not count a second time.
	if _, err := SendHandoff(srvB.Addr().String(), HelloFor(tb.Engine, 1<<40, "dup-2"), states); err != nil {
		t.Fatal(err)
	}
	if got := srvB.HandoffFlows(); got != 1 {
		t.Fatalf("duplicate import counted: HandoffFlows = %d, want 1", got)
	}
}

// TestHandoffRefusedFrameCountsItsPrefix: a hand-off frame is imported
// state by state, so in the frame [new flow A, flow B the destination
// already tracks] A is imported before B is refused. The refusal tears the
// session down, and the import counter still counts A: A answers at the
// destination exactly as it did at the source, and HandoffFlows is 1.
func TestHandoffRefusedFrameCountsItsPrefix(t *testing.T) {
	tb := mustTestbench(t, 45)
	sinkA, srvA := newServedSink(t, tb, 2)
	sinkB, srvB := newServedSink(t, tb, 2)
	const exp, pkts = uint64(3), 50
	stream := func(srv *Server, name string, flows ...int) {
		ex, err := dial(srv.Addr().String(), HelloFor(tb.Engine, exp, name))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range flows {
			if err := ex.Send(tb.FlowBatch(exp, f, pkts, nil, nil)); err != nil {
				t.Fatal(err)
			}
		}
		if err := ex.Close(); err != nil {
			t.Fatal(err)
		}
		waitPackets(t, srv, uint64(len(flows)*pkts))
	}
	stream(srvA, "source", 0, 1)
	stream(srvB, "destination", 1)
	a, b := tb.FlowKeyFor(exp, 0), tb.FlowKeyFor(exp, 1)
	answersOfA := func(sink *pipeline.Sink) []byte {
		rec, err := sink.SnapshotFlows([]core.FlowKey{a}).Merged()
		if err != nil {
			t.Fatal(err)
		}
		if !rec.HasFlow(a) {
			t.Fatal("flow A is not tracked")
		}
		return answersJSON(t, Answers(rec, tb.Queries(), []core.FlowKey{a}))
	}
	want := answersOfA(sinkA)

	states, err := srvA.ExportFlows([]core.FlowKey{a, b})
	if err != nil || len(states) != 2 {
		t.Fatalf("export: %d states, %v", len(states), err)
	}
	refusals := srvB.Stats().ConnErrors
	if _, err := SendHandoff(srvB.Addr().String(), HelloFor(tb.Engine, 1<<40, "handoff"), states); err != nil {
		t.Fatal(err)
	}
	if srvB.Stats().ConnErrors == refusals {
		t.Fatal("the frame carrying a flow the destination tracks was not refused")
	}
	if got := srvB.HandoffFlows(); got != 1 {
		t.Errorf("HandoffFlows = %d after a frame whose first state was imported, want 1", got)
	}
	if got := answersOfA(sinkB); !bytes.Equal(got, want) {
		t.Errorf("flow A at the destination answers\n%s\nwant the source's\n%s", got, want)
	}
}

// TestHandoffCloseIsAck: SendHandoff returns only once the destination has
// folded what it shipped. The destination's one shard is held in a
// WithFlow call, so the import cannot finish and SendHandoff must still be
// waiting; once the shard is released, HandoffFlows counts every shipped
// flow the moment SendHandoff returns.
func TestHandoffCloseIsAck(t *testing.T) {
	tb := mustTestbench(t, 47)
	_, srvA := newServedSink(t, tb, 1)
	sinkB, srvB := newServedSink(t, tb, 1)
	const exp, pkts = uint64(4), 50
	ex, err := dial(srvA.Addr().String(), HelloFor(tb.Engine, exp, "source"))
	if err != nil {
		t.Fatal(err)
	}
	for f := 0; f < 2; f++ {
		if err := ex.Send(tb.FlowBatch(exp, f, pkts, nil, nil)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ex.Close(); err != nil {
		t.Fatal(err)
	}
	waitPackets(t, srvA, 2*pkts)
	states, err := srvA.ExportFlows([]core.FlowKey{tb.FlowKeyFor(exp, 0), tb.FlowKeyFor(exp, 1)})
	if err != nil || len(states) != 2 {
		t.Fatalf("export: %d states, %v", len(states), err)
	}

	held, release, released := make(chan struct{}), make(chan struct{}), make(chan error, 1)
	go func() {
		released <- sinkB.WithFlow(tb.FlowKeyFor(exp, 0), func(*core.Recording) error {
			close(held)
			<-release
			return nil
		})
	}()
	<-held
	type result struct {
		sent int
		err  error
	}
	done := make(chan result, 1)
	go func() {
		sent, err := SendHandoff(srvB.Addr().String(), HelloFor(tb.Engine, 1<<40, "handoff"), states)
		done <- result{sent, err}
	}()
	select {
	case r := <-done:
		close(release)
		t.Fatalf("SendHandoff returned (%d, %v) while the destination's shard was held", r.sent, r.err)
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	r := <-done
	imported := srvB.HandoffFlows()
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.sent != len(states) || imported != uint64(len(states)) {
		t.Fatalf("shipped %d, imported %d when SendHandoff returned, want %d each", r.sent, imported, len(states))
	}
	if err := <-released; err != nil {
		t.Fatal(err)
	}
}

// TestHandoffWithoutQueries: a hand-off needs no query list — the image
// is the flow's block, laid out by the engine both ends compiled — so two
// collectors built without WithQueries move a flow, and the flow's image
// at the destination is the source's, byte for byte.
func TestHandoffWithoutQueries(t *testing.T) {
	tb := mustTestbench(t, 44)
	sinkA, srvA := serveSink(t, tb, 1)
	sinkB, srvB := serveSink(t, tb, 1)
	const exp, pkts = 1, 40
	flow := tb.FlowKeyFor(exp, 0)
	ex, err := dial(srvA.Addr().String(), HelloFor(tb.Engine, exp, "pre"))
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Send(tb.FlowBatch(exp, 0, pkts, nil, nil)); err != nil {
		t.Fatal(err)
	}
	if err := ex.Close(); err != nil {
		t.Fatal(err)
	}
	waitPackets(t, srvA, pkts)
	states, err := srvA.ExportFlows([]core.FlowKey{flow})
	if err != nil || len(states) != 1 {
		t.Fatalf("exported %d states: %v", len(states), err)
	}
	var tracked bool
	if err := sinkA.WithFlow(flow, func(rec *core.Recording) error {
		tracked = rec.HasFlow(flow)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if tracked {
		t.Fatal("the exported flow is still tracked at the source")
	}
	if _, err := SendHandoff(srvB.Addr().String(), HelloFor(tb.Engine, 1<<40, "handoff"), states); err != nil {
		t.Fatal(err)
	}
	if got := srvB.HandoffFlows(); got != 1 {
		t.Fatalf("imported %d flows, want 1", got)
	}
	var img []byte
	err = sinkB.WithFlow(flow, func(rec *core.Recording) (err error) {
		img, err = rec.AppendFlowState(nil, flow)
		return err
	})
	if err != nil || !bytes.Equal(img, states[0].State) {
		t.Fatalf("the flow's image at the destination differs from the source's (err %v)", err)
	}
}

// waitPackets polls the server's ingest counter up to a deadline.
func waitPackets(t *testing.T, s *Server, want uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := s.Stats()
		if st.Packets == want && st.Active == 0 {
			return
		}
		if st.Packets > want {
			t.Fatalf("ingested %d packets, want %d", st.Packets, want)
		}
		if !time.Now().Before(deadline) {
			t.Fatalf("ingested %d of %d packets at deadline", st.Packets, want)
		}
		time.Sleep(time.Millisecond)
	}
}

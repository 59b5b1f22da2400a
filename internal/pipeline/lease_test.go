package pipeline

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// TestClosedSnapshotCostsWriterNothing pins what Snapshot.Close buys the
// shard workers. After a full snapshot of converged flows is read and
// closed, the next frame into each flow allocates within 16 B per flow of
// what it allocates in a twin sink that was never snapshotted: no flow
// copies its state. A snapshot still held when the frame arrives costs a
// copy of every flow, as it always did. Each figure is the smallest of
// three fresh measurements: a runtime allocation landing inside one only
// adds.
func TestClosedSnapshotCostsWriterNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	eng, path, lat, util := testPlan(t, 811)
	const flows, warm, frame, k = 64, 800, 32, 6
	warmup := routedWorkload(eng, 5, flows, warm, k)
	next := routedWorkload(eng, 6, flows, frame, k)
	closed, held := math.Inf(1), math.Inf(1)
	for range 3 {
		sinks := make([]*Sink, 3) // closed snapshot, held snapshot, no snapshot
		for i := range sinks {
			sink, err := NewSink(eng, Config{Shards: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer sink.Close()
			sink.Ingest(warmup)
			requireDecoded(t, sink, path, flows)
			sinks[i] = sink
		}
		for i, sink := range sinks[:2] {
			snap := sink.Snapshot()
			merged, err := snap.Merged()
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range merged.Flows() {
				compareFlow(t, 2, sinks[2].Recording(f), merged, f, k, path, lat, util)
			}
			if i == 0 {
				snap.Close()
			}
		}
		cost := make([]float64, len(sinks))
		for i, sink := range sinks {
			_, bytes := allocsDuring(func() {
				sink.Ingest(next)
				sink.Barrier()
			})
			cost[i] = float64(bytes)
		}
		closed = min(closed, (cost[0]-cost[2])/flows)
		held = min(held, (cost[1]-cost[2])/flows)
	}
	t.Logf("a %d-packet frame per flow over a sink never snapshotted: %.0f B per flow after a closed snapshot, %.0f B while one is held", frame, closed, held)
	if closed > 16 {
		t.Errorf("a %d-packet frame after a closed snapshot: %.0f B per flow over a sink never snapshotted, want at most 16: no flow-state copy", frame, closed)
	}
	if held < 256 {
		t.Errorf("a %d-packet frame while a snapshot is held: %.0f B per flow over a sink never snapshotted, want a flow-state copy (at least 256 B)", frame, held)
	}
}

// TestClosedSnapshotsRaceIngest is the lease under the race detector.
// Readers answer from a full and a flow-scoped snapshot while the ingester
// keeps feeding the sink. The snapshots are then closed on the readers'
// goroutines — the scoped one by its reader, the full one as soon as every
// reader is done — while ingest continues, so the workers take their flows
// back and write to them in place. A second snapshot is taken later, read
// while ingest continues and closed. Every answer and every flow's
// hand-off image must be byte-identical to a serial Recording of the
// packets before the snapshot's cut.
func TestClosedSnapshotsRaceIngest(t *testing.T) {
	eng, path, lat, util := testPlan(t, 821)
	const nFlows, k, readers, step = 8, 6, 3, 48
	pkts := encodeWorkload(eng, 41, nFlows, 1200, k)
	cfg := Config{Shards: 2, BatchSize: 16}
	sink, err := NewSink(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	all := make([]core.FlowKey, nFlows)
	for f := range all {
		all[f] = workloadFlow(f)
	}
	scoped := all[2:5]
	render := func(rec *core.Recording, flows []core.FlowKey) string {
		var b []byte
		for _, f := range flows {
			img, err := rec.AppendFlowState(nil, f)
			if err != nil {
				t.Error(err)
				return ""
			}
			b = fmt.Appendf(b, "%d %x", f, img)
			p, done := rec.Path(path, f)
			b = fmt.Appendf(b, " path %v %v", p, done)
			for hop := 1; hop <= k; hop++ {
				q, err := rec.LatencyQuantiles(lat, f, hop, 0.5, 0.99)
				b = fmt.Appendf(b, " hop %d %v %v", hop, q, err)
			}
			b = fmt.Appendf(b, " util %v\n", rec.UtilSeries(util, f))
		}
		return string(b)
	}
	oracle := func(n int, flows []core.FlowKey) string {
		rec, err := core.NewRecording(eng)
		if err != nil {
			t.Fatal(err)
		}
		if err := rec.RecordBatch(pkts[:n]); err != nil {
			t.Fatal(err)
		}
		return render(rec, flows)
	}
	// ingest feeds the packets of [from, to) whose flow keep accepts, each
	// flow's in stream order.
	ingest := func(from, to int, keep func(core.FlowKey) bool) {
		var part []core.PacketDigest
		for _, p := range pkts[from:to] {
			if keep(p.Flow) {
				part = append(part, p)
			}
		}
		for off := 0; off < len(part); off += step {
			sink.Ingest(part[off:min(off+step, len(part))])
		}
		sink.Flush()
	}
	// Between the first snapshot's cut and its Close only the hot flows
	// take packets, so the cold flows' leased states are still installed
	// in the workers when it closes: the workers take them back and write
	// to them in place.
	hot := map[core.FlowKey]bool{}
	for f := 0; f < nFlows; f += 2 {
		hot[workloadFlow(f)] = true
	}
	every := func(core.FlowKey) bool { return true }
	isHot := func(f core.FlowKey) bool { return hot[f] }
	isCold := func(f core.FlowKey) bool { return !hot[f] }
	// check renders rec's answers for flows a few times over in a
	// goroutine added to wg, comparing each rendering with want, and runs
	// then, if any, when done.
	check := func(wg *sync.WaitGroup, name string, rec *core.Recording, flows []core.FlowKey, want string, then func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 4 {
				if got := render(rec, flows); got != want {
					t.Errorf("%s: answers differ from a serial Recording at its cut:\ngot  %.200s\nwant %.200s", name, got, want)
					break
				}
			}
			if then != nil {
				then()
			}
		}()
	}
	cut1, cut2, cut3 := len(pkts)/4, len(pkts)/2, 3*len(pkts)/4
	want1, wantScoped1, want3 := oracle(cut1, all), oracle(cut1, scoped), oracle(cut3, all)

	ingest(0, cut1, every)
	full1, scoped1 := sink.Snapshot(), sink.SnapshotFlows(scoped)
	m1, err := full1.Merged()
	if err != nil {
		t.Fatal(err)
	}
	s1, err := scoped1.Merged()
	if err != nil {
		t.Fatal(err)
	}
	var readersDone sync.WaitGroup
	for r := range readers {
		check(&readersDone, fmt.Sprintf("reader %d, first snapshot", r), m1, all, want1, nil)
	}
	check(&readersDone, "reader of the scoped snapshot", s1, scoped, wantScoped1, scoped1.Close)
	closed := make(chan struct{})
	go func() {
		readersDone.Wait()
		full1.Close()
		close(closed)
	}()
	ingest(cut1, cut2, isHot)
	<-closed

	ingest(cut1, cut2, isCold)
	ingest(cut2, cut3, every)
	full2 := sink.Snapshot()
	m2, err := full2.Merged()
	if err != nil {
		t.Fatal(err)
	}
	var second sync.WaitGroup
	for r := range readers {
		check(&second, fmt.Sprintf("reader %d, second snapshot", r), m2, all, want3, nil)
	}
	closeWhenRead := make(chan struct{})
	go func() {
		second.Wait()
		full2.Close()
		close(closeWhenRead)
	}()
	ingest(cut3, len(pkts), every)
	<-closeWhenRead

	sink.Barrier()
	final := sink.Snapshot()
	defer final.Close()
	merged, err := final.Merged()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := render(merged, all), oracle(len(pkts), all); got != want {
		t.Fatal("the sink's final answers differ from a serial Recording of every packet")
	}
}

// TestSnapshotCloseWaitsForNoWorker: Close gives a snapshot's leases back
// on the caller's goroutine, so it returns while every shard worker is held
// inside a WithFlow call. Once free, the workers record on into the flows
// the snapshot held, and the sink answers as a serial Recording does.
func TestSnapshotCloseWaitsForNoWorker(t *testing.T) {
	eng, path, lat, util := testPlan(t, 831)
	const nFlows, k, shards = 8, 6, 2
	pkts := encodeWorkload(eng, 43, nFlows, 200, k)
	sink, err := NewSink(eng, Config{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	half := len(pkts) / 2
	sink.Ingest(pkts[:half])
	snap := sink.Snapshot()
	merged, err := snap.Merged()
	if err != nil {
		t.Fatal(err)
	}
	if got := merged.TrackedFlows(); got != nFlows {
		t.Fatalf("the snapshot tracks %d flows, want %d", got, nFlows)
	}
	entered, free := make(chan struct{}), make(chan struct{})
	var workers sync.WaitGroup
	held := map[int]bool{}
	for f := range nFlows {
		flow := workloadFlow(f)
		if i := sink.shardOf(flow).idx; !held[i] {
			held[i] = true
			workers.Add(1)
			go func() {
				defer workers.Done()
				if err := sink.WithFlow(flow, func(*core.Recording) error {
					entered <- struct{}{}
					<-free
					return nil
				}); err != nil {
					t.Error(err)
				}
			}()
		}
	}
	if len(held) != shards {
		t.Fatalf("the workload's flows reach %d of %d shards", len(held), shards)
	}
	for range held {
		<-entered
	}
	closed := make(chan struct{})
	go func() {
		snap.Close()
		close(closed)
	}()
	select {
	case <-closed:
		close(free)
	case <-time.After(10 * time.Second):
		close(free)
		t.Fatal("Close waited for the shard workers")
	}
	workers.Wait()
	sink.Ingest(pkts[half:])
	sink.Barrier()
	serial, err := core.NewRecording(eng)
	if err != nil {
		t.Fatal(err)
	}
	if err := serial.RecordBatch(pkts); err != nil {
		t.Fatal(err)
	}
	for f := range nFlows {
		compareFlow(t, shards, serial, sink.Recording(workloadFlow(f)), workloadFlow(f), k, path, lat, util)
	}
}

package pipeline

import (
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/hash"
	"repro/internal/wire"
)

// stageWorkload splits an encoded stream into per-connection streams the
// way a real deployment does: each flow belongs to exactly one
// connection, and a connection carries its flows' packets in arrival
// order. That is the ordering regime IngestStage promises to preserve.
func stageWorkload(pkts []core.PacketDigest, conns int) [][]core.PacketDigest {
	out := make([][]core.PacketDigest, conns)
	for i := range pkts {
		c := hash.Mix64(uint64(pkts[i].Flow)+1) % uint64(conns)
		out[c] = append(out[c], pkts[i])
	}
	return out
}

// staged counts the packets a Stage currently holds.
func staged(st *Stage) int {
	n := 0
	for _, b := range st.bufs {
		n += len(b)
	}
	return n
}

// TestConcurrentStageMatchesSerial is the determinism acceptance test for
// the concurrent ingest surface: conns goroutines, each with a private
// Stage, feed one sink concurrently, and every per-flow answer must be
// bit-identical to the serial Recording — across shard counts, connection
// counts, and whatever interleaving the scheduler produces. Run under
// -race this is also the data-race acceptance test for the striped locks.
func TestConcurrentStageMatchesSerial(t *testing.T) {
	eng, path, lat, util := testPlan(t, 101)
	const (
		nFlows      = 24
		pktsPerFlow = 300
		k           = 6
	)
	pkts := encodeWorkload(eng, 7, nFlows, pktsPerFlow, k)

	serial, err := core.NewRecording(eng)
	if err != nil {
		t.Fatal(err)
	}
	if err := serial.RecordBatch(pkts); err != nil {
		t.Fatal(err)
	}

	for _, shards := range []int{1, 3, 8} {
		for _, conns := range []int{1, 4} {
			sink, err := NewSink(eng, Config{Shards: shards, BatchSize: 64})
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for _, stream := range stageWorkload(pkts, conns) {
				wg.Add(1)
				go func(stream []core.PacketDigest) {
					defer wg.Done()
					st := sink.NewStage()
					bufs := st.Buffers()
					mod := uint64(len(bufs))
					// Stage in frame-sized slices, landing each "frame"
					// like a connection goroutine would.
					const frame = 37 // unaligned with BatchSize on purpose
					for off := 0; off < len(stream); off += frame {
						end := min(off+frame, len(stream))
						for i := off; i < end; i++ {
							sh := hash.ShardOf(uint64(stream[i].Flow), mod)
							bufs[sh] = append(bufs[sh], stream[i])
						}
						sink.IngestStage(st)
					}
				}(stream)
			}
			wg.Wait()
			if err := sink.Close(); err != nil {
				t.Fatal(err)
			}
			if got := sink.TrackedFlows(); got != serial.TrackedFlows() {
				t.Fatalf("shards=%d conns=%d: tracked %d flows, serial %d",
					shards, conns, got, serial.TrackedFlows())
			}
			for f := 0; f < nFlows; f++ {
				flow := core.FlowKey(uint64(f)*2654435761 + 1)
				compareFlow(t, shards, serial, sink.Recording(flow), flow, k, path, lat, util)
			}
		}
	}
}

// TestSerialIngestAlongsideStages pins the mixed contract: one serial
// Ingest caller may run concurrently with IngestStage callers, because
// Ingest routes through the same striped locks. Answers still match the
// serial Recording exactly.
func TestSerialIngestAlongsideStages(t *testing.T) {
	eng, path, lat, util := testPlan(t, 101)
	const (
		nFlows      = 16
		pktsPerFlow = 200
		k           = 6
	)
	pkts := encodeWorkload(eng, 11, nFlows, pktsPerFlow, k)

	serial, err := core.NewRecording(eng)
	if err != nil {
		t.Fatal(err)
	}
	if err := serial.RecordBatch(pkts); err != nil {
		t.Fatal(err)
	}

	sink, err := NewSink(eng, Config{Shards: 4, BatchSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	streams := stageWorkload(pkts, 3)
	var wg sync.WaitGroup
	// Connection 0 uses the serial surface; the rest use Stages.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for off := 0; off < len(streams[0]); off += 29 {
			end := min(off+29, len(streams[0]))
			sink.Ingest(streams[0][off:end])
		}
	}()
	for _, stream := range streams[1:] {
		wg.Add(1)
		go func(stream []core.PacketDigest) {
			defer wg.Done()
			st := sink.NewStage()
			bufs := st.Buffers()
			mod := uint64(len(bufs))
			for off := 0; off < len(stream); off += 41 {
				end := min(off+41, len(stream))
				for i := off; i < end; i++ {
					sh := hash.ShardOf(uint64(stream[i].Flow), mod)
					bufs[sh] = append(bufs[sh], stream[i])
				}
				sink.IngestStage(st)
			}
		}(stream)
	}
	wg.Wait()
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	for f := 0; f < nFlows; f++ {
		flow := core.FlowKey(uint64(f)*2654435761 + 1)
		compareFlow(t, 4, serial, sink.Recording(flow), flow, k, path, lat, util)
	}
}

// TestStageResetAfterDecodeError exercises the contract AppendUnmarshal-
// Sharded's doc imposes: a failed decode leaves an unspecified prefix
// staged, Reset discards it, and the stage remains usable — no stale
// packets leak into the next IngestStage.
func TestStageResetAfterDecodeError(t *testing.T) {
	eng, _, _, _ := testPlan(t, 101)
	pkts := encodeWorkload(eng, 3, 8, 4, 6)
	sink, err := NewSink(eng, Config{Shards: 4, BatchSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	good, err := wire.AppendMarshal(nil, pkts)
	if err != nil {
		t.Fatal(err)
	}
	st := sink.NewStage()
	if _, err := wire.AppendUnmarshalSharded(st.Buffers(), good[:len(good)-1]); err == nil {
		t.Fatal("truncated frame decoded")
	}
	st.Reset()
	if staged(st) != 0 {
		t.Fatalf("%d packets staged after Reset", staged(st))
	}
	if n, err := wire.AppendUnmarshalSharded(st.Buffers(), good); err != nil || n != len(pkts) {
		t.Fatalf("decode after Reset: n=%d err=%v", n, err)
	}
	if staged(st) != len(pkts) {
		t.Fatalf("staged %d packets, want %d", staged(st), len(pkts))
	}
	sink.IngestStage(st)
	if staged(st) != 0 {
		t.Fatalf("%d packets staged after IngestStage", staged(st))
	}
	sink.Barrier()
	total, _ := sink.Stats()
	if total.Packets+uint64(bufferedPackets(sink)) != uint64(len(pkts)) {
		t.Fatalf("sink holds %d dispatched + %d buffered packets, want %d",
			total.Packets, bufferedPackets(sink), len(pkts))
	}
}

func bufferedPackets(s *Sink) int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += len(sh.buf)
		sh.mu.Unlock()
	}
	return n
}

// TestStageZeroAllocSteadyState pins the acceptance criterion for the
// per-connection decode path, un-backlogged: once flows are admitted and
// the buffers are warm, frame payload → AppendUnmarshalSharded →
// IngestStage → Barrier allocates nothing. The Barrier after every frame
// means no worker queue ever fills here; the saturated path is
// TestBackpressureZeroAlloc's. The plan is path-only and every flow's path
// has decoded by the end of warm-up, so recording allocates nothing and
// every allocation the counter sees is a recycling leak in the
// decode/stage/dispatch machinery, not data-structure growth (KLL
// compactors and raw sample buffers grow O(log n) with the stream; that
// is real work, bounded separately by core's TestRecordStageAllocationPins).
func TestStageZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	eng, path := pathOnlyEngine(t)
	const k, flows = 6, 32
	pkts := routedWorkload(eng, 5, flows, 64, k)
	payload, err := wire.AppendMarshal(nil, pkts)
	if err != nil {
		t.Fatal(err)
	}
	sink, err := NewSink(eng, Config{
		Shards: 4, BatchSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	st := sink.NewStage()
	ingestFrame := func() {
		if _, err := wire.AppendUnmarshalSharded(st.Buffers(), payload); err != nil {
			t.Fatal(err)
		}
		sink.IngestStage(st)
	}
	// Warm up: admit every flow, grow the staging buffers and the
	// dispatch free lists to steady-state shape.
	for i := 0; i < 4; i++ {
		ingestFrame()
	}
	requireDecoded(t, sink, path, flows)
	allocs := testing.AllocsPerRun(32, func() {
		ingestFrame()
		sink.Barrier()
	})
	if allocs != 0 {
		t.Errorf("steady-state decode path allocates %.1f/op, want 0", allocs)
	}
	// The in-process entry (scenarios, pintfig -shards) shares the
	// dispatch machinery and its free lists.
	allocs = testing.AllocsPerRun(32, func() {
		sink.Ingest(pkts)
		sink.Barrier()
	})
	if allocs != 0 {
		t.Errorf("steady-state Ingest allocates %.1f/op, want 0", allocs)
	}
}

// pathOnlyEngine compiles the plan the allocation tests record: testPlan's
// path query alone, on every packet. Fed routedWorkload, a flow's path
// decodes within its first few dozen packets, and recording into a decoded
// flow allocates nothing (coding's TestObserveFinishedDecoderZeroAlloc).
func pathOnlyEngine(t *testing.T) (*core.Engine, *core.PathQuery) {
	t.Helper()
	master := hash.Seed(77)
	universe := make([]uint64, 64)
	for i := range universe {
		universe[i] = uint64(0xAB00 + i*3)
	}
	cfg, err := core.DefaultPathConfig(4, 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	path, err := core.NewPathQuery("path", cfg, 1, master, universe)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.Compile([]core.Query{path}, 8, master.Derive(9))
	if err != nil {
		t.Fatal(err)
	}
	return eng, path
}

// requireDecoded drains the sink and fails the test unless every flow of
// a routedWorkload over that many flows has decoded its path: the warm-up
// an allocation count needs before recording stops allocating.
func requireDecoded(t *testing.T, sink *Sink, path *core.PathQuery, flows int) {
	t.Helper()
	sink.Barrier()
	for f := 0; f < flows; f++ {
		flow := workloadFlow(f)
		if dec := sink.Recording(flow).PathDecoder(path, flow); dec == nil || !dec.Done() {
			t.Fatalf("flow %d has not decoded its path after warm-up", flow)
		}
	}
}

// allocsDuring counts the heap objects and bytes the whole process
// allocates while fn runs — every goroutine's, so a worker's count too.
func allocsDuring(fn func()) (objects, bytes uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// TestBackpressureZeroAlloc saturates a shard's hand-off — QueueDepth+3
// full batches back to back, so the queue fills, the ingester parks in a
// blocked send and the worker drains the whole backlog before the ingester
// runs again (one P makes that schedule certain) — and requires that the
// dispatch buffers all come back: a pool one slot short drops a buffer per
// cycle here and makes a fresh one on the next.
func TestBackpressureZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	eng, path := pathOnlyEngine(t)
	const batchSize, queueDepth, flows = 256, 4, 32
	sink, err := NewSink(eng, Config{
		Shards: 1, BatchSize: batchSize, QueueDepth: queueDepth})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	burst := routedWorkload(eng, 5, flows, (queueDepth+3)*batchSize/flows, 6)
	cycle := func() {
		sink.Ingest(burst)
		sink.Barrier()
	}
	for i := 0; i < 8; i++ {
		cycle()
	}
	requireDecoded(t, sink, path, flows)
	if n, _ := allocsDuring(func() {
		for i := 0; i < 200; i++ {
			cycle()
		}
	}); n != 0 {
		t.Errorf("200 saturated cycles made %d heap objects, want 0", n)
	}
	if total, _ := sink.Stats(); total.Stalls == 0 {
		t.Error("no dispatch stalled: the test did not reach backpressure")
	}
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestBackpressureZeroAllocConcurrentStages is the same requirement on the
// collector's surface: two ingesters with their own Stages contend for the
// shards with no Barrier between bursts, so whatever schedule the run
// gets, a blocked sender, a full queue and a busy worker coexist. Parked
// goroutines cost the runtime an occasional ~100 B wait record, so the
// bound here is bytes: all bursts together allocate less than one buffer.
func TestBackpressureZeroAllocConcurrentStages(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	eng, path := pathOnlyEngine(t)
	const batchSize, queueDepth, ingesters, flows = 256, 4, 2, 32
	sink, err := NewSink(eng, Config{
		Shards: 2, BatchSize: batchSize, QueueDepth: queueDepth})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	payload, err := wire.AppendMarshal(nil, routedWorkload(eng, 5, flows, 2*(queueDepth+3)*batchSize/flows, 6))
	if err != nil {
		t.Fatal(err)
	}
	// The ingesters live across both phases, so the measured one starts no
	// goroutine; phase hands them a burst count, done reports one finished.
	phase := make([]chan int, ingesters)
	done := make(chan struct{})
	for i := range phase {
		phase[i] = make(chan int)
		go func(bursts <-chan int) {
			st := sink.NewStage()
			for n := range bursts {
				for ; n > 0; n-- {
					if _, err := wire.AppendUnmarshalSharded(st.Buffers(), payload); err != nil {
						t.Error(err)
					}
					sink.IngestStage(st)
				}
				done <- struct{}{}
			}
		}(phase[i])
	}
	run := func(bursts int) {
		for _, c := range phase {
			c <- bursts
		}
		for range phase {
			<-done
		}
	}
	run(16)
	requireDecoded(t, sink, path, flows)
	oneBuffer := uint64(batchSize) * uint64(unsafe.Sizeof(core.PacketDigest{}))
	if n, b := allocsDuring(func() { run(200) }); b >= oneBuffer {
		t.Errorf("%d×200 saturated bursts allocated %d B in %d objects, want less than one %d B buffer",
			ingesters, b, n, oneBuffer)
	}
	for _, c := range phase {
		close(c)
	}
	if total, _ := sink.Stats(); total.Stalls == 0 {
		t.Error("no dispatch stalled: the test did not reach backpressure")
	}
}

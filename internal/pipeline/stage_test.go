package pipeline

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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
			sink, err := NewSink(eng, Config{Shards: shards})
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
					const frame = 37 // unaligned with the slab on purpose
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

	sink, err := NewSink(eng, Config{Shards: 4})
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
	sink, err := NewSink(eng, Config{Shards: 4})
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
	if total, _ := sink.Stats(); total.Packets != uint64(len(pkts)) {
		t.Fatalf("sink accepted %d packets, want %d", total.Packets, len(pkts))
	}
}

// TestStageZeroAllocSteadyState pins the acceptance criterion for the
// per-connection decode path, un-backlogged: once flows are admitted and
// the buffers are warm, frame payload → AppendUnmarshalSharded →
// IngestStage → Barrier allocates nothing. Nothing holds a shard here, so
// no slab ever fills; the saturated path is TestBackpressureZeroAlloc's. The plan is path-only and every flow's path
// has decoded by the end of warm-up, so recording allocates nothing and
// every allocation the counter sees is a recycling leak in the
// decode/stage/record machinery, not data-structure growth (KLL
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
		Shards: 4})
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
	// Warm up: admit every flow and grow the staging buffers.
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
	// The in-process entry shares the stripe locks and the slabs.
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
// allocates while fn runs — every goroutine's.
func allocsDuring(fn func()) (objects, bytes uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// holdShard takes sh's lock in a WithFlow call on its own goroutine each
// time a value arrives on take, and keeps it until the shard's stall
// counter passes that value: until a chunk has found the slab full. It
// allocates nothing per hold.
func holdShard(sink *Sink, flow core.FlowKey) (take chan<- uint64, held <-chan struct{}) {
	takes, helds := make(chan uint64), make(chan struct{})
	sh := sink.shardOf(flow)
	var until uint64
	hold := func(*core.Recording) error {
		helds <- struct{}{}
		for sh.stalls.Load() <= until {
			runtime.Gosched()
		}
		return nil
	}
	go func() {
		for until = range takes {
			sink.WithFlow(flow, hold)
		}
	}()
	return takes, helds
}

// TestBackpressureZeroAlloc runs full-slab cycles on one shard: while
// another goroutine holds the shard's lock, four 256-packet chunks fill
// the slab and a fifth finds it full and waits; the holder, released by
// that stall, records the slab before it lets go, and the fifth chunk is
// recorded after it. A cycle allocates nothing (parked goroutines cost
// the runtime an occasional wait record, below one per cycle).
func TestBackpressureZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	eng, path := pathOnlyEngine(t)
	const chunk, flows = 256, 32
	sink, err := NewSink(eng, Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	warm := routedWorkload(eng, 5, flows, 64, 6)
	sink.Ingest(warm)
	requireDecoded(t, sink, path, flows)
	burst := warm[:chunk]
	sh := sink.shards[0]
	take, held := holdShard(sink, burst[0].Flow)
	defer close(take)
	cycle := func() {
		stalls := sh.stalls.Load()
		take <- stalls
		<-held
		for i := 0; i < slabPackets/chunk; i++ {
			sink.Ingest(burst) // into the slab: the lock is held
		}
		sink.Ingest(burst) // the slab is full: wait
		if sh.stalls.Load() != stalls+1 {
			t.Fatalf("%d stalls in a cycle, want 1", sh.stalls.Load()-stalls)
		}
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("a full-slab cycle allocates %v objects, want 0", n)
	}
	if total, _ := sink.Stats(); total.Packets != uint64(len(warm)+102*(slabPackets+chunk)) {
		t.Errorf("sink accepted %d packets", total.Packets)
	}
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestBackpressureZeroAllocConcurrentStages is the same requirement on the
// collector's surface: two ingesters with their own Stages feed two
// shards with no Barrier between frames while a third goroutine holds
// shard 0, so shard 0's slab fills and an ingester waits on it while the
// other shard records. A cycle allocates nothing.
func TestBackpressureZeroAllocConcurrentStages(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	eng, path := pathOnlyEngine(t)
	const ingesters, flows = 2, 32
	sink, err := NewSink(eng, Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	warm := routedWorkload(eng, 5, flows, 64, 6)
	sink.Ingest(warm)
	requireDecoded(t, sink, path, flows)
	pkts := warm[:256] // both shards' flows
	payload, err := wire.AppendMarshal(nil, pkts)
	if err != nil {
		t.Fatal(err)
	}
	// Each ingester sends a slab's worth of frames a cycle, so the two
	// together overfill shard 0's slab.
	frames := slabPackets / len(pkts) * 2
	phase := make([]chan struct{}, ingesters)
	done := make(chan struct{})
	for i := range phase {
		phase[i] = make(chan struct{})
		go func(cycles <-chan struct{}) {
			st := sink.NewStage()
			for range cycles {
				for range frames {
					if _, err := wire.AppendUnmarshalSharded(st.Buffers(), payload); err != nil {
						t.Error(err)
					}
					sink.IngestStage(st)
				}
				done <- struct{}{}
			}
		}(phase[i])
	}
	defer func() {
		for _, c := range phase {
			close(c)
		}
	}()
	run := func() {
		for _, c := range phase {
			c <- struct{}{}
		}
		for range phase {
			<-done
		}
	}
	flow0 := pkts[0].Flow
	for i := 1; sink.shardOf(flow0) != sink.shards[0]; i++ {
		flow0 = pkts[i].Flow
	}
	sh := sink.shards[0]
	take, held := holdShard(sink, flow0)
	defer close(take)
	cycle := func() {
		take <- sh.stalls.Load()
		<-held
		run()
	}
	cycle()
	if n := testing.AllocsPerRun(50, cycle); n != 0 {
		t.Errorf("a full-slab cycle of %d×%d frames allocates %v objects, want 0", ingesters, frames, n)
	}
	if total, _ := sink.Stats(); total.Packets != uint64(len(warm)+52*ingesters*frames*len(pkts)) {
		t.Errorf("sink accepted %d packets, want %d", total.Packets, len(warm)+52*ingesters*frames*len(pkts))
	}
}

// gatePersister parks the first PersistIngest call until release is
// closed, so a test can stop a session inside the lock hold that records
// its chunk; it counts the chunks persisted.
type gatePersister struct {
	entered, release chan struct{}
	once             sync.Once
	chunks           atomic.Int64
}

func (g *gatePersister) PersistIngest([]core.PacketDigest) {
	g.once.Do(func() {
		close(g.entered)
		<-g.release
	})
	g.chunks.Add(1)
}

func (g *gatePersister) PersistCheckpoint(CheckpointStats) {}

// TestDrainingIsNotAStall stops a session inside its lock hold while
// other chunks fill the shard's slab. Those chunks return at once; the
// session, let go, records the full slab before its IngestStage returns,
// and reports no wait and no stall: it did the sink's work, it was not
// held back. Nothing is left in the slab and the shard is not busy.
func TestDrainingIsNotAStall(t *testing.T) {
	eng, _, _, _ := testPlan(t, 61)
	pkts := routedWorkload(eng, 5, 16, slabPackets/16, 6)
	sink, err := NewSink(eng, Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	gate := &gatePersister{entered: make(chan struct{}), release: make(chan struct{})}
	sink.SetPersister(gate)
	sh := sink.shards[0]
	waited := make(chan time.Duration)
	go func() {
		st := sink.NewStage()
		st.bufs[0] = append(st.bufs[0], pkts[:64]...)
		waited <- sink.IngestStage(st)
	}()
	<-gate.entered
	st := sink.NewStage()
	const chunk = 128
	for off := 0; off < len(pkts); off += chunk {
		st.bufs[0] = append(st.bufs[0], pkts[off:off+chunk]...)
		if w := sink.IngestStage(st); w != 0 {
			t.Fatalf("a chunk offered to the slab waited %v", w)
		}
	}
	if len(sh.pending.pkts) != cap(sh.pending.pkts) {
		t.Fatalf("the slab holds %d of %d packets", len(sh.pending.pkts), cap(sh.pending.pkts))
	}
	close(gate.release)
	if w := <-waited; w != 0 {
		t.Fatalf("draining a full slab reported a %v wait", w)
	}
	if n, want := gate.chunks.Load(), int64(1+len(pkts)/chunk); n != want {
		t.Fatalf("%d chunks recorded by the time the holder returned, want %d", n, want)
	}
	if len(sh.pending.pkts) != 0 || sh.busy {
		t.Fatalf("%d packets left in the slab, busy %v", len(sh.pending.pkts), sh.busy)
	}
	if total, _ := sink.Stats(); total.Stalls != 0 || total.Packets != uint64(len(pkts)+64) {
		t.Fatalf("stats %+v after draining a full slab", total)
	}
}

// TestNoChunkLost races sessions on one or two shards at one and two Ps,
// with random chunk sizes (some larger than a slab) and no Barrier: once
// the last IngestStage returns, the sink has accepted every packet and
// answers as the serial Recording does, read straight off the shards — a
// chunk left in a slab with no holder would show as a missing packet.
func TestNoChunkLost(t *testing.T) {
	eng, path, lat, util := testPlan(t, 101)
	const nFlows, k, sessions = 24, 6, 3
	pkts := encodeWorkload(eng, 17, nFlows, 300, k)
	serial, err := core.NewRecording(eng)
	if err != nil {
		t.Fatal(err)
	}
	if err := serial.RecordBatch(pkts); err != nil {
		t.Fatal(err)
	}
	streams := stageWorkload(pkts, sessions)
	for _, procs := range []int{1, 2} {
		for _, shards := range []int{1, 2} {
			func() {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				sink, err := NewSink(eng, Config{Shards: shards})
				if err != nil {
					t.Fatal(err)
				}
				var wg sync.WaitGroup
				for c, stream := range streams {
					wg.Add(1)
					go func() {
						defer wg.Done()
						rng := hash.NewRNG(uint64(100*procs + 10*shards + c))
						st := sink.NewStage()
						for off := 0; off < len(stream); {
							n := 1 + int(rng.Uint64()%uint64(slabPackets*3/2))
							if rng.Uint64()%4 != 0 {
								n = 1 + n%64
							}
							end := min(off+n, len(stream))
							for _, pd := range stream[off:end] {
								sh := hash.ShardOf(uint64(pd.Flow), uint64(shards))
								st.bufs[sh] = append(st.bufs[sh], pd)
							}
							sink.IngestStage(st)
							off = end
						}
					}()
				}
				wg.Wait()
				if total, _ := sink.Stats(); total.Packets != uint64(len(pkts)) {
					t.Fatalf("procs=%d shards=%d: sink accepted %d packets, want %d", procs, shards, total.Packets, len(pkts))
				}
				for i, sh := range sink.shards {
					if len(sh.pending.pkts) != 0 || sh.busy {
						t.Fatalf("procs=%d shards=%d: %d packets left in shard %d's slab, busy %v", procs, shards, len(sh.pending.pkts), i, sh.busy)
					}
				}
				for f := range nFlows {
					flow := workloadFlow(f)
					compareFlow(t, shards, serial, sink.Recording(flow), flow, k, path, lat, util)
				}
			}()
		}
	}
}

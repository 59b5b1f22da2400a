package segstore

import (
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/pipeline"
)

func TestWriterPersistsInOrder(t *testing.T) {
	dir := t.TempDir()
	st, _ := openTest(t, dir, Options{})
	w := NewWriter(st)

	b1, b2 := testDigests(4, 1), testDigests(5, 2)
	w.PersistIngest(b1)
	w.PersistIngest(b2)
	w.PersistCheckpoint(pipeline.CheckpointStats{Round: 1, Shard: 0, Shards: 1, Packets: 9, Flows: 2})
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}

	got := collectBlocks(t, st, 0, ^uint64(0))
	wantKinds := []uint8{KindDigests, KindDigests, KindCheckpoint}
	if len(got) != len(wantKinds) {
		t.Fatalf("store holds %d blocks, want %d", len(got), len(wantKinds))
	}
	for i, k := range wantKinds {
		if got[i].Kind != k {
			t.Fatalf("block %d has kind %d, want %d (FIFO violated)", i, got[i].Kind, k)
		}
	}
	first, err := DecodeDigests(nil, got[0].Body, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != len(b1) || first[0] != b1[0] {
		t.Fatalf("first batch changed: %d digests", len(first))
	}

	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWriterErrorSticksAndDrains forces an append failure and checks the
// writer reports it while never blocking producers.
func TestWriterErrorSticksAndDrains(t *testing.T) {
	dir := t.TempDir()
	st, _ := openTest(t, dir, Options{})
	w := NewWriter(st)
	st.Close() // every later append fails with "append after Close"

	for i := 0; i < 4*writerQueueDepth; i++ { // far past the queue depth: must not deadlock
		w.PersistIngest(testDigests(1, uint64(i)))
	}
	if err := w.Flush(); err == nil || !strings.Contains(err.Error(), "after Close") {
		t.Fatalf("flush after store close: %v", err)
	}
	if w.Err() == nil {
		t.Fatal("writer error not sticky")
	}
	if err := w.Close(); err == nil {
		t.Fatal("close swallowed the error")
	}
}

// Abandon stops the writer immediately, dropping everything still
// queued, and abandons the store — the simulated SIGKILL. Producers
// blocked on a full queue unblock (their events are lost, like any
// in-process buffer at a crash).
func (w *Writer) Abandon() {
	w.mu.Lock()
	if !w.closed {
		w.closed = true
		close(w.quit)
	}
	w.mu.Unlock()
	<-w.done
	w.store.Abandon()
}

func TestWriterAbandonUnblocks(t *testing.T) {
	dir := t.TempDir()
	st, _ := openTest(t, dir, Options{})
	w := NewWriter(st)
	w.PersistIngest(testDigests(2, 1))
	w.Abandon()
	// Post-abandon persists are dropped, not deadlocked.
	w.PersistIngest(testDigests(2, 2))
	if err := w.Flush(); err != nil {
		t.Fatalf("flush after abandon: %v", err)
	}
	// The store was abandoned with the writer; recovery replays whatever
	// reached the file before the abandon.
	if _, rep, err := Open(dir, Options{NoSync: true, Now: testClock()}); err != nil {
		t.Fatal(err)
	} else if rep.Packets > 2 {
		t.Fatalf("abandon leaked %d packets", rep.Packets)
	}
}

// TestWriterBackpressureSteadyStateAllocs parks the writer goroutine in
// an unanswered flush while several PersistIngest callers (a sink's shard
// stripes) fill the queue and block, in send holding a copy buffer or
// waiting for one, then lets it drain the lot: more buffers come back at
// once than the queue holds. None may be dropped, and however the callers
// interleave none may be made — after the first cycles a fill/drain cycle
// allocates less than one buffer.
func TestWriterBackpressureSteadyStateAllocs(t *testing.T) {
	saturatedCycles(t, 4, 4, 20)
}

// TestWriterBuffersBounded warms the writer with three callers, then
// parks eight at once: the buffers in flight must not outnumber those the
// three brought in, so five such cycles allocate less than one buffer. A free
// stack that made a buffer whenever more were in flight than ever before
// made one here per caller parked in send past the warm-up's — and, with
// four callers throughout, whenever a rare schedule parked one more of
// them holding a buffer than any warm-up cycle had.
func TestWriterBuffersBounded(t *testing.T) {
	saturatedCycles(t, 3, 8, 5)
}

// saturatedCycles runs fill/drain cycles against a writer parked in an
// unanswered flush, warmCallers PersistIngest callers in each warm-up cycle
// and callers in each of cycles measured ones, and fails if the measured
// cycles allocate a copy buffer's worth, the callers' own goroutines
// included. Each cycle must fill the queue: at
// least three callers.
func saturatedCycles(t *testing.T, warmCallers, callers, cycles int) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const perCaller, warm = writerQueueDepth / 2, 3
	st, _ := openTest(t, t.TempDir(), Options{SegmentBytes: 1 << 30})
	defer st.Close()
	// The block index grows by one entry per batch; that growth is the
	// store's, so it is bought up front.
	st.idx = slices.Grow(st.idx, (warm*warmCallers+cycles*callers)*perCaller)
	w := NewWriter(st)
	defer w.Close()
	batch := testDigests(256, 3)
	held := make(chan error) // unbuffered: the writer waits for the receive
	var wg sync.WaitGroup
	cycle := func(callers int) {
		w.ops <- wop{kind: opFlush, reply: held}
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perCaller; i++ {
					w.PersistIngest(batch)
				}
			}()
		}
		// One P: each yield runs the callers until they block, so a full
		// queue plus a few more yields is every caller parked.
		for spins := 0; len(w.ops) < cap(w.ops) || spins < callers; spins++ {
			runtime.Gosched()
		}
		<-held
		wg.Wait()
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < warm; i++ {
		cycle(warmCallers)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < cycles; i++ {
		cycle(callers)
	}
	runtime.ReadMemStats(&after)
	oneBuffer := uint64(len(batch)) * uint64(unsafe.Sizeof(batch[0]))
	if got := after.TotalAlloc - before.TotalAlloc; got >= oneBuffer {
		t.Fatalf("%d saturated cycles allocated %d B, want less than one %d B buffer", cycles, got, oneBuffer)
	}
}

package segstore

import (
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/pipeline"
)

// writerQueueDepth bounds the pending-operation queue. A full queue blocks
// PersistIngest — the ingester — which is the durability tier's
// backpressure: TCP flow control then slows the exporters, exactly like a
// sink shard whose pending slab is full would.
const writerQueueDepth = 64

// Writer is the pipeline.Persister that feeds a Store: every event is
// copied into a bounded queue and applied by one background goroutine,
// keeping file I/O off the ingest hot path. Wiring it in:
//
//	store, report, _ := segstore.Open(dir, segstore.Options{})
//	// ... replay the log into the sink first (collector.ReplayInto) ...
//	w := segstore.NewWriter(store)
//	sink.SetPersister(w)
//
// and on the way down: Sink.Checkpoint → w.Sync → Sink.Close → w.Close →
// store.Close.
type Writer struct {
	store *Store
	ops   chan wop
	quit  chan struct{}
	done  chan struct{}
	err   atomic.Pointer[error]

	mu     sync.Mutex // guards closed and free
	closed bool
	// free holds every copy buffer not queued, being applied or in a
	// PersistIngest call, as a stack, so a writer that keeps up reuses one
	// buffer. A buffer is made only when the stack is empty, and only by a
	// caller holding one of inFlight's tokens, so however many callers (the
	// sink's shard stripes) block at once, no more than writerBuffers
	// buffers ever exist: without the bound, a schedule that parked one
	// more caller in send than any before would make a buffer long after
	// start-up.
	free [][]core.PacketDigest
	// inFlight holds a token for every buffer out of free: a caller takes
	// one before it pops a buffer, and waits while none is left, as it
	// would on a full queue; apply returns it with the buffer.
	inFlight chan struct{}
}

// writerBuffers bounds the copy buffers: a full queue of batches and the
// one being applied.
const writerBuffers = writerQueueDepth + 1

// wop is one queued writer operation.
type wop struct {
	kind  uint8 // KindDigests / KindCheckpoint / opFlush / opSync
	batch []core.PacketDigest
	cp    Checkpoint
	reply chan<- error
}

const (
	opFlush uint8 = 0xFE
	opSync  uint8 = 0xFF
)

// NewWriter starts a writer over store.
func NewWriter(store *Store) *Writer {
	w := &Writer{
		store:    store,
		ops:      make(chan wop, writerQueueDepth),
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
		inFlight: make(chan struct{}, writerBuffers),
	}
	go w.run()
	return w
}

func (w *Writer) run() {
	defer close(w.done)
	for {
		select {
		case <-w.quit:
			return
		case op := <-w.ops:
			w.apply(op)
		}
	}
}

func (w *Writer) apply(op wop) {
	var err error
	switch op.kind {
	case KindDigests:
		if w.Err() == nil {
			err = w.store.AppendDigests(op.batch)
		}
		w.mu.Lock()
		w.free = append(w.free, op.batch)
		w.mu.Unlock()
		<-w.inFlight
	case KindCheckpoint:
		if w.Err() == nil {
			err = w.store.AppendCheckpoint(op.cp)
		}
	case opFlush:
		op.reply <- w.Err()
		return
	case opSync:
		err = w.Err()
		if err == nil {
			err = w.store.Sync()
		}
		op.reply <- err
		return
	}
	if err != nil {
		w.fail(err)
	}
}

func (w *Writer) fail(err error) {
	if w.err.Load() == nil {
		w.err.Store(&err)
	}
}

// Err returns the writer's first persistence error, or nil. After an
// error the writer keeps draining its queue (so ingestion never
// deadlocks) but appends nothing further — the collector surfaces the
// error and the operator decides.
func (w *Writer) Err() error {
	if p := w.err.Load(); p != nil {
		return *p
	}
	return nil
}

// send enqueues an op, blocking when the queue is full (backpressure)
// but never blocking once the writer has stopped.
func (w *Writer) send(op wop) {
	select {
	case w.ops <- op:
	case <-w.quit:
	}
}

// PersistIngest implements pipeline.Persister: it copies the batch into
// a recycled buffer and queues it, so steady state allocates nothing. It
// waits while writerBuffers buffers are in flight, and, like send, never
// once the writer has stopped.
func (w *Writer) PersistIngest(batch []core.PacketDigest) {
	select {
	case w.inFlight <- struct{}{}:
	case <-w.quit:
		return
	}
	var buf []core.PacketDigest
	w.mu.Lock()
	if n := len(w.free); n > 0 {
		buf, w.free = w.free[n-1], w.free[:n-1]
	}
	w.mu.Unlock()
	buf = append(buf[:0], batch...)
	w.send(wop{kind: KindDigests, batch: buf})
}

// PersistCheckpoint implements pipeline.Persister.
func (w *Writer) PersistCheckpoint(cp pipeline.CheckpointStats) {
	w.send(wop{kind: KindCheckpoint, cp: Checkpoint{
		Round:   cp.Round,
		Shard:   cp.Shard,
		Shards:  cp.Shards,
		Packets: cp.Packets,
		Flows:   cp.Flows,
	}})
}

// Flush blocks until every event queued before the call has been applied
// to the store, and returns the writer's error state.
func (w *Writer) Flush() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return w.Err()
	}
	w.mu.Unlock()
	reply := make(chan error, 1)
	select {
	case w.ops <- wop{kind: opFlush, reply: reply}:
	case <-w.quit:
		return w.Err()
	}
	select {
	case err := <-reply:
		return err
	case <-w.quit:
		return w.Err()
	}
}

// Sync flushes and fsyncs the store — the durability point each
// checkpoint interval ends with.
func (w *Writer) Sync() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return w.Err()
	}
	w.mu.Unlock()
	reply := make(chan error, 1)
	select {
	case w.ops <- wop{kind: opSync, reply: reply}:
	case <-w.quit:
		return w.Err()
	}
	select {
	case err := <-reply:
		return err
	case <-w.quit:
		return w.Err()
	}
}

// Close drains the queue and stops the writer. The store stays open —
// the caller seals it with Store.Close.
func (w *Writer) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return w.Err()
	}
	w.mu.Unlock()
	err := w.Flush()
	w.mu.Lock()
	if !w.closed {
		w.closed = true
		close(w.quit)
	}
	w.mu.Unlock()
	<-w.done
	return err
}

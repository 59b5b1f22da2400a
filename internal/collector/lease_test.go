package collector

import (
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/pipeline"
)

// cutWriter is a ResponseWriter whose client goes away after limit bytes:
// every write past them fails, as net/http's do once the peer is gone.
type cutWriter struct {
	header http.Header
	status int
	n      int
	limit  int
}

func (w *cutWriter) Header() http.Header { return w.header }

func (w *cutWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
}

func (w *cutWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	if w.n+len(p) > w.limit {
		return 0, errors.New("client gone")
	}
	w.n += len(p)
	return len(p), nil
}

// TestSnapshotHandlerReleasesOnEveryPath requires /snapshot to give its
// snapshot back to the shards however the request ends: after a
// request whose client goes away mid-body, and after one whose merge
// fails, the next frame into every flow allocates what it does in a twin
// sink that served no query, within 16 B per flow — no flow copies its
// state. A snapshot left open shows what the measurement catches: a copy
// of every flow. Each figure is the smallest of three rounds, as noise
// only adds.
func TestSnapshotHandlerReleasesOnEveryPath(t *testing.T) {
	tb := mustTestbench(t, 23)
	const nFlows, warm, frame, rounds = 64, 600, 32, 3
	streams := make([][]core.PacketDigest, nFlows)
	for f := range streams {
		streams[f] = tb.FlowBatch(1, f, warm+3*rounds*frame, nil, nil)
	}
	mk := func() *pipeline.Sink {
		sink, err := pipeline.NewSink(tb.Engine, pipeline.Config{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sink.Close() })
		for f := range streams {
			sink.Ingest(streams[f][:warm])
		}
		sink.Barrier()
		return sink
	}
	served, twin := mk(), mk()
	for f := range nFlows {
		flow := tb.FlowKeyFor(1, f)
		var done bool
		if err := served.WithFlow(flow, func(rec *core.Recording) error {
			dec := rec.PathDecoder(tb.PathQ, flow)
			done = dec != nil && dec.Done()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if !done {
			t.Fatalf("flow %d has not decoded its path after %d packets; the pin needs converged flows", flow, warm)
		}
	}
	srv, err := New(tb.Engine, WithSink(served), WithQueries(tb.Queries()...))
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	off := warm
	// nextFrame feeds the next frame of every flow to both sinks and
	// returns what it cost the served sink over the twin, per flow.
	nextFrame := func() float64 {
		var cost [2]uint64
		for i, sink := range []*pipeline.Sink{served, twin} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for f := range streams {
				sink.Ingest(streams[f][off : off+frame])
			}
			sink.Barrier()
			runtime.ReadMemStats(&after)
			cost[i] = after.TotalAlloc - before.TotalAlloc
		}
		off += frame
		return (float64(cost[0]) - float64(cost[1])) / nFlows
	}
	// A flow on one shard imported into the other as well makes every full
	// snapshot's merge fail; both sinks get it, so their frames cost alike.
	dupFailure := func() {
		a := tb.FlowKeyFor(1, 0)
		for _, sink := range []*pipeline.Sink{served, twin} {
			var recA *core.Recording
			var img []byte
			if err := sink.WithFlow(a, func(rec *core.Recording) (err error) {
				recA = rec
				img, err = rec.AppendFlowState(nil, a)
				return err
			}); err != nil {
				t.Fatal(err)
			}
			for f := 1; f < nFlows; f++ {
				placed := false
				if err := sink.WithFlow(tb.FlowKeyFor(1, f), func(rec *core.Recording) error {
					if rec == recA {
						return nil
					}
					placed = true
					return rec.RestoreFlowState(a, img)
				}); err != nil {
					t.Fatal(err)
				}
				if placed {
					break
				}
			}
		}
	}
	for _, tc := range []struct {
		name   string
		before func()
		query  func()
	}{
		{"client gone mid-body", func() {}, func() {
			w := &cutWriter{header: http.Header{}, limit: 2048}
			h.ServeHTTP(w, httptest.NewRequest("GET", "/snapshot", nil))
			if w.status != http.StatusOK || w.n == 0 {
				t.Fatalf("status %d after %d bytes, want 200 cut short", w.status, w.n)
			}
		}},
		{"merge fails", dupFailure, func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", "/snapshot", nil))
			if rec.Code != http.StatusInternalServerError {
				t.Fatalf("status %d, want 500: the merge did not fail", rec.Code)
			}
		}},
	} {
		tc.before()
		extra := math.Inf(1)
		for range rounds {
			tc.query()
			extra = min(extra, nextFrame())
		}
		t.Logf("%s: the next %d-packet frame cost %.0f B per flow over a sink that served no query", tc.name, frame, extra)
		if extra > 16 {
			t.Errorf("%s: the next %d-packet frame cost %.0f B per flow over a sink that served no query, want at most 16: the handler kept its snapshot",
				tc.name, frame, extra)
		}
	}
	extra := math.Inf(1)
	for range rounds {
		served.Snapshot() // never closed
		extra = min(extra, nextFrame())
	}
	if extra < 256 {
		t.Errorf("a snapshot left open: the next frame cost %.0f B per flow over a sink that served no query, want a flow-state copy (at least 256 B)", extra)
	}
}

// blockedWriter is a ResponseWriter whose first write blocks until
// release closes, announcing itself on writing.
type blockedWriter struct {
	header           http.Header
	writing, release chan struct{}
	blocked          bool
}

func (w *blockedWriter) Header() http.Header { return w.header }
func (w *blockedWriter) WriteHeader(int)     {}
func (w *blockedWriter) Write(p []byte) (int, error) {
	if !w.blocked {
		w.blocked = true
		close(w.writing)
		<-w.release
	}
	return len(p), nil
}

// TestSnapshotHandlerOutlivesSinkClose holds a /snapshot mid-body while
// the sink closes: Sink.Close must not wait for the open snapshot, and the
// handler's Close of it, now after Sink.Close, must run inline and return.
func TestSnapshotHandlerOutlivesSinkClose(t *testing.T) {
	tb := mustTestbench(t, 29)
	sink, err := pipeline.NewSink(tb.Engine, pipeline.Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	for f := range 8 {
		sink.Ingest(tb.FlowBatch(1, f, 64, nil, nil))
	}
	srv, err := New(tb.Engine, WithSink(sink), WithQueries(tb.Queries()...))
	if err != nil {
		t.Fatal(err)
	}
	w := &blockedWriter{header: http.Header{}, writing: make(chan struct{}), release: make(chan struct{})}
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/snapshot", nil))
	}()
	<-w.writing
	closed := make(chan error, 1)
	go func() { closed <- sink.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Sink.Close waits for a snapshot a handler still holds")
	}
	close(w.release)
	select {
	case <-served:
	case <-time.After(30 * time.Second):
		t.Fatal("the handler did not return: closing its snapshot after Sink.Close blocks")
	}
}

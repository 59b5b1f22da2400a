package collector

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/pipeline"
)

// rerouteStream is nFlows testbench flows of 2n packets, interleaved in
// 32-packet chunks round-robin: flow f's first n packets cross its own
// path, and its last n, for odd f, the path of flow f+nFlows — the flow
// is rerouted halfway, after its path has decoded — and for even f its
// own.
func rerouteStream(tb *Testbench, nFlows, n int) []core.PacketDigest {
	const chunk = 32
	flows := make([][]core.PacketDigest, nFlows)
	for f := range flows {
		flows[f] = tb.FlowBatch(1, f, 2*n, nil, nil)
		if f%2 == 1 {
			moved := tb.FlowBatch(1, f+nFlows, n, nil, nil)
			for i := range moved {
				moved[i].Flow = flows[f][0].Flow
			}
			copy(flows[f][n:], moved)
		}
	}
	var stream []core.PacketDigest
	for at := 0; at < 2*n; at += chunk {
		for _, pkts := range flows {
			stream = append(stream, pkts[at:min(at+chunk, 2*n)]...)
		}
	}
	return stream
}

// ingestFrames feeds a stream to a sink in 256-packet frames and barriers.
func ingestFrames(sink *pipeline.Sink, stream []core.PacketDigest) {
	for at := 0; at < len(stream); at += 256 {
		sink.Ingest(stream[at:min(at+256, len(stream))])
	}
	sink.Barrier()
}

// snapshotBody is the body of GET /snapshot from a server over sink.
func snapshotBody(t *testing.T, tb *Testbench, sink *pipeline.Sink) []byte {
	t.Helper()
	srv, err := New(tb.Engine, WithSink(sink), WithQueries(tb.Queries()...))
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	srv.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/snapshot", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("GET /snapshot: %d %s", w.Code, w.Body)
	}
	return w.Body.Bytes()
}

// sinkInconsistencies reads every flow's path inconsistency count.
func sinkInconsistencies(t *testing.T, tb *Testbench, sink *pipeline.Sink, flows []core.FlowKey) []int {
	t.Helper()
	snap := sink.Snapshot()
	defer snap.Close()
	rec, err := snap.Merged()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]int, len(flows))
	for i, f := range flows {
		out[i] = rec.PathInconsistencies(tb.PathQ, f)
	}
	return out
}

// TestRouteCheckDeterminism: once a flow's path has decoded, only a
// sample of its packets is checked for a route change, chosen by packet
// ID alone. So rerouted flows count the same inconsistencies, and a
// /snapshot answers the same bytes, however the stream reaches the
// Recording: a serial core.Recording, live ingest at 1, 2 and 8 shards,
// the segment log replayed on 1, 2 and 4 lanes (a lane per CPU), and a
// hand-off round trip with the flows moved mid-stream and moved back.
func TestRouteCheckDeterminism(t *testing.T) {
	const nFlows = 12
	tb := mustTestbench(t, 57)
	stream := rerouteStream(tb, nFlows, 300)
	flows := make([]core.FlowKey, nFlows)
	for f := range flows {
		flows[f] = tb.FlowKeyFor(1, f)
	}

	serial, err := core.NewRecording(tb.Engine)
	if err != nil {
		t.Fatal(err)
	}
	if err := serial.RecordBatch(stream); err != nil {
		t.Fatal(err)
	}
	want := make([]int, nFlows)
	rerouted := 0
	for f, flow := range flows {
		want[f] = serial.PathInconsistencies(tb.PathQ, flow)
		if f%2 == 1 {
			rerouted += want[f]
		}
	}
	if rerouted == 0 {
		t.Fatalf("no rerouted flow counted an inconsistency (%v): the test shows nothing", want)
	}

	var wantBody []byte
	check := func(what string, sink *pipeline.Sink) {
		t.Helper()
		if got := sinkInconsistencies(t, tb, sink, flows); !slices.Equal(got, want) {
			t.Errorf("%s: inconsistencies %v, serial recording %v", what, got, want)
		}
		body := snapshotBody(t, tb, sink)
		if wantBody == nil {
			wantBody = body
		} else if !bytes.Equal(body, wantBody) {
			t.Errorf("%s: /snapshot differs from live ingest at 1 shard", what)
		}
	}

	for _, shards := range []int{1, 2, 8} {
		sink, err := pipeline.NewSink(tb.Engine, pipeline.Config{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		ingestFrames(sink, stream)
		check(fmt.Sprintf("live ingest at %d shards", shards), sink)
		sink.Close()
	}

	dir := t.TempDir()
	pcfg := pipeline.Config{Shards: 4}
	d, err := OpenDurableSink(tb.Engine, tb.Queries(), pcfg, durableOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	ingestFrames(d.Sink, stream)
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, lanes := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(lanes)
		re, err := OpenDurableSink(tb.Engine, tb.Queries(), pcfg, durableOpts(dir))
		if err != nil {
			t.Fatal(err)
		}
		if re.Replayed != uint64(len(stream)) {
			t.Fatalf("replayed %d packets, want %d", re.Replayed, len(stream))
		}
		check(fmt.Sprintf("log replayed on %d lanes", lanes), re.Sink)
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
	}

	sinkA, srvA := newServedSink(t, tb, 2)
	sinkB, srvB := newServedSink(t, tb, 3)
	move := func(from, to *Server) {
		t.Helper()
		states, err := from.ExportFlows(flows)
		if err != nil {
			t.Fatal(err)
		}
		if n, err := SendHandoff(to.Addr().String(), HelloFor(tb.Engine, 1<<40, "handoff"), states); err != nil || n != nFlows {
			t.Fatalf("hand-off shipped %d of %d flows: %v", n, nFlows, err)
		}
	}
	cut := len(stream) * 3 / 4 // every rerouted flow is on its new path
	ingestFrames(sinkA, stream[:cut])
	move(srvA, srvB)
	ingestFrames(sinkB, stream[cut:])
	move(srvB, srvA)
	check("hand-off round trip", sinkA)
}

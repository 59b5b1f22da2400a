package collector

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/pipeline"
)

// newServedSink builds a sink + served collector on an ephemeral
// loopback listener. The sink closes at test cleanup; the server is the
// test's to Shutdown.
func newServedSink(t *testing.T, tb *Testbench, shards int, opts ...Option) (*pipeline.Sink, *Server) {
	t.Helper()
	return serveSink(t, tb, shards, append([]Option{WithQueries(tb.Queries()...)}, opts...)...)
}

// serveSink is newServedSink with only the options given.
func serveSink(t *testing.T, tb *Testbench, shards int, opts ...Option) (*pipeline.Sink, *Server) {
	t.Helper()
	sink, err := pipeline.NewSink(tb.Engine, pipeline.Config{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sink.Close() })
	srv, err := New(tb.Engine, append([]Option{WithSink(sink)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	for srv.Addr() == nil {
		time.Sleep(100 * time.Microsecond)
	}
	t.Cleanup(func() {
		// Bounded, so a test that fails with an exporter still connected
		// reports its failure instead of waiting on the session for good.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		if err := <-serveErr; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return sink, srv
}

// Addr returns a served test collector's listener address, or nil before
// Serve. Production callers own their listener and ask it instead.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

func mustTestbench(t *testing.T, seed uint64) *Testbench {
	t.Helper()
	tb, err := NewTestbench(seed, 5)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

// TestNewTestbenchHopCount: the testbench takes the hop counts the wire
// carries, [1, coding.MaxPathLen], and refuses the rest naming that range;
// below 1 it used to run 5 hops while pintd announced what it was given,
// and above 64 it failed only at the first Send.
func TestNewTestbenchHopCount(t *testing.T) {
	for _, k := range []int{-1, 0, 1, 64, 65} {
		tb, err := NewTestbench(7, k)
		switch ok := k >= 1 && k <= 64; {
		case ok && (err != nil || tb.K != k):
			t.Errorf("NewTestbench(k=%d): %v, want a testbench of %d hops", k, err, k)
		case !ok && (err == nil || !strings.Contains(err.Error(), "[1,64]")):
			t.Errorf("NewTestbench(k=%d): %v, want an error naming [1,64]", k, err)
		}
	}
}

func answersJSON(t *testing.T, answers []FlowAnswers) []byte {
	t.Helper()
	b, err := json.Marshal(answers)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestLoopbackBitIdentical is the daemon's conformance contract: a
// deployment streamed over real loopback sockets from concurrent
// exporters answers every query byte-identically to the same digests
// ingested in-process, at several shard counts — and the answers carry
// real decoded state, not empty tables.
func TestLoopbackBitIdentical(t *testing.T) {
	tb := mustTestbench(t, 7)
	const (
		exporters = 4
		flowsPer  = 3
		pktsPer   = 400
	)
	var ref []byte
	for _, shards := range []int{1, 4, 16} {
		remote, err := tb.RunLoopback(shards, exporters, flowsPer, pktsPer, 64)
		if err != nil {
			t.Fatalf("shards=%d: loopback: %v", shards, err)
		}
		local, err := tb.RunInProcess(shards, exporters, flowsPer, pktsPer)
		if err != nil {
			t.Fatalf("shards=%d: in-process: %v", shards, err)
		}
		remoteJSON := answersJSON(t, remote.Answers)
		localJSON := answersJSON(t, local.Answers)
		if !bytes.Equal(remoteJSON, localJSON) {
			t.Fatalf("shards=%d: loopback and in-process answers differ:\nremote: %s\nlocal:  %s",
				shards, remoteJSON, localJSON)
		}
		if ref == nil {
			ref = remoteJSON
		} else if !bytes.Equal(ref, remoteJSON) {
			t.Fatalf("shards=%d: answers differ from shards=1", shards)
		}
		if remote.Packets != uint64(exporters*flowsPer*pktsPer) {
			t.Fatalf("shards=%d: collector saw %d packets, want %d",
				shards, remote.Packets, exporters*flowsPer*pktsPer)
		}
	}
	// The run produced real telemetry: at least one decoded path and one
	// latency estimate.
	var decoded, hops int
	var all []FlowAnswers
	if err := json.Unmarshal(ref, &all); err != nil {
		t.Fatal(err)
	}
	for _, fa := range all {
		for _, a := range fa.Answers {
			if a.Done {
				decoded++
			}
			hops += len(a.Hops)
		}
	}
	if decoded == 0 || hops == 0 {
		t.Fatalf("no real telemetry decoded: %d paths, %d latency hops", decoded, hops)
	}
}

// TestHTTPEndpoints exercises the daemon's observability surface over a
// live loopback deployment.
func TestHTTPEndpoints(t *testing.T) {
	tb := mustTestbench(t, 11)
	sink, srv := newServedSink(t, tb, 2)
	ex, err := dial(srv.Addr().String(), HelloFor(tb.Engine, 1, "http-test"))
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Send(tb.FlowBatch(1, 0, 300, nil, nil)); err != nil {
		t.Fatal(err)
	}
	if err := ex.Close(); err != nil {
		t.Fatal(err)
	}
	waitForPackets(t, srv, 300)
	sink.Barrier()

	h := srv.Handler()
	get := func(path string) string {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 {
			t.Fatalf("GET %s: %d: %s", path, rec.Code, rec.Body)
		}
		return rec.Body.String()
	}
	if body := get("/healthz"); !strings.Contains(body, `"ok": true`) || !strings.Contains(body, "plan_hash") {
		t.Fatalf("healthz: %s", body)
	}
	if body := get("/stats"); !strings.Contains(body, `"packets": 300`) {
		t.Fatalf("stats lacks packet count: %s", body)
	}
	flow := uint64(tb.FlowKeyFor(1, 0))
	body := get("/snapshot")
	if !strings.Contains(body, `"query": "path"`) || !strings.Contains(body, `"query": "lat"`) {
		t.Fatalf("snapshot lacks query answers: %s", body)
	}
	one := get("/snapshot?flow=" + jsonNumber(flow))
	if !strings.Contains(one, `"flow": `+jsonNumber(flow)) {
		t.Fatalf("flow-filtered snapshot: %s", one)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/snapshot?flow=bogus", nil))
	if rec.Code != 400 {
		t.Fatalf("bad flow param: %d", rec.Code)
	}
	shutdownServer(t, srv)
}

// TestPerConnStats checks the /stats "conns" section against two live
// exporter sessions: each connection's counters are populated while it
// is connected, and the entries leave the registry when it closes (the
// totals stay in the server-wide counters).
func TestPerConnStats(t *testing.T) {
	tb := mustTestbench(t, 17)
	_, srv := newServedSink(t, tb, 2)
	exA, err := dial(srv.Addr().String(), HelloFor(tb.Engine, 1, "conn-a"))
	if err != nil {
		t.Fatal(err)
	}
	exB, err := dial(srv.Addr().String(), HelloFor(tb.Engine, 2, "conn-b"))
	if err != nil {
		t.Fatal(err)
	}
	if err := exA.Send(tb.FlowBatch(1, 0, 200, nil, nil)); err != nil {
		t.Fatal(err)
	}
	if err := exB.Send(tb.FlowBatch(2, 0, 100, nil, nil)); err != nil {
		t.Fatal(err)
	}
	// A session counts a frame's packets once it decodes them and the
	// batch once IngestStage returns, which may first record other chunks.
	waitForPackets(t, srv, 300)
	var conns []ConnStats
	deadline := time.Now().Add(10 * time.Second)
	for conns = srv.ConnStats(); len(conns) == 2 && conns[0].Batches+conns[1].Batches < 2; conns = srv.ConnStats() {
		if time.Now().After(deadline) {
			t.Fatalf("sessions handed %d and %d batches to the sink, want 1 each", conns[0].Batches, conns[1].Batches)
		}
		time.Sleep(time.Millisecond)
	}
	if len(conns) != 2 {
		t.Fatalf("live sessions: got %d, want 2: %+v", len(conns), conns)
	}
	if conns[0].Exporter != 1 || conns[1].Exporter != 2 {
		t.Fatalf("conns not sorted by exporter: %+v", conns)
	}
	if conns[0].Name != "conn-a" || conns[1].Name != "conn-b" {
		t.Fatalf("session names: %+v", conns)
	}
	for i, c := range conns {
		want := uint64(200 - 100*i)
		if c.Packets != want {
			t.Fatalf("conn %d packets = %d, want %d", i, c.Packets, want)
		}
		if c.Frames == 0 || c.Batches == 0 || c.Bytes == 0 {
			t.Fatalf("conn %d counters not populated: %+v", i, c)
		}
		if c.Remote == "" {
			t.Fatalf("conn %d has no remote address", i)
		}
	}

	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/stats", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /stats: %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{`"conns"`, `"conn-a"`, `"conn-b"`, `"stall_ns"`, `"staged_depth"`} {
		if !strings.Contains(body, want) {
			t.Fatalf("/stats lacks %s: %s", want, body)
		}
	}

	if err := exA.Close(); err != nil {
		t.Fatal(err)
	}
	if err := exB.Close(); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(10 * time.Second)
	for len(srv.ConnStats()) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("sessions lingered after close: %+v", srv.ConnStats())
		}
		time.Sleep(time.Millisecond)
	}
	if got := srv.Stats().Packets; got != 300 {
		t.Fatalf("server-wide packets after sessions ended = %d, want 300", got)
	}
	shutdownServer(t, srv)
}

func jsonNumber(v uint64) string {
	b, _ := json.Marshal(v)
	return string(b)
}

// TestShutdownIdempotent double-shuts the server.
func TestShutdownIdempotent(t *testing.T) {
	tb := mustTestbench(t, 13)
	_, srv := newServedSink(t, tb, 1)
	shutdownServer(t, srv)
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}

// TestServeAfterShutdown is the start-up race a daemon can lose: the
// drain signal arrives before `go srv.Serve(ln)` is scheduled. Serve must
// then return nil (net/http's ErrServerClosed contract — a clean drain,
// not a failure), at once, with the listener closed and no session
// accepted, and the drained sink must stay queryable.
func TestServeAfterShutdown(t *testing.T) {
	tb := mustTestbench(t, 13)
	sink, err := pipeline.NewSink(tb.Engine, pipeline.Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	srv, err := New(tb.Engine, WithSink(sink), WithQueries(tb.Queries()...))
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	shutdownServer(t, srv)
	if err := srv.Serve(ln); err != nil {
		t.Fatalf("Serve after Shutdown = %v, want nil", err)
	}
	if conn, err := net.DialTimeout("tcp", ln.Addr().String(), time.Second); err == nil {
		conn.Close()
		t.Fatal("listener still accepting after Serve returned")
	}
	if got := srv.Stats().Sessions; got != 0 {
		t.Fatalf("%d sessions accepted by a server shut down before Serve", got)
	}
	if len(sink.Flows()) != 0 {
		t.Fatal("empty drained sink reports flows")
	}
}

// waitForPackets waits until want packets have landed: recorded by the
// sink or shed by admission. Server.Stats().Packets counts a packet when
// it is decoded, before its session hands it to the sink, so it cannot
// say this.
func waitForPackets(t *testing.T, srv *Server, want uint64) {
	t.Helper()
	landed := func() uint64 {
		sink, _ := srv.cfg.Sink.Stats()
		return sink.Packets + srv.Stats().Shed
	}
	deadline := time.Now().Add(10 * time.Second)
	for landed() < want {
		if time.Now().After(deadline) {
			t.Fatalf("collector landed %d packets, want %d", landed(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

func shutdownServer(t *testing.T, srv *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

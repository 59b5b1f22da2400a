package collector

import (
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/wire"
)

// dialRaw opens a raw TCP connection and completes the handshake by
// hand, so tests can then write arbitrary (broken) bytes.
func dialRaw(t *testing.T, srv *Server, hello wire.Hello) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	buf, err := wire.AppendHello(nil, hello)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(buf); err != nil {
		t.Fatal(err)
	}
	var ack [1]byte
	if _, err := conn.Read(ack[:]); err != nil {
		t.Fatal(err)
	}
	if err := wire.AckError(ack[0]); err != nil {
		t.Fatal(err)
	}
	return conn
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// sendHealthyFlow proves the sink still ingests and answers after a
// failure: a fresh exporter streams one decodable flow and the merged
// snapshot must answer its path query.
func sendHealthyFlow(t *testing.T, tb *Testbench, srv *Server, exp uint64) {
	t.Helper()
	before := srv.Stats().Packets
	ex, err := dial(srv.Addr().String(), HelloFor(tb.Engine, exp, "healthy"))
	if err != nil {
		t.Fatalf("healthy exporter refused after failure: %v", err)
	}
	batch := tb.FlowBatch(exp, 0, 600, nil, nil)
	if err := ex.Send(batch); err != nil {
		t.Fatal(err)
	}
	if err := ex.Close(); err != nil {
		t.Fatal(err)
	}
	// Packets counts a frame when it is decoded, before its hand-off to
	// the sink; only the session's end means everything counted has
	// reached the sink.
	waitFor(t, "healthy flow ingest", func() bool {
		st := srv.Stats()
		return st.Packets >= before+600 && st.Active == 0
	})
	answers, err := SnapshotAnswers(srv.cfg.Sink.Snapshot(), tb.Queries(), []core.FlowKey{tb.FlowKeyFor(exp, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != 1 || !answers[0].Answers[0].Done {
		t.Fatalf("healthy flow did not decode after failure: %+v", answers)
	}
}

// TestCollectorFailureModes drives every connection-level failure and
// asserts the blast radius stays at that connection: the session dies,
// the sink ingests nothing from the bad bytes, and the next healthy
// exporter decodes normally.
func TestCollectorFailureModes(t *testing.T) {
	tb := mustTestbench(t, 17)
	goodBatch, err := wire.AppendMarshal(nil, tb.FlowBatch(9, 0, 32, nil, nil))
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		// send writes the hostile bytes over an accepted session.
		send func(t *testing.T, conn net.Conn)
		// wantConnErr says the server should count a connection error
		// (as opposed to a clean disconnect).
		wantConnErr bool
	}{
		{
			name: "mid-frame disconnect",
			send: func(t *testing.T, conn net.Conn) {
				framed, err := wire.AppendFrame(nil, goodBatch)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := conn.Write(framed[:len(framed)/2]); err != nil {
					t.Fatal(err)
				}
				conn.Close()
			},
			wantConnErr: true,
		},
		{
			name: "checksum corruption",
			send: func(t *testing.T, conn net.Conn) {
				framed, err := wire.AppendFrame(nil, goodBatch)
				if err != nil {
					t.Fatal(err)
				}
				framed[len(framed)-1] ^= 0x40
				if _, err := conn.Write(framed); err != nil {
					t.Fatal(err)
				}
			},
			wantConnErr: true,
		},
		{
			name: "oversized frame header",
			send: func(t *testing.T, conn net.Conn) {
				hdr := binary.LittleEndian.AppendUint32(nil, uint32(wire.DefaultMaxFramePayload+1))
				hdr = binary.LittleEndian.AppendUint32(hdr, 0)
				if _, err := conn.Write(hdr); err != nil {
					t.Fatal(err)
				}
			},
			wantConnErr: true,
		},
		{
			name: "valid frame, malformed batch",
			send: func(t *testing.T, conn net.Conn) {
				framed, err := wire.AppendFrame(nil, []byte{'X', 'D', 1, 0})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := conn.Write(framed); err != nil {
					t.Fatal(err)
				}
			},
			wantConnErr: true,
		},
		{
			name: "clean disconnect mid-stream",
			send: func(t *testing.T, conn net.Conn) {
				framed, err := wire.AppendFrame(nil, goodBatch)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := conn.Write(framed); err != nil {
					t.Fatal(err)
				}
				conn.Close()
			},
		},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, srv := newServedSink(t, tb, 3)
			conn := dialRaw(t, srv, HelloFor(tb.Engine, 100, "hostile"))
			before := srv.Stats()
			tc.send(t, conn)
			// The handler counts the session (the server's first) only after
			// the ack dialRaw read, possibly after `before` was taken: wait
			// for it to open before waiting for it to end.
			waitFor(t, "session teardown", func() bool {
				st := srv.Stats()
				return st.Sessions == 1 && st.Active == 0 &&
					(!tc.wantConnErr || st.ConnErrors > before.ConnErrors)
			})
			st := srv.Stats()
			if tc.wantConnErr && st.ConnErrors != before.ConnErrors+1 {
				t.Fatalf("want 1 connection error, got %d", st.ConnErrors-before.ConnErrors)
			}
			if !tc.wantConnErr && st.ConnErrors != before.ConnErrors {
				t.Fatalf("clean close counted as error: %d", st.ConnErrors-before.ConnErrors)
			}
			// Whatever happened, the sink is not poisoned: a healthy
			// exporter decodes end to end.
			sendHealthyFlow(t, tb, srv, uint64(200+i))
		})
	}
}

// TestVersion1BatchRefusedOnConnection: there is one batch format in the
// tree and no negotiation. A frame carrying a version-1 batch — intact,
// checksum and all, as an exporter built before the column-major format
// would send it — costs that exporter its session, and the reason logged
// names the version.
func TestVersion1BatchRefusedOnConnection(t *testing.T) {
	tb := mustTestbench(t, 17)
	var mu sync.Mutex
	var lines []string
	_, srv := newServedSink(t, tb, 2, WithLogf(func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		lines = append(lines, fmt.Sprintf(format, args...))
	}))
	conn := dialRaw(t, srv, HelloFor(tb.Engine, 100, "old-exporter"))
	// {Flow 7, PktID 99, PathLen 12, Digest 0xABCD} as version 1 wrote it.
	framed, err := wire.AppendFrame(nil, []byte{'P', 'D', 1, 1, 14, 0xC6, 0x01, 24, 0xCD, 0xD7, 0x02})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(framed); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the session to be dropped", func() bool {
		st := srv.Stats()
		return st.Sessions == 1 && st.Active == 0 && st.ConnErrors == 1
	})
	if st := srv.Stats(); st.Packets != 0 {
		t.Fatalf("a version-1 batch put %d packets into the sink", st.Packets)
	}
	mu.Lock()
	defer mu.Unlock()
	if !slices.ContainsFunc(lines, func(l string) bool {
		return strings.Contains(l, "dropped") && strings.Contains(l, "unsupported version 1 (have 2)")
	}) {
		t.Fatalf("no drop line names the version; logged:\n%s", strings.Join(lines, "\n"))
	}
}

// TestPlanHashMismatchRefused pins the handshake guard: an exporter
// compiled under a different plan is refused at session setup.
func TestPlanHashMismatchRefused(t *testing.T) {
	tb := mustTestbench(t, 19)
	_, srv := newServedSink(t, tb, 1)
	hello := HelloFor(tb.Engine, 1, "drifted")
	hello.PlanHash ^= 1
	if _, err := dial(srv.Addr().String(), hello); err == nil ||
		!strings.Contains(err.Error(), "plan hash mismatch") {
		t.Fatalf("want plan-hash refusal, got %v", err)
	}
	// The refusal is counted after the ack is written, i.e. possibly after
	// Dial has already returned.
	waitFor(t, "refusal counted", func() bool { return srv.Stats().Rejected == 1 })
	if st := srv.Stats(); st.Sessions != 0 {
		t.Fatalf("stats after refusal: %+v", st)
	}
	sendHealthyFlow(t, tb, srv, 42)
}

// TestHandshakeGarbageRejected feeds non-protocol bytes to a fresh
// connection.
func TestHandshakeGarbageRejected(t *testing.T) {
	tb := mustTestbench(t, 23)
	_, srv := newServedSink(t, tb, 1)
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /snapshot HTTP/1.1\r\nHost: collector\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "garbage rejection", func() bool { return srv.Stats().Rejected == 1 })
	sendHealthyFlow(t, tb, srv, 43)
}

// TestSlowConsumerBackpressure holds the one shard of a sink inside a
// WithFlow call while the collector streams into it: the session's chunks
// fill the shard's pending slab, the next one waits for the shard, the
// session stops reading its socket, and the exporter's Send blocks (its
// send buffer is shrunk, so TCP stops it within a few frames of the
// wait). The contract: Send blocks while the shard is held, the stall
// counter fires, and after release no packet is lost and the stream
// answers queries.
func TestSlowConsumerBackpressure(t *testing.T) {
	tb := mustTestbench(t, 29)
	sink, err := pipeline.NewSink(tb.Engine, pipeline.Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	held, release, released := make(chan struct{}), make(chan struct{}), make(chan error, 1)
	go func() {
		released <- sink.WithFlow(tb.FlowKeyFor(5, 0), func(*core.Recording) error {
			close(held)
			<-release
			return nil
		})
	}()
	<-held
	srv, err := New(tb.Engine, WithSink(sink), WithQueries(tb.Queries()...))
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	ex, err := dial(ln.Addr().String(), HelloFor(tb.Engine, 5, "firehose"))
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.conn.(*net.TCPConn).SetWriteBuffer(4 << 10); err != nil {
		t.Fatal(err)
	}
	// 200 frames of ~5 KB: far more than the slab and both sockets'
	// buffers hold.
	const nFlows, per, rounds = 4, 500, 50
	const total = nFlows * per * rounds
	var batches [][]core.PacketDigest
	for f := range nFlows {
		batches = append(batches, tb.FlowBatch(5, f, per, nil, nil))
	}
	var sent atomic.Int64
	sendErr := make(chan error, 1)
	go func() {
		for range rounds {
			for _, b := range batches {
				if err := ex.Send(b); err != nil {
					sendErr <- err
					return
				}
				sent.Add(int64(len(b)))
			}
		}
		sendErr <- ex.Close()
	}()
	waitFor(t, "a chunk to find the held shard's slab full", func() bool {
		st, _ := sink.Stats()
		return st.Stalls > 0
	})
	waitFor(t, "the exporter's Send to block", func() bool {
		before := sent.Load()
		time.Sleep(50 * time.Millisecond)
		return sent.Load() == before && before < total
	})
	close(release)
	if err := <-released; err != nil {
		t.Fatal(err)
	}
	if err := <-sendErr; err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatal(err)
	}
	if got := srv.Stats().Packets; got != total {
		t.Fatalf("slow sink lost packets: %d of %d", got, total)
	}
	st, _ := sink.Stats()
	if st.Packets != total {
		t.Fatalf("sink accepted %d packets, want %d", st.Packets, total)
	}
	var flows []core.FlowKey
	for f := range nFlows {
		flows = append(flows, tb.FlowKeyFor(5, f))
	}
	answers, err := SnapshotAnswers(sink.Snapshot(), tb.Queries(), flows)
	if err != nil {
		t.Fatal(err)
	}
	for _, fa := range answers {
		if !fa.Tracked || !fa.Answers[0].Done {
			t.Fatalf("flow %d after drain: tracked %v, path decoded %v", fa.Flow, fa.Tracked, fa.Answers[0].Done)
		}
	}
}

// TestShutdownForceClosesHungExporter: an exporter that never sends and
// never closes cannot hold the drain hostage past the grace period.
func TestShutdownForceClosesHungExporter(t *testing.T) {
	tb := mustTestbench(t, 31)
	sink, err := pipeline.NewSink(tb.Engine, pipeline.Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	srv, err := New(tb.Engine, WithSink(sink))
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

	ex, err := dial(srv.Addr().String(), HelloFor(tb.Engine, 1, "hung"))
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	waitFor(t, "session open", func() bool { return srv.Stats().Active == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = srv.Shutdown(ctx)
	if err == nil {
		t.Fatal("shutdown reported a clean drain despite a hung session")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("shutdown hung for %v", elapsed)
	}
	if err := <-serveErr; err != nil {
		t.Fatal(err)
	}
}

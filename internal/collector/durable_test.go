package collector

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/segstore"
)

// durableOpts is the deterministic store shape every durable test uses:
// injected counter clock, no fsync (tests hammer temp dirs).
func durableOpts(dir string) DurableOptions {
	var ts uint64
	return DurableOptions{
		DataDir: dir,
		Options: segstore.Options{NoSync: true, Now: func() uint64 { ts += 10; return ts }},
	}
}

// WindowAnswers answers every query for the [since, until] time window
// from the log alone: the Recording the HTTP window path answers from,
// evaluated in memory. flows nil means every flow seen in the window.
func (d *DurableSink) WindowAnswers(since, until uint64, flows []core.FlowKey) ([]FlowAnswers, error) {
	rec, flows, err := d.windowRecording(since, until, flows)
	if err != nil {
		return nil, err
	}
	return Answers(rec, d.queries, flows), nil
}

// VerifyAgainstLive checks the durable tier's headline guarantee on a
// quiescent durable sink: the log-only answer for the full window is
// byte-identical to the live sink's snapshot answer.
func (d *DurableSink) VerifyAgainstLive() error {
	live, err := SnapshotAnswers(d.Sink.Snapshot(), d.queries, nil)
	if err != nil {
		return err
	}
	replayed, err := d.WindowAnswers(0, ^uint64(0), nil)
	if err != nil {
		return err
	}
	a, err := json.Marshal(live)
	if err != nil {
		return err
	}
	b, err := json.Marshal(replayed)
	if err != nil {
		return err
	}
	if !bytes.Equal(a, b) {
		return fmt.Errorf("collector: durable replay diverges from live state (%d vs %d bytes)", len(b), len(a))
	}
	return nil
}

// ingestWaves streams nFlows testbench flows of pktsPer packets into the
// durable sink and returns the flat digest stream in arrival order.
func ingestWaves(t *testing.T, tb *Testbench, d *DurableSink, exp uint64, nFlows, pktsPer int) []core.PacketDigest {
	t.Helper()
	var all []core.PacketDigest
	for f := 0; f < nFlows; f++ {
		batch := tb.FlowBatch(exp, f, pktsPer, nil, nil)
		d.Sink.Ingest(batch)
		all = append(all, batch...)
	}
	return all
}

// TestDurableRoundTrip is the headline guarantee without the crash: a
// closed-and-reopened durable collector answers byte-identically to the
// live one it used to be, for shards {1, 4}.
func TestDurableRoundTrip(t *testing.T) {
	tb := mustTestbench(t, 7)
	for _, shards := range []int{1, 4} {
		dir := t.TempDir()
		pcfg := pipeline.Config{Shards: shards}
		d, err := OpenDurableSink(tb.Engine, tb.Queries(), pcfg, durableOpts(dir))
		if err != nil {
			t.Fatal(err)
		}
		stream := ingestWaves(t, tb, d, 1, 4, 300)
		if err := d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := d.VerifyAgainstLive(); err != nil {
			t.Fatalf("shards=%d: live store diverges: %v", shards, err)
		}
		live, err := SnapshotAnswers(d.Sink.Snapshot(), tb.Queries(), nil)
		if err != nil {
			t.Fatal(err)
		}
		liveJSON := answersJSON(t, live)
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}

		re, err := OpenDurableSink(tb.Engine, tb.Queries(), pcfg, durableOpts(dir))
		if err != nil {
			t.Fatalf("shards=%d: reopen: %v", shards, err)
		}
		if re.Replayed != uint64(len(stream)) {
			t.Fatalf("shards=%d: replayed %d packets, want %d", shards, re.Replayed, len(stream))
		}
		if re.Recovery.TornBytes != 0 {
			t.Fatalf("shards=%d: clean close reported a torn tail: %+v", shards, re.Recovery)
		}
		recovered, err := SnapshotAnswers(re.Sink.Snapshot(), tb.Queries(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(answersJSON(t, recovered), liveJSON) {
			t.Fatalf("shards=%d: recovered answers differ from the uncrashed run", shards)
		}
		if err := re.VerifyAgainstLive(); err != nil {
			t.Fatalf("shards=%d: recovered store diverges: %v", shards, err)
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDurableConfigShapes: every shape a pipeline.Config can take — shard
// counts — and a shard whose slab fills while it is held keep the durable
// guarantee: the log-only answer is byte-identical to the live one after
// ingest and again after a restart.
func TestDurableConfigShapes(t *testing.T) {
	tb := mustTestbench(t, 17)
	for _, tc := range []struct {
		name     string
		cfg      pipeline.Config
		fullSlab bool
	}{
		{"shards=1", pipeline.Config{Shards: 1}, false},
		{"shards=2", pipeline.Config{Shards: 2}, false},
		{"shards=3", pipeline.Config{Shards: 3}, false},
		{"full-slab", pipeline.Config{Shards: 2}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			d, err := OpenDurableSink(tb.Engine, tb.Queries(), tc.cfg, durableOpts(dir))
			if err != nil {
				t.Fatal(err)
			}
			var stream []core.PacketDigest
			if tc.fullSlab {
				stream = ingestBehindHeldShard(t, tb, d)
			} else {
				stream = ingestWaves(t, tb, d, 1, 5, 120)
			}
			if err := d.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if err := d.VerifyAgainstLive(); err != nil {
				t.Fatalf("live: %v", err)
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			re, err := OpenDurableSink(tb.Engine, tb.Queries(), tc.cfg, durableOpts(dir))
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if re.Replayed != uint64(len(stream)) {
				t.Fatalf("replayed %d packets, want %d", re.Replayed, len(stream))
			}
			if err := re.VerifyAgainstLive(); err != nil {
				t.Fatalf("after restart: %v", err)
			}
		})
	}
}

// ingestBehindHeldShard holds flow 0's shard in a WithFlow call while
// five 1,200-packet flows ingest in 256-packet chunks, until a chunk finds
// the shard's slab full: the slab is recorded, and logged, on release.
func ingestBehindHeldShard(t *testing.T, tb *Testbench, d *DurableSink) []core.PacketDigest {
	t.Helper()
	held, done := make(chan struct{}), make(chan error, 1)
	go func() {
		done <- d.Sink.WithFlow(tb.FlowKeyFor(1, 0), func(*core.Recording) error {
			close(held)
			for st, _ := d.Sink.Stats(); st.Stalls == 0; st, _ = d.Sink.Stats() {
				time.Sleep(time.Millisecond)
			}
			return nil
		})
	}()
	<-held
	var all []core.PacketDigest
	for f := range 5 {
		batch := tb.FlowBatch(1, f, 1200, nil, nil)
		for off := 0; off < len(batch); off += 256 {
			d.Sink.Ingest(batch[off:min(off+256, len(batch))])
		}
		all = append(all, batch...)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	return all
}

// crashImage copies the live data dir to a fresh one and returns it: the
// files a SIGKILL at this instant would leave, since every append is one
// write through to the file.
func crashImage(t *testing.T, dir string) string {
	t.Helper()
	image := filepath.Join(t.TempDir(), "image")
	if err := os.CopyFS(image, os.DirFS(dir)); err != nil {
		t.Fatal(err)
	}
	return image
}

// TestDurableAbandonRecovers is the SIGKILL on a crash image: whatever
// reached the file is recovered bit-identically to an uncrashed collector
// fed the same durable prefix, and, as every recorded chunk is written in
// the hold that records it, that prefix is every packet ingested.
func TestDurableAbandonRecovers(t *testing.T) {
	tb := mustTestbench(t, 13)
	dir := t.TempDir()
	pcfg := pipeline.Config{Shards: 4}
	d, err := OpenDurableSink(tb.Engine, tb.Queries(), pcfg, durableOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	stream := ingestWaves(t, tb, d, 1, 3, 200)
	if err := d.Checkpoint(); err != nil { // first wave is durable
		t.Fatal(err)
	}
	stream = append(stream, ingestWaves(t, tb, d, 2, 3, 200)...) // second wave is only written
	image := crashImage(t, dir)

	re, err := OpenDurableSink(tb.Engine, tb.Queries(), pcfg, durableOpts(image))
	if err != nil {
		t.Fatalf("recovery from the crash image: %v", err)
	}
	defer re.Close()
	replayed := re.Replayed
	if replayed != uint64(len(stream)) {
		t.Fatalf("recovered %d packets; the sink had recorded %d when it crashed", replayed, len(stream))
	}

	// Bit-for-bit identity with an uncrashed collector that ingested the
	// durable prefix: batches are logged whole and in arrival order, so
	// the recovered state must equal the first `replayed` packets of the
	// original stream. Conservation first, answers second.
	ref, err := pipeline.NewSink(tb.Engine, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	ref.Ingest(stream[:replayed])
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}
	want, err := SnapshotAnswers(ref.Snapshot(), tb.Queries(), nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := SnapshotAnswers(re.Sink.Snapshot(), tb.Queries(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(answersJSON(t, got), answersJSON(t, want)) {
		t.Fatalf("recovered answers differ from an uncrashed run over the durable prefix (%d pkts)", replayed)
	}
}

// tornTail is a frame header promising far more payload than follows,
// then five of those bytes: the shape a crash in the middle of an append
// leaves after the last whole block.
func tornTail() []byte {
	buf := binary.LittleEndian.AppendUint32(nil, 1<<12) // claimed payload length
	buf = binary.LittleEndian.AppendUint32(buf, 0xDEAD) // crc of bytes that never landed
	return append(buf, 0x01, 0x02, 0x03, 0x04, 0x05)
}

// plantTornTail appends tornTail to the segment a crashed store was
// appending to (the last by name) and returns how many bytes it planted.
func plantTornTail(t *testing.T, dir string) int64 {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "*.pint"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segment in %s (%v)", dir, err)
	}
	sort.Strings(segs)
	f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	n, err := f.Write(tornTail())
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	return int64(n)
}

// TestDurableCrashImageRecovery is the crash whose loss is exactly known:
// a collector checkpoints two waves, then dies in the middle of an append.
// Its crash image is the data dir after the last checkpoint plus a torn
// half-block. Recovery must cut the torn bytes to the byte, replay every
// checkpointed packet, answer like a collector that never crashed and like
// its own log, and after a third wave, a clean close and a second restart
// still replay every packet, at sink shards {1, 4}.
func TestDurableCrashImageRecovery(t *testing.T) {
	tb := mustTestbench(t, 29)
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			pcfg := pipeline.Config{Shards: shards}
			dir := t.TempDir()
			d, err := OpenDurableSink(tb.Engine, tb.Queries(), pcfg, durableOpts(dir))
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			stream := ingestWaves(t, tb, d, 1, 4, 200)
			if err := d.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			stream = append(stream, ingestWaves(t, tb, d, 2, 2, 200)...)
			if err := d.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			image := crashImage(t, dir)
			torn := plantTornTail(t, image)

			re, err := OpenDurableSink(tb.Engine, tb.Queries(), pcfg, durableOpts(image))
			if err != nil {
				t.Fatal(err)
			}
			closeRe := re.Close
			defer func() { closeRe() }()
			if re.Recovery.TornBytes != torn {
				t.Fatalf("recovery cut %d torn bytes, planted %d", re.Recovery.TornBytes, torn)
			}
			if re.Replayed != uint64(len(stream)) {
				t.Fatalf("recovery replayed %d packets, %d were checkpointed", re.Replayed, len(stream))
			}
			ref, err := pipeline.NewSink(tb.Engine, pcfg)
			if err != nil {
				t.Fatal(err)
			}
			ref.Ingest(stream)
			if err := ref.Close(); err != nil {
				t.Fatal(err)
			}
			want, err := SnapshotAnswers(ref.Snapshot(), tb.Queries(), nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := SnapshotAnswers(re.Sink.Snapshot(), tb.Queries(), nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(answersJSON(t, got), answersJSON(t, want)) {
				t.Fatal("recovered answers differ from a collector that never crashed")
			}
			if err := re.VerifyAgainstLive(); err != nil {
				t.Fatal(err)
			}

			stream = append(stream, ingestWaves(t, tb, re, 3, 2, 200)...)
			if err := re.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			closeRe = func() error { return nil }
			if err := re.Close(); err != nil {
				t.Fatal(err)
			}
			final, err := OpenDurableSink(tb.Engine, tb.Queries(), pcfg, durableOpts(image))
			if err != nil {
				t.Fatal(err)
			}
			defer final.Close()
			if final.Replayed != uint64(len(stream)) {
				t.Fatalf("second restart replayed %d packets, want %d", final.Replayed, len(stream))
			}
		})
	}
}

// newDurableServer builds a collector whose sink is durable, with the
// background checkpoint ticker disabled so tests control flush points.
func newDurableServer(t *testing.T, tb *Testbench, dir string, opts DurableOptions) (*Server, *DurableSink) {
	t.Helper()
	d, err := OpenDurableSink(tb.Engine, tb.Queries(), pipeline.Config{Shards: 2}, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	srv, err := New(tb.Engine, WithSink(d.Sink), WithQueries(tb.Queries()...),
		WithDurable(d), WithCheckpointEvery(-1))
	if err != nil {
		t.Fatal(err)
	}
	return srv, d
}

// TestSnapshotWindowErrorPaths pins the /snapshot?since/until contract:
// bad timestamps and inverted windows are 400s, a window entirely behind
// the retention horizon is a 400, one straddling it answers with
// X-Pint-Partial: 1 — the same convention the federation frontend uses.
func TestSnapshotWindowErrorPaths(t *testing.T) {
	tb := mustTestbench(t, 11)
	dir := t.TempDir()
	opts := durableOpts(dir)
	opts.MaxSegments = 1    // retention on: rotations delete history
	opts.SegmentBytes = 512 // a segment is one 100-packet chunk or two
	srv, d := newDurableServer(t, tb, dir, opts)
	h := srv.Handler()

	// Build history behind the horizon: wave 1, then wave 2 (other flows)
	// until the rotations it causes have deleted every wave-1 packet.
	const wave1 = 2 * 100
	for f := 0; f < 2; f++ {
		d.Sink.Ingest(tb.FlowBatch(1, f, 100, nil, nil))
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 0; d.Store.Stats().DeletedPackets < wave1; i++ {
		if i == 100 {
			t.Fatal("retention never caught up with wave 1")
		}
		for f := 0; f < 2; f++ {
			d.Sink.Ingest(tb.FlowBatch(2, f, 100, nil, nil))
		}
		if err := d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	horizon := d.Store.HorizonTS()
	if horizon == 0 {
		t.Fatal("retention never advanced the horizon")
	}

	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec
	}
	cases := []struct {
		name   string
		path   string
		status int
		body   string
	}{
		{"bad since", "/snapshot?since=banana", http.StatusBadRequest, "since: bad timestamp"},
		{"bad until", "/snapshot?since=1&until=2x", http.StatusBadRequest, "until: bad timestamp"},
		{"inverted window", "/snapshot?since=100&until=50", http.StatusBadRequest, "inverted"},
		{"since before 1970", "/snapshot?since=1969-12-31T00:00:00Z", http.StatusBadRequest, "since: bad timestamp \"1969-12-31T00:00:00Z\": RFC 3339 values must lie in 1970-01-01T00:00:00Z..2262-04-11T23:47:16Z"},
		{"until before 1970", "/snapshot?until=1969-12-31T00:00:00Z", http.StatusBadRequest, "until: bad timestamp"},
		{"since past 2262", "/snapshot?since=2263-01-01T00:00:00Z", http.StatusBadRequest, "must lie in 1970-01-01T00:00:00Z..2262-04-11T23:47:16Z"},
		{"until past 2262", "/snapshot?until=9999-12-31T23:59:59Z", http.StatusBadRequest, "until: bad timestamp"},
		{"behind horizon", "/snapshot?since=0&until=1", http.StatusBadRequest, "retention"},
		{"bad flow in window", "/snapshot?since=0&flow=zzz", http.StatusBadRequest, "bad flow"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := get(tc.path)
			if rec.Code != tc.status {
				t.Fatalf("%s: status %d, want %d (body %q)", tc.path, rec.Code, tc.status, rec.Body.String())
			}
			if !strings.Contains(rec.Body.String(), tc.body) {
				t.Fatalf("%s: body lacks %q:\n%s", tc.path, tc.body, rec.Body.String())
			}
		})
	}

	// A window straddling the horizon answers, flagged partial.
	rec := get("/snapshot?since=0")
	if rec.Code != http.StatusOK {
		t.Fatalf("straddling window: status %d (body %q)", rec.Code, rec.Body.String())
	}
	if rec.Header().Get(PartialHeader) != "1" {
		t.Fatalf("straddling window not flagged %s", PartialHeader)
	}
	var out struct {
		Flows []FlowAnswers `json:"flows"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("window body: %v", err)
	}
	if len(out.Flows) != 2 { // only wave 2 survives retention
		t.Fatalf("straddling window answered %d flows, want 2", len(out.Flows))
	}

	// The integer extremes stay legal bounds: this is the same window.
	if all := get("/snapshot?since=0&until=18446744073709551615"); all.Code != http.StatusOK || !bytes.Equal(all.Body.Bytes(), rec.Body.Bytes()) {
		t.Fatalf("since=0&until=<max uint64>: status %d, same body as since=0: %v", all.Code, bytes.Equal(all.Body.Bytes(), rec.Body.Bytes()))
	}

	// A window entirely above the horizon is complete: no partial header.
	rec = get("/snapshot?since=" + strconv.FormatUint(horizon+1, 10))
	if rec.Code != http.StatusOK || rec.Header().Get(PartialHeader) != "" {
		t.Fatalf("clean window: status %d partial %q", rec.Code, rec.Header().Get(PartialHeader))
	}

	// Without a durable store the window surface is an explicit 400.
	rec = httptest.NewRecorder()
	srvPlain, err := New(tb.Engine, WithSink(mustPlainSink(t, tb)), WithQueries(tb.Queries()...))
	if err != nil {
		t.Fatal(err)
	}
	srvPlain.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/snapshot?since=0", nil))
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "data-dir") {
		t.Fatalf("windowed snapshot without a store: status %d body %q", rec.Code, rec.Body.String())
	}
}

func mustPlainSink(t *testing.T, tb *Testbench) *pipeline.Sink {
	t.Helper()
	sink, err := pipeline.NewSink(tb.Engine, pipeline.Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sink.Close() })
	return sink
}

// TestDurableCheckpointTicker: a Server with a positive CheckpointEvery
// runs the checkpoint cadence on its own once served — no explicit
// Checkpoint call — and Shutdown stops the ticker and lands the final
// checkpoint. The cadence must NOT start before Serve: a constructed-but
// -never-served Server would otherwise leak a ticker goroutine that keeps
// checkpointing a DurableSink its caller may already have closed.
func TestDurableCheckpointTicker(t *testing.T) {
	tb := mustTestbench(t, 5)
	dir := t.TempDir()
	d, err := OpenDurableSink(tb.Engine, tb.Queries(), pipeline.Config{Shards: 2}, durableOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	// Ingest before the server exists: the ticker goroutine must be the
	// only checkpoint caller (single-ingester contract).
	stream := ingestWaves(t, tb, d, 1, 3, 100)
	srv, err := New(tb.Engine, WithSink(d.Sink), WithQueries(tb.Queries()...),
		WithDurable(d), WithCheckpointEvery(2*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	countCkpts := func() int {
		n := 0
		if err := d.Store.Scan(0, ^uint64(0), func(b segstore.Block) error {
			if b.Kind == segstore.KindCheckpoint {
				n++
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return n
	}
	// Construction alone starts nothing: many intervals later the log
	// still holds zero checkpoint records.
	time.Sleep(20 * time.Millisecond)
	if n := countCkpts(); n != 0 {
		t.Fatalf("cadence ran before Serve: %d checkpoint records", n)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	deadline := time.Now().Add(30 * time.Second)
	for countCkpts() == 0 || d.Store.Stats().Packets != uint64(len(stream)) {
		if time.Now().After(deadline) {
			t.Fatalf("background cadence flushed %d of %d packets, %d checkpoint records",
				d.Store.Stats().Packets, len(stream), countCkpts())
		}
		time.Sleep(time.Millisecond)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("serve: %v", err)
	}
	if d.Store.Stats().Packets == 0 {
		t.Fatal("flushed store holds no packets")
	}
}

// TestDurableStatsSurface: /stats exposes the store's accounting and the
// recovery report when the daemon is durable.
func TestDurableStatsSurface(t *testing.T) {
	tb := mustTestbench(t, 3)
	dir := t.TempDir()
	srv, d := newDurableServer(t, tb, dir, durableOpts(dir))
	d.Sink.Ingest(tb.FlowBatch(1, 0, 50, nil, nil))
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/stats", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("stats: %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{`"durable"`, `"store"`, `"recovery"`, `"replayed"`} {
		if !strings.Contains(body, want) {
			t.Fatalf("durable stats lack %s:\n%s", want, body)
		}
	}
}

// TestWindowAnswersFlowScoped: a window query that names its flows records
// only their digests, and must answer for them byte-for-byte what the
// all-flows replay of the same window answers — for both query kinds of
// the testbench plan (path decoding and per-hop latency), over the whole
// log and over windows that cut flows' streams mid-way, at several shard
// counts. A named flow the window never saw answers as untracked.
func TestWindowAnswersFlowScoped(t *testing.T) {
	tb := mustTestbench(t, 19)
	const nFlows, perRound, rounds = 6, 48, 8
	for _, shards := range []int{1, 3} {
		d, err := OpenDurableSink(tb.Engine, tb.Queries(), pipeline.Config{Shards: shards},
			durableOpts(t.TempDir()))
		if err != nil {
			t.Fatal(err)
		}
		streams := make([][]core.PacketDigest, nFlows)
		for f := range streams {
			streams[f] = tb.FlowBatch(1, f, perRound*rounds, nil, nil)
		}
		// Flows interleave round by round; odd rounds send two flows in one
		// batch, so a block holds runs of more than one flow.
		for r := 0; r < rounds; r++ {
			for f := 0; f < nFlows; f++ {
				chunk := streams[f][r*perRound : (r+1)*perRound]
				if r%2 == 1 && f+1 < nFlows {
					chunk = append(append([]core.PacketDigest(nil), chunk...), streams[f+1][r*perRound:(r+1)*perRound]...)
					f++
				}
				d.Sink.Ingest(chunk)
			}
		}
		if err := d.Store.Err(); err != nil {
			t.Fatal(err)
		}
		var maxTS uint64
		if err := d.Store.Scan(0, ^uint64(0), func(b segstore.Block) error { maxTS = b.TS; return nil }); err != nil {
			t.Fatal(err)
		}
		all := tb.Flows(1, nFlows)
		windows := [][2]uint64{{0, ^uint64(0)}, {maxTS / 3, 2 * maxTS / 3}, {maxTS / 2, ^uint64(0)}, {0, maxTS / 4}}
		subsets := [][]core.FlowKey{{all[2]}, {all[5], all[0], all[3]}, all}
		for _, w := range windows {
			whole, err := d.WindowAnswers(w[0], w[1], nil)
			if err != nil {
				t.Fatal(err)
			}
			byFlow := map[uint64]FlowAnswers{}
			for _, fa := range whole {
				byFlow[fa.Flow] = fa
			}
			if len(whole) != nFlows {
				t.Fatalf("shards=%d window %v: all-flows replay answers %d flows, want %d", shards, w, len(whole), nFlows)
			}
			if w == windows[0] && !whole[0].Answers[0].Done {
				t.Fatalf("shards=%d: the whole log does not decode a path; the comparison below would be of empty answers", shards)
			}
			for _, flows := range subsets {
				scoped, err := d.WindowAnswers(w[0], w[1], flows)
				if err != nil {
					t.Fatal(err)
				}
				want := make([]FlowAnswers, len(flows))
				for i, f := range flows {
					want[i] = byFlow[uint64(f)]
				}
				if !bytes.Equal(answersJSON(t, scoped), answersJSON(t, want)) {
					t.Fatalf("shards=%d window %v flows %v: scoped replay differs from the all-flows replay restricted to them",
						shards, w, flows)
				}
			}
		}
		stranger, err := d.WindowAnswers(0, ^uint64(0), []core.FlowKey{tb.FlowKeyFor(9, 0)})
		if err != nil {
			t.Fatal(err)
		}
		if len(stranger) != 1 || stranger[0].Tracked || stranger[0].Answers[0].Path != nil {
			t.Fatalf("a flow the window never saw answered %+v", stranger)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWindowQueryFlushesNotCheckpoints: /snapshot?since= asked while a
// session is streaming answers with every packet the daemon had taken in
// before the request — the session's hand-off counter is the
// acknowledgement: a frame counted there is recorded or in its shard's
// slab — byte-identical to a serial Recording of those packets, and it
// gets there by recording the slabs, each chunk written to the log in the
// hold that records it: no checkpoint round runs (the cadence is off, so
// a checkpoint record in the log could only be the query's), and the
// session keeps streaming throughout.
func TestWindowQueryFlushesNotCheckpoints(t *testing.T) {
	tb := mustTestbench(t, 23)
	dir := t.TempDir()
	srv, d := newDurableServer(t, tb, dir, durableOpts(dir))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	defer func() {
		shutdownServer(t, srv)
		if err := <-serveErr; err != nil {
			t.Errorf("serve: %v", err)
		}
	}()

	const wave1Flows, pkts = 3, 200
	ref, err := core.NewRecording(tb.Engine)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := dial(ln.Addr().String(), HelloFor(tb.Engine, 1, "streaming"))
	if err != nil {
		t.Fatal(err)
	}
	wave1Sent, stop, done := make(chan struct{}), make(chan struct{}), make(chan error, 1)
	go func() {
		send := func(f int) error { return ex.Send(tb.FlowBatch(1, f, pkts, nil, nil)) } // one frame
		for f := 0; f < wave1Flows; f++ {
			if err := send(f); err != nil {
				done <- err
				return
			}
		}
		close(wave1Sent)
		for f := wave1Flows; ; f++ {
			select {
			case <-stop:
				done <- ex.Close()
				return
			default:
			}
			if err := send(f); err != nil {
				done <- err
				return
			}
		}
	}()
	<-wave1Sent
	waitFor(t, "wave 1 handed to the sink", func() bool {
		conns := srv.ConnStats()
		return len(conns) == 1 && conns[0].Batches >= wave1Flows
	})

	url := "/snapshot?since=0"
	var flows []core.FlowKey
	for f := 0; f < wave1Flows; f++ {
		if err := ref.RecordBatch(tb.FlowBatch(1, f, pkts, nil, nil)); err != nil {
			t.Fatal(err)
		}
		flows = append(flows, tb.FlowKeyFor(1, f))
		url += "&flow=" + strconv.FormatUint(uint64(tb.FlowKeyFor(1, f)), 10)
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("window query: status %d: %s", rec.Code, rec.Body.String())
	}
	var out struct {
		Flows []FlowAnswers `json:"flows"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if want := Answers(ref, tb.Queries(), flows); !bytes.Equal(answersJSON(t, out.Flows), answersJSON(t, want)) {
		t.Fatalf("window query while streaming misses packets the daemon had taken in before it:\n%s\nwant\n%s",
			answersJSON(t, out.Flows), answersJSON(t, want))
	}
	select {
	case err := <-done:
		t.Fatalf("the session ended under the query: %v", err)
	default:
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := d.Store.Scan(0, ^uint64(0), func(b segstore.Block) error {
		if b.Kind == segstore.KindCheckpoint {
			t.Errorf("checkpoint record at ts %d: the window query ran a checkpoint round", b.TS)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestDurableSinkStartsNoGoroutine counts goroutines around
// OpenDurableSink and Close, as pipeline's TestSinkStartsNoGoroutine does
// for the sink: the log is written on the goroutine that records each
// chunk, so the durable tier runs none of its own. The second round opens
// a log to replay; replay's lanes have finished when OpenDurableSink
// returns, though the scheduler may count them a moment longer.
func TestDurableSinkStartsNoGoroutine(t *testing.T) {
	tb := mustTestbench(t, 29)
	dir := t.TempDir()
	before := runtime.NumGoroutine()
	settled := func(what string) {
		t.Helper()
		waitFor(t, fmt.Sprintf("%s to leave at most the %d goroutines before it", what, before),
			func() bool { return runtime.NumGoroutine() <= before })
	}
	for round := range 2 {
		d, err := OpenDurableSink(tb.Engine, tb.Queries(), pipeline.Config{Shards: 4}, durableOpts(dir))
		if err != nil {
			t.Fatal(err)
		}
		settled("OpenDurableSink")
		ingestWaves(t, tb, d, uint64(round+1), 3, 100)
		if err := d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		settled("ingest and checkpoint")
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		settled("Close")
	}
}

// TestWindowQueryReportsStoreError: once the store has failed an append,
// a window query answers 500 with the failure instead of a window the log
// no longer holds whole, and Checkpoint and Close report it too.
func TestWindowQueryReportsStoreError(t *testing.T) {
	tb := mustTestbench(t, 31)
	dir := t.TempDir()
	srv, d := newDurableServer(t, tb, dir, durableOpts(dir))
	d.Sink.Ingest(tb.FlowBatch(1, 0, 100, nil, nil))
	if err := d.Store.Close(); err != nil {
		t.Fatal(err)
	}
	d.Sink.Ingest(tb.FlowBatch(1, 1, 100, nil, nil)) // its append fails
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/snapshot?since=0", nil))
	if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "after Close") {
		t.Fatalf("window query after a failed append: status %d body %q", rec.Code, rec.Body.String())
	}
	if err := d.Checkpoint(); err == nil || !strings.Contains(err.Error(), "after Close") {
		t.Fatalf("checkpoint after a failed append: %v", err)
	}
	if err := d.Close(); err == nil || !strings.Contains(err.Error(), "after Close") {
		t.Fatalf("close after a failed append: %v", err)
	}
}

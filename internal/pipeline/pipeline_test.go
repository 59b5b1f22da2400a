package pipeline

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/hash"
)

// testPlan compiles a plan covering every query kind under a 24-bit
// budget (mirrors core's combined test plan).
func testPlan(t testing.TB, master hash.Seed) (*core.Engine, *core.PathQuery, *core.LatencyQuery, *core.UtilQuery) {
	t.Helper()
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
	lat, err := core.NewLatencyQuery("lat", 8, 0.04, 7.0/8, master)
	if err != nil {
		t.Fatal(err)
	}
	util, err := core.NewUtilQuery("util", 8, 0.025, 1.0/8, 1000, master)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.Compile([]core.Query{path, lat, util}, 24, master.Derive(9))
	if err != nil {
		t.Fatal(err)
	}
	return eng, path, lat, util
}

// encodeWorkload produces an interleaved multi-flow digest stream through
// the batch encode path: nFlows flows, k hops, pktsPerFlow packets each,
// round-robin interleaved (the adversarial order for a sink). Each packet
// meets switches drawn at random from the first 16 of the plan's universe,
// so a flow's path decoder keeps peeling.
func encodeWorkload(eng *core.Engine, seed uint64, nFlows, pktsPerFlow, k int) []core.PacketDigest {
	return encodeFlows(eng, seed, nFlows, pktsPerFlow, k, func(_ int, h uint64, _ int) uint64 {
		return 0xAB00 + (h%16)*3
	})
}

// routedWorkload is encodeWorkload with every flow on one fixed route
// through the plan's universe, so its path decodes.
func routedWorkload(eng *core.Engine, seed uint64, nFlows, pktsPerFlow, k int) []core.PacketDigest {
	return encodeFlows(eng, seed, nFlows, pktsPerFlow, k, func(f int, _ uint64, hop int) uint64 {
		return 0xAB00 + uint64((7*f+hop)%64)*3
	})
}

// workloadFlow is the key of encodeFlows' flow f.
func workloadFlow(f int) core.FlowKey {
	// Spread keys so shards get uneven, realistic loads.
	return core.FlowKey(uint64(f)*2654435761 + 1)
}

// encodeFlows is the stream behind encodeWorkload and routedWorkload;
// switchID gives flow f's switch at a hop, h being the packet's hash there.
func encodeFlows(eng *core.Engine, seed uint64, nFlows, pktsPerFlow, k int, switchID func(f int, h uint64, hop int) uint64) []core.PacketDigest {
	rng := hash.NewRNG(seed)
	pkts := make([]core.PacketDigest, 0, nFlows*pktsPerFlow)
	for p := 0; p < pktsPerFlow; p++ {
		for f := 0; f < nFlows; f++ {
			pkts = append(pkts, core.PacketDigest{Flow: workloadFlow(f), PktID: rng.Uint64(), PathLen: k})
		}
	}
	vals := make([]core.HopValues, len(pkts))
	for hop := 1; hop <= k; hop++ {
		for i := range pkts {
			h := hash.Seed(42).Hash2(pkts[i].PktID, uint64(hop))
			vals[i] = core.HopValues{
				SwitchID:  switchID(i%nFlows, h, hop),
				LatencyNs: 1000 + h%100000,
				Util:      1 + h%1500,
			}
		}
		eng.EncodeHopBatch(hop, pkts, vals)
	}
	return pkts
}

// TestShardedSinkMatchesSerial is the determinism acceptance test: for a
// fixed seed, every query answer from an N-shard sink is bit-identical to
// the serial Recording, for N in {1, 2, 3, 8}.
func TestShardedSinkMatchesSerial(t *testing.T) {
	eng, path, lat, util := testPlan(t, 101)
	const (
		nFlows      = 24
		pktsPerFlow = 400
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

	for _, shards := range []int{1, 2, 3, 8} {
		sink, err := NewSink(eng, Config{Shards: shards, BatchSize: 64})
		if err != nil {
			t.Fatal(err)
		}
		sink.Ingest(pkts)
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		if got := sink.TrackedFlows(); got != serial.TrackedFlows() {
			t.Fatalf("shards=%d: tracked %d flows, serial %d", shards, got, serial.TrackedFlows())
		}
		for f := 0; f < nFlows; f++ {
			flow := core.FlowKey(uint64(f)*2654435761 + 1)
			compareFlow(t, shards, serial, sink.Recording(flow), flow, k, path, lat, util)
		}
	}
}

// queryReader is the per-flow answer surface of *core.Recording — what a
// serial recorder, a sink shard (Sink.Recording) and a snapshot's clone of
// it all are; the conformance suite compares them pairwise.
type queryReader interface {
	Path(*core.PathQuery, core.FlowKey) ([]uint64, bool)
	LatencySamples(*core.LatencyQuery, core.FlowKey, int) int
	LatencyQuantile(*core.LatencyQuery, core.FlowKey, int, float64) (float64, error)
	UtilSeries(*core.UtilQuery, core.FlowKey) []float64
}

var _ queryReader = (*core.Recording)(nil)

func compareFlow(t *testing.T, shards int, serial queryReader, sink queryReader, flow core.FlowKey, k int,
	path *core.PathQuery, lat *core.LatencyQuery, util *core.UtilQuery) {
	t.Helper()
	pa, oka := serial.Path(path, flow)
	pb, okb := sink.Path(path, flow)
	if oka != okb || len(pa) != len(pb) {
		t.Fatalf("shards=%d flow %d: path (%v,%d) vs (%v,%d)", shards, flow, oka, len(pa), okb, len(pb))
	}
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("shards=%d flow %d hop %d: path %d vs %d", shards, flow, i+1, pa[i], pb[i])
		}
	}
	for hop := 1; hop <= k; hop++ {
		if na, nb := serial.LatencySamples(lat, flow, hop), sink.LatencySamples(lat, flow, hop); na != nb {
			t.Fatalf("shards=%d flow %d hop %d: %d vs %d samples", shards, flow, hop, na, nb)
		}
		if serial.LatencySamples(lat, flow, hop) > 0 {
			for _, phi := range []float64{0.5, 0.99} {
				qa, ea := serial.LatencyQuantile(lat, flow, hop, phi)
				qb, eb := sink.LatencyQuantile(lat, flow, hop, phi)
				if (ea == nil) != (eb == nil) || (ea == nil && qa != qb) {
					t.Fatalf("shards=%d flow %d hop %d phi %v: %v vs %v", shards, flow, hop, phi, qa, qb)
				}
			}
		}
	}
	ua, ub := serial.UtilSeries(util, flow), sink.UtilSeries(util, flow)
	if len(ua) != len(ub) {
		t.Fatalf("shards=%d flow %d: util %d vs %d", shards, flow, len(ua), len(ub))
	}
	for i := range ua {
		if ua[i] != ub[i] {
			t.Fatalf("shards=%d flow %d util[%d]: %v vs %v", shards, flow, i, ua[i], ub[i])
		}
	}
}

// TestSinkRunToRunDeterminism re-runs the same sharded ingest twice and
// requires identical answers — goroutine scheduling must not leak into
// results.
func TestSinkRunToRunDeterminism(t *testing.T) {
	eng, path, lat, _ := testPlan(t, 201)
	pkts := encodeWorkload(eng, 9, 16, 300, 6)
	run := func() *Sink {
		sink, err := NewSink(eng, Config{Shards: 4, BatchSize: 32})
		if err != nil {
			t.Fatal(err)
		}
		sink.Ingest(pkts)
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		return sink
	}
	a, b := run(), run()
	for f := 0; f < 16; f++ {
		flow := core.FlowKey(uint64(f)*2654435761 + 1)
		va, oka := a.Recording(flow).Path(path, flow)
		vb, okb := b.Recording(flow).Path(path, flow)
		if oka != okb {
			t.Fatalf("flow %d: decode %v vs %v", flow, oka, okb)
		}
		for i := range va {
			if va[i] != vb[i] {
				t.Fatalf("flow %d hop %d: %d vs %d", flow, i+1, va[i], vb[i])
			}
		}
		for hop := 1; hop <= 6; hop++ {
			if a.Recording(flow).LatencySamples(lat, flow, hop) == 0 {
				continue
			}
			qa, _ := a.Recording(flow).LatencyQuantile(lat, flow, hop, 0.5)
			qb, _ := b.Recording(flow).LatencyQuantile(lat, flow, hop, 0.5)
			if qa != qb {
				t.Fatalf("flow %d hop %d: median %v vs %v across runs", flow, hop, qa, qb)
			}
		}
	}
}

// TestSinkErrSurfacesShardFailure checks a long-running collector can see
// a shard's recording error without Close: a packet with an impossible
// path length fails its shard's decoder, Err() reports it mid-stream,
// Snapshot keeps serving the healthy shards, and Close returns it too.
func TestSinkErrSurfacesShardFailure(t *testing.T) {
	eng, _, _, _ := testPlan(t, 1001)
	pkts := encodeWorkload(eng, 31, 8, 50, 6)
	sink, err := NewSink(eng, Config{Shards: 2, BatchSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	sink.Ingest(pkts[:100])
	// Fresh flows force decoder construction; path length 65 is beyond
	// the decoder's [1, 64] domain. Several packets so at least one falls
	// in a path-carrying query set (deterministic for this seed).
	for i := 0; i < 20; i++ {
		bad := pkts[i]
		bad.Flow = core.FlowKey(0xDEAD0000 + uint64(i))
		bad.PathLen = 65
		sink.Ingest([]core.PacketDigest{bad})
	}
	sink.Flush()
	// The failure surfaces once the owning worker reaches the packet.
	snap := sink.Snapshot() // forces the workers to drain their queues
	if snap == nil {
		t.Fatal("nil snapshot")
	}
	if sink.Err() == nil {
		t.Fatal("Err() nil after a shard hit an impossible path length")
	}
	if err := sink.Close(); err == nil {
		t.Fatal("Close returned nil after a shard failure")
	}
}

// TestSinkFlushAndReuse checks Flush mid-stream is safe and Close is
// idempotent.
func TestSinkFlushAndReuse(t *testing.T) {
	eng, path, _, _ := testPlan(t, 301)
	pkts := encodeWorkload(eng, 3, 8, 500, 6)
	sink, err := NewSink(eng, Config{Shards: 2, BatchSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	half := len(pkts) / 2
	sink.Ingest(pkts[:half])
	sink.Flush()
	sink.Ingest(pkts[half:])
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	decoded := 0
	for f := 0; f < 8; f++ {
		flow := core.FlowKey(uint64(f)*2654435761 + 1)
		if _, ok := sink.Recording(flow).Path(path, flow); ok {
			decoded++
		}
	}
	if decoded == 0 {
		t.Fatal("no flow decoded its path through the sharded sink")
	}
}

// TestBarrierMakesStateReadable pins Barrier's contract: after Ingest +
// Barrier the ingester may read shard Recordings directly, and the
// observed per-flow state matches a serial Recording packet for packet —
// the synchronous read decode-progress harnesses rely on.
func TestBarrierMakesStateReadable(t *testing.T) {
	master := hash.Seed(41)
	eng, path, _, _ := testPlan(t, master)
	pkts := encodeWorkload(eng, 5, 6, 300, 6)

	for _, shards := range []int{1, 4} {
		sink, err := NewSink(eng, Config{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		serial, err := core.NewRecording(eng)
		if err != nil {
			t.Fatal(err)
		}
		for i := range pkts {
			sink.Ingest(pkts[i : i+1])
			if err := serial.RecordBatch(pkts[i : i+1]); err != nil {
				t.Fatal(err)
			}
			if i%37 != 0 {
				continue // barrier at irregular points, not every packet
			}
			sink.Barrier()
			flow := pkts[i].Flow
			want := serial.PathDecoder(path, flow)
			got := sink.Recording(flow).PathDecoder(path, flow)
			if (want == nil) != (got == nil) {
				t.Fatalf("shards=%d pkt %d: decoder presence diverged", shards, i)
			}
			wantImg, _ := serial.AppendFlowState(nil, flow)
			gotImg, _ := sink.Recording(flow).AppendFlowState(nil, flow)
			if want != nil && !bytes.Equal(wantImg, gotImg) {
				t.Fatalf("shards=%d pkt %d: flow state diverged: serial done=%v, sink done=%v",
					shards, i, want.Done(), got.Done())
			}
		}
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		sink.Barrier() // no-op after Close, must not hang
	}
}

// TestBarrierZeroAlloc: Barrier is called once per packet by the
// decode-progress harnesses (scenario/path.go), so the one worker request
// it shares with Checkpoint, WithFlow and Snapshot must cost it nothing:
// a nil callback and the ingester-owned reply channel.
func TestBarrierZeroAlloc(t *testing.T) {
	eng, _, _, _ := testPlan(t, 61)
	sink, err := NewSink(eng, Config{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	if n := testing.AllocsPerRun(200, sink.Barrier); n != 0 {
		t.Fatalf("Barrier on an idle sink allocates %v objects per call, want 0", n)
	}
}

// TestOneWorkerRequest: a shard has one channel for batches (ch), one
// for their recycling (free) and exactly one for everything else the
// worker is asked to do (exec) — a second request kind has to replace it,
// not join it.
func TestOneWorkerRequest(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "pipeline.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var chans []string
	ast.Inspect(f, func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSpec)
		if !ok || ts.Name.Name != "shard" {
			return true
		}
		for _, fld := range ts.Type.(*ast.StructType).Fields.List {
			if _, ok := fld.Type.(*ast.ChanType); ok {
				for _, name := range fld.Names {
					chans = append(chans, name.Name)
				}
			}
		}
		return false
	})
	if want := []string{"ch", "free", "exec"}; !slices.Equal(chans, want) {
		t.Fatalf("shard's channels are %v, want %v", chans, want)
	}
}

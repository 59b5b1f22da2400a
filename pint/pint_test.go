// Package pint_test exercises the public API exactly as a downstream user
// would: no internal imports, everything through the pint facade.
package pint_test

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"repro/pint"
)

func universe(n int) []uint64 {
	u := make([]uint64, n)
	for i := range u {
		u[i] = 0x5A000000 + uint64(i)
	}
	return u
}

func TestPublicPathTracing(t *testing.T) {
	uni := universe(100)
	truth := uni[:8]
	cfg, err := pint.DefaultPathConfig(8, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	q, err := pint.NewPathQuery("path", cfg, 1, 1, uni)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := pint.Compile([]pint.Query{q}, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := pint.NewRecording(engine, 0, pint.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	flow := pint.FlowKeyOf(1, "flow-a")
	rng := pint.NewRNG(2)
	for i := 0; i < 20000; i++ {
		pkt := rng.Uint64()
		var digest uint64
		for hop := 1; hop <= len(truth); hop++ {
			digest = engine.EncodeHopValues(pkt, hop, digest, &pint.HopValues{SwitchID: truth[hop-1]})
		}
		if err := rec.Record(flow, len(truth), pkt, digest); err != nil {
			t.Fatal(err)
		}
		if ids, done := rec.Path(q, flow); done {
			for j := range truth {
				if ids[j] != truth[j] {
					t.Fatalf("hop %d: got %#x want %#x", j+1, ids[j], truth[j])
				}
			}
			return
		}
	}
	t.Fatal("path not decoded through the public API")
}

func TestPublicMultiQueryBudget(t *testing.T) {
	uni := universe(64)
	cfg, _ := pint.DefaultPathConfig(8, 1, 5)
	path, err := pint.NewPathQuery("path", cfg, 1, 3, uni)
	if err != nil {
		t.Fatal(err)
	}
	lat, err := pint.NewLatencyQuery("lat", 8, 0.04, 15.0/16, 3)
	if err != nil {
		t.Fatal(err)
	}
	util, err := pint.NewUtilQuery("hpcc", 8, 0.025, 1.0/16, 1000, 3)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := pint.Compile([]pint.Query{path, lat, util}, 16, 3)
	if err != nil {
		t.Fatal(err)
	}
	plan := engine.Plan()
	if len(plan.Sets) != 2 {
		t.Fatalf("expected the paper's 2-set plan, got %d sets", len(plan.Sets))
	}
	// Over-budget plans must be rejected through the facade too.
	if _, err := pint.Compile([]pint.Query{path, lat, util}, 8, 3); err == nil {
		t.Fatal("8-bit budget cannot fit 16.5 bits of demand")
	}
}

func TestPublicLoopDetector(t *testing.T) {
	d, err := pint.NewLoopDetector(16, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	loop := []uint64{1, 2, 3}
	rng := pint.NewRNG(8)
	detected := 0
	for i := 0; i < 500; i++ {
		if c := d.RunWithLoop(rng.Uint64(), []uint64{10, 11}, loop, 100); c > 0 {
			detected++
		}
	}
	if detected < 250 {
		t.Fatalf("only %d/500 loops detected", detected)
	}
}

// TestPublicAggregationModes: the three query kinds are §3.1's three
// aggregation modes, one each.
func TestPublicAggregationModes(t *testing.T) {
	cfg, err := pint.DefaultPathConfig(8, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	path, err := pint.NewPathQuery("path", cfg, 1, 3, universe(8))
	if err != nil {
		t.Fatal(err)
	}
	lat, err := pint.NewLatencyQuery("lat", 8, 0.04, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	util, err := pint.NewUtilQuery("hpcc", 8, 0.025, 1, 1000, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		q    pint.Query
		want pint.AggregationType
	}{{path, pint.StaticPerFlow}, {lat, pint.DynamicPerFlow}, {util, pint.PerPacket}} {
		if got := c.q.Agg(); got != c.want {
			t.Errorf("%s: aggregation %v, want %v", c.q.Name(), got, c.want)
		}
	}
	if pint.StaticPerFlow == pint.DynamicPerFlow || pint.DynamicPerFlow == pint.PerPacket || pint.PerPacket == pint.StaticPerFlow {
		t.Fatal("aggregation constants must be distinct")
	}
}

func TestPublicMultiLayer(t *testing.T) {
	l := pint.MultiLayer(25, true)
	if l.Layers() != 2 {
		t.Fatalf("d=25 must use 2 XOR layers, got %d", l.Layers())
	}
}

// TestPublicBatchPipeline drives the compiled batch path end to end
// through the facade: EncodeHopBatch on the switch side, a sharded sink
// on the recording side, and serial-equivalence of the answers.
func TestPublicBatchPipeline(t *testing.T) {
	uni := universe(64)
	truth := uni[:6]
	cfg, err := pint.DefaultPathConfig(8, 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	q, err := pint.NewPathQuery("path", cfg, 1, 3, uni)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := pint.Compile([]pint.Query{q}, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	flow := pint.FlowKeyOf(3, "flow-batch")
	rng := pint.NewRNG(4)
	pkts := make([]pint.PacketDigest, 600)
	vals := make([]pint.HopValues, len(pkts))
	for i := range pkts {
		pkts[i] = pint.PacketDigest{Flow: flow, PktID: rng.Uint64(), PathLen: len(truth)}
	}
	for hop := 1; hop <= len(truth); hop++ {
		for i := range vals {
			vals[i].SwitchID = truth[hop-1]
		}
		engine.EncodeHopBatch(hop, pkts, vals)
	}

	serial, err := pint.NewRecordingSeeded(engine, 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := serial.RecordBatch(pkts); err != nil {
		t.Fatal(err)
	}
	sink, err := pint.NewShardedSink(engine, pint.ShardConfig{Shards: 3, Base: 9})
	if err != nil {
		t.Fatal(err)
	}
	sink.Ingest(pkts)
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	want, okW := serial.Path(q, flow)
	got, okG := sink.Recording(flow).Path(q, flow)
	if !okW || !okG {
		t.Fatalf("path did not decode (serial %v, sharded %v)", okW, okG)
	}
	for i := range truth {
		if want[i] != truth[i] || got[i] != truth[i] {
			t.Fatalf("hop %d: serial %d sharded %d want %d", i+1, want[i], got[i], truth[i])
		}
	}
}

func TestPublicScenarioAPI(t *testing.T) {
	names := pint.Scenarios()
	if len(names) < 16 {
		t.Fatalf("scenario registry exposes only %d entries", len(names))
	}
	if _, ok := pint.LookupScenario("fig5"); !ok {
		t.Fatal("fig5 not exposed")
	}
	s := pint.QuickScale()
	s.Trials = 2
	res, err := pint.RunScenarios([]string{"pathtrace"}, pint.ScenarioOptions{Scale: s, Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || len(res[0].Tables) == 0 {
		t.Fatalf("unexpected result shape: %+v", res)
	}
	// A user-defined scenario runs through the same engine.
	custom := pint.Scenario{
		Name:   "user-defined",
		Figure: "new",
		Desc:   "public API smoke",
		Plan: func(sc pint.Scale) ([]pint.ScenarioTrial, error) {
			return []pint.ScenarioTrial{{Name: "one", Run: func() (any, error) { return 41 + 1, nil }}}, nil
		},
		Reduce: func(sc pint.Scale, outs []any) ([]pint.Table, error) {
			return []pint.Table{{Title: "custom", Columns: []string{"v"},
				Rows: [][]string{{fmt.Sprintf("%d", outs[0].(int))}}}}, nil
		},
	}
	got, err := pint.RunScenario(&custom, pint.ScenarioOptions{Scale: pint.QuickScale()})
	if err != nil {
		t.Fatal(err)
	}
	if got.Tables[0].Rows[0][0] != "42" {
		t.Fatalf("custom scenario produced %q", got.Tables[0].Rows[0][0])
	}
}

// TestPublicCollectorAPI runs a miniature networked deployment entirely
// through the facade: compile, encode a flow, stream it to a Collector
// over loopback TCP, drain, and read the answers back.
func TestPublicCollectorAPI(t *testing.T) {
	uni := universe(64)
	truth := uni[:6]
	cfg, err := pint.DefaultPathConfig(8, 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	q, err := pint.NewPathQuery("path", cfg, 1, 3, uni)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := pint.Compile([]pint.Query{q}, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	flow := pint.FlowKeyOf(3, "flow-collector")
	rng := pint.NewRNG(4)
	pkts := make([]pint.PacketDigest, 600)
	vals := make([]pint.HopValues, len(pkts))
	for i := range pkts {
		pkts[i] = pint.PacketDigest{Flow: flow, PktID: rng.Uint64(), PathLen: len(truth)}
	}
	for hop := 1; hop <= len(truth); hop++ {
		for i := range vals {
			vals[i].SwitchID = truth[hop-1]
		}
		engine.EncodeHopBatch(hop, pkts, vals)
	}

	sink, err := pint.NewShardedSink(engine, pint.ShardConfig{Shards: 2, Base: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	srv, err := pint.NewCollector(engine, pint.WithSink(sink), pint.WithQueries(q))
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	ex, err := pint.Connect(engine, 1, "public-api", pint.WithAddrs(ln.Addr().String()))
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Send(pkts); err != nil {
		t.Fatal(err)
	}
	if err := ex.Close(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := <-serveErr; err != nil {
		t.Fatal(err)
	}
	if got := srv.Stats().Packets; got != uint64(len(pkts)) {
		t.Fatalf("collector ingested %d packets, want %d", got, len(pkts))
	}

	merged, err := sink.Snapshot().Merged()
	if err != nil {
		t.Fatal(err)
	}
	answers := pint.Answers(merged, []pint.Query{q}, []pint.FlowKey{flow})
	if len(answers) != 1 || !answers[0].Answers[0].Done {
		t.Fatalf("flow did not decode over the wire: %+v", answers)
	}
	for i, id := range answers[0].Answers[0].Path {
		if id != truth[i] {
			t.Fatalf("hop %d decoded %#x, want %#x", i+1, id, truth[i])
		}
	}
}

package core

import (
	"math"
	"testing"

	"repro/internal/coding"
	"repro/internal/hash"
)

func mustPath(t *testing.T, name string, bits, inst int, freq float64, uni []uint64) *PathQuery {
	t.Helper()
	cfg, err := DefaultPathConfig(bits, inst, 10)
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewPathQuery(name, cfg, freq, 1234, uni)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func mustLat(t *testing.T, name string, bits int, freq float64) *LatencyQuery {
	t.Helper()
	q, err := NewLatencyQuery(name, bits, 0.025, freq, 1234)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func mustUtil(t *testing.T, name string, bits int, freq float64) *UtilQuery {
	t.Helper()
	q, err := NewUtilQuery(name, bits, 0.025, freq, 1000, 1234)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func testUniverse(k, n int) []uint64 {
	u := make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		u = append(u, uint64(0x5A000000+i))
	}
	return u
}

func TestCompileCombinedPlan(t *testing.T) {
	// §6.4: path on all packets, latency on 15/16, HPCC on 1/16, all 8-bit
	// queries under a 16-bit global budget -> {path,lat}@15/16,
	// {path,hpcc}@1/16.
	uni := testUniverse(10, 100)
	path := mustPath(t, "path", 8, 1, 1, uni)
	lat := mustLat(t, "lat", 8, 15.0/16)
	util := mustUtil(t, "hpcc", 8, 1.0/16)
	e, err := Compile([]Query{path, lat, util}, 16, 42)
	if err != nil {
		t.Fatal(err)
	}
	plan := e.Plan()
	if len(plan.Sets) != 2 {
		t.Fatalf("plan has %d sets, want 2:\n%s", len(plan.Sets), plan)
	}
	var total float64
	for _, s := range plan.Sets {
		total += s.Prob
		bits := 0
		for _, q := range s.Queries {
			bits += q.Bits()
		}
		if bits > 16 {
			t.Fatalf("set exceeds budget: %d bits", bits)
		}
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("probabilities sum to %v", total)
	}
	// Every set must include the path query (frequency 1).
	for _, s := range plan.Sets {
		found := false
		for _, q := range s.Queries {
			if q == Query(path) {
				found = true
			}
		}
		if !found {
			t.Fatal("frequency-1 query missing from a set")
		}
	}
}

// TestAggregationModes: the three query kinds are §3.1's three
// aggregation modes, one each.
func TestAggregationModes(t *testing.T) {
	for _, c := range []struct {
		q    Query
		want AggregationType
	}{
		{mustPath(t, "path", 8, 1, 1, testUniverse(10, 8)), StaticPerFlow},
		{mustLat(t, "lat", 8, 1), DynamicPerFlow},
		{mustUtil(t, "hpcc", 8, 1), PerPacket},
	} {
		if got := c.q.Agg(); got != c.want {
			t.Errorf("%s: aggregation %v, want %v", c.q.Name(), got, c.want)
		}
	}
	if StaticPerFlow == DynamicPerFlow || DynamicPerFlow == PerPacket || PerPacket == StaticPerFlow {
		t.Fatal("aggregation constants must be distinct")
	}
}

func TestCompileRejections(t *testing.T) {
	uni := testUniverse(10, 100)
	path := mustPath(t, "p", 8, 1, 1, uni)
	if _, err := Compile(nil, 16, 1); err == nil {
		t.Fatal("no queries must fail")
	}
	if _, err := Compile([]Query{path}, 0, 1); err == nil {
		t.Fatal("zero budget must fail")
	}
	if _, err := Compile([]Query{path}, 4, 1); err == nil {
		t.Fatal("query wider than budget must fail")
	}
	// Over-demand: two frequency-1 8-bit queries in 8 bits.
	q2 := mustLat(t, "l", 8, 1)
	if _, err := Compile([]Query{path, q2}, 8, 1); err == nil {
		t.Fatal("demand above budget must fail")
	}
	// Duplicate names.
	dup := mustLat(t, "p", 8, 0.5)
	if _, err := Compile([]Query{path, dup}, 16, 1); err == nil {
		t.Fatal("duplicate names must fail")
	}
}

func TestCompileUnderfullPlan(t *testing.T) {
	// A single 1/4-frequency query: 3/4 of packets carry nothing.
	lat := mustLat(t, "l", 8, 0.25)
	e, err := Compile([]Query{lat}, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	none := 0
	const n = 100000
	for pkt := uint64(0); pkt < n; pkt++ {
		if e.SetFor(pkt) == nil {
			none++
		}
	}
	if got := float64(none) / n; math.Abs(got-0.75) > 0.01 {
		t.Fatalf("unassigned fraction %v, want 0.75", got)
	}
}

func TestSetForFrequencies(t *testing.T) {
	uni := testUniverse(10, 100)
	path := mustPath(t, "path", 8, 1, 1, uni)
	lat := mustLat(t, "lat", 8, 15.0/16)
	util := mustUtil(t, "hpcc", 8, 1.0/16)
	e, err := Compile([]Query{path, lat, util}, 16, 42)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	const n = 200000
	for pkt := uint64(0); pkt < n; pkt++ {
		set := e.SetFor(pkt)
		if set == nil {
			t.Fatal("full plan must assign every packet")
		}
		for _, q := range set.Queries {
			counts[q.Name()]++
		}
	}
	want := map[string]float64{"path": 1, "lat": 15.0 / 16, "hpcc": 1.0 / 16}
	for name, f := range want {
		got := float64(counts[name]) / n
		if math.Abs(got-f) > 0.01 {
			t.Fatalf("query %s served on %v of packets, want %v", name, got, f)
		}
	}
}

func TestEncodeExtractSliceIsolation(t *testing.T) {
	// Two queries sharing a digest must not clobber each other's bits.
	uni := testUniverse(10, 100)
	path := mustPath(t, "path", 8, 1, 1, uni)
	lat := mustLat(t, "lat", 8, 1)
	e, err := Compile([]Query{path, lat}, 16, 9)
	if err != nil {
		t.Fatal(err)
	}
	for pkt := uint64(0); pkt < 3000; pkt++ {
		var digest uint64
		for hop := 1; hop <= 5; hop++ {
			digest = e.EncodeHopValues(pkt, hop, digest, &HopValues{
				SwitchID:  uint64(0x5A000000 + hop - 1),
				LatencyNs: uint64(1000 * hop),
			})
		}
		if digest>>16 != 0 {
			t.Fatalf("digest %#x spills beyond the 16-bit budget", digest)
		}
		ex := e.ExtractInto(pkt, digest, nil)
		if len(ex) != 2 {
			t.Fatalf("extracted %d slices, want 2", len(ex))
		}
		for _, x := range ex {
			if x.Bits >= 1<<8 {
				t.Fatalf("slice %#x exceeds 8 bits", x.Bits)
			}
		}
	}
}

func TestEndToEndPathDecoding(t *testing.T) {
	// Full engine pipeline: encode over a 10-hop path, record at the sink,
	// infer the path.
	const k = 10
	uni := testUniverse(k, 200)
	truth := uni[:k]
	path := mustPath(t, "path", 8, 1, 1, uni)
	e, err := Compile([]Query{path}, 8, 11)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := NewRecording(e, 0, hash.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	flow := FlowKey(777)
	rng := hash.NewRNG(2)
	decoded := false
	for i := 0; i < 20000; i++ {
		pkt := rng.Uint64()
		var digest uint64
		for hop := 1; hop <= k; hop++ {
			digest = e.EncodeHopValues(pkt, hop, digest, &HopValues{SwitchID: truth[hop-1]})
		}
		if err := rec.Record(flow, k, pkt, digest); err != nil {
			t.Fatal(err)
		}
		if got, ok := rec.Path(path, flow); ok {
			for h := range truth {
				if got[h] != truth[h] {
					t.Fatalf("hop %d decoded %#x, want %#x", h+1, got[h], truth[h])
				}
			}
			decoded = true
			break
		}
	}
	if !decoded {
		t.Fatal("path not decoded within 20000 packets")
	}
}

func TestEndToEndLatencyQuantiles(t *testing.T) {
	// Per-hop latencies with distinct medians; the inferred medians must
	// be within compression+sampling error.
	const k = 5
	lat := mustLat(t, "lat", 8, 1)
	e, err := Compile([]Query{lat}, 8, 13)
	if err != nil {
		t.Fatal(err)
	}
	for _, sketchItems := range []int{0, 64} {
		rec, err := NewRecording(e, sketchItems, hash.NewRNG(3))
		if err != nil {
			t.Fatal(err)
		}
		flow := FlowKey(88)
		rng := hash.NewRNG(4)
		medians := []float64{1000, 5000, 20000, 800, 60000}
		for i := 0; i < 40000; i++ {
			pkt := rng.Uint64()
			var digest uint64
			for hop := 1; hop <= k; hop++ {
				v := medians[hop-1] * math.Exp(rng.NormFloat64()*0.3)
				digest = e.EncodeHopValues(pkt, hop, digest, &HopValues{LatencyNs: uint64(v)})
			}
			if err := rec.Record(flow, k, pkt, digest); err != nil {
				t.Fatal(err)
			}
		}
		for hop := 1; hop <= k; hop++ {
			got, err := rec.LatencyQuantile(lat, flow, hop, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			relErr := math.Abs(got-medians[hop-1]) / medians[hop-1]
			if relErr > 0.15 {
				t.Fatalf("sketch=%d hop %d: median %v, want %v (err %.1f%%)",
					sketchItems, hop, got, medians[hop-1], relErr*100)
			}
			if rec.LatencySamples(lat, flow, hop) < 40000/k/2 {
				t.Fatalf("hop %d undersampled: %d", hop, rec.LatencySamples(lat, flow, hop))
			}
		}
	}
}

func TestEndToEndUtilMaxAggregation(t *testing.T) {
	util := mustUtil(t, "u", 8, 1)
	e, err := Compile([]Query{util}, 8, 17)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := NewRecording(e, 0, hash.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	flow := FlowKey(3)
	hopU := []float64{0.2, 0.9, 0.4} // bottleneck is hop 2
	rng := hash.NewRNG(6)
	for i := 0; i < 2000; i++ {
		pkt := rng.Uint64()
		var digest uint64
		for hop := 1; hop <= 3; hop++ {
			digest = e.EncodeHopValues(pkt, hop, digest, &HopValues{Util: util.EncodeValue(hopU[hop-1])})
		}
		if err := rec.Record(flow, 3, pkt, digest); err != nil {
			t.Fatal(err)
		}
	}
	series := rec.UtilSeries(util, flow)
	if len(series) != 2000 {
		t.Fatalf("recorded %d values", len(series))
	}
	var mean float64
	for _, u := range series {
		mean += u
	}
	mean /= float64(len(series))
	if math.Abs(mean-0.9) > 0.05 {
		t.Fatalf("mean decoded bottleneck %v, want ~0.9", mean)
	}
}

func TestPipelineLayout(t *testing.T) {
	uni := testUniverse(10, 100)
	path := mustPath(t, "path", 8, 1, 1, uni)
	lat := mustLat(t, "lat", 8, 1)
	util := mustUtil(t, "hpcc", 8, 1)
	solo, err := Layout([]Query{util})
	if err != nil {
		t.Fatal(err)
	}
	if solo.Stages != 8 {
		t.Fatalf("HPCC alone uses %d stages, want 8", solo.Stages)
	}
	combined, err := Layout([]Query{path, lat, util})
	if err != nil {
		t.Fatal(err)
	}
	// Fig 6's claim: the combination fits without increasing the stage
	// count over HPCC alone.
	if combined.Stages != solo.Stages {
		t.Fatalf("combined %d stages vs solo %d: parallelism claim violated",
			combined.Stages, solo.Stages)
	}
	if last := combined.Columns[len(combined.Columns)-1]; len(combined.Columns) != 4 || last.Name != "query-select" {
		t.Fatalf("combined layout %+v must end with the query-subset column", combined.Columns)
	}
	pOnly, err := Layout([]Query{path})
	if err != nil {
		t.Fatal(err)
	}
	if pOnly.Stages != 4 {
		t.Fatalf("path tracing uses %d stages, want 4 (§5)", pOnly.Stages)
	}
}

func TestPathQueryTwoInstances(t *testing.T) {
	// 2×(b=8): the engine must treat it as one 16-bit query.
	uni := testUniverse(10, 100)
	cfg, _ := DefaultPathConfig(8, 2, 10)
	q, err := NewPathQuery("p2", cfg, 1, 99, uni)
	if err != nil {
		t.Fatal(err)
	}
	if q.Bits() != 16 {
		t.Fatalf("2x8 query bits = %d, want 16", q.Bits())
	}
	e, err := Compile([]Query{q}, 16, 5)
	if err != nil {
		t.Fatal(err)
	}
	rec, _ := NewRecording(e, 0, hash.NewRNG(7))
	truth := uni[:10]
	rng := hash.NewRNG(8)
	flow := FlowKey(1)
	for i := 0; i < 20000; i++ {
		pkt := rng.Uint64()
		var digest uint64
		for hop := 1; hop <= 10; hop++ {
			digest = e.EncodeHopValues(pkt, hop, digest, &HopValues{SwitchID: truth[hop-1]})
		}
		if err := rec.Record(flow, 10, pkt, digest); err != nil {
			t.Fatal(err)
		}
		if _, ok := rec.Path(q, flow); ok {
			return
		}
	}
	t.Fatal("2x8 path not decoded")
}

// TestPlanHash pins the collector handshake guard: the hash is stable
// across identical compilations and moves when the master seed, budget,
// or query set changes.
func TestPlanHash(t *testing.T) {
	uni := testUniverse(10, 100)
	build := func(bits int, freq float64, seed hash.Seed) *Engine {
		t.Helper()
		path := mustPath(t, "path", 8, 1, 1, uni)
		lat := mustLat(t, "lat", 8, freq)
		e, err := Compile([]Query{path, lat}, bits, seed)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	base := build(16, 15.0/16, 42)
	if got := build(16, 15.0/16, 42).PlanHash(); got != base.PlanHash() {
		t.Fatalf("identical compilations hash %#x vs %#x", got, base.PlanHash())
	}
	for name, e := range map[string]*Engine{
		"seed":   build(16, 15.0/16, 43),
		"budget": build(17, 15.0/16, 42),
		"freq":   build(16, 7.0/8, 42),
	} {
		if e.PlanHash() == base.PlanHash() {
			t.Fatalf("%s change left the plan hash at %#x", name, base.PlanHash())
		}
	}
}

func TestFlowKeyOf(t *testing.T) {
	a := FlowKeyOf(1, "10.0.0.1:1234->10.0.0.2:80")
	b := FlowKeyOf(1, "10.0.0.1:1234->10.0.0.2:80")
	c := FlowKeyOf(1, "10.0.0.1:1234->10.0.0.2:81")
	if a != b || a == c {
		t.Fatal("flow key derivation broken")
	}
}

var _ = coding.ModeHashed // keep import when build tags change

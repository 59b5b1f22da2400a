package scenario

import (
	"math"
	"strconv"
	"testing"

	"repro/internal/analysis"
	"repro/internal/workload"
)

// runByName runs one registered scenario through the name resolver.
func runByName(name string, opts Options) (*Result, error) {
	res, err := RunNames([]string{name}, opts)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// runTrials plans a registered scenario at scale s, runs its trials in
// plan order and reduces them; it returns the trial outputs (for the
// paper-claim assertions on typed values) and renders every table.
func runTrials(t *testing.T, name string, s Scale) []any {
	t.Helper()
	sc, ok := Lookup(name)
	if !ok {
		t.Fatalf("scenario %q not registered", name)
	}
	trials, err := sc.Plan(s)
	if err != nil {
		t.Fatal(err)
	}
	outs := make([]any, len(trials))
	for i, tr := range trials {
		if outs[i], err = tr.Run(); err != nil {
			t.Fatalf("%s: trial %q: %v", name, tr.Name, err)
		}
	}
	tables, err := sc.Reduce(s, outs)
	if err != nil {
		t.Fatal(err)
	}
	for _, tb := range tables {
		if len(tb.Rows) == 0 || len(tb.String()) == 0 {
			t.Fatalf("%s: table %q rendered empty", name, tb.Title)
		}
	}
	return outs
}

// tiny returns a scale small enough for unit tests (each figure seconds,
// not minutes).
func tiny() Scale {
	return Scale{
		HostBps:     1_000_000_000,
		TierBps:     4_000_000_000,
		SizeDivisor: 128,
		DurationNs:  15_000_000,
		Pods:        2,
		HostsPerTor: 2,
		Trials:      10,
		Seed:        7,
	}
}

func TestRunLoadBasics(t *testing.T) {
	res, err := RunLoad(LoadRunConfig{Scale: tiny(), Dist: workload.Hadoop(),
		Load: 0.4, Kind: KindHPCCPINT, MinFlows: 30})
	if err != nil {
		t.Fatal(err)
	}
	done := res.Collector.Completed()
	if len(done) < 20 {
		t.Fatalf("only %d flows completed", len(done))
	}
	sizes, slow := res.Slowdowns()
	if len(sizes) != len(slow) {
		t.Fatal("mismatched slowdown vectors")
	}
	for i, v := range slow {
		// Intra-rack flows can dip below 1 against the cross-pod ideal.
		if v < 0.01 || v > 1e5 || math.IsNaN(v) {
			t.Fatalf("flow %d slowdown %v implausible", i, v)
		}
	}
}

func TestRunLoadRenoOverheadEffect(t *testing.T) {
	run := func(ov int) float64 {
		res, err := RunLoad(LoadRunConfig{Scale: tiny(), Dist: workload.WebSearch(),
			Load: 0.7, Kind: KindReno, Overhead: ov, MinFlows: 40})
		if err != nil {
			t.Fatal(err)
		}
		return res.AvgFCT()
	}
	base, heavy := run(0), run(108)
	if math.IsNaN(base) || math.IsNaN(heavy) {
		t.Fatal("no completed flows")
	}
	// 108B on ~1000B packets is ~10% capacity loss at 70% load; allow
	// noise but the heavy run must not be meaningfully faster.
	if heavy < base*0.95 {
		t.Fatalf("108B overhead FCT %v below zero-overhead %v", heavy, base)
	}
}

func TestFig05Shapes(t *testing.T) {
	curves := runTrials(t, "fig5", tiny())[0].([]codingCurve)
	if len(curves) != 3 {
		t.Fatalf("want 3 schemes, got %d", len(curves))
	}
	for _, c := range curves {
		for i := 1; i < len(c.MissingHops); i++ {
			if c.MissingHops[i] > c.MissingHops[i-1]+1e-9 {
				t.Fatalf("%s: E[missing] increased along packets", c.Scheme)
			}
			if c.DecodeProb[i] < c.DecodeProb[i-1]-1e-9 {
				t.Fatalf("%s: decode probability decreased", c.Scheme)
			}
		}
	}
	// Hybrid must decode with fewer packets than Baseline: compare the
	// decode probability at the 100-packet mark (index of packet 96).
	idx := len(curves[0].Packets) * 96 / 200
	base, hyb := curves[0], curves[2]
	if hyb.DecodeProb[idx] < base.DecodeProb[idx] {
		t.Fatalf("hybrid P(dec)@%dpkts %v below baseline %v",
			hyb.Packets[idx], hyb.DecodeProb[idx], base.DecodeProb[idx])
	}
}

func TestCodingMediansTable(t *testing.T) {
	res, err := runByName("medians", Options{Scale: tiny()})
	if err != nil {
		t.Fatal(err)
	}
	tab := res.Tables[0]
	if len(tab.Rows) != 5 {
		t.Fatalf("want 5 schemes, got %d", len(tab.Rows))
	}
	median := map[string]float64{}
	for _, row := range tab.Rows {
		v, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatalf("%s: median %q: %v", row[0], row[2], err)
		}
		median[row[0]] = v
	}
	// Appendix A's bound on the multi-layer scheme, §4.2's ordering of
	// Hybrid before Baseline, and LNC, which needs k independent packets
	// at least.
	if bound := analysis.Theorem3Packets(codingK); median["MultiLayer"] > bound {
		t.Errorf("MultiLayer median %v above Theorem 3's %v packets at k=%d", median["MultiLayer"], bound, codingK)
	}
	if median["Hybrid"] >= median["Baseline"] {
		t.Errorf("Hybrid median %v not below Baseline's %v", median["Hybrid"], median["Baseline"])
	}
	if median["LNC"] < codingK {
		t.Errorf("LNC median %v below k=%d", median["LNC"], codingK)
	}
}

func TestFig09HadoopMedian(t *testing.T) {
	series, err := fig09(tiny(), fig09Panel{Workload: workload.Hadoop(), Quantile: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 4 { // b=8, b=8 sketched, b=4, b=4 sketched
		t.Fatalf("want 4 series, got %d", len(series))
	}
	byName := map[string][]latencyPoint{}
	for _, s := range series {
		byName[s.Name] = s.Points
		for _, p := range s.Points {
			if math.IsNaN(p.RelErr) || p.RelErr < 0 {
				t.Fatalf("%s: bad error %v at x=%d", s.Name, p.RelErr, p.X)
			}
		}
	}
	// The compression floor: b=4 (coarse) must end with larger error than
	// b=8 at the largest sample size.
	b8 := byName["PINT (b=8)"]
	b4 := byName["PINT (b=4)"]
	if b4[len(b4)-1].RelErr <= b8[len(b8)-1].RelErr {
		t.Fatalf("b=4 floor %v not above b=8 floor %v",
			b4[len(b4)-1].RelErr, b8[len(b8)-1].RelErr)
	}
}

func TestFig09SketchRow(t *testing.T) {
	series, err := fig09(tiny(), fig09Panel{Workload: workload.Hadoop(), Quantile: 0.5, BySketch: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 { // only the sketched variants
		t.Fatalf("want 2 series, got %d", len(series))
	}
	for _, s := range series {
		if len(s.Points) != 6 {
			t.Fatalf("%s: %d points, want 6", s.Name, len(s.Points))
		}
	}
}

func TestFig10FatTree(t *testing.T) {
	byScheme := map[string]map[int]pathPoint{}
	for _, out := range runTrials(t, "fig10c", tiny()) {
		for _, p := range out.([]pathPoint) {
			if byScheme[p.Scheme] == nil {
				byScheme[p.Scheme] = map[int]pathPoint{}
			}
			byScheme[p.Scheme][p.PathLen] = p
			if p.Mean <= 0 || p.P99 < p.Mean {
				t.Fatalf("%s l=%d: mean %v p99 %v inconsistent", p.Scheme, p.PathLen, p.Mean, p.P99)
			}
		}
	}
	// The paper's headline ordering at D=5: PINT 2x(b=8) needs far fewer
	// packets than PPM and AMS2.
	l := 5
	pint := byScheme["PINT 2x(b=8)"][l].Mean
	ppm := byScheme["PPM"][l].Mean
	ams := byScheme["AMS2 (m=5)"][l].Mean
	if pint*2 > ppm || pint*2 > ams {
		t.Fatalf("PINT %v not clearly below PPM %v / AMS2 %v", pint, ppm, ams)
	}
	// And b=1 still beats the baselines.
	b1 := byScheme["PINT (b=1)"][l].Mean
	if b1 >= ppm {
		t.Fatalf("PINT b=1 %v not below PPM %v", b1, ppm)
	}
}

func TestFig11Combined(t *testing.T) {
	arms := runTrials(t, "fig11", tiny())
	rows := fig11Rows(arms[0].(*combinedMetrics), arms[1].(*combinedMetrics), arms[2].(*combinedMetrics))
	if len(rows) != 2 || rows[0].Name != "Baseline" || rows[1].Name != "Combined" {
		t.Fatalf("unexpected rows %+v", rows)
	}
	for _, r := range rows {
		if r.MeanSlowdown < 0.9 || math.IsNaN(r.MeanSlowdown) {
			t.Fatalf("%s: slowdown %v implausible", r.Name, r.MeanSlowdown)
		}
	}
	if rows[1].PathDecodedFlows == 0 {
		t.Fatal("combined run decoded no paths")
	}
	if rows[0].PathDecodedFlows == 0 {
		t.Fatal("baseline run decoded no paths")
	}
}

func TestCollectionOverhead(t *testing.T) {
	stats := runTrials(t, "collection", tiny())
	if len(stats) != 2 {
		t.Fatalf("want INT and PINT rows, got %d", len(stats))
	}
	intRow, pintRow := stats[0].(collectionStats), stats[1].(collectionStats)
	if intRow.Reports == 0 || pintRow.Reports == 0 {
		t.Fatal("no reports observed")
	}
	if !pintRow.FixedSize {
		t.Fatal("PINT reports must be fixed-size")
	}
	if intRow.FixedSize {
		t.Fatal("INT reports over mixed path lengths cannot be fixed-size")
	}
	if pintRow.MeanBytes >= intRow.MeanBytes {
		t.Fatalf("PINT mean %v not below INT mean %v",
			pintRow.MeanBytes, intRow.MeanBytes)
	}
}

func TestTableRendering(t *testing.T) {
	tab := Table{Title: "t", Columns: []string{"a", "bb"},
		Rows: [][]string{{"1", "2"}, {"333", "4"}}}
	s := tab.String()
	if len(s) == 0 {
		t.Fatal("empty rendering")
	}
	if F(math.NaN()) != "-" {
		t.Fatal("NaN must render as dash")
	}
	if F(0.5) != "0.500" || F(1234) != "1234" {
		t.Fatalf("float formatting: %s %s", F(0.5), F(1234))
	}
}

func TestDecileEdges(t *testing.T) {
	edges := decileEdges(workload.Hadoop(), 1)
	if len(edges) != 10 {
		t.Fatalf("%d edges", len(edges))
	}
	for i := 1; i < len(edges); i++ {
		if edges[i] < edges[i-1] {
			t.Fatal("edges not sorted")
		}
	}
	if edges[4] != 699 {
		t.Fatalf("hadoop median edge %d, want 699", edges[4])
	}
}

func TestPercentileSlowdownByBin(t *testing.T) {
	sizes := []int64{10, 20, 20, 300}
	slow := []float64{1, 2, 4, 8}
	out := percentileSlowdownByBin(sizes, slow, []int64{15, 250, 1000}, 0.95)
	if out[0] != 1 {
		t.Fatalf("bin0 %v", out[0])
	}
	if out[1] != 4 {
		t.Fatalf("bin1 %v, want 4 (p95 of {2,4})", out[1])
	}
	if out[2] != 8 {
		t.Fatalf("bin2 %v", out[2])
	}
}

func TestScaleValidate(t *testing.T) {
	for _, s := range []Scale{Quick(), Bench(), Paper(), tiny()} {
		if err := s.Validate(); err != nil {
			t.Fatalf("stock scale rejected: %v", err)
		}
	}
	bad := Bench()
	bad.Shards = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative Shards accepted")
	}
	bad.Shards = MaxShards + 1
	if err := bad.Validate(); err == nil {
		t.Fatal("oversized Shards accepted")
	}
	bad = Bench()
	bad.Trials = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero Trials accepted")
	}
	if (Scale{Shards: 0}).ShardCount() != 1 || (Scale{Shards: 4}).ShardCount() != 4 {
		t.Fatal("ShardCount normalization wrong")
	}
}

func TestRunLoadMultiTenant(t *testing.T) {
	res, err := RunLoad(LoadRunConfig{Scale: tiny(), Kind: KindHPCCPINT,
		Tenants: []Tenant{
			{Name: "hadoop", Dist: workload.Hadoop(), Load: 0.25, MinFlows: 20},
			{Name: "websearch", Dist: workload.WebSearch(), Load: 0.25, MinFlows: 20},
		}})
	if err != nil {
		t.Fatal(err)
	}
	if res.TenantOf == nil {
		t.Fatal("multi-tenant run returned no tenant map")
	}
	sizes, slow := res.SlowdownsByTenant(2)
	if len(sizes) != 2 || len(slow) != 2 {
		t.Fatalf("per-tenant split shape %d/%d", len(sizes), len(slow))
	}
	for ti := range sizes {
		if len(sizes[ti]) < 5 {
			t.Fatalf("tenant %d completed only %d flows", ti, len(sizes[ti]))
		}
	}
	// Tenant IDs must not collide (the high-byte tag keeps generators apart).
	seen := map[uint64]bool{}
	for id := range res.TenantOf {
		if seen[id] {
			t.Fatalf("flow ID %d duplicated", id)
		}
		seen[id] = true
	}
}

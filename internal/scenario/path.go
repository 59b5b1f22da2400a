package scenario

import (
	"fmt"

	"repro/internal/coding"
	"repro/internal/core"
	"repro/internal/hash"
	"repro/internal/pipeline"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/wire"
)

func init() {
	Register(fig10Scenario("fig10a", "Fig 10(a)/(d)", "kentucky"))
	Register(fig10Scenario("fig10b", "Fig 10(b)/(e)", "uscarrier"))
	Register(fig10Scenario("fig10c", "Fig 10(c)/(f)", "fattree"))
	// The registry's default path trace mirrors Fig 10(c)'s sweet spot: a
	// 5-hop fat-tree path at the 2×(b=8) budget.
	Register(PathTrace(PathTraceSpec{
		Topo: "fattree", PathLen: 5, Bits: 8, Instances: 2, D: 5, Baselines: false,
	}))
}

// buildTopology resolves one of §6.3's three evaluation topologies:
// kentucky (D=59, 753 switches), uscarrier (D=36, 157 switches) or
// fattree (K=8, D=5).
func buildTopology(name string) (*topology.Graph, error) {
	switch name {
	case "kentucky":
		return topology.KentuckyDatalinkLike()
	case "uscarrier":
		return topology.USCarrierLike()
	case "fattree":
		return topology.FatTree(8)
	default:
		return nil, fmt.Errorf("scenario: unknown topology %q", name)
	}
}

// pathValues returns the switch IDs along one path of l switches in g. "Path
// length l" counts encoder switches; a path visiting l switches connects
// a pair at BFS distance l-1. It returns nil when g has no such path.
func pathValues(g *topology.Graph, l int, pairSeed, pathSeed uint64) []uint64 {
	pairs := g.SwitchPairsAtDistance(l-1, 1, pairSeed)
	if len(pairs) == 0 {
		return nil
	}
	var values []uint64
	for _, n := range g.Path(pairs[0][0], pairs[0][1], pathSeed) {
		values = append(values, g.Nodes[n].SwitchID)
	}
	return values
}

// --- Fig 10: packets to decode a path, PINT vs the traceback baselines ---

// fig10Axes holds the paper's x-axis path lengths and the configured d
// per topology (10 for the ISP topologies, 5 for the fat tree — §6.3).
var fig10Axes = map[string]struct {
	lengths []int
	d       int
}{
	"kentucky":  {[]int{6, 12, 18, 24, 30, 36, 42, 48, 54}, 10},
	"uscarrier": {[]int{4, 8, 12, 16, 20, 24, 28, 32, 36}, 10},
	"fattree":   {[]int{2, 3, 4, 5}, 5},
}

var fig10Schemes = []string{"PINT 2x(b=8)", "PINT (b=4)", "PINT (b=1)", "PPM", "AMS2 (m=5)", "AMS2 (m=6)"}

// pathPoint is one (scheme, path length) cell of Fig 10.
type pathPoint struct {
	Scheme  string
	PathLen int
	Mean    float64
	P99     float64
}

// fig10Scenario reproduces one topology of Figure 10: the number of
// packets needed to decode a flow's path (mean and 99th percentile) as a
// function of path length, comparing PINT with budgets 2×(b=8), b=4 and
// b=1 against the improved PPM and AMS2 (m=5, m=6) traceback baselines.
// The paper's claims: PINT grows near-linearly in path length and beats
// the baselines by an order of magnitude; even b=1 needs ~7-10x fewer
// packets than the baselines. Every scheme's seeds are pure functions of
// (Scale.Seed, l), so path lengths are the trial axis.
func fig10Scenario(name, figure, topo string) Scenario {
	axis := fig10Axes[topo]
	return define(Scenario{
		Name:     name,
		Figure:   figure,
		Desc:     fmt.Sprintf("packets to decode a path vs length on %s, PINT vs PPM/AMS2", topo),
		Topology: topo,
		Workload: "uniform packet IDs",
		Queries:  "path (2×b=8, b=4, b=1) vs PPM/AMS2 baselines",
		Stack:    stackCoding,
	}, func(s Scale) ([]trial[[]pathPoint], error) {
		// The topology is built once here; per-length trials share it
		// (graph queries are pure reads).
		g, err := buildTopology(topo)
		if err != nil {
			return nil, err
		}
		universe := g.SwitchIDUniverse()
		var trials []trial[[]pathPoint]
		for _, l := range axis.lengths {
			trials = append(trials, trial[[]pathPoint]{
				Name: fmt.Sprintf("len=%d", l),
				Run: func() ([]pathPoint, error) {
					return fig10AtLength(g, universe, axis.d, s, l)
				},
			})
		}
		return trials, nil
	}, func(s Scale, outs [][]pathPoint) ([]Table, error) {
		t := Table{Title: fmt.Sprintf("Fig 10 (%s): packets to decode path (mean / p99)", topo),
			Columns: append([]string{"hops"}, fig10Schemes...)}
		for _, pts := range outs {
			if len(pts) == 0 {
				continue // the topology has no path of this length
			}
			row := []string{fmt.Sprintf("%d", pts[0].PathLen)}
			for _, p := range pts {
				row = append(row, fmt.Sprintf("%s/%s", F(p.Mean), F(p.P99)))
			}
			t.Rows = append(t.Rows, row)
		}
		return []Table{t}, nil
	})
}

// fig10AtLength runs one path length of Figure 10: every scheme of
// fig10Schemes, in that order, over a path of l switches. It returns nil
// points when the topology has no such path length.
func fig10AtLength(g *topology.Graph, universe []uint64, d int, s Scale, l int) ([]pathPoint, error) {
	values := pathValues(g, l, s.Seed+uint64(l), s.Seed)
	if values == nil {
		return nil, nil
	}
	const maxPkts = 400000
	var out []pathPoint
	point := func(mean, p99 float64) {
		out = append(out, pathPoint{Scheme: fig10Schemes[len(out)], PathLen: len(values), Mean: mean, P99: p99})
	}
	for _, budget := range [][2]int{{8, 2}, {4, 1}, {1, 1}} { // (bits, instances)
		cfg, err := core.DefaultPathConfig(budget[0], budget[1], d)
		if err != nil {
			return nil, err
		}
		st, err := coding.RunTrials(cfg, values, universe, s.Trials, s.Seed+uint64(l), maxPkts)
		if err != nil {
			return nil, err
		}
		if st.Decoded < st.Trials {
			return nil, fmt.Errorf("scenario: %s decoded %d/%d at l=%d",
				fig10Schemes[len(out)], st.Decoded, st.Trials, l)
		}
		point(st.Mean, st.P99)
	}
	ppm, err := telemetry.RunPPMTrials(values, s.Trials, s.Seed+uint64(l)*7, maxPkts)
	if err != nil {
		return nil, err
	}
	point(ppm.Mean, ppm.P99)
	for _, m := range []int{5, 6} {
		ams, err := telemetry.RunAMS2Trials(values, universe, m, s.Trials,
			s.Seed+uint64(l)*11+uint64(m), maxPkts)
		if err != nil {
			return nil, err
		}
		point(ams.Mean, ams.P99)
	}
	return out, nil
}

// --- pathtrace: the same question through the full collection stack ---

// PathTraceSpec parameterizes an engine-driven path-tracing scenario:
// packets-to-decode for one path of the chosen topology, driven through
// the full production stack (Compile, EncodeHopBatch, wire round trip,
// sharded sink). cmd/pinttrace builds one of these from its flags; the
// registry's "pathtrace" entry is the default instance.
type PathTraceSpec struct {
	Topo      string // kentucky, uscarrier, fattree
	PathLen   int    // switches on the traced path
	Bits      int    // digest bits per hash instance
	Instances int    // independent hash instances
	D         int    // assumed path length (layering parameter)
	MaxPkts   int    // per-trial packet cap
	Baselines bool   // also run the PPM and AMS2 baselines
}

// pathTraceOut is one trial's output: a decode episode's packet count (-1:
// undecoded within the cap), or a traceback baseline's statistics.
type pathTraceOut struct {
	pkts     int
	baseline telemetry.TracebackStats
}

// PathTrace builds the scenario: one trial per decode episode, each with
// its seeds drawn at plan time (two RNG draws per episode, in episode
// order), plus (optionally) one trial per traceback baseline.
// Scale.Trials sets the episode count, Scale.Seed the seed, Scale.Shards
// the sink worker count.
func PathTrace(spec PathTraceSpec) Scenario {
	baselines := fig10Schemes[3:]
	return define(Scenario{
		Name:     "pathtrace",
		Figure:   "new",
		Desc:     "packets-to-decode for one path through the full engine→wire→sink stack",
		Topology: spec.Topo,
		Workload: "uniform packet IDs",
		Queries:  fmt.Sprintf("path %dx(b=%d), d=%d", spec.Instances, spec.Bits, spec.D),
		Stack:    stackFullSink,
	}, func(s Scale) ([]trial[pathTraceOut], error) {
		g, err := buildTopology(spec.Topo)
		if err != nil {
			return nil, err
		}
		values := pathValues(g, spec.PathLen, s.Seed, s.Seed)
		if values == nil {
			return nil, fmt.Errorf("scenario: no %d-switch path in %s", spec.PathLen, g.Name)
		}
		universe := g.SwitchIDUniverse()
		cfg, err := core.DefaultPathConfig(spec.Bits, spec.Instances, spec.D)
		if err != nil {
			return nil, err
		}
		maxPkts := spec.MaxPkts
		if maxPkts <= 0 {
			maxPkts = 2_000_000
		}
		var trials []trial[pathTraceOut]
		rng := hash.NewRNG(s.Seed)
		for t := 1; t <= s.Trials; t++ {
			master, stream := hash.Seed(rng.Uint64()), rng.Uint64()
			trials = append(trials, trial[pathTraceOut]{
				Name: fmt.Sprintf("episode-%d", t),
				Run: func() (pathTraceOut, error) {
					n, err := enginePathTrial(cfg, values, universe, master, stream, core.FlowKey(t), maxPkts, s.ShardCount())
					return pathTraceOut{pkts: n}, err
				},
			})
		}
		if spec.Baselines {
			trials = append(trials, trial[pathTraceOut]{Name: "baseline-ppm", Run: func() (pathTraceOut, error) {
				st, err := telemetry.RunPPMTrials(values, s.Trials, s.Seed+1, maxPkts)
				return pathTraceOut{baseline: st}, err
			}})
			for _, m := range []int{5, 6} {
				trials = append(trials, trial[pathTraceOut]{
					Name: fmt.Sprintf("baseline-ams2-m%d", m),
					Run: func() (pathTraceOut, error) {
						st, err := telemetry.RunAMS2Trials(values, universe, m, s.Trials, s.Seed+uint64(m), maxPkts)
						return pathTraceOut{baseline: st}, err
					},
				})
			}
		}
		return trials, nil
	}, func(s Scale, outs []pathTraceOut) ([]Table, error) {
		var counts []int
		for _, o := range outs[:s.Trials] {
			if o.pkts >= 0 {
				counts = append(counts, o.pkts)
			}
		}
		st := decodeStats(counts, s.Trials)
		t := Table{
			Title: fmt.Sprintf("Path trace (%s, %d hops): packets to decode",
				spec.Topo, spec.PathLen),
			Columns: []string{"scheme", "mean", "median", "p99", "decoded", "bits/pkt"},
		}
		cfg, _ := core.DefaultPathConfig(spec.Bits, spec.Instances, spec.D) // Plan checked it
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("PINT %dx(b=%d)", spec.Instances, spec.Bits),
			F(st.Mean), F(st.Median), F(st.P99),
			fmt.Sprintf("%d/%d", st.Decoded, st.Trials),
			fmt.Sprintf("%d", cfg.TotalBits()),
		})
		for i, o := range outs[s.Trials:] {
			t.Rows = append(t.Rows, []string{
				baselines[i], F(o.baseline.Mean), F(o.baseline.Median), F(o.baseline.P99), "-", "16",
			})
		}
		return []Table{t}, nil
	})
}

// enginePathTrial runs one packets-to-decode episode through the full
// production stack: Compile, EncodeHopBatch per hop, a wire-format round
// trip per block (the switch→collector transfer), and the sharded sink
// (shards workers; answers are bit-identical for any count). master seeds
// the query, engine and recording, stream the packet-ID generator. The
// decode count is exact: each packet is ingested individually and the
// sink is barriered before the decoder is consulted. It returns -1 when
// the path did not decode within maxPkts.
func enginePathTrial(cfg coding.Config, values, universe []uint64, master hash.Seed, stream uint64, flow core.FlowKey, maxPkts, shards int) (int, error) {
	const block = 32
	pkts := make([]core.PacketDigest, block)
	k := len(values)
	vals := hopColumns(k, block)
	for hop, col := range vals {
		for j := range col {
			col[j].SwitchID = values[hop]
		}
	}
	wireBuf := make([]byte, 0, block*12)
	rx := make([]core.PacketDigest, 0, block)
	q, err := core.NewPathQuery("path", cfg, 1, master, universe)
	if err != nil {
		return 0, err
	}
	eng, err := core.Compile([]core.Query{q}, cfg.TotalBits(), master.Derive(1))
	if err != nil {
		return 0, err
	}
	sink, err := pipeline.NewSink(eng, pipeline.Config{Shards: shards})
	if err != nil {
		return 0, err
	}
	defer sink.Close()
	sub := hash.NewRNG(stream)
	for n := 0; n < maxPkts; {
		b := min(block, maxPkts-n)
		for j := 0; j < b; j++ {
			pkts[j] = core.PacketDigest{Flow: flow, PktID: sub.Uint64(), PathLen: k}
		}
		eng.EncodeHops(1, pkts[:b], vals)
		// Ship the block switch→collector through the wire format, as
		// a deployment would; the collector records the decoded copy.
		if rx, wireBuf, err = wire.Roundtrip(rx, wireBuf, pkts[:b]); err != nil {
			return 0, err
		}
		// Ingest one packet at a time so the decode count is exact.
		for j := 0; j < b; j++ {
			sink.Ingest(rx[j : j+1])
			n++
			sink.Barrier()
			if dec := sink.Recording(flow).PathDecoder(q, flow); dec != nil && dec.Done() {
				return n, sink.Close()
			}
		}
	}
	return -1, sink.Close()
}

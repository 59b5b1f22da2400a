package scenario

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/hash"
	"repro/internal/pipeline"
	"repro/internal/sketch"
	"repro/internal/topology"
)

// Two scenarios the paper never evaluated, both over a fat tree's
// equal-cost paths and end to end through the production stack (engine
// batch encode → wire marshal/unmarshal → sharded sink): detecting a
// mid-flow ECMP reroute, and localizing a slow switch across ECMP-spread
// flows.

func init() {
	Register(routeChangeScenario())
	Register(ecmpImbalanceScenario())
}

// --- route-change detection ---

// routeChangeOut is one trial's detection record.
type routeChangeOut struct {
	decodePkts int   // packets to decode the original path
	fpBefore   int   // inconsistencies before the change (false positives)
	detectAt   []int // packets after the change until threshold i was hit (-1: never)
}

var routeThresholds = []int{1, 2, 4, 8}

func routeChangeScenario() Scenario {
	const (
		k       = 5
		block   = 8
		maxPkts = 100_000
	)
	return define(Scenario{
		Name:     "route-change",
		Figure:   "new",
		Desc:     "packets to detect a mid-flow reroute via decoder inconsistency bursts (§7)",
		Topology: "fat tree (K=8)",
		Workload: "uniform packet IDs, path flips mid-stream",
		Queries:  "path 2×(b=8), d=5",
		Stack:    stackFullSink,
	}, func(s Scale) ([]trial[routeChangeOut], error) {
		g, err := topology.FatTree(8)
		if err != nil {
			return nil, err
		}
		base := hash.Seed(s.Seed).Derive(0x7C0A7E)
		var trials []trial[routeChangeOut]
		for t := 0; t < s.Trials; t++ {
			master := base.Derive(uint64(t))
			trials = append(trials, trial[routeChangeOut]{
				Name: fmt.Sprintf("reroute-%d", t),
				Run: func() (routeChangeOut, error) {
					return runRouteChangeTrial(g, master, k, block, maxPkts, s.ShardCount())
				},
			})
		}
		return trials, nil
	}, func(s Scale, outs []routeChangeOut) ([]Table, error) {
		fpTotal := 0
		var decodeSum float64
		for _, o := range outs {
			fpTotal += o.fpBefore
			decodeSum += float64(o.decodePkts)
		}
		t := Table{
			Title: fmt.Sprintf(
				"Route change: packets after reroute until detection, by threshold (original path decoded after %s pkts mean)",
				F(decodeSum/float64(len(outs)))),
			Columns: []string{"threshold", "mean", "median", "p99", "detected", "FP before change"},
		}
		for ti, thr := range routeThresholds {
			var lat []int
			for _, o := range outs {
				if d := o.detectAt[ti]; d >= 0 {
					lat = append(lat, d)
				}
			}
			st := decodeStats(lat, len(outs))
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", thr),
				F(st.Mean), F(st.Median), F(st.P99),
				fmt.Sprintf("%d/%d", st.Decoded, st.Trials),
				fmt.Sprintf("%d", fpTotal),
			})
		}
		return []Table{t}, nil
	})
}

// runRouteChangeTrial decodes a path, flips the flow onto a different
// equal-cost path, and measures how many packets the decoder needs before
// its inconsistency counter crosses each detection threshold.
func runRouteChangeTrial(g *topology.Graph, master hash.Seed, k, block, maxPkts, shards int) (routeChangeOut, error) {
	out := routeChangeOut{detectAt: make([]int, len(routeThresholds))}
	for i := range out.detectAt {
		out.detectAt[i] = -1
	}
	pathA, pathB, err := equalCostPathPair(g, k, uint64(master))
	if err != nil {
		return out, err
	}
	cfg, err := core.DefaultPathConfig(8, 2, 5)
	if err != nil {
		return out, err
	}
	q, err := core.NewPathQuery("path", cfg, 1, master, g.SwitchIDUniverse())
	if err != nil {
		return out, err
	}
	eng, err := core.Compile([]core.Query{q}, cfg.TotalBits(), master.Derive(1))
	if err != nil {
		return out, err
	}
	sink, err := pipeline.NewSink(eng, pipeline.Config{Shards: shards})
	if err != nil {
		return out, err
	}
	defer sink.Close()
	const flow = core.FlowKey(1)
	stream := hash.NewRNG(uint64(master.Derive(3)))
	pkts := make([]core.PacketDigest, block)
	vals := hopColumns(k, block)
	var wireBuf []byte
	var rx []core.PacketDigest
	encodeAndShip := func(path []uint64) error {
		for j := range pkts {
			pkts[j] = core.PacketDigest{Flow: flow, PktID: stream.Uint64(), PathLen: k}
		}
		for hop, col := range vals {
			for j := range col {
				col[j].SwitchID = path[hop]
			}
		}
		eng.EncodeHops(1, pkts, vals)
		wireBuf, rx, err = shipBlocks(sink, pkts, wireBuf, rx)
		return err
	}

	// Phase 1: the flow runs on path A until decoded.
	n := 0
	for n < maxPkts {
		if err := encodeAndShip(pathA); err != nil {
			return out, err
		}
		n += block
		sink.Barrier()
		if dec := sink.Recording(flow).PathDecoder(q, flow); dec != nil && dec.Done() {
			break
		}
	}
	out.decodePkts = n
	out.fpBefore = sink.Recording(flow).PathInconsistencies(q, flow)

	// Phase 2: the route flips to path B; count packets until the
	// inconsistency counter crosses each threshold.
	n = 0
	for n < maxPkts {
		if err := encodeAndShip(pathB); err != nil {
			return out, err
		}
		n += block
		sink.Barrier()
		inc := sink.Recording(flow).PathInconsistencies(q, flow) - out.fpBefore
		done := true
		for i, thr := range routeThresholds {
			if out.detectAt[i] < 0 {
				if inc >= thr {
					out.detectAt[i] = n
				} else {
					done = false
				}
			}
		}
		if done {
			break
		}
	}
	return out, sink.Close()
}

// equalCostPathPair returns two distinct equal-length switch paths of k
// switches between one switch pair — the before/after routes of an ECMP
// reroute. It scans flow hashes until the path changes.
func equalCostPathPair(g *topology.Graph, k int, seed uint64) ([]uint64, []uint64, error) {
	pairs := g.SwitchPairsAtDistance(k-1, 4, seed)
	for _, pair := range pairs {
		a := g.SwitchPath(pair[0], pair[1], seed)
		if len(a) != k {
			continue
		}
		for h := uint64(1); h <= 64; h++ {
			b := g.SwitchPath(pair[0], pair[1], seed+h*0x9E37)
			if len(b) != k {
				continue
			}
			if !slices.Equal(a, b) {
				return a, b, nil
			}
		}
	}
	return nil, nil, fmt.Errorf("scenario: no equal-cost path pair of %d switches found", k)
}

// --- ECMP imbalance localization ---

type ecmpOut struct {
	localized    bool
	decodedFlows int
	inflationEst float64
}

func ecmpImbalanceScenario() Scenario {
	const (
		k        = 5
		nFlows   = 12
		pktsFlow = 600
		hotBoost = 8
	)
	return define(Scenario{
		Name:     "ecmp-imbalance",
		Figure:   "new",
		Desc:     "localize a slow core switch from per-hop latency quantiles across ECMP-spread flows",
		Topology: "fat tree (K=8)",
		Workload: "synthetic ECMP flow fan-out, lognormal hop latencies",
		Queries:  "path 2×(b=4) + latency 8b in 16 bits",
		Stack:    stackFullSink,
	}, func(s Scale) ([]trial[ecmpOut], error) {
		g, err := topology.FatTree(8)
		if err != nil {
			return nil, err
		}
		base := hash.Seed(s.Seed).Derive(0xECB)
		var trials []trial[ecmpOut]
		for t := 0; t < s.Trials; t++ {
			master := base.Derive(uint64(t))
			trials = append(trials, trial[ecmpOut]{
				Name: fmt.Sprintf("localize-%d", t),
				Run: func() (ecmpOut, error) {
					return runEcmpTrial(g, master, k, nFlows, pktsFlow, hotBoost, s.ShardCount())
				},
			})
		}
		return trials, nil
	}, func(s Scale, outs []ecmpOut) ([]Table, error) {
		localized, decoded := 0, 0
		var inflSum float64
		var inflN int
		for _, e := range outs {
			if e.localized {
				localized++
			}
			decoded += e.decodedFlows
			if !math.IsNaN(e.inflationEst) {
				inflSum += e.inflationEst
				inflN++
			}
		}
		infl := math.NaN()
		if inflN > 0 {
			infl = inflSum / float64(inflN)
		}
		t := Table{
			Title:   fmt.Sprintf("ECMP imbalance: hot-switch localization over %d flows/trial (true inflation %dx)", nFlows, hotBoost),
			Columns: []string{"trials", "localized", "accuracy%", "decoded flows/trial", "est. inflation"},
			Rows: [][]string{{
				fmt.Sprintf("%d", len(outs)),
				fmt.Sprintf("%d", localized),
				F(float64(localized) / float64(len(outs)) * 100),
				F(float64(decoded) / float64(len(outs))),
				F(infl),
			}},
		}
		return []Table{t}, nil
	})
}

// runEcmpTrial spreads flows across a fat tree's equal-cost paths, plants
// one slow core switch, drives every packet through the production stack,
// and localizes the hot switch from decoded paths + per-hop latency
// medians.
func runEcmpTrial(g *topology.Graph, master hash.Seed, k, nFlows, pktsFlow, hotBoost, shards int) (ecmpOut, error) {
	var out ecmpOut
	pairs := g.SwitchPairsAtDistance(k-1, 2, uint64(master))
	if len(pairs) == 0 {
		return out, fmt.Errorf("scenario: fat tree lacks %d-switch paths", k)
	}
	pair := pairs[0]
	paths := make([][]uint64, nFlows)
	for f := range paths {
		p := g.SwitchPath(pair[0], pair[1], uint64(master.Derive(uint64(100+f))))
		if len(p) != k {
			return out, fmt.Errorf("scenario: ECMP path of %d switches, want %d", len(p), k)
		}
		paths[f] = p
	}
	hot := paths[0][k/2] // a core-layer switch on flow 0's path

	cfg, err := core.DefaultPathConfig(4, 2, 5)
	if err != nil {
		return out, err
	}
	pathQ, err := core.NewPathQuery("path", cfg, 1, master, g.SwitchIDUniverse())
	if err != nil {
		return out, err
	}
	latQ, err := core.NewLatencyQuery("lat", 8, 0.04, 15.0/16, master)
	if err != nil {
		return out, err
	}
	eng, err := core.Compile([]core.Query{pathQ, latQ}, 16, master.Derive(1))
	if err != nil {
		return out, err
	}
	sink, err := pipeline.NewSink(eng, pipeline.Config{Shards: shards})
	if err != nil {
		return out, err
	}
	defer sink.Close()

	rng := hash.NewRNG(uint64(master.Derive(3)))
	pkts := make([]core.PacketDigest, pktsFlow)
	vals := hopColumns(k, pktsFlow)
	var wireBuf []byte
	var rx []core.PacketDigest
	for f := 0; f < nFlows; f++ {
		flow := core.FlowKey(uint64(f) + 1)
		for j := range pkts {
			pkts[j] = core.PacketDigest{Flow: flow, PktID: rng.Uint64(), PathLen: k}
		}
		for hop, col := range vals {
			sw := paths[f][hop]
			for j := range col {
				lat := math.Exp(math.Log(8000) + 0.25*rng.NormFloat64())
				if sw == hot {
					lat *= float64(hotBoost)
				}
				col[j] = core.HopValues{SwitchID: sw, LatencyNs: uint64(lat)}
			}
		}
		eng.EncodeHops(1, pkts, vals)
		if wireBuf, rx, err = shipBlocks(sink, pkts, wireBuf, rx); err != nil {
			return out, err
		}
	}
	if err := sink.Close(); err != nil {
		return out, err
	}

	// Localization: attribute each decoded (flow, hop) latency median to
	// its decoded switch ID, then rank switches by their mean estimate.
	scores := map[uint64][]float64{}
	for f := 0; f < nFlows; f++ {
		flow := core.FlowKey(uint64(f) + 1)
		rec := sink.Recording(flow)
		ids, done := rec.Path(pathQ, flow)
		if !done {
			continue
		}
		out.decodedFlows++
		for hop := 1; hop <= k; hop++ {
			est, err := rec.LatencyQuantile(latQ, flow, hop, 0.5)
			if err != nil {
				continue
			}
			scores[ids[hop-1]] = append(scores[ids[hop-1]], est)
		}
	}
	var best uint64
	bestScore := math.Inf(-1)
	var others []float64
	swIDs := make([]uint64, 0, len(scores))
	for sw := range scores {
		swIDs = append(swIDs, sw)
	}
	sort.Slice(swIDs, func(i, j int) bool { return swIDs[i] < swIDs[j] })
	for _, sw := range swIDs {
		ests := scores[sw]
		var sum float64
		for _, e := range ests {
			sum += e
		}
		mean := sum / float64(len(ests))
		if mean > bestScore {
			bestScore, best = mean, sw
		}
		if sw != hot {
			others = append(others, mean)
		}
	}
	out.localized = best == hot && out.decodedFlows > 0
	if len(others) > 0 && len(scores[hot]) > 0 {
		out.inflationEst = bestScore / sketch.ExactQuantile(others, 0.5)
	} else {
		out.inflationEst = math.NaN()
	}
	return out, nil
}

package scenario

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/hash"
	"repro/internal/netsim"
	"repro/internal/pipeline"
	"repro/internal/sketch"
	"repro/internal/topology"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/workload"
)

func init() {
	Register(fig11Scenario())
}

// fig11D is the path length Fig 11's path queries are configured for.
const fig11D = 5

// combinedMetrics are Fig 11's three panels for one configuration.
type combinedMetrics struct {
	Name             string
	MeanSlowdown     float64 // HPCC panel
	PathMeanPackets  float64 // path-tracing panel (flows that decoded)
	PathDecodedFlows int
	MedianLatErrPct  float64 // latency panel: median-latency relative error
	TailLatErrPct    float64 // and tail (p90 at bench sample counts)
}

// planSpec describes one full-system run: its queries, the global wire
// budget, and which query handles to measure.
type planSpec struct {
	queries []core.Query
	global  int
	path    *core.PathQuery    // nil: skip the path metric
	lat     *core.LatencyQuery // nil: skip the latency metric
	util    *core.UtilQuery    // required (feeds the transport)
}

// The three arms of Figure 11 are seeded independently of one another
// (each derives from Scale.Seed alone), so they run as parallel trials.
var fig11Arms = []struct {
	name string
	spec func(master hash.Seed, universe []uint64) (planSpec, error)
}{
	{"combined", combinedSpec},
	{"solo-path", soloPathSpec},
	{"solo-latency", soloLatSpec},
}

// fig11Scenario reproduces Figure 11: three queries (path tracing on
// every packet, latency on 15/16, HPCC on 1/16) share a 16-bit global
// budget, compared against each query running alone with 16 bits. The
// paper's claims: the combined plan costs almost nothing — median-latency
// error +0.7%, short-flow slowdown +6.6%, path packets +0.5% vs solo
// baselines.
func fig11Scenario() Scenario {
	return define(Scenario{
		Name:      "fig11",
		Figure:    "Fig 11",
		Desc:      "three concurrent queries in a 16-bit budget vs solo baselines",
		Topology:  leafSpineTopo,
		Workload:  "hadoop",
		Transport: transportPINTd,
		Queries:   "path 2×(b=4) + latency 8b + HPCC 8b",
		Stack:     stackFullSink,
	}, func(s Scale) ([]trial[*combinedMetrics], error) {
		var trials []trial[*combinedMetrics]
		for _, arm := range fig11Arms {
			trials = append(trials, trial[*combinedMetrics]{Name: arm.name, Run: func() (*combinedMetrics, error) {
				return runPlanSim(s, arm.spec)
			}})
		}
		return trials, nil
	}, func(s Scale, arms []*combinedMetrics) ([]Table, error) {
		t := Table{Title: "Fig 11: concurrent queries vs solo baselines (Hadoop, 16-bit budget)",
			Columns: []string{"config", "meanSlowdown", "pathPkts", "decodedFlows", "medLatErr%", "tailLatErr%"}}
		for _, m := range fig11Rows(arms[0], arms[1], arms[2]) {
			t.Rows = append(t.Rows, []string{m.Name, F(m.MeanSlowdown), F(m.PathMeanPackets),
				fmt.Sprintf("%d", m.PathDecodedFlows), F(m.MedianLatErrPct), F(m.TailLatErrPct)})
		}
		return []Table{t}, nil
	})
}

// fig11Rows folds the three arms' metrics into the figure's two rows: the
// baseline takes each metric from the solo run that measures it.
func fig11Rows(combined, soloPath, soloLat *combinedMetrics) []combinedMetrics {
	combined.Name = "Combined"
	baseline := combinedMetrics{
		Name:             "Baseline",
		MeanSlowdown:     soloLat.MeanSlowdown,
		PathMeanPackets:  soloPath.PathMeanPackets,
		PathDecodedFlows: soloPath.PathDecodedFlows,
		MedianLatErrPct:  soloLat.MedianLatErrPct,
		TailLatErrPct:    soloLat.TailLatErrPct,
	}
	return []combinedMetrics{baseline, *combined}
}

// combinedSpec is the figure's plan: path 2×(b=4)@1 + lat 8b@15/16 + hpcc
// 8b@1/16 in 16 bits.
func combinedSpec(master hash.Seed, universe []uint64) (planSpec, error) {
	cfg, err := core.DefaultPathConfig(4, 2, fig11D)
	if err != nil {
		return planSpec{}, err
	}
	path, err := core.NewPathQuery("path", cfg, 1, master, universe)
	if err != nil {
		return planSpec{}, err
	}
	lat, err := core.NewLatencyQuery("lat", 8, 0.04, 15.0/16, master)
	if err != nil {
		return planSpec{}, err
	}
	util, err := core.NewUtilQuery("hpcc", 8, 0.025, 1.0/16, 1000, master)
	if err != nil {
		return planSpec{}, err
	}
	return planSpec{queries: []core.Query{path, lat, util}, global: 16,
		path: path, lat: lat, util: util}, nil
}

// soloPathSpec is baseline A: path alone, 2×(b=8) on every packet (Fig
// 10's best), with an out-of-plan HPCC control digest so the transport
// behaves.
func soloPathSpec(master hash.Seed, universe []uint64) (planSpec, error) {
	master = master.Derive(1)
	cfg, err := core.DefaultPathConfig(8, 2, fig11D)
	if err != nil {
		return planSpec{}, err
	}
	path, err := core.NewPathQuery("path", cfg, 1, master, universe)
	if err != nil {
		return planSpec{}, err
	}
	util, err := core.NewUtilQuery("hpcc", 8, 0.025, 1.0/16, 1000, master)
	if err != nil {
		return planSpec{}, err
	}
	return planSpec{queries: []core.Query{path, util}, global: 24, path: path, util: util}, nil
}

// soloLatSpec is baseline B: latency alone on every packet + HPCC
// control; it measures latency error and (as the least-contended run) the
// solo slowdown.
func soloLatSpec(master hash.Seed, _ []uint64) (planSpec, error) {
	master = master.Derive(2)
	lat, err := core.NewLatencyQuery("lat", 8, 0.04, 1, master)
	if err != nil {
		return planSpec{}, err
	}
	util, err := core.NewUtilQuery("hpcc", 8, 0.025, 1.0/16, 1000, master)
	if err != nil {
		return planSpec{}, err
	}
	return planSpec{queries: []core.Query{lat, util}, global: 16, lat: lat, util: util}, nil
}

// runPlanSim runs the full PINT system — engine on switches, a wire-format
// switch→collector transfer and the sharded sink at the recording side,
// HPCC fed from the utilization query — over a Hadoop-loaded leaf-spine
// network and extracts Fig 11's metrics. Scale.Shards sets the sink's
// worker count; per-flow answers are bit-identical for any value.
func runPlanSim(s Scale, mk func(master hash.Seed, universe []uint64) (planSpec, error)) (*combinedMetrics, error) {
	g, err := topology.LeafSpine(s.Pods, 2, 2, s.HostsPerTor, 2)
	if err != nil {
		return nil, err
	}
	spec, err := mk(hash.Seed(s.Seed).Derive(0xF16), g.SwitchIDUniverse())
	if err != nil {
		return nil, err
	}
	eng, err := core.Compile(spec.queries, spec.global, hash.Seed(s.Seed).Derive(0x51B))
	if err != nil {
		return nil, err
	}
	// The sink seed base reproduces the retired serial Recording's
	// (first draw of RNG(s.Seed+21)); with raw latency storage no sketch
	// randomness is consumed, but keeping the base identical makes the
	// equivalence exact by construction.
	sink, err := pipeline.NewSink(eng, pipeline.Config{
		Shards: s.ShardCount(),
		Base:   hash.Seed(hash.NewRNG(s.Seed + 21).Uint64()),
	})
	if err != nil {
		return nil, err
	}
	defer sink.Close()

	sim := netsim.NewSim()
	buf := 1 << 21
	net, err := netsim.Build(sim, g, netsim.BuildOptions{
		HostLink:     netsim.LinkSpec{Bps: s.HostBps, PropNs: 1000, BufBytes: buf},
		TierLink:     netsim.LinkSpec{Bps: s.TierBps, PropNs: 1000, BufBytes: buf},
		ValuesPerHop: 3,
	})
	if err != nil {
		return nil, err
	}
	baseRTT := s.BaseRTTNs()
	pu, err := transport.NewPINTUtilization(baseRTT, 8)
	if err != nil {
		return nil, err
	}

	// Switch-side: EWMA update plus the engine's compiled Encoding
	// Modules — the closure-free batch-pipeline encode path.
	utilQ := spec.util
	net.OnDequeue = func(n *netsim.Network, sw *netsim.SwitchNode, port *netsim.Port,
		pkt *netsim.Packet, qlen int, tau, hopLat int64) {
		if pkt.Ack {
			return
		}
		u := pu.UpdatePortU(port, tau, qlen, pkt.WireSize(n.ValuesPerHop))
		hv := core.HopValues{
			SwitchID:  n.Graph.Nodes[sw.ID].SwitchID,
			LatencyNs: uint64(hopLat),
			Util:      utilQ.EncodeValue(u),
		}
		pkt.Digest = eng.EncodeHopValues(pkt.ID, pkt.Hops+1, pkt.Digest, &hv)
	}

	// Ground-truth hop latencies per (flow, hop).
	truthLat := map[uint64][][]float64{}
	if spec.lat != nil {
		net.OnHopLatency = func(sw *netsim.SwitchNode, pkt *netsim.Packet, latNs int64) {
			if pkt.Ack {
				return
			}
			hops := truthLat[pkt.FlowID]
			for len(hops) <= pkt.Hops {
				hops = append(hops, nil)
			}
			hops[pkt.Hops] = append(hops[pkt.Hops], float64(latNs))
			truthLat[pkt.FlowID] = hops
		}
	}

	// Sink-side: every delivered digest travels the production collector
	// path — wire marshal/unmarshal (the switch→collector transfer), then
	// the sharded sink. Packets-to-decode tracking stays exact: while a
	// flow's path is undecoded, the sink is barriered after its packet so
	// the decoder can be consulted synchronously.
	pktsSeen := map[core.FlowKey]int{}
	decodedAt := map[core.FlowKey]int{}
	var tap [1]core.PacketDigest
	wireBuf := make([]byte, 0, 16)
	rxBuf := make([]core.PacketDigest, 0, 1)
	net.OnDeliver = func(h *netsim.HostNode, pkt *netsim.Packet) {
		if pkt.Ack || pkt.Dst != h.ID || pkt.Hops == 0 {
			return
		}
		fk := core.FlowKey(pkt.FlowID)
		pktsSeen[fk]++
		tap[0] = core.PacketDigest{Flow: fk, PktID: pkt.ID, PathLen: pkt.Hops, Digest: pkt.Digest}
		var err error
		rxBuf, wireBuf, err = wire.Roundtrip(rxBuf, wireBuf, tap[:])
		if err != nil {
			panic(err)
		}
		sink.Ingest(rxBuf)
		if spec.path != nil {
			if _, done := decodedAt[fk]; !done {
				sink.Barrier()
				if dec := sink.Recording(fk).PathDecoder(spec.path, fk); dec != nil && dec.Done() {
					decodedAt[fk] = pktsSeen[fk]
				}
			}
		}
	}

	// Traffic: Hadoop at 50% load over HPCC fed by the utilization query.
	dist := workload.Hadoop()
	if s.SizeDivisor > 1 {
		dist = dist.Scaled(math.Sqrt(s.SizeDivisor)) // Hadoop flows are already small
	}
	gen, err := workload.NewGenerator(g.Hosts(), dist, 0.5, s.HostBps, hash.NewRNG(s.Seed+3))
	if err != nil {
		return nil, err
	}
	flows := gen.GenerateUntil(s.DurationNs)
	for len(flows) < 200 {
		flows = append(flows, gen.Next())
	}
	var exBuf []core.Extracted
	extractU := func(pktID, digest uint64) (float64, bool) {
		exBuf = eng.ExtractInto(pktID, digest, exBuf[:0])
		for _, ex := range exBuf {
			if ex.Query == core.Query(utilQ) {
				return utilQ.Decode(ex.Bits), true
			}
		}
		return 0, false
	}
	col := &transport.Collector{}
	for _, f := range flows {
		stats := &transport.FlowStats{ID: f.ID, Bytes: f.Bytes, StartNs: f.Start}
		col.Add(stats)
		sim.At(f.Start, func() {
			hc := transport.DefaultHPCCConfig(s.HostBps, baseRTT)
			hc.Mode = transport.FeedbackPINT
			hc.PintBits = spec.global
			hc.ExtractU = extractU
			if _, err := transport.StartHPCC(net, f.Src, f.Dst, stats, hc); err != nil {
				panic(err)
			}
		})
	}
	sim.Run(s.DurationNs * 4)
	if err := sink.Close(); err != nil {
		return nil, err
	}

	// Metrics.
	m := &combinedMetrics{MedianLatErrPct: math.NaN(), TailLatErrPct: math.NaN()}
	res := &LoadRunResult{Collector: col, BaseRTTNs: baseRTT, HostBps: s.HostBps}
	_, slow := res.Slowdowns()
	if len(slow) == 0 {
		return nil, fmt.Errorf("scenario: no flows completed")
	}
	var sum float64
	for _, v := range slow {
		sum += v
	}
	m.MeanSlowdown = sum / float64(len(slow))

	if spec.path != nil {
		var pktSum float64
		for _, n := range decodedAt {
			pktSum += float64(n)
			m.PathDecodedFlows++
		}
		if m.PathDecodedFlows > 0 {
			m.PathMeanPackets = pktSum / float64(m.PathDecodedFlows)
		}
	}

	if spec.lat != nil {
		var medErr, tailErr float64
		var nPairs int
		// Iterate flows in sorted order: the error aggregation sums
		// floats, so a fixed order makes the figure byte-reproducible
		// (map order would reshuffle the additions run to run).
		flowIDs := make([]uint64, 0, len(truthLat))
		for flowID := range truthLat {
			flowIDs = append(flowIDs, flowID)
		}
		sort.Slice(flowIDs, func(i, j int) bool { return flowIDs[i] < flowIDs[j] })
		for _, flowID := range flowIDs {
			hops := truthLat[flowID]
			fk := core.FlowKey(flowID)
			rec := sink.Recording(fk)
			for h := 1; h <= len(hops); h++ {
				truth := hops[h-1]
				if len(truth) < 64 || rec.LatencySamples(spec.lat, fk, h) < 16 {
					continue
				}
				estMed, err1 := rec.LatencyQuantile(spec.lat, fk, h, 0.5)
				estTail, err2 := rec.LatencyQuantile(spec.lat, fk, h, 0.9)
				if err1 != nil || err2 != nil {
					continue
				}
				tm := sketch.ExactQuantile(truth, 0.5)
				tt := sketch.ExactQuantile(truth, 0.9)
				if tm > 0 && tt > 0 {
					medErr += math.Abs(estMed-tm) / tm * 100
					tailErr += math.Abs(estTail-tt) / tt * 100
					nPairs++
				}
			}
		}
		if nPairs > 0 {
			m.MedianLatErrPct = medErr / float64(nPairs)
			m.TailLatErrPct = tailErr / float64(nPairs)
		}
	}
	return m, nil
}

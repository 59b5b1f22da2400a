package scenario

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/hash"
	"repro/internal/netsim"
	"repro/internal/topology"
	"repro/internal/transport"
	"repro/internal/workload"
)

// TransportKind selects the protocol an experiment drives.
type TransportKind int

const (
	// KindReno runs the TCP-Reno-like transport with fixed ExtraBytes
	// overhead (the §2 study).
	KindReno TransportKind = iota
	// KindHPCCINT runs HPCC over classic INT.
	KindHPCCINT
	// KindHPCCPINT runs HPCC over PINT digests.
	KindHPCCPINT
)

// Tenant describes one traffic class of a multi-tenant run: its own flow
// size distribution and offered load, sharing the network (and transport
// kind) with the other tenants.
type Tenant struct {
	Name     string
	Dist     *workload.Dist
	Load     float64
	MinFlows int
}

// LoadRunConfig drives one loaded-network simulation.
type LoadRunConfig struct {
	Scale    Scale
	Dist     *workload.Dist
	Load     float64
	Kind     TransportKind
	Overhead int     // Reno: fixed per-packet bytes
	PintP    float64 // HPCC-PINT: fraction of packets carrying the digest (0 = 1.0)
	PintBits int     // HPCC-PINT: digest width (default 8)
	MinFlows int     // keep generating until at least this many flows arrive
	// Tenants, when non-empty, replaces the single Dist/Load/MinFlows
	// workload with one Poisson arrival process per tenant (independent
	// derived seeds), merged by arrival time onto the shared fabric.
	// LoadRunResult.TenantOf then maps each flow ID to its tenant index.
	Tenants []Tenant

	// hopHook, when set, observes every data packet's per-switch latency
	// (hop is 1-based): Fig 9's and the multi-tenant scenario's ground
	// truth.
	hopHook func(pkt *netsim.Packet, hop int, latNs int64)
	// deliverHook, when set, observes every packet arriving at a host (the
	// collection-overhead scenario's report stream).
	deliverHook func(h *netsim.HostNode, pkt *netsim.Packet)
}

// LoadRunResult aggregates one run.
type LoadRunResult struct {
	Collector *transport.Collector
	BaseRTTNs int64
	HostBps   int64
	// TenantOf maps flow IDs to LoadRunConfig.Tenants indices; nil for
	// single-workload runs.
	TenantOf map[uint64]int
}

// RunLoad builds the leaf-spine network, schedules Poisson arrivals for
// the configured duration, runs the simulation to drain, and returns the
// completed-flow statistics.
func RunLoad(cfg LoadRunConfig) (*LoadRunResult, error) {
	s := cfg.Scale
	g, err := topology.LeafSpine(s.Pods, 2, 2, s.HostsPerTor, 2)
	if err != nil {
		return nil, err
	}
	sim := netsim.NewSim()
	buf := int(32 << 20 / (100_000_000_000 / s.HostBps)) // scale the 32MB buffer
	if buf < 64_000 {
		buf = 64_000
	}
	net, err := netsim.Build(sim, g, netsim.BuildOptions{
		HostLink:     netsim.LinkSpec{Bps: s.HostBps, PropNs: 1000, BufBytes: buf},
		TierLink:     netsim.LinkSpec{Bps: s.TierBps, PropNs: 1000, BufBytes: buf},
		ValuesPerHop: 3, // HPCC's three INT values
	})
	if err != nil {
		return nil, err
	}
	baseRTT := s.BaseRTTNs()
	net.OnDeliver = cfg.deliverHook
	if cfg.hopHook != nil {
		net.OnHopLatency = func(sw *netsim.SwitchNode, pkt *netsim.Packet, lat int64) {
			if !pkt.Ack {
				cfg.hopHook(pkt, pkt.Hops+1, lat)
			}
		}
	}

	if cfg.PintBits == 0 {
		cfg.PintBits = 8
	}
	var pu *transport.PINTUtilization
	switch cfg.Kind {
	case KindHPCCINT:
		transport.AttachINTHook(net)
	case KindHPCCPINT:
		pu, err = transport.AttachPINTHook(net, baseRTT, cfg.PintBits)
		if err != nil {
			return nil, err
		}
	}

	var flows []workload.Flow
	var tenantOf map[uint64]int
	if len(cfg.Tenants) > 0 {
		flows, tenantOf, err = tenantFlows(g.Hosts(), cfg.Tenants, s)
		if err != nil {
			return nil, err
		}
	} else {
		dist := cfg.Dist
		if s.SizeDivisor > 1 {
			dist = dist.Scaled(s.SizeDivisor)
		}
		gen, err := workload.NewGenerator(g.Hosts(), dist, cfg.Load, s.HostBps, hash.NewRNG(s.Seed))
		if err != nil {
			return nil, err
		}
		flows = gen.GenerateUntil(s.DurationNs)
		for len(flows) < cfg.MinFlows {
			f := gen.Next()
			flows = append(flows, f)
		}
	}

	col := &transport.Collector{}
	sel := hash.NewGlobal(hash.Seed(s.Seed).Derive(0x5E1))
	for _, f := range flows {
		stats := &transport.FlowStats{ID: f.ID, Bytes: f.Bytes, StartNs: f.Start}
		col.Add(stats)
		sim.At(f.Start, func() {
			switch cfg.Kind {
			case KindReno:
				rc := transport.DefaultRenoConfig()
				rc.ExtraBytes = cfg.Overhead
				rc.InitRTO = 8 * baseRTT
				_, err := transport.StartReno(net, f.Src, f.Dst, stats, rc)
				if err != nil {
					panic(err)
				}
			case KindHPCCINT:
				hc := transport.DefaultHPCCConfig(cfg.Scale.HostBps, baseRTT)
				hc.Mode = transport.FeedbackINT
				if _, err := transport.StartHPCC(net, f.Src, f.Dst, stats, hc); err != nil {
					panic(err)
				}
			case KindHPCCPINT:
				hc := transport.DefaultHPCCConfig(cfg.Scale.HostBps, baseRTT)
				hc.Mode = transport.FeedbackPINT
				hc.PintBits = cfg.PintBits
				hc.DecodeU = pu.Decode
				if cfg.PintP > 0 && cfg.PintP < 1 {
					p := cfg.PintP
					hc.SelectPkt = func(pktID uint64) bool { return sel.Act(pktID, 1, p) }
				}
				if _, err := transport.StartHPCC(net, f.Src, f.Dst, stats, hc); err != nil {
					panic(err)
				}
			}
		})
	}
	sim.Run(s.DurationNs * 4)
	return &LoadRunResult{Collector: col, BaseRTTNs: baseRTT, HostBps: s.HostBps, TenantOf: tenantOf}, nil
}

// tenantFlows draws every tenant's Poisson arrivals with an independent
// derived seed, tags each flow ID with its tenant (high byte, keeping IDs
// collision-free across generators), and merges the processes by arrival
// time so the shared fabric sees one interleaved stream.
func tenantFlows(hosts []int, tenants []Tenant, s Scale) ([]workload.Flow, map[uint64]int, error) {
	var flows []workload.Flow
	tenantOf := map[uint64]int{}
	for ti, tn := range tenants {
		dist := tn.Dist
		if s.SizeDivisor > 1 {
			dist = dist.Scaled(s.SizeDivisor)
		}
		rng := hash.NewRNG(uint64(hash.Seed(s.Seed).Derive(0x7E4A00 + uint64(ti))))
		gen, err := workload.NewGenerator(hosts, dist, tn.Load, s.HostBps, rng)
		if err != nil {
			return nil, nil, fmt.Errorf("tenant %q: %w", tn.Name, err)
		}
		tf := gen.GenerateUntil(s.DurationNs)
		for len(tf) < tn.MinFlows {
			tf = append(tf, gen.Next())
		}
		for _, f := range tf {
			f.ID |= uint64(ti+1) << 56
			tenantOf[f.ID] = ti
			flows = append(flows, f)
		}
	}
	sort.Slice(flows, func(i, j int) bool {
		if flows[i].Start != flows[j].Start {
			return flows[i].Start < flows[j].Start
		}
		return flows[i].ID < flows[j].ID
	})
	return flows, tenantOf, nil
}

// SlowdownsByTenant splits a multi-tenant run's completed-flow (size,
// slowdown) vectors per tenant index.
func (r *LoadRunResult) SlowdownsByTenant(tenants int) ([][]int64, [][]float64) {
	sizes := make([][]int64, tenants)
	slow := make([][]float64, tenants)
	for _, f := range r.Collector.Completed() {
		ti, ok := r.TenantOf[f.ID]
		if !ok {
			continue
		}
		sizes[ti] = append(sizes[ti], f.Bytes)
		slow[ti] = append(slow[ti], float64(f.FCT())/r.IdealFCT(f.Bytes))
	}
	return sizes, slow
}

// IdealFCT is the canonical slowdown denominator: line-rate transmission
// plus one (cross-pod) base RTT. Intra-rack flows can therefore report
// slowdowns below 1; comparisons between configurations share the same
// denominator, which is what Figs 7, 8 and 11 plot.
func (r *LoadRunResult) IdealFCT(bytes int64) float64 {
	return float64(bytes)*8*1e9/float64(r.HostBps) + float64(r.BaseRTTNs)
}

// Slowdowns returns each completed flow's (size, slowdown).
func (r *LoadRunResult) Slowdowns() ([]int64, []float64) {
	var sizes []int64
	var slow []float64
	for _, f := range r.Collector.Completed() {
		sizes = append(sizes, f.Bytes)
		slow = append(slow, float64(f.FCT())/r.IdealFCT(f.Bytes))
	}
	return sizes, slow
}

// AvgFCT returns the mean FCT over completed flows, in ns.
func (r *LoadRunResult) AvgFCT() float64 {
	done := r.Collector.Completed()
	if len(done) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, f := range done {
		sum += float64(f.FCT())
	}
	return sum / float64(len(done))
}

// AvgGoodputLong returns the mean goodput (bps) of completed flows of at
// least minBytes.
func (r *LoadRunResult) AvgGoodputLong(minBytes int64) float64 {
	var sum float64
	n := 0
	for _, f := range r.Collector.Completed() {
		if f.Bytes >= minBytes {
			sum += float64(f.Bytes) * 8 * 1e9 / float64(f.FCT())
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

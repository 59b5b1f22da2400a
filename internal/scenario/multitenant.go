package scenario

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/hash"
	"repro/internal/netsim"
	"repro/internal/sketch"
	"repro/internal/workload"
)

func init() {
	Register(multiTenantScenario())
}

type tenantMetrics struct {
	flows   int
	slowP95 float64
	medErr  float64
	tailErr float64
}

func multiTenantScenario() Scenario {
	tenants := []Tenant{
		{Name: "hadoop", Dist: workload.Hadoop(), Load: 0.25, MinFlows: 100},
		{Name: "websearch", Dist: workload.WebSearch(), Load: 0.25, MinFlows: 100},
	}
	return define(Scenario{
		Name:      "multi-tenant",
		Figure:    "new",
		Desc:      "per-tenant slowdown and latency-telemetry accuracy under mixed Hadoop+WebSearch load",
		Topology:  leafSpineTopo,
		Workload:  "hadoop + websearch tenants, merged Poisson arrivals",
		Transport: transportPINTd,
		Queries:   "latency 8b per tenant",
		Stack:     stackRecording,
	}, func(s Scale) ([]trial[[]tenantMetrics], error) {
		base := hash.Seed(s.Seed).Derive(0x377)
		var trials []trial[[]tenantMetrics]
		for t := 0; t < min(s.Trials, 4); t++ { // each trial is a full loaded simulation
			master := base.Derive(uint64(t))
			trials = append(trials, trial[[]tenantMetrics]{
				Name: fmt.Sprintf("mixed-load-%d", t),
				Run: func() ([]tenantMetrics, error) {
					return runMultiTenantTrial(s, master, tenants)
				},
			})
		}
		return trials, nil
	}, func(s Scale, outs [][]tenantMetrics) ([]Table, error) {
		t := Table{
			Title:   "Multi-tenant: per-tenant flows, p95 slowdown, latency-estimate error (mean over trials)",
			Columns: []string{"tenant", "flows/trial", "p95 slowdown", "medLatErr%", "tailLatErr%"},
		}
		for ti, tn := range tenants {
			var m tenantMetrics
			for _, out := range outs {
				m.flows += out[ti].flows
				m.slowP95 += out[ti].slowP95
				m.medErr += out[ti].medErr
				m.tailErr += out[ti].tailErr
			}
			n := float64(len(outs))
			t.Rows = append(t.Rows, []string{
				tn.Name,
				F(float64(m.flows) / n),
				F(m.slowP95 / n),
				F(m.medErr / n),
				F(m.tailErr / n),
			})
		}
		return []Table{t}, nil
	})
}

// runMultiTenantTrial shares one leaf-spine fabric between a Hadoop and a
// WebSearch tenant, harvests per-tenant per-hop latency streams from the
// simulation, and measures each tenant's transport fairness (p95
// slowdown) plus the accuracy of PINT latency telemetry estimated over
// its own traffic through the production stack.
func runMultiTenantTrial(s Scale, master hash.Seed, spec []Tenant) ([]tenantMetrics, error) {
	const k = 5
	ts := s
	ts.Seed = uint64(master)
	// Per-tenant per-hop latency streams; the tenant index travels in the
	// flow ID's high byte (see tenantFlows).
	streams := make([][][]float64, len(spec))
	for ti := range streams {
		streams[ti] = make([][]float64, k)
	}
	res, err := RunLoad(LoadRunConfig{Scale: ts, Kind: KindHPCCPINT, Tenants: spec,
		hopHook: func(pkt *netsim.Packet, hop int, latNs int64) {
			ti := int(pkt.FlowID>>56) - 1
			if ti < 0 || ti >= len(streams) || hop < 1 || hop > k {
				return
			}
			streams[ti][hop-1] = append(streams[ti][hop-1], float64(latNs))
		}})
	if err != nil {
		return nil, err
	}

	out := make([]tenantMetrics, len(spec))
	_, slowByTenant := res.SlowdownsByTenant(len(spec))
	for ti := range spec {
		out[ti].flows = len(slowByTenant[ti])
		out[ti].slowP95 = sketch.ExactQuantile(slowByTenant[ti], 0.95)
		med, tail, err := estimateHopQuantileErr(streams[ti], master.Derive(uint64(0x100+ti)))
		if err != nil {
			return nil, err
		}
		out[ti].medErr, out[ti].tailErr = med, tail
	}
	return out, nil
}

// estimateHopQuantileErr drives one tenant's hop-latency streams through
// an 8-bit latency query — batch encode, then a Recording — and returns
// the mean relative error of the median and p99 estimates across hops.
func estimateHopQuantileErr(streams [][]float64, master hash.Seed) (float64, float64, error) {
	const z = 500
	for h := range streams {
		if len(streams[h]) < 50 {
			return 0, 0, fmt.Errorf("scenario: hop %d collected only %d latencies", h+1, len(streams[h]))
		}
	}
	latQ, err := core.NewLatencyQuery("lat", 8, 0.04, 1, master)
	if err != nil {
		return 0, 0, err
	}
	eng, err := core.Compile([]core.Query{latQ}, 8, master.Derive(1))
	if err != nil {
		return 0, 0, err
	}
	const flow = core.FlowKey(1)
	pkts := make([]core.PacketDigest, z)
	encodeHopStreams(eng, streams, flow, hash.NewRNG(uint64(master.Derive(3))), pkts, hopColumns(len(streams), z))
	rec, err := recordPackets(eng, pkts)
	if err != nil {
		return 0, 0, err
	}
	var medSum, tailSum float64
	var n int
	for hop := 1; hop <= len(streams); hop++ {
		truthMed := sketch.ExactQuantile(streams[hop-1], 0.5)
		truthTail := sketch.ExactQuantile(streams[hop-1], 0.99)
		estMed, err1 := rec.LatencyQuantile(latQ, flow, hop, 0.5)
		estTail, err2 := rec.LatencyQuantile(latQ, flow, hop, 0.99)
		if err1 != nil || err2 != nil || truthMed <= 0 || truthTail <= 0 {
			continue
		}
		medSum += math.Abs(estMed-truthMed) / truthMed * 100
		tailSum += math.Abs(estTail-truthTail) / truthTail * 100
		n++
	}
	if n == 0 {
		return math.NaN(), math.NaN(), nil
	}
	return medSum / float64(n), tailSum / float64(n), nil
}

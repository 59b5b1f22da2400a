package scenario

import (
	"bytes"
	"fmt"
	"math"

	"repro/internal/admit"
	"repro/internal/collector"
	"repro/internal/core"
	"repro/internal/hash"
	"repro/internal/pipeline"
)

func init() {
	Register(tenantOverloadScenario())
}

// This file is the QoS tier's golden scenario: a hog tenant offering far
// beyond its quota next to a victim tenant inside its own, both metered
// by one admit.Admitter under an injected clock. Everything — the clock,
// the packet stream, the per-packet shed verdicts — is a pure function
// of the scale seed, so the trial is golden-stable at any parallelism:
// the hog is shed down to its published quota with answers inside the
// predicted error envelope, and the victim loses nothing (its answers
// are byte-identical to a run with no QoS at all).

// tenantOverloadOut is one trial's admission record.
type tenantOverloadOut struct {
	shards       int
	hog          admit.TenantStats
	victim       admit.TenantStats
	hogMaxErr    float64 // worst per-flow |scaled-offered|/offered of the hog's rescaled counts
	hogEnvelope  float64 // the 4σ relative bound those counts must stay inside
	victimIntact bool    // victim answers byte-identical to a no-QoS reference
	capacity     []float64
	backoffs     uint64
	probes       uint64
}

var tenantOverloadShardAxis = []int{1, 4}

func tenantOverloadScenario() Scenario {
	return define(Scenario{
		Name:     "tenant-overload",
		Figure:   "new",
		Desc:     "hog tenant shed to its quota at a published sampling rate while the victim tenant loses nothing; AIMD capacity collapses and recovers under scripted stalls",
		Topology: "fat tree (K=8) switch universe, single collector admission front",
		Workload: "hog at 5x quota + victim at half quota, fixed-cadence frames under an injected clock",
		Queries:  "path 2×(b=4) + latency 8b in 16 bits",
		Stack:    "engine→admit (token buckets + seeded shed)→pipeline sink→answers; AIMD controller on scripted stalls",
	}, func(s Scale) ([]trial[tenantOverloadOut], error) {
		seed := uint64(hash.Seed(s.Seed).Derive(0x7E4A7))
		ticks := 10 * s.Trials
		if ticks > 60 {
			ticks = 60
		}
		var trials []trial[tenantOverloadOut]
		for _, shards := range tenantOverloadShardAxis {
			trials = append(trials, trial[tenantOverloadOut]{
				Name: fmt.Sprintf("shards-%d", shards),
				Run: func() (tenantOverloadOut, error) {
					return runTenantOverloadTrial(seed, shards, ticks)
				},
			})
		}
		return trials, nil
	}, func(s Scale, outs []tenantOverloadOut) ([]Table, error) {
		admission := Table{
			Title:   "Tenant overload: quota shedding with a published error envelope",
			Columns: []string{"sink shards", "tenant", "offered", "admitted", "shed", "sample rate", "count scale", "q-rank err", "count err (max/bound)", "victim intact"},
		}
		aimd := Table{
			Title:   "AIMD capacity under scripted stalls: initial, congested, floor, recovered",
			Columns: []string{"sink shards", "capacity trajectory (pkt/s)", "backoffs", "probes"},
		}
		for _, o := range outs {
			row := func(ts admit.TenantStats, errCell, intact string) []string {
				return []string{
					fmt.Sprintf("%d", o.shards),
					ts.Tenant,
					fmt.Sprintf("%d", ts.Offered),
					fmt.Sprintf("%d", ts.Admitted),
					fmt.Sprintf("%d", ts.Shed),
					fmt.Sprintf("%.4f", ts.SampleRate),
					fmt.Sprintf("%.4f", ts.CountScale),
					fmt.Sprintf("%.4f", ts.QuantileRankError),
					errCell,
					intact,
				}
			}
			admission.Rows = append(admission.Rows,
				row(o.hog, fmt.Sprintf("%.4f/%.4f", o.hogMaxErr, o.hogEnvelope), "-"),
				row(o.victim, "0.0000/0.0000", yesNo(o.victimIntact)))
			traj := ""
			for i, c := range o.capacity {
				if i > 0 {
					traj += " -> "
				}
				traj += fmt.Sprintf("%.0f", c)
			}
			aimd.Rows = append(aimd.Rows, []string{
				fmt.Sprintf("%d", o.shards), traj,
				fmt.Sprintf("%d", o.backoffs), fmt.Sprintf("%d", o.probes),
			})
		}
		return []Table{admission, aimd}, nil
	})
}

// runTenantOverloadTrial drives ticks frames of hog and victim traffic
// through one admission front at a fixed simulated cadence, lands the
// admitted packets in a sharded sink, and checks the QoS contract:
// hog admission bounded by burst + quota×time, hog counts recoverable
// inside the published envelope, victim untouched byte-for-byte. A
// second, pure-controller pass scripts a stall storm and a quiet
// recovery to pin the AIMD trajectory.
func runTenantOverloadTrial(seed uint64, shards, ticks int) (tenantOverloadOut, error) {
	out := tenantOverloadOut{shards: shards}
	tb, err := collector.NewTestbench(seed, 5)
	if err != nil {
		return out, err
	}
	const (
		tickNs    = 10_000_000 // 10ms per frame cadence
		quota     = 10_000.0   // pkt/s for both tenants
		hogPkts   = 500        // 50k pkt/s offered: 5x quota
		vicPkts   = 50         // 5k pkt/s offered: half quota
		hogFlows  = 4
		vicFlows  = 4
		hogExp    = 1
		vicExp    = 2
		minSample = 0.01
	)
	var now uint64
	clock := func() uint64 { return now }
	policy := admit.Policy{
		Tenants: map[string]admit.Quota{
			// Burst = one tick's quota share, so steady-state sampling
			// kicks in from the first over-quota frame instead of a
			// seconds-long free burst obscuring the trial.
			"hog":    {Rate: quota, Burst: quota * float64(tickNs) / 1e9, MinSample: minSample},
			"victim": {Rate: quota, Burst: quota * float64(tickNs) / 1e9, MinSample: minSample},
		},
		Seed:  seed,
		Clock: clock,
	}
	adm, err := admit.NewAdmitter(policy)
	if err != nil {
		return out, err
	}
	hog := adm.Tenant("hog")
	victim := adm.Tenant("victim")

	sink, err := pipeline.NewSink(tb.Engine, pipeline.Config{Shards: shards, Base: tb.Base})
	if err != nil {
		return out, err
	}
	defer sink.Close()
	// The no-QoS reference for the victim's conservation check.
	ref, err := pipeline.NewSink(tb.Engine, pipeline.Config{Shards: shards, Base: tb.Base})
	if err != nil {
		return out, err
	}
	defer ref.Close()

	// Pre-encode each tenant's full per-flow streams, then deal them out
	// in per-tick frames — the digest content is independent of the
	// admission decisions.
	hogStream := make([][]core.PacketDigest, hogFlows)
	vicStream := make([][]core.PacketDigest, vicFlows)
	for f := 0; f < hogFlows; f++ {
		hogStream[f] = tb.FlowBatch(hogExp, f, hogPkts/hogFlows*ticks, nil, nil)
	}
	for f := 0; f < vicFlows; f++ {
		vicStream[f] = tb.FlowBatch(vicExp, f, vicPkts/vicFlows*ticks, nil, nil)
	}

	// One frame per tenant per tick, every flow's packets riding in it —
	// the same shape a real exporter session offers the collector, so
	// one Decision's sampling rate applies uniformly across the flows.
	hogOffered := make([]int, hogFlows) // per-flow offered counts for the envelope check
	hogKept := make([]int, hogFlows)
	hogIdx := make(map[core.FlowKey]int, hogFlows)
	for f := 0; f < hogFlows; f++ {
		hogIdx[tb.FlowKeyFor(hogExp, f)] = f
	}
	frame := make([]core.PacketDigest, 0, hogPkts)
	shed := func(t *admit.Tenant, pkts []core.PacketDigest) []core.PacketDigest {
		d := t.Decide(len(pkts))
		kept := frame[:0]
		for _, pd := range pkts {
			if t.Keep(d, uint64(pd.Flow), pd.PktID) {
				kept = append(kept, pd)
			}
		}
		t.Account(len(kept), len(pkts))
		return kept
	}
	tickFrame := func(stream [][]core.PacketDigest, tick, per int) []core.PacketDigest {
		var pkts []core.PacketDigest
		for f := range stream {
			pkts = append(pkts, stream[f][tick*per:(tick+1)*per]...)
		}
		return pkts
	}
	for tick := 0; tick < ticks; tick++ {
		now += tickNs
		hogFrame := tickFrame(hogStream, tick, hogPkts/hogFlows)
		kept := shed(hog, hogFrame)
		for f := range hogOffered {
			hogOffered[f] += hogPkts / hogFlows
		}
		for _, pd := range kept {
			hogKept[hogIdx[pd.Flow]]++
		}
		sink.Ingest(kept)

		vicFrame := tickFrame(vicStream, tick, vicPkts/vicFlows)
		keptVic := shed(victim, vicFrame)
		if len(keptVic) != len(vicFrame) {
			return out, fmt.Errorf("scenario: victim inside its quota lost %d of %d packets at tick %d",
				len(vicFrame)-len(keptVic), len(vicFrame), tick)
		}
		sink.Ingest(keptVic)
		ref.Ingest(vicFrame)
	}
	sink.Barrier()
	ref.Barrier()
	out.hog = hog.Stats()
	out.victim = victim.Stats()

	// The hog is shed down to its published quota: admission can never
	// exceed burst + quota×elapsed + the minimum-sample residue.
	elapsed := float64(ticks) * tickNs / 1e9
	bound := quota*float64(tickNs)/1e9 + quota*elapsed + minSample*float64(out.hog.Offered)
	// Per-packet hash realization scatters around the expectation;
	// 4σ of the total admitted count covers it with huge margin.
	bound += 4 * math.Sqrt(float64(out.hog.Offered)*0.25)
	if float64(out.hog.Admitted) > bound {
		return out, fmt.Errorf("scenario: hog admitted %d packets, quota bounds %d", out.hog.Admitted, uint64(bound))
	}
	if out.hog.Shed == 0 {
		return out, fmt.Errorf("scenario: hog at 5x quota shed nothing")
	}
	if out.victim.Shed != 0 {
		return out, fmt.Errorf("scenario: victim shed %d packets", out.victim.Shed)
	}

	// Count-style answers rescaled by the published CountScale land
	// within a 4σ binomial envelope of the true offered counts — the
	// "degradation with a receipt" contract.
	p := out.hog.SampleRate
	for f := 0; f < hogFlows; f++ {
		scaled := float64(hogKept[f]) * out.hog.CountScale
		rel := math.Abs(scaled-float64(hogOffered[f])) / float64(hogOffered[f])
		if rel > out.hogMaxErr {
			out.hogMaxErr = rel
		}
	}
	out.hogEnvelope = 4 * math.Sqrt((1-p)/(p*float64(hogOffered[0])))
	if out.hogMaxErr > out.hogEnvelope {
		return out, fmt.Errorf("scenario: hog count error %.4f outside the %.4f envelope", out.hogMaxErr, out.hogEnvelope)
	}

	// Zero victim loss, proven end to end: the victim's answers out of
	// the QoS'd sink are byte-identical to the no-QoS reference.
	vicKeys := make([]core.FlowKey, vicFlows)
	for f := range vicKeys {
		vicKeys[f] = tb.FlowKeyFor(vicExp, f)
	}
	gotJSON, err := answersJSON(sink, tb.Queries(), vicKeys)
	if err != nil {
		return out, err
	}
	wantJSON, err := answersJSON(ref, tb.Queries(), vicKeys)
	if err != nil {
		return out, err
	}
	out.victimIntact = bytes.Equal(gotJSON, wantJSON)
	if !out.victimIntact {
		return out, fmt.Errorf("scenario: victim answers diverge from the no-QoS reference")
	}

	// AIMD trajectory under scripted stalls: congestion cuts capacity
	// (once per window however many stalls land), a storm walks it to
	// the floor, and a quiet stretch probes it back to the ceiling.
	ctrl, err := admit.NewController(admit.CapacityConfig{
		Initial: 1000, Min: 100, Max: 2000, Probe: 100, Beta: 0.5,
		ProbeEvery: 1e9, Window: 1e9, Burst: 0.1,
	}, clock)
	if err != nil {
		return out, err
	}
	record := func() { out.capacity = append(out.capacity, ctrl.Capacity()) }
	record() // initial: 1000
	// A full quiet window first (backoffs are rate-limited to one per
	// window from construction), then three stalls inside one window:
	// exactly one backoff.
	now += 2e9
	for i := 0; i < 3; i++ {
		ctrl.Observe(true)
		now += 1e8
	}
	record() // congested: 500
	// A stall every window walks capacity to the floor.
	for i := 0; i < 8; i++ {
		now += 1e9 + 1
		ctrl.Observe(true)
	}
	record() // floor: 100
	// A long quiet stretch probes it back to the ceiling.
	for i := 0; i < 40; i++ {
		now += 1e9 + 1
		ctrl.Observe(false)
	}
	record() // recovered: 2000
	st := ctrl.Stats()
	out.backoffs, out.probes = st.Backoffs, st.Probes
	want4 := []float64{1000, 500, 100, 2000}
	for i, c := range out.capacity {
		if c != want4[i] {
			return out, fmt.Errorf("scenario: AIMD trajectory[%d] = %v, want %v", i, c, want4[i])
		}
	}
	return out, nil
}

package scenario

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/collector"
	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/hash"
)

func init() {
	Register(fleetResizeScenario())
}

// fleetResizeOut is one trial's conformance record for a live fleet
// resize: a deployment streams half its packets, the fleet grows or
// shrinks underneath it (epoch fence → exporter reroute → zero-loss
// state hand-off → new map published), the exporters re-partition and
// stream the rest — and the answers must be byte-identical both to the
// in-process reference and to a fleet that ran at the final membership
// from the start. Every field is a pure function of the testbench shape.
type fleetResizeOut struct {
	from, to  int
	shards    int
	packets   uint64 // total streamed, conservation-asserted at ingest
	moved     int    // flows the hand-off shipped
	movedOK   bool   // moved set == exactly the homes-changed set
	identProc bool   // resized answers == in-process reference
	identNew  bool   // resized answers == fleet started at final membership
}

func fleetResizeScenario() Scenario {
	const (
		nExporters = 3
		flowsPer   = 4
		frameBatch = 64
		shards     = 2
	)
	resizes := []struct{ from, to int }{{2, 4}, {4, 2}}
	return define(Scenario{
		Name:     "fleet-resize",
		Figure:   "new",
		Desc:     "live fleet resize mid-stream: epoch-fenced reroute + zero-loss state hand-off answers byte-identically to a fleet started at the final membership",
		Topology: "fat tree (K=8) switch universe, loopback TCP fleet",
		Workload: "3 exporters x 4 flows; resize after half the packets, exporters follow the new fleet map live",
		Queries:  "path 2×(b=4) + latency 8b in 16 bits",
		Stack:    "engine→wire frames→TCP→collector fleet→hand-off frames→Recording.Merge",
	}, func(s Scale) ([]trial[fleetResizeOut], error) {
		pktsPer := 50 * s.Trials
		if pktsPer > 500 {
			pktsPer = 500
		}
		if pktsPer < 2 {
			pktsPer = 2
		}
		seed := uint64(hash.Seed(s.Seed).Derive(0xF1EE7))
		var trials []trial[fleetResizeOut]
		for _, rs := range resizes {
			trials = append(trials, trial[fleetResizeOut]{
				Name: fmt.Sprintf("%dto%d", rs.from, rs.to),
				Run: func() (fleetResizeOut, error) {
					return runFleetResizeTrial(seed, rs.from, rs.to, shards, nExporters, flowsPer, pktsPer, frameBatch)
				},
			})
		}
		return trials, nil
	}, func(s Scale, outs []fleetResizeOut) ([]Table, error) {
		t := Table{
			Title: fmt.Sprintf(
				"Elastic fleet: mid-stream resize conformance, %d exporters x %d flows",
				nExporters, flowsPer),
			Columns: []string{"resize", "sink shards", "packets", "flows moved",
				"moved set minimal", "identical to in-process", "identical to fresh fleet"},
		}
		for _, o := range outs {
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d->%d", o.from, o.to),
				fmt.Sprintf("%d", o.shards),
				fmt.Sprintf("%d", o.packets),
				fmt.Sprintf("%d/%d", o.moved, nExporters*flowsPer),
				yesNo(o.movedOK),
				yesNo(o.identProc),
				yesNo(o.identNew),
			})
		}
		return []Table{t}, nil
	})
}

// runFleetResizeTrial runs one resize direction: stream phase A (half of
// every flow's packets) into a fleet of fromN, resize to toN while the
// exporters are live (they follow the fence via the reroute nudge and
// the published map), stream phase B, and demand byte-identical answers
// against both references plus exact packet conservation.
func runFleetResizeTrial(seed uint64, fromN, toN, shards, nExporters, flowsPer, pktsPer, frameBatch int) (fleetResizeOut, error) {
	out := fleetResizeOut{from: fromN, to: toN, shards: shards}
	tb, err := collector.NewTestbench(seed, 5)
	if err != nil {
		return out, err
	}
	epoch0 := seed ^ uint64(fromN)<<12 ^ uint64(toN)<<4
	fleet, err := federation.NewFleet(tb,
		federation.WithSize(fromN),
		federation.WithShards(shards),
		federation.WithFleetEpoch(epoch0),
	)
	if err != nil {
		return out, err
	}
	defer fleet.Shutdown(context.Background())
	oldMap := fleet.CurrentMap()

	// Every exporter pre-encodes all its flows, connects through the
	// options API with the fleet's roster fetch, and splits each flow's
	// batch at the resize point.
	pktsA := pktsPer / 2
	exps := make([]*collector.FleetExporter, nExporters)
	batches := make([][][]core.PacketDigest, nExporters)
	defer func() {
		for _, fe := range exps {
			if fe != nil {
				fe.Close()
			}
		}
	}()
	for e := 0; e < nExporters; e++ {
		exp := uint64(e) + 1
		vals := make([]core.HopValues, pktsPer)
		batches[e] = make([][]core.PacketDigest, flowsPer)
		for f := 0; f < flowsPer; f++ {
			batches[e][f] = tb.FlowBatch(exp, f, pktsPer, nil, vals)
		}
		fe, err := collector.Connect(tb.Engine, exp, fmt.Sprintf("resize-%d", exp),
			collector.WithFleetMap(fleet.CurrentMap()),
			collector.WithRosterFetch(fleet.RosterFetch()),
			collector.WithFrameBatch(frameBatch),
			collector.WithTenant(tb.Tenant))
		if err != nil {
			return out, err
		}
		exps[e] = fe
	}

	// Phase A: every flow sends its first half, so the moving-state set
	// at resize time is exactly the full flow set — deterministic.
	for e := range exps {
		for f := 0; f < flowsPer; f++ {
			if err := exps[e].Send(batches[e][f][:pktsA]); err != nil {
				return out, fmt.Errorf("scenario: phase A exporter %d: %w", e+1, err)
			}
		}
		if err := exps[e].Flush(); err != nil {
			return out, err
		}
	}

	// Resize while the exporters are live. The coordinator blocks until
	// every fenced session closes, so each exporter must keep servicing
	// the nudge (Poke) while it runs — one goroutine per exporter, like a
	// production send loop. The poke loops can't share a goroutine: a
	// nudged Poke blocks until the new map publishes, which needs every
	// OTHER exporter to have closed its fenced sessions first.
	type resizeResult struct {
		moves []federation.Move
		err   error
	}
	resized := make(chan resizeResult, 1)
	go func() {
		moves, err := fleet.Resize(context.Background(), toN)
		resized <- resizeResult{moves, err}
	}()
	done := make(chan struct{})
	pokeErrs := make([]error, len(exps))
	var pokers sync.WaitGroup
	for e := range exps {
		pokers.Add(1)
		go func(e int) {
			defer pokers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if err := exps[e].Poke(); err != nil {
					pokeErrs[e] = err
					return
				}
				time.Sleep(time.Millisecond)
			}
		}(e)
	}
	rr := <-resized
	close(done)
	pokers.Wait()
	if rr.err != nil {
		return out, fmt.Errorf("scenario: resize %d->%d: %w", fromN, toN, rr.err)
	}
	for e, err := range pokeErrs {
		if err != nil {
			return out, fmt.Errorf("scenario: exporter %d reroute: %w", e+1, err)
		}
	}
	newMap := fleet.CurrentMap()
	out.moved = len(rr.moves)

	// The planner's minimality contract, checked against the maps: the
	// moved set is exactly the set of flows whose rendezvous home name
	// changed.
	movedSet := map[core.FlowKey]bool{}
	for _, mv := range rr.moves {
		movedSet[mv.Flow] = true
	}
	allFlows := tb.Flows(nExporters, flowsPer)
	out.movedOK = true
	for _, flow := range allFlows {
		changed := oldMap.HomeName(flow) != newMap.HomeName(flow)
		if changed != movedSet[flow] {
			out.movedOK = false
			return out, fmt.Errorf("scenario: flow %d moved=%v, home changed=%v", flow, movedSet[flow], changed)
		}
	}

	// Phase B: the remaining halves, routed under the new map by the
	// rerouted sessions.
	for e := range exps {
		for f := 0; f < flowsPer; f++ {
			if err := exps[e].Send(batches[e][f][pktsA:]); err != nil {
				return out, fmt.Errorf("scenario: phase B exporter %d: %w", e+1, err)
			}
		}
		if err := exps[e].Close(); err != nil {
			return out, err
		}
		exps[e] = nil
	}

	// Conservation: every streamed packet is ingested exactly once at a
	// member that is still in the fleet. A shrink's departed members took
	// their phase-A ingest counters with them — that share is computed
	// from the (deterministic) old routing, not measured.
	total := uint64(nExporters * flowsPer * pktsPer)
	out.packets = total
	departedA := uint64(0)
	for _, flow := range allFlows {
		if oldMap.FlowHome(flow) >= toN {
			departedA += uint64(pktsA)
		}
	}
	if err := fleet.WaitIngested(total-departedA, 30*time.Second); err != nil {
		return out, fmt.Errorf("scenario: post-resize conservation: %w", err)
	}

	// Reference 1: the identical full deployment into one in-process sink.
	local, err := tb.RunInProcess(shards, nExporters, flowsPer, pktsPer)
	if err != nil {
		return out, err
	}
	resizedAnswers, err := fleet.MergedAnswers(nil)
	if err != nil {
		return out, err
	}
	if out.identProc, err = sameAnswers(resizedAnswers, local.Answers); err != nil {
		return out, err
	}
	if !out.identProc {
		return out, fmt.Errorf("scenario: resized fleet diverges from in-process reference (%d->%d)", fromN, toN)
	}

	// Reference 2: a fleet that ran at the final membership from the
	// start — same member names, same shards, whole deployment.
	fresh, err := federation.NewFleet(tb,
		federation.WithSize(toN),
		federation.WithShards(shards),
		federation.WithFleetEpoch(epoch0+100),
	)
	if err != nil {
		return out, err
	}
	defer fresh.Shutdown(context.Background())
	sent, _, err := fresh.Stream(nExporters, flowsPer, pktsPer, frameBatch)
	if err != nil {
		return out, err
	}
	if err := fresh.WaitIngested(sent, 30*time.Second); err != nil {
		return out, err
	}
	freshAnswers, err := fresh.MergedAnswers(nil)
	if err != nil {
		return out, err
	}
	if out.identNew, err = sameAnswers(resizedAnswers, freshAnswers); err != nil {
		return out, err
	}
	if !out.identNew {
		return out, fmt.Errorf("scenario: resized fleet diverges from a fleet started at %d members", toN)
	}
	return out, nil
}

package federation

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/collector"
	"repro/internal/core"
	"repro/internal/hash"
)

// driveResize runs fleet.Resize(toN) while keeping every exporter's poke
// loop alive in its own goroutine — the coordinator's quiesce waits for
// the fenced sessions to close, which only happens when each exporter
// services its nudge. Returns the executed move plan.
func driveResize(t *testing.T, fleet *Fleet, exps []*collector.FleetExporter, toN int) []Move {
	t.Helper()
	type result struct {
		moves []Move
		err   error
	}
	resized := make(chan result, 1)
	go func() {
		moves, err := fleet.Resize(context.Background(), toN)
		resized <- result{moves, err}
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
	if rr.err != nil {
		t.Fatalf("resize to %d: %v", toN, rr.err)
	}
	pokers.Wait()
	for e, err := range pokeErrs {
		if err != nil {
			t.Fatalf("exporter %d reroute: %v", e+1, err)
		}
	}
	return rr.moves
}

// testResizeLive is the live-resize conformance driver shared by the
// grow and shrink tests: stream half of every flow into a fleet of fromN
// over real TCP, resize to toN with the exporters live, stream the rest,
// and require exact packet conservation plus answers byte-identical to
// one in-process sink and to a fleet that ran at toN members from the
// start.
func testResizeLive(t *testing.T, fromN, toN int) {
	const (
		nExp     = 3
		flowsPer = 4
		pktsPer  = 60
		pktsA    = pktsPer / 2
		shards   = 2
	)
	tb, err := collector.NewTestbench(23, 5)
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := NewFleet(tb, WithSize(fromN), WithShards(shards), WithFleetEpoch(700))
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Shutdown(context.Background())
	oldMap := fleet.CurrentMap()

	exps := make([]*collector.FleetExporter, nExp)
	batches := make([][][]core.PacketDigest, nExp)
	for e := 0; e < nExp; e++ {
		exp := uint64(e) + 1
		batches[e] = make([][]core.PacketDigest, flowsPer)
		for f := 0; f < flowsPer; f++ {
			batches[e][f] = tb.FlowBatch(exp, f, pktsPer, nil, nil)
		}
		fe, err := collector.Connect(tb.Engine, exp, fmt.Sprintf("live-%d", exp),
			collector.WithFleetMap(fleet.CurrentMap()),
			collector.WithRosterFetch(fleet.RosterFetch()),
			collector.WithFrameBatch(16))
		if err != nil {
			t.Fatal(err)
		}
		exps[e] = fe
		defer fe.Close()
	}
	for e := range exps {
		for f := 0; f < flowsPer; f++ {
			if err := exps[e].Send(batches[e][f][:pktsA]); err != nil {
				t.Fatalf("phase A exporter %d: %v", e+1, err)
			}
		}
		if err := exps[e].Flush(); err != nil {
			t.Fatal(err)
		}
	}

	moves := driveResize(t, fleet, exps, toN)
	newMap := fleet.CurrentMap()
	if newMap.Epoch != oldMap.Epoch+1 {
		t.Fatalf("published epoch %d, want %d", newMap.Epoch, oldMap.Epoch+1)
	}

	// The executed plan is exactly the homes-changed set.
	movedSet := map[core.FlowKey]bool{}
	for _, mv := range moves {
		movedSet[mv.Flow] = true
	}
	all := deploymentFlows(tb, nExp, flowsPer)
	for _, flow := range all {
		changed := oldMap.HomeName(flow) != newMap.HomeName(flow)
		if changed != movedSet[flow] {
			t.Errorf("flow %d: moved=%v home changed=%v", flow, movedSet[flow], changed)
		}
	}

	// Every exporter followed the map: the members now refuse the old
	// epoch, so the sends below succeed only over re-dialed sessions.
	for e := range exps {
		for f := 0; f < flowsPer; f++ {
			if err := exps[e].Send(batches[e][f][pktsA:]); err != nil {
				t.Fatalf("phase B exporter %d: %v", e+1, err)
			}
		}
		if err := exps[e].Close(); err != nil {
			t.Fatal(err)
		}
		// The counters span the session generations the resize replaced.
		if got, sent := exps[e].Packets(), uint64(flowsPer*pktsPer); got != sent {
			t.Fatalf("exporter %d counts %d packets after the resize, sent %d", e+1, got, sent)
		}
	}

	// Conservation: the live members hold every packet except the phase-A
	// share that departed with a shrink's stopped members.
	total := uint64(nExp * flowsPer * pktsPer)
	departedA := uint64(0)
	for _, flow := range all {
		if oldMap.FlowHome(flow) >= toN {
			departedA += uint64(pktsA)
		}
	}
	if err := fleet.WaitIngested(total-departedA, 30*time.Second); err != nil {
		t.Fatalf("conservation: %v", err)
	}

	resizedAnswers, err := fleet.MergedAnswers(nil)
	if err != nil {
		t.Fatal(err)
	}
	resizedJSON, err := json.Marshal(resizedAnswers)
	if err != nil {
		t.Fatal(err)
	}
	localJSON, err := json.Marshal(inProcessAnswers(t, tb, shards, nExp, flowsPer, pktsPer, nil))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resizedJSON, localJSON) {
		t.Fatalf("resized %d->%d fleet diverges from one in-process sink", fromN, toN)
	}

	// Reference: a fleet that ran at toN members from the start, same
	// member names, whole deployment.
	fresh, err := NewFleet(tb, WithSize(toN), WithShards(shards), WithFleetEpoch(900))
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Shutdown(context.Background())
	sent, _, err := fresh.Stream(nExp, flowsPer, pktsPer, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.WaitIngested(sent, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	freshAnswers, err := fresh.MergedAnswers(nil)
	if err != nil {
		t.Fatal(err)
	}
	freshJSON, err := json.Marshal(freshAnswers)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resizedJSON, freshJSON) {
		t.Fatalf("resized %d->%d fleet diverges from a fleet started at %d members", fromN, toN, toN)
	}
}

func TestResizeGrowLive(t *testing.T)   { testResizeLive(t, 2, 4) }
func TestResizeShrinkLive(t *testing.T) { testResizeLive(t, 4, 2) }

// TestResizeNoopAndErrors covers the degenerate Resize inputs.
func TestResizeNoopAndErrors(t *testing.T) {
	tb, err := collector.NewTestbench(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := NewFleet(tb, WithSize(2), WithFleetEpoch(3))
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Shutdown(context.Background())
	if moves, err := fleet.Resize(context.Background(), 2); err != nil || moves != nil {
		t.Fatalf("same-size resize: moves=%v err=%v", moves, err)
	}
	if fleet.CurrentMap().Epoch != 3 {
		t.Fatalf("no-op resize moved the epoch to %d", fleet.CurrentMap().Epoch)
	}
	if _, err := fleet.Resize(context.Background(), 0); err == nil {
		t.Fatal("resize to 0 members succeeded")
	}
}

// mapForNames builds a validated FleetMap over the given member names at
// the given epoch (addresses are irrelevant to routing).
func mapForNames(t *testing.T, epoch uint64, names ...string) *FleetMap {
	t.Helper()
	members := make([]FleetMember, len(names))
	for i, n := range names {
		members[i] = FleetMember{Name: n, Ingest: n + ":1", Query: "http://" + n + ":2"}
	}
	fm, err := NewFleetMap(epoch, members)
	if err != nil {
		t.Fatal(err)
	}
	return fm
}

// TestRebalanceMinimality is the planner's property test: over random
// flows and memberships, the planned move set is exactly the set of
// flows whose rendezvous home name changed — no flow left behind, no
// flow moved gratuitously — and every flow has exactly one home in the
// new map.
func TestRebalanceMinimality(t *testing.T) {
	names := []string{"a", "b", "c", "d", "e", "f", "g"}
	rng := hash.NewRNG(0x5EED)
	for round := 0; round < 40; round++ {
		oldN := 1 + rng.Intn(len(names))
		newN := 1 + rng.Intn(len(names))
		if oldN == newN {
			newN = 1 + newN%len(names)
		}
		oldMap := mapForNames(t, 1, names[:oldN]...)
		newMap := mapForNames(t, 2, names[:newN]...)
		flows := make([]core.FlowKey, 200)
		for i := range flows {
			flows[i] = core.FlowKey(rng.Uint64())
		}
		moves, err := Rebalance(oldMap, newMap, flows)
		if err != nil {
			t.Fatal(err)
		}
		moved := map[core.FlowKey]string{}
		for _, mv := range moves {
			if _, dup := moved[mv.Flow]; dup {
				t.Fatalf("round %d: flow %d planned twice", round, mv.Flow)
			}
			moved[mv.Flow] = mv.To
		}
		for _, flow := range flows {
			oldHome, newHome := oldMap.HomeName(flow), newMap.HomeName(flow)
			to, planned := moved[flow]
			if (oldHome != newHome) != planned {
				t.Fatalf("round %d: flow %d home %q->%q, planned=%v", round, flow, oldHome, newHome, planned)
			}
			if planned && to != newHome {
				t.Fatalf("round %d: flow %d planned to %q, home is %q", round, flow, to, newHome)
			}
			// Disjoint homes: exactly one member owns the flow.
			home := newMap.FlowHome(flow)
			if home < 0 || home >= newN {
				t.Fatalf("round %d: flow %d homed at %d of %d", round, flow, home, newN)
			}
		}
	}
}

// TestRebalanceShrinkOnlyMovesDeparting: removing members moves exactly
// the flows homed on the removed members — rendezvous consistency.
func TestRebalanceShrinkOnlyMovesDeparting(t *testing.T) {
	oldMap := mapForNames(t, 1, "a", "b", "c", "d")
	newMap := mapForNames(t, 2, "a", "b", "c")
	rng := hash.NewRNG(0xD00F)
	flows := make([]core.FlowKey, 500)
	for i := range flows {
		flows[i] = core.FlowKey(rng.Uint64())
	}
	moves, err := Rebalance(oldMap, newMap, flows)
	if err != nil {
		t.Fatal(err)
	}
	for _, mv := range moves {
		if mv.From != "d" {
			t.Fatalf("flow %d moved from surviving member %q", mv.Flow, mv.From)
		}
	}
	for _, flow := range flows {
		if oldMap.HomeName(flow) == "d" {
			found := false
			for _, mv := range moves {
				if mv.Flow == flow {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("flow %d homed on the departing member was not planned", flow)
			}
		}
	}
}

// TestRebalanceRejects covers the planner's error contract.
func TestRebalanceRejects(t *testing.T) {
	a := mapForNames(t, 2, "a", "b")
	b := mapForNames(t, 2, "a", "b", "c")
	if _, err := Rebalance(a, b, nil); err == nil {
		t.Fatal("non-advancing epoch accepted")
	}
	if _, err := Rebalance(nil, b, nil); err == nil {
		t.Fatal("nil old map accepted")
	}
	if _, err := Rebalance(a, nil, nil); err == nil {
		t.Fatal("nil new map accepted")
	}
}

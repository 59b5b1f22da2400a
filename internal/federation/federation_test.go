package federation

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"repro/internal/collector"
	"repro/internal/core"
)

func TestPartitionerRejectsBadMembers(t *testing.T) {
	for name, members := range map[string][]string{
		"empty list": {},
		"empty name": {"a", ""},
		"duplicate":  {"a", "b", "a"},
	} {
		if _, err := NewPartitioner(members); err == nil {
			t.Errorf("%s: accepted %q", name, members)
		}
	}
	if _, err := NewPartitioner([]string{"solo"}); err != nil {
		t.Fatalf("single member rejected: %v", err)
	}
}

// TestPartitionerDeterminismAndSpread pins the routing contract: the
// flow→member map is a pure function of (members, flow), every member
// receives a non-trivial share, and list order does not change the
// assignment of any flow (indices follow the list, homes do not).
func TestPartitionerDeterminismAndSpread(t *testing.T) {
	members := []string{"10.0.0.1:9777", "10.0.0.2:9777", "10.0.0.3:9777", "10.0.0.4:9777"}
	p1, err := NewPartitioner(members)
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := NewPartitioner(members)
	counts := make([]int, len(members))
	const flows = 4096
	for f := 1; f <= flows; f++ {
		h := p1.Home(core.FlowKey(f))
		if h != p2.Home(core.FlowKey(f)) {
			t.Fatalf("flow %d: two identical partitioners disagree", f)
		}
		counts[h]++
	}
	for i, c := range counts {
		if c < flows/len(members)/2 || c > flows*2/len(members) {
			t.Errorf("member %d got %d of %d flows — far from balanced", i, c, flows)
		}
	}

	// Reordering the member list permutes indices but not homes.
	reordered := []string{members[2], members[0], members[3], members[1]}
	p3, _ := NewPartitioner(reordered)
	for f := 1; f <= flows; f++ {
		if members[p1.Home(core.FlowKey(f))] != reordered[p3.Home(core.FlowKey(f))] {
			t.Fatalf("flow %d: home depends on member-list order", f)
		}
	}
}

// TestPartitionerConsistency pins the resize property of rendezvous
// hashing: removing one member reassigns only the flows it owned.
func TestPartitionerConsistency(t *testing.T) {
	members := []string{"node-a", "node-b", "node-c", "node-d"}
	full, err := NewPartitioner(members)
	if err != nil {
		t.Fatal(err)
	}
	shrunk, err := NewPartitioner(members[:3]) // drop node-d
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	const flows = 4096
	for f := 1; f <= flows; f++ {
		before := full.Home(core.FlowKey(f))
		after := shrunk.Home(core.FlowKey(f))
		if before == 3 {
			moved++
			continue // node-d's flows must move somewhere
		}
		if before != after {
			t.Fatalf("flow %d moved from surviving member %d to %d when node-d left", f, before, after)
		}
	}
	if moved == 0 {
		t.Fatal("node-d owned no flows at all")
	}
}

// Stream pushes the (nExporters × flowsPer × pktsPer) testbench
// deployment into the fleet over real TCP, each flow routed to its home
// member under the fleet's current map.
func (f *Fleet) Stream(nExporters, flowsPer, pktsPer, batch int) (packets, bytes uint64, err error) {
	return f.TB.StreamDeployment(f.CurrentMap(), nExporters, flowsPer, pktsPer, batch)
}

// MergedAnswers folds the fleet's state into one answer set exactly like
// one collector would: each member's sink snapshot collapses via
// Snapshot.Merged, the per-member Recordings fold into one with
// core.Recording.Merge (members hold disjoint flows — the partitioner's
// invariant — so the merge is pure adoption), and the fixed-order answer
// encoder runs once over the union. flows nil means every tracked flow in
// sorted key order, mirroring the daemon's /snapshot.
func (f *Fleet) MergedAnswers(flows []core.FlowKey) ([]collector.FlowAnswers, error) {
	var merged *core.Recording
	for _, m := range f.Members {
		rec, err := m.Sink.Snapshot().Merged()
		if err != nil {
			return nil, err
		}
		if merged == nil {
			merged = rec
		} else if err := merged.Merge(rec); err != nil {
			return nil, fmt.Errorf("federation: folding %s: %w", m.Name, err)
		}
	}
	if flows == nil {
		flows = merged.Flows()
	}
	return collector.Answers(merged, f.TB.Queries(), flows), nil
}

// deploymentFlows lists every flow key of a deployment of nExporters
// exporters with flowsPer flows each, in (exporter, flow) order.
func deploymentFlows(tb *collector.Testbench, nExporters, flowsPer int) []core.FlowKey {
	var out []core.FlowKey
	for e := 0; e < nExporters; e++ {
		for f := 0; f < flowsPer; f++ {
			out = append(out, tb.FlowKeyFor(uint64(e)+1, f))
		}
	}
	return out
}

// streamFleet stands a fleet up, streams a deployment through loopback
// TCP, and waits until every packet is ingested and flushed.
func streamFleet(t *testing.T, seed uint64, fleetN, shards, nExporters, flowsPer, pktsPer int) (*Fleet, *collector.Testbench) {
	t.Helper()
	tb, err := collector.NewTestbench(seed, 5)
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := NewFleet(tb, WithSize(fleetN), WithShards(shards), WithFleetEpoch(seed+100))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fleet.Shutdown(context.Background()) })
	sent, _, err := fleet.Stream(nExporters, flowsPer, pktsPer, 64)
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(nExporters) * uint64(flowsPer) * uint64(pktsPer); sent != want {
		t.Fatalf("streamed %d packets, want %d", sent, want)
	}
	if err := fleet.WaitIngested(sent, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	return fleet, tb
}

// TestFleetMergedAnswersBitIdentical is the tentpole contract at the
// Recording level: a fleet of 3 collectors behind the partitioner,
// queried by folding member snapshots with core.Recording.Merge, answers
// byte-identically to one in-process sink that ingested the identical
// deployment.
func TestFleetMergedAnswersBitIdentical(t *testing.T) {
	const (
		nExporters = 3
		flowsPer   = 4
		pktsPer    = 200
	)
	fleet, tb := streamFleet(t, 11, 3, 2, nExporters, flowsPer, pktsPer)

	fleetAnswers, err := fleet.MergedAnswers(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(fleetAnswers)
	want, _ := json.Marshal(inProcessAnswers(t, tb, 2, nExporters, flowsPer, pktsPer, nil))
	if string(got) != string(want) {
		t.Fatalf("fleet-merged answers diverge from in-process:\nfleet: %.400s\nlocal: %.400s", got, want)
	}

	// The fleet genuinely spread the flows: with 12 flows on 3 members,
	// every member should own at least one.
	for i, m := range fleet.Members {
		if st := m.Srv.Stats(); st.Packets == 0 {
			t.Errorf("member %d ingested nothing — partitioner routed everything elsewhere", i)
		}
	}
}

// TestFleetEpochFencesStaleExporters pins the repartitioning guard end
// to end: an exporter streaming under a different epoch is refused by
// every fleet member at session setup.
func TestFleetEpochFencesStaleExporters(t *testing.T) {
	tb, err := collector.NewTestbench(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := NewFleet(tb, WithSize(2), WithFleetEpoch(77))
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Shutdown(context.Background())

	stale, err := NewFleetMap(76, fleet.CurrentMap().Members)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := tb.StreamDeployment(stale, 1, 1, 10, 10); err == nil {
		t.Fatal("stale-epoch deployment was accepted")
	}
	if _, _, err := fleet.Stream(1, 1, 10, 10); err != nil {
		t.Fatalf("matching-epoch deployment refused: %v", err)
	}
}

package federation

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"repro/internal/collector"
	"repro/internal/core"
	"repro/internal/hash"
)

func TestFleetMapJSONRoundTrip(t *testing.T) {
	orig := mapForNames(t, 42, "node-0", "node-1", "node-2")
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseFleetMap(data)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Epoch != orig.Epoch || len(parsed.Members) != len(orig.Members) {
		t.Fatalf("round-trip lost shape: %+v", parsed)
	}
	for i := range orig.Members {
		if parsed.Members[i] != orig.Members[i] {
			t.Fatalf("member %d: %+v vs %+v", i, parsed.Members[i], orig.Members[i])
		}
	}
	// The parsed map routes — Validate ran inside ParseFleetMap.
	rng := hash.NewRNG(8)
	for i := 0; i < 100; i++ {
		flow := core.FlowKey(rng.Uint64())
		if parsed.HomeName(flow) != orig.HomeName(flow) {
			t.Fatalf("flow %d homes differently after round-trip", flow)
		}
	}
}

func TestFleetMapRoutingMatchesPartitioner(t *testing.T) {
	names := []string{"a", "b", "c", "d"}
	fm := mapForNames(t, 1, names...)
	part, err := NewPartitioner(names)
	if err != nil {
		t.Fatal(err)
	}
	rng := hash.NewRNG(17)
	for i := 0; i < 500; i++ {
		flow := core.FlowKey(rng.Uint64())
		if fm.FlowHome(flow) != part.Home(flow) {
			t.Fatalf("flow %d: map homes %d, partitioner homes %d", flow, fm.FlowHome(flow), part.Home(flow))
		}
	}
}

func TestFleetMapRejects(t *testing.T) {
	member := FleetMember{Name: "a", Ingest: "a:1", Query: "http://a:2"}
	cases := map[string]struct {
		epoch   uint64
		members []FleetMember
	}{
		"no members": {1, nil},
		"dup name": {1, []FleetMember{member,
			{Name: "a", Ingest: "b:1", Query: "http://b:2"}}},
		"empty name":   {1, []FleetMember{{Name: "", Ingest: "a:1", Query: "http://a:2"}}},
		"empty ingest": {1, []FleetMember{{Name: "a", Ingest: "", Query: "http://a:2"}}},
		"empty query":  {1, []FleetMember{{Name: "a", Ingest: "a:1", Query: ""}}},
	}
	for name, c := range cases {
		if _, err := NewFleetMap(c.epoch, c.members); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := ParseFleetMap([]byte("{")); err == nil {
		t.Error("malformed JSON accepted")
	}
	if _, err := ParseFleetMap([]byte(`{"epoch":1,"members":[]}`)); err == nil {
		t.Error("empty membership accepted")
	}
}

func TestFleetMapRosterInterface(t *testing.T) {
	fm := mapForNames(t, 9, "x", "y")
	if fm.FleetEpoch() != 9 {
		t.Fatalf("FleetEpoch = %d", fm.FleetEpoch())
	}
	addrs := fm.IngestAddrs()
	if len(addrs) != 2 || addrs[0] != "x:1" || addrs[1] != "y:1" {
		t.Fatalf("IngestAddrs = %v", addrs)
	}
}

// TestConnectSendsEachFlowToItsMapHome is the single-keying property: a
// fleet map is the only thing an exporter is given, so the member that
// actually receives a flow's digests is the map's FlowHome for it — over
// random member names, fleet sizes and flows, with no second routing
// function (an address list, a partitioner of the caller's own) to
// disagree with the gate and the resize planner.
func TestConnectSendsEachFlowToItsMapHome(t *testing.T) {
	tb, err := collector.NewTestbench(71, 5)
	if err != nil {
		t.Fatal(err)
	}
	rng := hash.NewRNG(71)
	for trial := 0; trial < 6; trial++ {
		const epoch = 3
		members := make([]*Member, 1+rng.Intn(5))
		for i := range members {
			name := fmt.Sprintf("m%x-%d", rng.Uint64(), i)
			if members[i], err = startMember(tb, name, 1, epoch); err != nil {
				t.Fatal(err)
			}
		}
		fleet := &Fleet{TB: tb, Members: members}
		fm, err := fleetMapOf(epoch, members)
		if err != nil {
			t.Fatal(err)
		}
		fe, err := collector.Connect(tb.Engine, 1, "keying", collector.WithFleetMap(fm))
		if err != nil {
			t.Fatal(err)
		}
		want := make([]map[core.FlowKey]bool, len(members))
		for i := range want {
			want[i] = map[core.FlowKey]bool{}
		}
		const nFlows, pktsPer = 40, 3
		for f := 0; f < nFlows; f++ {
			exp, idx := 1+uint64(rng.Intn(1<<16)), rng.Intn(1<<20)
			want[fm.FlowHome(tb.FlowKeyFor(exp, idx))][tb.FlowKeyFor(exp, idx)] = true
			if err := fe.Send(tb.FlowBatch(exp, idx, pktsPer, nil, nil)); err != nil {
				t.Fatal(err)
			}
		}
		if err := fe.Close(); err != nil {
			t.Fatal(err)
		}
		if err := fleet.WaitIngested(nFlows*pktsPer, 30*time.Second); err != nil {
			t.Fatal(err)
		}
		for i, m := range members {
			got := m.Sink.Flows()
			if len(got) != len(want[i]) {
				t.Errorf("trial %d: %s received %d flows, the map homes %d there", trial, m.Name, len(got), len(want[i]))
			}
			for _, flow := range got {
				if !want[i][flow] {
					t.Errorf("trial %d: %s received flow %d, whose map home is %s", trial, m.Name, flow, fm.HomeName(flow))
				}
			}
		}
		if err := fleet.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

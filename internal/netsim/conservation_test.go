package netsim

import (
	"testing"
	"testing/quick"

	"repro/internal/hash"
	"repro/internal/topology"
)

// TestPacketConservationProperty checks the simulator's fundamental
// invariant under random traffic: every injected packet is either
// delivered to an endpoint or counted as a drop — nothing vanishes, and
// nothing duplicates.
func TestPacketConservationProperty(t *testing.T) {
	f := func(seed uint64, nPktRaw uint8, bufRaw uint16) bool {
		nPkt := 1 + int(nPktRaw)%200
		buf := 2000 + int(bufRaw)%100000
		g := topology.NewGraph("cons")
		h1 := g.AddNode(topology.Host, "h1")
		s1 := g.AddNode(topology.Switch, "s1")
		s2 := g.AddNode(topology.Switch, "s2")
		h2 := g.AddNode(topology.Host, "h2")
		for _, e := range [][2]int{{h1, s1}, {s1, s2}, {s2, h2}} {
			if err := g.AddEdge(e[0], e[1]); err != nil {
				return false
			}
		}
		sim := NewSim()
		spec := LinkSpec{Bps: 1e9, PropNs: 500, BufBytes: buf}
		net, err := Build(sim, g, BuildOptions{HostLink: spec, TierLink: spec})
		if err != nil {
			return false
		}
		cap := &captureEndpoint{sim: sim}
		net.Host(h2).Attach(1, cap)
		rng := hash.NewRNG(seed)
		for i := 0; i < nPkt; i++ {
			pkt := &Packet{ID: uint64(i), FlowID: 1, Src: h1, Dst: h2,
				PayloadLen: 100 + rng.Intn(1300)}
			sim.After(int64(rng.Intn(1000)), func() { net.Host(h1).Send(pkt) })
		}
		sim.Run(10_000_000_000)
		if len(sim.events) != 0 {
			return false // everything must quiesce
		}
		return len(cap.pkts)+net.Drops == nPkt
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestNoDuplicateDelivery ensures a packet object traverses the network
// exactly once even under queueing.
func TestNoDuplicateDelivery(t *testing.T) {
	sim, net, h1, h2 := buildLine(t)
	cap := &captureEndpoint{sim: sim}
	net.Host(h2).Attach(7, cap)
	const n = 50
	for i := 0; i < n; i++ {
		net.Host(h1).Send(&Packet{ID: uint64(i), FlowID: 7, Src: h1, Dst: h2, PayloadLen: 500})
	}
	sim.Run(1_000_000_000)
	seen := map[uint64]bool{}
	for _, p := range cap.pkts {
		if seen[p.ID] {
			t.Fatalf("packet %d delivered twice", p.ID)
		}
		seen[p.ID] = true
	}
	if len(seen) != n {
		t.Fatalf("delivered %d distinct packets, want %d", len(seen), n)
	}
}

// TestHopCountMatchesTopologyDistance checks that Hops equals the number
// of switches on the route for every delivered packet.
func TestHopCountMatchesTopologyDistance(t *testing.T) {
	g, err := topology.FatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	sim := NewSim()
	spec := LinkSpec{Bps: 1e9, PropNs: 100, BufBytes: 1 << 20}
	net, err := Build(sim, g, BuildOptions{HostLink: spec, TierLink: spec})
	if err != nil {
		t.Fatal(err)
	}
	hosts := g.Hosts()
	cap := &captureEndpoint{sim: sim}
	src, dst := hosts[0], hosts[len(hosts)-1]
	net.Host(dst).Attach(1, cap)
	net.Host(src).Send(&Packet{ID: 1, FlowID: 1, Src: src, Dst: dst, PayloadLen: 100})
	sim.Run(1_000_000_000)
	if len(cap.pkts) != 1 {
		t.Fatal("packet lost")
	}
	// Cross-pod in a fat tree: exactly 5 switches.
	if cap.pkts[0].Hops != 5 {
		t.Fatalf("hops = %d, want 5", cap.pkts[0].Hops)
	}
}

// TestPortCountersMonotone checks TxBytes accounting.
func TestPortCountersMonotone(t *testing.T) {
	sim, net, h1, h2 := buildLine(t)
	last := map[*Port]uint64{}
	var any uint64
	net.OnDequeue = func(_ *Network, _ *SwitchNode, port *Port, _ *Packet, _ int, _, _ int64) {
		if port.TxBytes < last[port] {
			t.Error("TxBytes decreased")
		}
		last[port] = port.TxBytes
		any = port.TxBytes
	}
	cap := &captureEndpoint{sim: sim}
	net.Host(h2).Attach(7, cap)
	for i := 0; i < 20; i++ {
		net.Host(h1).Send(&Packet{ID: uint64(i), FlowID: 7, Src: h1, Dst: h2, PayloadLen: 900})
	}
	sim.Run(1_000_000_000)
	if any == 0 {
		t.Fatal("no bytes accounted")
	}
}

package transport

import (
	"math"
	"testing"

	"repro/internal/hash"
	"repro/internal/netsim"
	"repro/internal/topology"
)

// testNet builds host-sw-sw-host at 1Gbps with the given buffer size.
func testNet(t *testing.T, bufBytes int) (*netsim.Sim, *netsim.Network, int, int) {
	t.Helper()
	g := topology.NewGraph("line")
	h1 := g.AddNode(topology.Host, "h1")
	s1 := g.AddNode(topology.Switch, "s1")
	s2 := g.AddNode(topology.Switch, "s2")
	h2 := g.AddNode(topology.Host, "h2")
	for _, e := range [][2]int{{h1, s1}, {s1, s2}, {s2, h2}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	sim := netsim.NewSim()
	spec := netsim.LinkSpec{Bps: 1_000_000_000, PropNs: 1000, BufBytes: bufBytes}
	net, err := netsim.Build(sim, g, netsim.BuildOptions{
		HostLink: spec, TierLink: spec, ValuesPerHop: 3})
	if err != nil {
		t.Fatal(err)
	}
	return sim, net, h1, h2
}

// dumbbell builds h1,h2 - sw - sw - h3,h4 with a shared middle link.
func dumbbell(t *testing.T, bufBytes int) (*netsim.Sim, *netsim.Network, []int) {
	t.Helper()
	g := topology.NewGraph("dumbbell")
	s1 := g.AddNode(topology.Switch, "s1")
	s2 := g.AddNode(topology.Switch, "s2")
	hosts := make([]int, 4)
	hosts[0] = g.AddNode(topology.Host, "h1")
	hosts[1] = g.AddNode(topology.Host, "h2")
	hosts[2] = g.AddNode(topology.Host, "h3")
	hosts[3] = g.AddNode(topology.Host, "h4")
	edges := [][2]int{{hosts[0], s1}, {hosts[1], s1}, {hosts[2], s2}, {hosts[3], s2}, {s1, s2}}
	for _, e := range edges {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	sim := netsim.NewSim()
	spec := netsim.LinkSpec{Bps: 1_000_000_000, PropNs: 1000, BufBytes: bufBytes}
	net, err := netsim.Build(sim, g, netsim.BuildOptions{
		HostLink: spec, TierLink: spec, ValuesPerHop: 3})
	if err != nil {
		t.Fatal(err)
	}
	return sim, net, hosts
}

func TestRenoSingleFlowCompletes(t *testing.T) {
	sim, net, h1, h2 := testNet(t, 1<<20)
	stats := &FlowStats{ID: 1, Bytes: 100_000, StartNs: 0}
	if _, err := StartReno(net, h1, h2, stats, DefaultRenoConfig()); err != nil {
		t.Fatal(err)
	}
	sim.Run(1_000_000_000)
	if !stats.Done {
		t.Fatalf("flow incomplete: acked %d of %d", stats.AckedBytes, stats.Bytes)
	}
	// Ideal: 100KB at 1Gbps ≈ 0.83ms (incl. headers); allow slow-start ramp.
	if fct := stats.FCT(); fct < 800_000 || fct > 5_000_000 {
		t.Fatalf("FCT %dns implausible for 100KB at 1Gbps", fct)
	}
}

func TestRenoFlowValidation(t *testing.T) {
	_, net, h1, h2 := testNet(t, 1<<20)
	if _, err := StartReno(net, h1, h2, &FlowStats{ID: 1, Bytes: 0}, DefaultRenoConfig()); err == nil {
		t.Fatal("zero-byte flow must fail")
	}
	cfg := DefaultRenoConfig()
	cfg.MTU = 0
	if _, err := StartReno(net, h1, h2, &FlowStats{ID: 1, Bytes: 10}, cfg); err == nil {
		t.Fatal("zero MTU must fail")
	}
}

func TestRenoTinyFlow(t *testing.T) {
	sim, net, h1, h2 := testNet(t, 1<<20)
	stats := &FlowStats{ID: 1, Bytes: 1}
	if _, err := StartReno(net, h1, h2, stats, DefaultRenoConfig()); err != nil {
		t.Fatal(err)
	}
	sim.Run(1_000_000_000)
	if !stats.Done {
		t.Fatal("1-byte flow incomplete")
	}
}

func TestRenoSurvivesDrops(t *testing.T) {
	// 5KB buffer forces losses; the flow must still complete via fast
	// retransmit / RTO.
	sim, net, h1, h2 := testNet(t, 5_000)
	stats := &FlowStats{ID: 1, Bytes: 300_000}
	if _, err := StartReno(net, h1, h2, stats, DefaultRenoConfig()); err != nil {
		t.Fatal(err)
	}
	sim.Run(5_000_000_000)
	if !stats.Done {
		t.Fatalf("flow incomplete after drops: acked %d of %d (drops=%d)",
			stats.AckedBytes, stats.Bytes, net.Drops)
	}
	if net.Drops == 0 {
		t.Fatal("test wanted loss but saw none; buffer too large")
	}
	if stats.Retransmits == 0 {
		t.Fatal("drops occurred but no retransmissions recorded")
	}
}

func TestRenoSharedBottleneckBothComplete(t *testing.T) {
	sim, net, hosts := dumbbell(t, 64_000)
	s1 := &FlowStats{ID: 1, Bytes: 200_000}
	s2 := &FlowStats{ID: 2, Bytes: 200_000}
	if _, err := StartReno(net, hosts[0], hosts[2], s1, DefaultRenoConfig()); err != nil {
		t.Fatal(err)
	}
	if _, err := StartReno(net, hosts[1], hosts[3], s2, DefaultRenoConfig()); err != nil {
		t.Fatal(err)
	}
	sim.Run(10_000_000_000)
	if !s1.Done || !s2.Done {
		t.Fatalf("flows incomplete: %v %v", s1.Done, s2.Done)
	}
	// Sharing a 1Gbps link, each must take at least ~2x its solo time.
	solo := int64(200_000 * 8) // ns at 1Gbps ≈ 1.6ms
	if s1.FCT() < solo || s2.FCT() < solo {
		t.Fatal("flows finished faster than the shared bottleneck allows")
	}
}

func TestRenoOverheadSlowsFCT(t *testing.T) {
	// The Fig 1 mechanism at unit scale: more per-packet overhead, longer
	// FCT for the same payload under load. A large buffer keeps the run
	// loss-free so the comparison isolates serialization cost.
	run := func(extra int) int64 {
		sim, net, hosts := dumbbell(t, 4<<20)
		cfg := DefaultRenoConfig()
		cfg.ExtraBytes = extra
		s1 := &FlowStats{ID: 1, Bytes: 500_000}
		s2 := &FlowStats{ID: 2, Bytes: 500_000}
		if _, err := StartReno(net, hosts[0], hosts[2], s1, cfg); err != nil {
			t.Fatal(err)
		}
		if _, err := StartReno(net, hosts[1], hosts[3], s2, cfg); err != nil {
			t.Fatal(err)
		}
		sim.Run(30_000_000_000)
		if !s1.Done || !s2.Done {
			t.Fatal("incomplete")
		}
		return (s1.FCT() + s2.FCT()) / 2
	}
	if base, heavy := run(0), run(108); heavy <= base {
		t.Fatalf("108B overhead did not slow FCT: base %d, heavy %d", base, heavy)
	}
}

func TestHPCCINTSingleFlow(t *testing.T) {
	sim, net, h1, h2 := testNet(t, 1<<22)
	AttachINTHook(net)
	cfg := DefaultHPCCConfig(1_000_000_000, 35_000)
	cfg.Mode = FeedbackINT
	stats := &FlowStats{ID: 1, Bytes: 1_000_000}
	h, err := StartHPCC(net, h1, h2, stats, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(60_000_000_000)
	if !stats.Done {
		t.Fatalf("HPCC-INT flow incomplete: acked %d of %d (W=%v)",
			stats.AckedBytes, stats.Bytes, h.w)
	}
	// 1MB at 1Gbps ideal ≈ 8ms; HPCC should finish within 3x ideal.
	if fct := stats.FCT(); fct > 24_000_000 {
		t.Fatalf("FCT %dns too slow for 1MB at 1Gbps", fct)
	}
	if net.Drops != 0 {
		t.Fatalf("HPCC should keep queues bounded; %d drops", net.Drops)
	}
	if h.LastU <= 0 {
		t.Fatal("sender never computed a utilization estimate")
	}
}

func TestHPCCPINTSingleFlow(t *testing.T) {
	sim, net, h1, h2 := testNet(t, 1<<22)
	pu, err := AttachPINTHook(net, 35_000, 8)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultHPCCConfig(1_000_000_000, 35_000)
	cfg.Mode = FeedbackPINT
	cfg.PintBits = 8
	cfg.DecodeU = pu.Decode
	stats := &FlowStats{ID: 1, Bytes: 1_000_000}
	h, err := StartHPCC(net, h1, h2, stats, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(60_000_000_000)
	if !stats.Done {
		t.Fatalf("HPCC-PINT flow incomplete: acked %d of %d (W=%v, U=%v)",
			stats.AckedBytes, stats.Bytes, h.w, h.LastU)
	}
	if fct := stats.FCT(); fct > 30_000_000 {
		t.Fatalf("FCT %dns too slow for 1MB at 1Gbps", fct)
	}
}

func TestHPCCPINTFractionalFeedback(t *testing.T) {
	// p=1/16 selection: only a 16th of packets carry the HPCC digest but
	// the flow must still complete promptly (Fig 8's p=1/16 result).
	sim, net, h1, h2 := testNet(t, 1<<22)
	pu, err := AttachPINTHook(net, 35_000, 8)
	if err != nil {
		t.Fatal(err)
	}
	sel := hash.NewGlobal(99)
	cfg := DefaultHPCCConfig(1_000_000_000, 35_000)
	cfg.Mode = FeedbackPINT
	cfg.PintBits = 8
	cfg.DecodeU = pu.Decode
	cfg.SelectPkt = func(pktID uint64) bool { return sel.Act(pktID, 1, 1.0/16) }
	stats := &FlowStats{ID: 1, Bytes: 1_000_000}
	if _, err := StartHPCC(net, h1, h2, stats, cfg); err != nil {
		t.Fatal(err)
	}
	sim.Run(120_000_000_000)
	if !stats.Done {
		t.Fatalf("p=1/16 flow incomplete: acked %d of %d", stats.AckedBytes, stats.Bytes)
	}
}

func TestHPCCPINTLessOverheadThanINT(t *testing.T) {
	// The core byte-saving claim: a PINT data packet carries 1-2B versus
	// INT's 8+12/hop. Count bytes through the dequeue hook.
	countBytes := func(mode FeedbackMode) int64 {
		sim, net, h1, h2 := testNet(t, 1<<22)
		var total int64
		base := net.OnDequeue
		_ = base
		var pu *PINTUtilization
		var err error
		if mode == FeedbackINT {
			AttachINTHook(net)
		} else {
			pu, err = AttachPINTHook(net, 35_000, 8)
			if err != nil {
				t.Fatal(err)
			}
		}
		prev := net.OnDequeue
		net.OnDequeue = func(n *netsim.Network, sw *netsim.SwitchNode, port *netsim.Port,
			pkt *netsim.Packet, qlen int, tau, hopLat int64) {
			prev(n, sw, port, pkt, qlen, tau, hopLat)
			if !pkt.Ack {
				total += int64(pkt.WireSize(3))
			}
		}
		cfg := DefaultHPCCConfig(1_000_000_000, 35_000)
		cfg.Mode = mode
		if mode == FeedbackPINT {
			cfg.PintBits = 8
			cfg.DecodeU = pu.Decode
		}
		stats := &FlowStats{ID: 1, Bytes: 500_000}
		if _, err := StartHPCC(net, h1, h2, stats, cfg); err != nil {
			t.Fatal(err)
		}
		sim.Run(60_000_000_000)
		if !stats.Done {
			t.Fatal("flow incomplete")
		}
		return total
	}
	intBytes := countBytes(FeedbackINT)
	pintBytes := countBytes(FeedbackPINT)
	if pintBytes >= intBytes {
		t.Fatalf("PINT bytes %d not below INT bytes %d", pintBytes, intBytes)
	}
}

func TestHPCCValidation(t *testing.T) {
	_, net, h1, h2 := testNet(t, 1<<20)
	cfg := DefaultHPCCConfig(1e9, 35_000)
	cfg.Eta = 0
	if _, err := StartHPCC(net, h1, h2, &FlowStats{ID: 1, Bytes: 10}, cfg); err == nil {
		t.Fatal("eta=0 must fail")
	}
	cfg = DefaultHPCCConfig(1e9, 35_000)
	cfg.Mode = FeedbackPINT
	if _, err := StartHPCC(net, h1, h2, &FlowStats{ID: 1, Bytes: 10}, cfg); err == nil {
		t.Fatal("PINT mode without DecodeU must fail")
	}
}

func TestPINTUtilizationRoundTrip(t *testing.T) {
	pu, err := NewPINTUtilization(13_000, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []float64{0.05, 0.3, 0.5, 0.95, 1.0, 1.5} {
		got := pu.Decode(pu.Encode(u))
		if math.Abs(got-u)/u > 0.08 {
			t.Fatalf("U=%v decoded %v (>8%% error)", u, got)
		}
	}
	if pu.Decode(0) != 0 {
		t.Fatal("zero code must decode to zero utilization")
	}
}

func TestCollector(t *testing.T) {
	c := &Collector{}
	a := &FlowStats{ID: 1, Done: true, StartNs: 5, DoneNs: 105}
	b := &FlowStats{ID: 2}
	c.Add(a)
	c.Add(b)
	if got := len(c.Completed()); got != 1 {
		t.Fatalf("completed = %d, want 1", got)
	}
	if a.FCT() != 100 {
		t.Fatalf("FCT = %d, want 100", a.FCT())
	}
	if b.FCT() != 0 {
		t.Fatal("unfinished flow must report FCT 0")
	}
}

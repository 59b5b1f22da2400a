package transport

import (
	"testing"

	"repro/internal/netsim"
)

func TestHPCCFairnessTwoFlows(t *testing.T) {
	// Two long HPCC flows sharing the dumbbell bottleneck must each get a
	// comparable share (the AIMD fairness §6.1 argues is preserved under
	// PINT feedback).
	sim, net, hosts := dumbbell(t, 1<<22)
	pu, err := AttachPINTHook(net, 40_000, 8)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(id uint64, src, dst int) *FlowStats {
		cfg := DefaultHPCCConfig(1_000_000_000, 40_000)
		cfg.Mode = FeedbackPINT
		cfg.PintBits = 8
		cfg.DecodeU = pu.Decode
		st := &FlowStats{ID: id, Bytes: 2_000_000}
		if _, err := StartHPCC(net, src, dst, st, cfg); err != nil {
			t.Fatal(err)
		}
		return st
	}
	s1 := mk(1, hosts[0], hosts[2])
	s2 := mk(2, hosts[1], hosts[3])
	sim.Run(400_000_000_000)
	if !s1.Done || !s2.Done {
		t.Fatalf("flows incomplete: %v/%v (acked %d, %d)",
			s1.Done, s2.Done, s1.AckedBytes, s2.AckedBytes)
	}
	r := float64(s1.FCT()) / float64(s2.FCT())
	if r < 0.5 || r > 2 {
		t.Fatalf("identical competing flows finished %.2fx apart", r)
	}
}

func TestHPCCKeepsQueueBelowINTDrivenBDP(t *testing.T) {
	// HPCC's whole point: near-empty queues at high utilization. Track the
	// peak bottleneck backlog with a single saturating flow.
	sim, net, h1, h2 := testNet(t, 1<<22)
	AttachINTHook(net)
	peak := 0
	prev := net.OnDequeue
	net.OnDequeue = func(n *netsim.Network, sw *netsim.SwitchNode, port *netsim.Port,
		pkt *netsim.Packet, qlen int, tau, hopLat int64) {
		prev(n, sw, port, pkt, qlen, tau, hopLat)
		if qlen > peak {
			peak = qlen
		}
	}
	cfg := DefaultHPCCConfig(1_000_000_000, 35_000)
	cfg.Mode = FeedbackINT
	stats := &FlowStats{ID: 1, Bytes: 3_000_000}
	if _, err := StartHPCC(net, h1, h2, stats, cfg); err != nil {
		t.Fatal(err)
	}
	sim.Run(120_000_000_000)
	if !stats.Done {
		t.Fatal("flow incomplete")
	}
	bdp := int(1_000_000_000 / 8 * 35_000 / 1_000_000_000) // ≈ 4.4KB
	if peak > 8*bdp+16_000 {
		t.Fatalf("peak queue %dB far above BDP %dB: control loop broken", peak, bdp)
	}
}

func TestRenoRTTEstimator(t *testing.T) {
	sim, net, h1, h2 := testNet(t, 1<<20)
	stats := &FlowStats{ID: 1, Bytes: 200_000}
	r, err := StartReno(net, h1, h2, stats, DefaultRenoConfig())
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(1_000_000_000)
	if !stats.Done {
		t.Fatal("flow incomplete")
	}
	// Base RTT on this line at 1Gbps is ~30-40us; slow start fills the
	// 1MB buffer, so the smoothed estimate legitimately includes several
	// hundred microseconds of self-inflicted queueing (bufferbloat), but
	// it must exceed the base RTT and stay below the buffer-drain bound
	// (~1MB at 1Gbps = 8ms).
	if r.srtt < 25_000 || r.srtt > 8_000_000 {
		t.Fatalf("srtt %.0fns implausible", r.srtt)
	}
	if float64(r.core.rto) < r.srtt {
		t.Fatalf("rto %d below srtt %.0f", r.core.rto, r.srtt)
	}
}

func TestSenderCoreWindowCap(t *testing.T) {
	// HPCC's window clamp: utilization far above eta collapses W toward
	// the minimum; far below grows it toward the cap.
	_, net, h1, h2 := testNet(t, 1<<20)
	cfg := DefaultHPCCConfig(1_000_000_000, 35_000)
	cfg.Mode = FeedbackPINT
	cfg.PintBits = 8
	cfg.DecodeU = func(uint64) float64 { return 0 }
	h, err := StartHPCC(net, h1, h2, &FlowStats{ID: 9, Bytes: 1000}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		h.updateWindow(3.0, int64(i+1)) // heavy overload
	}
	if h.w > h.bdp {
		t.Fatalf("window %v not collapsed under overload", h.w)
	}
	for i := 0; i < 500; i++ {
		h.updateWindow(0.01, int64(100+i)) // idle network
	}
	if h.w > 8*h.bdp+1 {
		t.Fatalf("window %v exceeded the 8xBDP cap", h.w)
	}
	if h.w < float64(cfg.MTU) {
		t.Fatal("window below one segment")
	}
}

package netsim

import (
	"sort"
	"testing"

	"repro/internal/hash"
	"repro/internal/topology"
)

func TestSimEventOrdering(t *testing.T) {
	s := NewSim()
	var got []int
	s.At(30, func() { got = append(got, 3) })
	s.At(10, func() { got = append(got, 1) })
	s.At(20, func() { got = append(got, 2) })
	s.At(10, func() { got = append(got, 11) }) // same time: scheduling order
	if n := s.Run(100); n != 4 {
		t.Fatalf("ran %d events, want 4", n)
	}
	want := []int{1, 11, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
	if s.Now() != 100 {
		t.Fatalf("clock %d, want advanced to until=100", s.Now())
	}
}

// TestEventHeapTieOrder: events fire in (time, scheduling order), ties
// included, with many events per timestamp, events scheduled from inside
// a running event at its own time (after every event already due then)
// and slots reused across Run calls.
func TestEventHeapTieOrder(t *testing.T) {
	s := NewSim()
	rng := hash.NewRNG(17)
	type ev struct {
		t   int64
		seq int
	}
	var want, got []ev
	seq := 0
	schedule := func(at int64) {
		seq++
		e := ev{at, seq}
		want = append(want, e)
		s.At(at, func() {
			got = append(got, e)
			if e.seq%5 == 0 { // a follow-up due at the same time
				seq++
				f := ev{s.Now(), seq}
				want = append(want, f)
				s.At(s.Now(), func() { got = append(got, f) })
			}
		})
	}
	for round := 0; round < 3; round++ {
		base := s.Now()
		for i := 0; i < 400; i++ {
			schedule(base + int64(rng.Intn(8)))
		}
		s.Run(base + 100)
	}
	sort.SliceStable(want, func(i, j int) bool {
		if want[i].t != want[j].t {
			return want[i].t < want[j].t
		}
		return want[i].seq < want[j].seq
	})
	if len(got) != len(want) {
		t.Fatalf("%d events fired, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d: fired %+v, want %+v", i, got[i], want[i])
		}
	}
	if len(s.fns) > 480 {
		t.Fatalf("%d closure slots for at most ~480 pending events: fired slots are not reused", len(s.fns))
	}
}

// TestSimAtRunZeroAlloc pins scheduling and running at a steady event
// count at no allocation: keys are values in the heap's slice, closures
// reuse freed slots.
func TestSimAtRunZeroAlloc(t *testing.T) {
	s := NewSim()
	n := 0
	fn := func() { n++ }
	burst := func() {
		for i := 0; i < 64; i++ {
			s.At(s.Now()+int64(i%7), fn)
		}
		s.Run(s.Now() + 10)
	}
	burst()
	if allocs := testing.AllocsPerRun(100, burst); allocs != 0 {
		t.Fatalf("At+Run: %v allocations per 64 events, want 0", allocs)
	}
	if n != 64*102 {
		t.Fatalf("%d events fired, want %d", n, 64*102)
	}
}

func TestSimRunHorizon(t *testing.T) {
	s := NewSim()
	fired := false
	s.At(200, func() { fired = true })
	s.Run(100)
	if fired {
		t.Fatal("event beyond horizon fired")
	}
	if len(s.events) != 1 {
		t.Fatal("event lost")
	}
	s.Run(300)
	if !fired {
		t.Fatal("event not fired after extending horizon")
	}
}

func TestSimPastPanics(t *testing.T) {
	s := NewSim()
	s.At(50, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling into the past must panic")
			}
		}()
		s.At(10, func() {})
	})
	s.Run(100)
}

func TestSimNestedScheduling(t *testing.T) {
	s := NewSim()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 10 {
			s.After(5, tick)
		}
	}
	s.At(0, tick)
	s.Run(1000)
	if count != 10 {
		t.Fatalf("ticks = %d, want 10", count)
	}
}

// lineTopo builds host - sw1 - sw2 - host.
func lineTopo(t *testing.T) (*topology.Graph, int, int) {
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
	return g, h1, h2
}

func buildLine(t *testing.T) (*Sim, *Network, int, int) {
	t.Helper()
	g, h1, h2 := lineTopo(t)
	sim := NewSim()
	spec := LinkSpec{Bps: 1_000_000_000, PropNs: 1000, BufBytes: 100_000}
	net, err := Build(sim, g, BuildOptions{HostLink: spec, TierLink: spec, ValuesPerHop: 1})
	if err != nil {
		t.Fatal(err)
	}
	return sim, net, h1, h2
}

type captureEndpoint struct {
	pkts  []*Packet
	times []int64
	sim   *Sim
}

func (c *captureEndpoint) Deliver(p *Packet) {
	c.pkts = append(c.pkts, p)
	c.times = append(c.times, c.sim.Now())
}

func TestBuildValidation(t *testing.T) {
	g, _, _ := lineTopo(t)
	sim := NewSim()
	bad := LinkSpec{Bps: 0, PropNs: 1, BufBytes: 1}
	good := LinkSpec{Bps: 1e9, PropNs: 1, BufBytes: 1000}
	if _, err := Build(sim, g, BuildOptions{HostLink: bad, TierLink: good}); err == nil {
		t.Fatal("zero bandwidth must fail")
	}
	if _, err := Build(sim, g, BuildOptions{
		HostLink: LinkSpec{Bps: 1e9, PropNs: 1, BufBytes: 0},
		TierLink: good}); err == nil {
		t.Fatal("zero buffer must fail")
	}
}

func TestEndToEndLatency(t *testing.T) {
	sim, net, h1, h2 := buildLine(t)
	cap := &captureEndpoint{sim: sim}
	net.Host(h2).Attach(7, cap)
	pkt := &Packet{ID: 1, FlowID: 7, Src: h1, Dst: h2, PayloadLen: 960}
	net.Host(h1).Send(pkt)
	sim.Run(10_000_000)
	if len(cap.pkts) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(cap.pkts))
	}
	// Wire size 1000B. 3 serializations at 1Gbps (8000ns each) + 3 props
	// (1000ns each) = 27000ns.
	if got := cap.times[0]; got != 27000 {
		t.Fatalf("delivery at %dns, want 27000", got)
	}
	if cap.pkts[0].Hops != 2 {
		t.Fatalf("hop count %d, want 2 switches", cap.pkts[0].Hops)
	}
}

func TestOverheadSlowsDelivery(t *testing.T) {
	// The §2 mechanism: extra telemetry bytes add serialization time at
	// every hop.
	deliveryAt := func(extra int) int64 {
		sim, net, h1, h2 := buildLine(t)
		cap := &captureEndpoint{sim: sim}
		net.Host(h2).Attach(7, cap)
		net.Host(h1).Send(&Packet{ID: 1, FlowID: 7, Src: h1, Dst: h2,
			PayloadLen: 960, ExtraBytes: extra})
		sim.Run(10_000_000)
		if len(cap.pkts) != 1 {
			t.Fatal("packet lost")
		}
		return cap.times[0]
	}
	base := deliveryAt(0)
	loaded := deliveryAt(48)
	// 48B × 8 bits / 1Gbps = 384ns per hop × 3 hops = 1152ns.
	if loaded-base != 1152 {
		t.Fatalf("48B overhead added %dns, want 1152", loaded-base)
	}
}

func TestQueueingDelay(t *testing.T) {
	sim, net, h1, h2 := buildLine(t)
	cap := &captureEndpoint{sim: sim}
	net.Host(h2).Attach(7, cap)
	for i := 0; i < 3; i++ {
		net.Host(h1).Send(&Packet{ID: uint64(i), FlowID: 7, Src: h1, Dst: h2, PayloadLen: 960})
	}
	sim.Run(10_000_000)
	if len(cap.pkts) != 3 {
		t.Fatalf("delivered %d, want 3", len(cap.pkts))
	}
	// Pipeline: successive packets separated by exactly one serialization
	// time (8000ns) once the pipe fills.
	if d := cap.times[1] - cap.times[0]; d != 8000 {
		t.Fatalf("spacing %dns, want 8000", d)
	}
	if d := cap.times[2] - cap.times[1]; d != 8000 {
		t.Fatalf("spacing %dns, want 8000", d)
	}
}

func TestTailDrop(t *testing.T) {
	g, h1, h2 := lineTopo(t)
	sim := NewSim()
	// Tiny buffers: 2500B (~2 packets of 1000B).
	spec := LinkSpec{Bps: 1_000_000_000, PropNs: 100, BufBytes: 2500}
	net, err := Build(sim, g, BuildOptions{HostLink: spec, TierLink: spec})
	if err != nil {
		t.Fatal(err)
	}
	cap := &captureEndpoint{sim: sim}
	net.Host(h2).Attach(7, cap)
	for i := 0; i < 10; i++ {
		net.Host(h1).Send(&Packet{ID: uint64(i), FlowID: 7, Src: h1, Dst: h2, PayloadLen: 960})
	}
	sim.Run(100_000_000)
	if net.Drops == 0 {
		t.Fatal("no drops despite 10 packets into a 2-packet buffer")
	}
	if len(cap.pkts)+net.Drops != 10 {
		t.Fatalf("delivered %d + dropped %d != 10", len(cap.pkts), net.Drops)
	}
}

func TestDequeueHookPerHop(t *testing.T) {
	sim, net, h1, h2 := buildLine(t)
	var hookSwitches []int
	var taus []int64
	net.OnDequeue = func(_ *Network, sw *SwitchNode, _ *Port, pkt *Packet, qlen int, tau, _ int64) {
		hookSwitches = append(hookSwitches, sw.ID)
		taus = append(taus, tau)
		if qlen < 0 {
			t.Error("negative qlen")
		}
	}
	cap := &captureEndpoint{sim: sim}
	net.Host(h2).Attach(7, cap)
	net.Host(h1).Send(&Packet{ID: 1, FlowID: 7, Src: h1, Dst: h2, PayloadLen: 960})
	sim.Run(10_000_000)
	if len(hookSwitches) != 2 {
		t.Fatalf("hook fired %d times, want 2 (one per switch)", len(hookSwitches))
	}
	if hookSwitches[0] == hookSwitches[1] {
		t.Fatal("hook must fire at distinct switches")
	}
}

func TestHopLatencyHook(t *testing.T) {
	sim, net, h1, h2 := buildLine(t)
	var lats []int64
	net.OnHopLatency = func(_ *SwitchNode, _ *Packet, l int64) { lats = append(lats, l) }
	cap := &captureEndpoint{sim: sim}
	net.Host(h2).Attach(7, cap)
	net.Host(h1).Send(&Packet{ID: 1, FlowID: 7, Src: h1, Dst: h2, PayloadLen: 960})
	sim.Run(10_000_000)
	if len(lats) != 2 {
		t.Fatalf("got %d hop latencies, want 2", len(lats))
	}
	// Uncongested switch residency = serialization time = 8000ns.
	for _, l := range lats {
		if l != 8000 {
			t.Fatalf("hop latency %dns, want 8000", l)
		}
	}
}

func TestUnknownFlowDropped(t *testing.T) {
	sim, net, h1, h2 := buildLine(t)
	net.Host(h1).Send(&Packet{ID: 1, FlowID: 99, Src: h1, Dst: h2, PayloadLen: 100})
	sim.Run(10_000_000)
	if net.Delivered != 0 || net.Drops != 1 {
		t.Fatalf("delivered=%d drops=%d, want 0/1", net.Delivered, net.Drops)
	}
}

func TestDetach(t *testing.T) {
	sim, net, h1, h2 := buildLine(t)
	cap := &captureEndpoint{sim: sim}
	net.Host(h2).Attach(7, cap)
	net.Host(h2).Detach(7)
	net.Host(h1).Send(&Packet{ID: 1, FlowID: 7, Src: h1, Dst: h2, PayloadLen: 100})
	sim.Run(10_000_000)
	if len(cap.pkts) != 0 {
		t.Fatal("detached endpoint still received packets")
	}
}

func TestECMPFlowsSpread(t *testing.T) {
	// Two equal-cost middle switches: different flows should use both.
	g := topology.NewGraph("diamond")
	h1 := g.AddNode(topology.Host, "h1")
	in := g.AddNode(topology.Switch, "in")
	m1 := g.AddNode(topology.Switch, "m1")
	m2 := g.AddNode(topology.Switch, "m2")
	out := g.AddNode(topology.Switch, "out")
	h2 := g.AddNode(topology.Host, "h2")
	for _, e := range [][2]int{{h1, in}, {in, m1}, {in, m2}, {m1, out}, {m2, out}, {out, h2}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	sim := NewSim()
	spec := LinkSpec{Bps: 1e9, PropNs: 100, BufBytes: 1e6}
	net, err := Build(sim, g, BuildOptions{HostLink: spec, TierLink: spec})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	net.OnDequeue = func(_ *Network, sw *SwitchNode, _ *Port, _ *Packet, _ int, _, _ int64) {
		if sw.ID == m1 || sw.ID == m2 {
			seen[sw.ID] = true
		}
	}
	cap := &captureEndpoint{sim: sim}
	for f := uint64(1); f <= 32; f++ {
		net.Host(h2).Attach(f, cap)
		net.Host(h1).Send(&Packet{ID: f, FlowID: f, Src: h1, Dst: h2, PayloadLen: 100})
	}
	sim.Run(100_000_000)
	if !seen[m1] || !seen[m2] {
		t.Fatalf("ECMP used only one path across 32 flows: %v", seen)
	}
}

func TestWireSizeAccounting(t *testing.T) {
	p := &Packet{PayloadLen: 1000}
	if got := p.WireSize(3); got != 1040 {
		t.Fatalf("plain packet wire size %d, want 1040", got)
	}
	p.INT = []HopINT{{}, {}} // 2 hops × 3 values × 4B + 8B header = 32
	if got := p.WireSize(3); got != 1072 {
		t.Fatalf("INT packet wire size %d, want 1072", got)
	}
	p.INT = nil
	p.DigestBits = 16
	if got := p.WireSize(3); got != 1042 {
		t.Fatalf("PINT packet wire size %d, want 1042", got)
	}
	p.DigestBits = 1 // sub-byte budgets round up to one byte on the wire
	if got := p.WireSize(3); got != 1041 {
		t.Fatalf("1-bit PINT wire size %d, want 1041", got)
	}
	p.ExtraBytes = 48
	if got := p.WireSize(3); got != 1089 {
		t.Fatalf("overhead sweep wire size %d, want 1089", got)
	}
}

func TestINTBytes(t *testing.T) {
	if INTBytes(0, 3) != 0 {
		t.Fatal("no hops, no bytes")
	}
	// §2: 5 hops, 1 value per hop = 8 + 20 = 28B, the paper's minimum.
	if got := INTBytes(5, 1); got != 28 {
		t.Fatalf("5 hops × 1 value = %d, want 28", got)
	}
	// §2: HPCC's 3 values over 5 hops: 8 + 60 = 68B.
	if got := INTBytes(5, 3); got != 68 {
		t.Fatalf("5 hops × 3 values = %d, want 68", got)
	}
}

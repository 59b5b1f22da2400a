package collector

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/coding"
	"repro/internal/core"
	"repro/internal/hash"
	"repro/internal/topology"
)

// Testbench is the canonical loopback deployment plan: the query set,
// compiled engine, and deterministic traffic model that cmd/pintd,
// cmd/pintload, cmd/pintbench and the collector tests share. Daemon and load
// generator each construct it independently from the same (seed, k) and
// arrive at the same engine — the handshake's PlanHash check then proves
// it on the wire, exactly how a switch fleet and its collector coordinate
// implicitly from shared configuration (§4.1).
type Testbench struct {
	// K is the hop count of every generated flow.
	K int
	// Seed is the master knob; everything derives from it.
	Seed uint64
	// PathQ and LatQ are the two queries of the plan: path tracing at
	// 2×4 bits and 8-bit latency, sharing a 16-bit budget.
	PathQ *core.PathQuery
	LatQ  *core.LatencyQuery
	// Engine is the compiled plan.
	Engine *core.Engine
	// Base is zero and read by nothing: a Recording takes no seed.
	//
	// Deprecated: do not read it. It goes with ROADMAP item 10, the
	// benchmark harness's unfreeze, which removes its last reader.
	Base hash.Seed
	// Tenant, when non-empty, labels every session the testbench's
	// streaming helpers open (pintload -tenant): the Hello carries it and
	// the collector accounts the traffic under that QoS tenant. Empty
	// is the default tenant.
	Tenant string
	// Fetch, when non-nil, is the fleet-roster fetch the streaming
	// helpers pass to Connect (WithRosterFetch), so their sessions follow
	// a live fleet resize instead of ending at the epoch fence (pintload
	// -gate sets it to GET the frontend's /fleetmap).
	Fetch func() (FleetRoster, error)
	// universe is the fat-tree switch-ID space the flows walk.
	universe []uint64
}

// NewTestbench builds the testbench at a seed. k is the flow hop count,
// within the path lengths the wire carries.
func NewTestbench(seed uint64, k int) (*Testbench, error) {
	if k < 1 || k > coding.MaxPathLen {
		return nil, fmt.Errorf("collector: testbench hop count %d out of [1,%d]", k, coding.MaxPathLen)
	}
	g, err := topology.FatTree(8)
	if err != nil {
		return nil, err
	}
	master := hash.Seed(seed).Derive(0xC011EC7)
	cfg, err := core.DefaultPathConfig(4, 2, 5)
	if err != nil {
		return nil, err
	}
	pathQ, err := core.NewPathQuery("path", cfg, 1, master, g.SwitchIDUniverse())
	if err != nil {
		return nil, err
	}
	latQ, err := core.NewLatencyQuery("lat", 8, 0.04, 15.0/16, master)
	if err != nil {
		return nil, err
	}
	eng, err := core.Compile([]core.Query{pathQ, latQ}, 16, master.Derive(1))
	if err != nil {
		return nil, err
	}
	return &Testbench{
		K:        k,
		Seed:     seed,
		PathQ:    pathQ,
		LatQ:     latQ,
		Engine:   eng,
		universe: g.SwitchIDUniverse(),
	}, nil
}

// Queries returns the plan's queries in answer order.
func (tb *Testbench) Queries() []core.Query {
	return []core.Query{tb.PathQ, tb.LatQ}
}

// FlowKeyFor names exporter exp's flow f: the exporter ID rides in the
// high 32 bits, so every exporter owns a disjoint flow space.
func (tb *Testbench) FlowKeyFor(exp uint64, f int) core.FlowKey {
	return core.FlowKey(exp<<32 | (uint64(f) + 1))
}

// flowPath derives exporter exp flow f's k-switch path from the fat-tree
// universe — a pure function of the testbench seed.
func (tb *Testbench) flowPath(exp uint64, f int, path []uint64) []uint64 {
	rng := hash.NewRNG(uint64(hash.Seed(tb.Seed).Derive(0x9A7).Hash2(exp, uint64(f))))
	path = path[:0]
	for hop := 0; hop < tb.K; hop++ {
		path = append(path, tb.universe[rng.Intn(len(tb.universe))])
	}
	return path
}

// FlowBatch generates flow (exp, f)'s complete digest stream: n packets
// walked through every hop of the flow's path by one Engine.EncodeHops
// call, with lognormal hop latencies. The result is a pure function of
// (testbench seed, exp, f, n), so a loopback exporter and an in-process
// reference produce bit-identical digests. pkts is reusable scratch (pass
// nil to allocate); the last argument is unused, as the k value columns
// live in a pool, and stays for the callers that still pass one.
//
// Every (packet, hop) draws its latency's two uniforms, but only a
// packet's reservoir winner (LatencyQuery.Winner) turns them into a
// lognormal: the latency slot keeps the last hop that writes it, so the
// codes the other hops would write never reach a digest. The others
// advance the stream as raw draws, a zero top 53 bits drawn again exactly
// as RNG.NormUniforms does, and their latency column holds 0. The hop
// loop keeps only the winner's two draws; a second pass over the packets
// evaluates each lognormal, so the hop loop carries no math.Exp.
func (tb *Testbench) FlowBatch(exp uint64, f, n int, pkts []core.PacketDigest, _ []core.HopValues) []core.PacketDigest {
	if cap(pkts) < n {
		pkts = make([]core.PacketDigest, n)
	}
	pkts = pkts[:n]
	flow := tb.FlowKeyFor(exp, f)
	rng := hash.NewRNG(uint64(hash.Seed(tb.Seed).Derive(0x7AF).Hash2(exp, uint64(f))))
	// win[j] is packet j's winning hop (k <= coding.MaxPathLen fits a
	// byte). pintbench's flows of 256 and 500 packets and pintload's
	// default of 1,000 fit the stack.
	var winBuf [1024]uint8
	win := winBuf[:]
	if n > len(win) {
		win = make([]uint8, n)
	}
	for j := range pkts {
		id := rng.Uint64()
		pkts[j] = core.PacketDigest{Flow: flow, PktID: id, PathLen: tb.K}
		win[j] = uint8(tb.LatQ.Winner(id, tb.K))
	}
	path := tb.flowPath(exp, f, make([]uint64, 0, coding.MaxPathLen))
	hv := hopValuesPool.Get().(*hopValues)
	cols, u := hv.columns(tb.K, n)
	for hop, col := range cols {
		sw := path[hop]
		for j := range col {
			u1 := rng.Uint64()
			for u1>>11 == 0 {
				u1 = rng.Uint64()
			}
			u2 := rng.Uint64()
			if int(win[j]) == hop+1 {
				u[2*j], u[2*j+1] = u1, u2
			}
			col[j] = core.HopValues{SwitchID: sw}
		}
	}
	mu := math.Log(8000)
	for j, w := range win[:n] {
		cols[w-1][j].LatencyNs = uint64(math.Exp(mu + 0.25*hash.BoxMuller(hash.Unit(u[2*j]), hash.Unit(u[2*j+1]))))
	}
	tb.Engine.EncodeHops(1, pkts, cols)
	hopValuesPool.Put(hv)
	return pkts
}

// hopValues is FlowBatch's pooled scratch: k value columns of n each, cut
// from one buffer, and each packet's winning pair of uniforms.
type hopValues struct {
	buf  []core.HopValues
	cols [][]core.HopValues
	u    []uint64
}

var hopValuesPool = sync.Pool{New: func() any { return new(hopValues) }}

func (hv *hopValues) columns(k, n int) ([][]core.HopValues, []uint64) {
	if cap(hv.buf) < k*n {
		hv.buf = make([]core.HopValues, k*n)
	}
	if cap(hv.u) < 2*n {
		hv.u = make([]uint64, 2*n)
	}
	hv.cols = hv.cols[:0]
	for h := 0; h < k; h++ {
		hv.cols = append(hv.cols, hv.buf[h*n:(h+1)*n:(h+1)*n])
	}
	return hv.cols, hv.u[:2*n]
}

// ValidateShape sanity-checks the deployment shape the streaming helpers
// take from pintload's flags.
func ValidateShape(nExporters, flowsPer, pktsPer int) error {
	switch {
	case nExporters < 1 || nExporters > 1<<16:
		return fmt.Errorf("collector: exporter count %d out of [1,%d]", nExporters, 1<<16)
	case flowsPer < 1 || flowsPer > 1<<20:
		return fmt.Errorf("collector: flows/exporter %d out of [1,%d]", flowsPer, 1<<20)
	case pktsPer < 1 || pktsPer > 1<<24:
		return fmt.Errorf("collector: packets/flow %d out of [1,%d]", pktsPer, 1<<24)
	}
	return nil
}

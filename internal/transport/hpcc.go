package transport

import (
	"fmt"

	"repro/internal/netsim"
)

// FeedbackMode selects how an HPCC sender obtains link state.
type FeedbackMode int

const (
	// FeedbackINT uses the classic per-hop INT stack: the sender computes
	// each link's normalized inflight from (txBytes, qlen, ts) deltas and
	// reacts to the maximum (the HPCC paper's algorithm).
	FeedbackINT FeedbackMode = iota
	// FeedbackPINT uses PINT's per-packet aggregation: the digest carries
	// only the compressed bottleneck utilization computed by switch-side
	// EWMAs (§4.3, Example #3).
	FeedbackPINT
)

// QueryHPCC is the DigestQuery tag marking packets that carry the HPCC
// congestion-control digest.
const QueryHPCC = 1

// HPCCConfig parameterizes an HPCC sender.
type HPCCConfig struct {
	MTU       int
	BaseRTTNs int64   // T: network base RTT
	Eta       float64 // target utilization (paper: 0.95)
	WAIBytes  float64 // additive increase per update (paper: 80B at 100G)
	MaxStage  int     // paper: 0
	HostBps   int64   // access rate, sets the initial window to one BDP
	InitRTO   int64

	Mode FeedbackMode
	// PINT-specific: width of the whole digest on the wire (global
	// budget), the p-fraction selector, and the utilization decoder.
	PintBits  int
	SelectPkt func(pktID uint64) bool   // nil = every packet
	DecodeU   func(code uint64) float64 // required for FeedbackPINT (unless ExtractU set)
	// ExtractU, when set, replaces the EchoQuery/DecodeU path: given the
	// echoed data-packet ID and full digest it returns the bottleneck
	// utilization and whether this packet carried the HPCC query — how a
	// multi-query execution plan (§6.4) feeds the sender.
	ExtractU func(pktID, digest uint64) (float64, bool)
}

// DefaultHPCCConfig returns the paper's recommended settings scaled to a
// host rate.
func DefaultHPCCConfig(hostBps int64, baseRTTNs int64) HPCCConfig {
	return HPCCConfig{
		MTU:       960,
		BaseRTTNs: baseRTTNs,
		Eta:       0.95,
		// The paper uses WAI=80B at 100Gbps with 12.4us RTT; scale the
		// additive increase with BDP so fairness convergence speed is
		// comparable at bench-scale rates.
		WAIBytes: 80 * float64(hostBps) / 100e9 * float64(baseRTTNs) / 12400,
		MaxStage: 0,
		HostBps:  hostBps,
		InitRTO:  8 * baseRTTNs,
	}
}

// HPCC is the window-based HPCC sender.
type HPCC struct {
	core *senderCore
	cfg  HPCCConfig

	w             float64 // current window, bytes
	wc            float64 // reference window, bytes
	incStage      int
	lastUpdateSeq int64

	prevINT []netsim.HopINT
	bdp     float64
	// LastU exposes the most recent utilization estimate (tests, traces).
	LastU float64
}

// StartHPCC creates an HPCC sender/receiver pair for a flow and begins
// transmission now.
func StartHPCC(net *netsim.Network, src, dst int, stats *FlowStats, cfg HPCCConfig) (*HPCC, error) {
	if err := validateFlow(stats.Bytes, cfg.MTU); err != nil {
		return nil, err
	}
	if cfg.Eta <= 0 || cfg.Eta > 1 {
		return nil, fmt.Errorf("transport: eta %v out of (0,1]", cfg.Eta)
	}
	if cfg.Mode == FeedbackPINT && cfg.DecodeU == nil && cfg.ExtractU == nil {
		return nil, fmt.Errorf("transport: PINT feedback requires DecodeU or ExtractU")
	}
	h := &HPCC{cfg: cfg}
	h.bdp = float64(cfg.HostBps) / 8 * float64(cfg.BaseRTTNs) / 1e9
	h.w = h.bdp
	h.wc = h.bdp
	core := &senderCore{
		net:    net,
		host:   net.Host(src),
		flowID: stats.ID,
		dst:    dst,
		size:   stats.Bytes,
		mtu:    cfg.MTU,
		rto:    cfg.InitRTO,
		stats:  stats,
	}
	core.window = func() int64 { return int64(h.w) }
	core.onTimeout = func() {
		// HPCC has no loss-driven control; on the rare timeout fall back
		// to a conservative one-BDP window.
		h.w = max2(h.bdp/8, float64(cfg.MTU))
		h.wc = h.w
	}
	core.decorate = func(pkt *netsim.Packet) {
		switch cfg.Mode {
		case FeedbackINT:
			// Mark the packet as INT-carrying; switches append HopINT
			// records via the dequeue hook. Seed with capacity so appends
			// don't reallocate per hop.
			pkt.INT = make([]netsim.HopINT, 0, 8)
		case FeedbackPINT:
			pkt.DigestBits = cfg.PintBits
			if cfg.SelectPkt == nil || cfg.SelectPkt(pkt.ID) {
				pkt.DigestQuery = QueryHPCC
			}
		}
	}
	core.onDone = func() {
		net.Host(src).Detach(stats.ID)
		net.Host(dst).Detach(stats.ID)
	}
	h.core = core

	recv := newReceiver(net, net.Host(dst), stats.ID, src)
	net.Host(dst).Attach(stats.ID, recv)
	net.Host(src).Attach(stats.ID, h)
	core.pump()
	return h, nil
}

// Deliver implements netsim.Endpoint for ACKs at the sender.
func (h *HPCC) Deliver(pkt *netsim.Packet) {
	if !pkt.Ack || h.core.done {
		return
	}
	ackSeq := pkt.AckSeq
	switch h.cfg.Mode {
	case FeedbackINT:
		if len(pkt.EchoINT) > 0 {
			if u, ok := h.utilizationFromINT(pkt.EchoINT); ok {
				h.LastU = u
				h.updateWindow(u, ackSeq)
			}
			h.prevINT = append(h.prevINT[:0], pkt.EchoINT...)
		}
	case FeedbackPINT:
		if h.cfg.ExtractU != nil {
			if u, ok := h.cfg.ExtractU(pkt.EchoPktID, pkt.EchoDigest); ok {
				h.LastU = u
				h.updateWindow(u, ackSeq)
			}
		} else if pkt.EchoQuery == QueryHPCC {
			u := h.cfg.DecodeU(pkt.EchoDigest)
			h.LastU = u
			h.updateWindow(u, ackSeq)
		}
	}
	h.core.ackAdvance(ackSeq)
	h.core.armTimer()
	h.core.pump()
}

// utilizationFromINT computes U = max_j u_j from consecutive INT samples,
// following HPCC [46]: u_j = qlen/(B·T) + txRate/B.
func (h *HPCC) utilizationFromINT(cur []netsim.HopINT) (float64, bool) {
	if len(h.prevINT) != len(cur) {
		return 0, false // path changed or first sample: no deltas yet
	}
	tSec := float64(h.cfg.BaseRTTNs) / 1e9
	maxU := 0.0
	for j := range cur {
		if cur[j].SwitchID != h.prevINT[j].SwitchID {
			return 0, false
		}
		b := float64(cur[j].RateBps)
		qTerm := float64(minInt(cur[j].Qlen, h.prevINT[j].Qlen)) * 8 / (b * tSec)
		u := qTerm
		dt := float64(cur[j].TsNs - h.prevINT[j].TsNs)
		if dt > 0 {
			txRate := float64(cur[j].TxBytes-h.prevINT[j].TxBytes) * 8 / dt * 1e9
			u += txRate / b
		}
		if u > maxU {
			maxU = u
		}
	}
	return maxU, true
}

// updateWindow is HPCC's reaction (Algorithm 1 of [46]) with the
// reference-window mechanism: multiplicative adjustment toward eta when
// over-utilized or out of additive stages, additive otherwise; the
// reference W_c advances at most once per RTT (once per window of data).
func (h *HPCC) updateWindow(u float64, ackSeq int64) {
	if u < 0.01 {
		u = 0.01
	}
	if u >= h.cfg.Eta || h.incStage >= h.cfg.MaxStage {
		h.w = h.wc/(u/h.cfg.Eta) + h.cfg.WAIBytes
		if ackSeq > h.lastUpdateSeq {
			h.incStage = 0
			h.wc = h.w
			h.lastUpdateSeq = h.core.sndNxt
		}
	} else {
		h.w = h.wc + h.cfg.WAIBytes
		if ackSeq > h.lastUpdateSeq {
			h.incStage++
			h.wc = h.w
			h.lastUpdateSeq = h.core.sndNxt
		}
	}
	// Clamp: at least one segment, at most 8 BDP.
	if h.w < float64(h.cfg.MTU) {
		h.w = float64(h.cfg.MTU)
	}
	if wMax := 8 * h.bdp; h.w > wMax {
		h.w = wMax
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

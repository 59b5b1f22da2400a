package transport

import (
	"repro/internal/netsim"
)

// RenoConfig parameterizes the Reno-like sender.
type RenoConfig struct {
	MTU        int   // payload bytes per segment (default 960 → 1000B wire)
	InitRTO    int64 // initial retransmission timeout, ns
	MinCwnd    int   // floor in segments (1)
	InitCwnd   int   // initial window in segments (10, RFC 6928 spirit)
	ExtraBytes int   // fixed synthetic per-packet overhead (Fig 1/2 sweep)
}

// DefaultRenoConfig returns sane defaults for the scaled-down simulations.
func DefaultRenoConfig() RenoConfig {
	return RenoConfig{MTU: 960, InitRTO: 2_000_000, MinCwnd: 1, InitCwnd: 10}
}

// Reno is a TCP-Reno-like sender: slow start to ssthresh, then additive
// increase; triple-dupACK fast retransmit with multiplicative decrease;
// timeout collapses to one segment. It is deliberately simplified (no
// SACK, no fast-recovery inflation) — the Fig 1/2 experiments measure how
// header overhead erodes goodput and inflates FCT, which depends on the
// AIMD envelope, not on recovery minutiae.
type Reno struct {
	core *senderCore
	cfg  RenoConfig

	cwnd     float64 // segments
	ssthresh float64
	dupacks  int

	srtt   float64
	rttvar float64
}

// StartReno creates sender and receiver endpoints for a flow and begins
// transmission now. stats must be a fresh FlowStats with ID/Bytes/StartNs
// filled by the caller.
func StartReno(net *netsim.Network, src, dst int, stats *FlowStats, cfg RenoConfig) (*Reno, error) {
	if err := validateFlow(stats.Bytes, cfg.MTU); err != nil {
		return nil, err
	}
	r := &Reno{
		cfg:      cfg,
		cwnd:     float64(cfg.InitCwnd),
		ssthresh: 1 << 30,
	}
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
	core.window = func() int64 { return int64(r.cwnd * float64(cfg.MTU)) }
	core.onTimeout = func() {
		r.ssthresh = max2(r.cwnd/2, float64(cfg.MinCwnd))
		r.cwnd = float64(cfg.MinCwnd)
		r.dupacks = 0
	}
	core.decorate = func(pkt *netsim.Packet) { pkt.ExtraBytes = cfg.ExtraBytes }
	core.onDone = func() {
		net.Host(src).Detach(stats.ID)
		net.Host(dst).Detach(stats.ID)
	}
	r.core = core

	recv := newReceiver(net, net.Host(dst), stats.ID, src)
	net.Host(dst).Attach(stats.ID, recv)
	net.Host(src).Attach(stats.ID, r)
	core.pump()
	return r, nil
}

// Deliver implements netsim.Endpoint for ACKs arriving at the sender.
func (r *Reno) Deliver(pkt *netsim.Packet) {
	if !pkt.Ack || r.core.done {
		return
	}
	now := r.core.net.Sim.Now()
	if pkt.EchoSentNs > 0 {
		r.updateRTT(float64(now - pkt.EchoSentNs))
	}
	newly := r.core.ackAdvance(pkt.AckSeq)
	if newly > 0 {
		r.dupacks = 0
		segs := float64(newly) / float64(r.cfg.MTU)
		if r.cwnd < r.ssthresh {
			r.cwnd += segs // slow start
		} else {
			r.cwnd += segs / r.cwnd // congestion avoidance
		}
		r.core.armTimer()
		r.core.pump()
		return
	}
	// Duplicate ACK.
	r.dupacks++
	if r.dupacks == 3 {
		r.core.stats.Retransmits++
		r.ssthresh = max2(r.cwnd/2, float64(r.cfg.MinCwnd))
		r.cwnd = r.ssthresh
		r.core.sendSegment(r.core.sndUna)
		r.core.armTimer()
	}
}

func (r *Reno) updateRTT(sample float64) {
	if r.srtt == 0 {
		r.srtt = sample
		r.rttvar = sample / 2
	} else {
		delta := sample - r.srtt
		if delta < 0 {
			delta = -delta
		}
		r.rttvar = 0.75*r.rttvar + 0.25*delta
		r.srtt = 0.875*r.srtt + 0.125*sample
	}
	rto := int64(r.srtt + 4*r.rttvar)
	if rto < r.cfg.InitRTO/4 {
		rto = r.cfg.InitRTO / 4
	}
	r.core.rto = rto
}

func max2(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

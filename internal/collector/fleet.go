package collector

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/wire"
)

// This file is the exporter side of a federated collector fleet: one
// logical switch session fanned out over N collector daemons, each digest
// routed to its flow's home collector so per-flow decode state never
// splits across nodes. Membership, routing and epoch come from one
// FleetRoster (the fleet map lives in internal/federation, which builds
// on this package), keeping the dependency arrow pointing one way.

// FleetExporter streams digest batches to a fleet of collectors, routing
// every packet to its flow's home node. It owns one Exporter session per
// fleet member, all opened with the same Hello (exporter ID, plan hash,
// and — critically — the roster's epoch; a member on a different epoch
// refuses the whole fleet session). Like Exporter it is single-goroutine.
type FleetExporter struct {
	// roster says where the sessions go: member addresses, the flow→member
	// routing, and the epoch the handshakes carry (rehome replaces it).
	roster FleetRoster
	exps   []*Exporter
	// bufs holds the routed packets not yet handed to a session, one
	// buffer per member.
	bufs  [][]core.PacketDigest
	batch int
	// hello is the template every member session handshakes with; dialAll
	// stamps the roster's epoch on it.
	hello    wire.Hello
	coalesce int
	// closedPackets and closedBytes total what earlier session
	// generations sent (see closeSessions).
	closedPackets, closedBytes uint64
	// err is the failed rehome that left the exporter without sessions.
	// It is sticky: bufs may still hold packets no session will ever
	// take, so Send, Flush, Poke and Close all keep returning it.
	err error
	// fetch, when non-nil, enables live re-routing across fleet resizes
	// (see Connect's WithRosterFetch). gen counts session generations
	// (dialAll bumps it); nudgedGen latches the generation a collector's
	// reroute signal arrived at. A nudge only triggers a rehome while its
	// generation is still live — each exporter holds one session per
	// member and the fence nudges all of them, so late duplicates from an
	// already-replaced generation must not re-route the new sessions.
	fetch     func() (FleetRoster, error)
	gen       atomic.Uint64
	nudgedGen atomic.Uint64
	// patience is how long a reroute polls fetch for a newer map:
	// rerouteDeadline, except in tests of a fetch that never delivers.
	patience time.Duration
}

// Send routes every packet of batch to its flow's home member, framing
// and transmitting each member's buffer whenever it fills. Packet order
// is preserved per flow (a flow has exactly one home and one TCP stream),
// which is all the recording tier's determinism needs.
func (f *FleetExporter) Send(batch []core.PacketDigest) error {
	if err := f.Poke(); err != nil {
		return err
	}
	for i := range batch {
		n := f.roster.FlowHome(batch[i].Flow)
		if n < 0 || n >= len(f.exps) {
			return fmt.Errorf("collector: route sent flow %v to member %d of %d", batch[i].Flow, n, len(f.exps))
		}
		f.bufs[n] = append(f.bufs[n], batch[i])
		if len(f.bufs[n]) >= f.batch {
			if err := f.exps[n].Send(f.bufs[n]); err != nil {
				return err
			}
			f.bufs[n] = f.bufs[n][:0]
		}
	}
	return nil
}

// Flush transmits every member's partial routing buffer, then drains
// each session's coalescing buffer, so everything routed so far is on
// the wire when Flush returns.
func (f *FleetExporter) Flush() error {
	if f.err != nil {
		return f.err
	}
	for n, ex := range f.exps {
		if len(f.bufs[n]) > 0 {
			if err := ex.Send(f.bufs[n]); err != nil {
				return err
			}
			f.bufs[n] = f.bufs[n][:0]
		}
		if err := ex.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// Packets returns the packets sent over every session this exporter has
// held, across rehomes.
func (f *FleetExporter) Packets() uint64 {
	n := f.closedPackets
	for _, ex := range f.exps {
		n += ex.Packets()
	}
	return n
}

// Bytes returns the wire bytes sent over every session this exporter has
// held, across rehomes.
func (f *FleetExporter) Bytes() uint64 {
	n := f.closedBytes
	for _, ex := range f.exps {
		n += ex.Bytes()
	}
	return n
}

// Close flushes the buffers and ends every member session, returning the
// first error — after a failed rehome, that failure: the packets it
// stranded were never delivered.
func (f *FleetExporter) Close() error {
	err := f.Flush()
	if cerr := f.closeSessions(); err == nil {
		err = cerr
	}
	return err
}

// ExporterLoad is one connection's contribution to a steady-state run:
// what it sent, and over how long, so callers can report per-connection
// and aggregate rates.
type ExporterLoad struct {
	Exporter uint64
	Packets  uint64
	Bytes    uint64
	Elapsed  time.Duration
}

// Mpkts returns the connection's packet rate in Mpkt/s.
func (l ExporterLoad) Mpkts() float64 {
	if l.Elapsed <= 0 {
		return 0
	}
	return float64(l.Packets) / l.Elapsed.Seconds() / 1e6
}

// stream is the exporter fan-out under the testbench's streaming helpers:
// one concurrent simulated switch per exporter, each with its own
// Connect session to roster (one per member, routed by the roster's
// FlowHome under its epoch, frames of batch packets). drive sends the
// exporter's traffic and returns when its clock started; stream flushes
// before reading the counters, so the returned loads (ordered by
// exporter ID) are exact.
func (tb *Testbench) stream(roster FleetRoster, nExporters, flowsPer, pktsPer, batch, coalesce int,
	drive func(exp uint64, fe *FleetExporter) (start time.Time, err error)) ([]ExporterLoad, error) {
	if err := ValidateShape(nExporters, flowsPer, pktsPer); err != nil {
		return nil, err
	}
	if batch < 1 || batch > pktsPer {
		batch = pktsPer
	}
	loads := make([]ExporterLoad, nExporters)
	expErrs := make([]error, nExporters)
	var wg sync.WaitGroup
	for e := 0; e < nExporters; e++ {
		wg.Add(1)
		go func(e int) {
			defer wg.Done()
			expErrs[e] = func() error {
				exp := uint64(e) + 1
				fe, err := Connect(tb.Engine, exp, fmt.Sprintf("load-%d", exp),
					WithFleetMap(roster), WithRosterFetch(tb.Fetch),
					WithTenant(tb.Tenant), WithFrameBatch(batch), WithCoalesce(coalesce))
				if err != nil {
					return err
				}
				start, err := drive(exp, fe)
				if err == nil {
					err = fe.Flush()
				}
				if err != nil {
					fe.Close()
					return err
				}
				loads[e] = ExporterLoad{
					Exporter: exp,
					Packets:  fe.Packets(),
					Bytes:    fe.Bytes(),
					Elapsed:  time.Since(start),
				}
				return fe.Close()
			}()
		}(e)
	}
	wg.Wait()
	for e, err := range expErrs {
		if err != nil {
			return loads, fmt.Errorf("collector: exporter %d: %w", e+1, err)
		}
	}
	return loads, nil
}

// StreamSteadyState drives nExporters connections at full rate for (at
// least) the given duration: each exporter pre-encodes its flows' digest
// batches once, then replays them over its fleet session until the
// deadline, so the timed loop measures the transmit + ingest path, not
// encoding. roster says where the sessions go, as for StreamDeployment;
// coalesce > 0 sets each session's write-coalescing threshold in bytes
// (see Exporter.SetCoalesce). Every exporter finishes its current sweep
// before stopping — the deadline is checked between frames.
func (tb *Testbench) StreamSteadyState(roster FleetRoster,
	nExporters, flowsPer, pktsPer, batch, coalesce int, duration time.Duration) ([]ExporterLoad, error) {
	deadline := time.Now().Add(duration)
	return tb.stream(roster, nExporters, flowsPer, pktsPer, batch, coalesce,
		func(exp uint64, fe *FleetExporter) (time.Time, error) {
			flows := make([][]core.PacketDigest, flowsPer)
			for f := 0; f < flowsPer; f++ {
				flows[f] = tb.FlowBatch(exp, f, pktsPer, nil, nil)
			}
			start := time.Now()
			for ok := true; ok; ok = time.Now().Before(deadline) {
				for _, pkts := range flows {
					if err := fe.Send(pkts); err != nil {
						return start, err
					}
				}
			}
			return start, nil
		})
}

// StreamDeployment streams the full (nExporters × flowsPer × pktsPer)
// testbench deployment to the collectors of roster: one concurrent
// exporter per simulated switch, each opening one session per member and
// routing every flow to its home under the roster's epoch, digests
// framed in chunks of batch packets. It returns the packet and wire-byte
// totals once every exporter has sent everything and closed.
// cmd/pintload is this function plus flags.
func (tb *Testbench) StreamDeployment(roster FleetRoster,
	nExporters, flowsPer, pktsPer, batch int) (packets, bytes uint64, err error) {
	loads, err := tb.stream(roster, nExporters, flowsPer, pktsPer, batch, 0,
		func(exp uint64, fe *FleetExporter) (time.Time, error) {
			start := time.Now()
			var pkts []core.PacketDigest
			for f := 0; f < flowsPer; f++ {
				pkts = tb.FlowBatch(exp, f, pktsPer, pkts, nil)
				if err := fe.Send(pkts); err != nil {
					return start, err
				}
			}
			return start, nil
		})
	for _, l := range loads {
		packets += l.Packets
		bytes += l.Bytes
	}
	return packets, bytes, err
}

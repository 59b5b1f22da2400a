package netsim

import (
	"fmt"

	"repro/internal/hash"
	"repro/internal/topology"
)

// LinkSpec describes one directed link's service characteristics.
type LinkSpec struct {
	Bps      int64 // bandwidth, bits per second
	PropNs   int64 // propagation delay
	BufBytes int   // egress queue capacity at the upstream side
}

// DequeueHook runs when a packet finishes serialization at a switch egress
// port — the place a P4 pipeline's egress stage executes INT/PINT encoders.
// The hook may mutate the packet's telemetry fields. qlen is the queue
// backlog (bytes) left behind, tauNs the time since this port's previous
// dequeue completion (HPCC's τ), and hopLatNs the packet's residence time
// at this switch (queueing + serialization — the value a latency query
// samples).
type DequeueHook func(net *Network, sw *SwitchNode, port *Port, pkt *Packet, qlen int, tauNs, hopLatNs int64)

// HopLatencyHook observes each packet's per-switch residence time
// (queueing + serialization) — ground truth for the latency-quantile
// experiments (Fig 9).
type HopLatencyHook func(sw *SwitchNode, pkt *Packet, latencyNs int64)

// Endpoint receives packets addressed to a (host, flow) pair; transports
// implement it for both sender and receiver sides.
type Endpoint interface {
	Deliver(pkt *Packet)
}

// Network instantiates a topology.Graph as simulated nodes and ports.
type Network struct {
	Sim   *Sim
	Graph *topology.Graph
	// ValuesPerHop is the INT values-per-hop count used for overhead
	// accounting on every packet (HPCC needs 3; path tracing 1).
	ValuesPerHop int

	nodes        []nodeRef
	OnDequeue    DequeueHook
	OnHopLatency HopLatencyHook
	// OnDeliver observes every packet arriving at a host, before endpoint
	// dispatch — where a PINT Sink's Recording Module taps the digests.
	OnDeliver func(h *HostNode, pkt *Packet)

	// Drops counts tail drops network-wide.
	Drops int
	// Delivered counts packets handed to endpoints.
	Delivered int
	pktSeq    uint64
}

type nodeRef struct {
	sw   *SwitchNode
	host *HostNode
}

// Port is a directed egress attachment from a node to a neighbor.
type Port struct {
	Spec      LinkSpec
	DstNode   int
	queue     []*Packet
	qBytes    int
	busy      bool
	TxBytes   uint64
	Drops     int
	LastDeqNs int64
	// U is scratch state for a PINT-style switch-resident EWMA (per-link
	// utilization, §4.3); owned by whatever hook the experiment installs.
	U float64
}

// SwitchNode is a store-and-forward switch with per-destination ECMP
// routing and per-port FIFO queues.
type SwitchNode struct {
	ID    int
	Net   *Network
	Ports []*Port
	// portByNeighbor maps neighbor node ID -> index into Ports.
	portByNeighbor map[int]int
	// nextHops[dst] lists the equal-cost neighbor choices toward dst.
	nextHops map[int][]int
}

// HostNode sources and sinks packets through a single access port.
type HostNode struct {
	ID        int
	Net       *Network
	Port      *Port
	endpoints map[uint64]Endpoint
}

// BuildOptions configures network instantiation.
type BuildOptions struct {
	// HostLink applies to host<->switch links, TierLink to switch<->switch.
	HostLink LinkSpec
	TierLink LinkSpec
	// ValuesPerHop for INT overhead accounting (see Network).
	ValuesPerHop int
}

// Build wires a Network over a topology graph.
func Build(sim *Sim, g *topology.Graph, opt BuildOptions) (*Network, error) {
	if opt.HostLink.Bps <= 0 || opt.TierLink.Bps <= 0 {
		return nil, fmt.Errorf("netsim: link bandwidth must be positive")
	}
	if opt.HostLink.BufBytes <= 0 || opt.TierLink.BufBytes <= 0 {
		return nil, fmt.Errorf("netsim: buffer size must be positive")
	}
	n := &Network{Sim: sim, Graph: g, ValuesPerHop: opt.ValuesPerHop}
	n.nodes = make([]nodeRef, g.NumNodes())
	for _, node := range g.Nodes {
		switch node.Kind {
		case topology.Switch:
			sw := &SwitchNode{ID: node.ID, Net: n,
				portByNeighbor: map[int]int{}, nextHops: map[int][]int{}}
			n.nodes[node.ID] = nodeRef{sw: sw}
		case topology.Host:
			n.nodes[node.ID] = nodeRef{host: &HostNode{ID: node.ID, Net: n,
				endpoints: map[uint64]Endpoint{}}}
		}
	}
	// Create directed ports for each undirected edge.
	for _, node := range g.Nodes {
		for _, nb := range g.Neighbors(node.ID) {
			spec := opt.TierLink
			if g.Nodes[node.ID].Kind == topology.Host || g.Nodes[nb].Kind == topology.Host {
				spec = opt.HostLink
			}
			port := &Port{Spec: spec, DstNode: nb}
			if sw := n.nodes[node.ID].sw; sw != nil {
				sw.portByNeighbor[nb] = len(sw.Ports)
				sw.Ports = append(sw.Ports, port)
			} else {
				h := n.nodes[node.ID].host
				if h.Port != nil {
					return nil, fmt.Errorf("netsim: host %d has multiple links", node.ID)
				}
				h.Port = port
			}
		}
	}
	// Routing: for each host destination, BFS from the destination gives
	// each switch its set of equal-cost next hops (neighbors one hop
	// closer to the destination).
	for _, dst := range g.Hosts() {
		dist, _ := g.BFSFrom(dst)
		for _, swID := range g.Switches() {
			if dist[swID] < 0 {
				continue
			}
			sw := n.nodes[swID].sw
			var next []int
			for _, nb := range g.Neighbors(swID) {
				if dist[nb] == dist[swID]-1 {
					next = append(next, nb)
				}
			}
			sw.nextHops[dst] = next
		}
	}
	return n, nil
}

// Host returns the host node for a graph node ID.
func (n *Network) Host(id int) *HostNode {
	h := n.nodes[id].host
	if h == nil {
		panic(fmt.Sprintf("netsim: node %d is not a host", id))
	}
	return h
}

// NextPacketID allocates a unique packet identifier (standing in for the
// IPID/TCP-sequence-derived identifiers §4.1 assumes).
func (n *Network) NextPacketID() uint64 {
	n.pktSeq++
	return n.pktSeq
}

// enqueue places a packet on a port, applying tail drop, and kicks the
// serializer. sw is non-nil for switch-owned ports so the telemetry hooks
// run at dequeue.
func (n *Network) enqueue(port *Port, pkt *Packet, sw *SwitchNode) {
	size := pkt.WireSize(n.ValuesPerHop)
	if port.qBytes+size > port.Spec.BufBytes {
		port.Drops++
		n.Drops++
		return
	}
	port.queue = append(port.queue, pkt)
	port.qBytes += size
	n.startTx(port, sw)
}

// startTx begins serializing the head-of-line packet if the port is idle.
// sw is non-nil when the port belongs to a switch (telemetry runs there).
func (n *Network) startTx(port *Port, sw *SwitchNode) {
	if port.busy || len(port.queue) == 0 {
		return
	}
	port.busy = true
	pkt := port.queue[0]
	port.queue = port.queue[1:]
	size := pkt.WireSize(n.ValuesPerHop)
	port.qBytes -= size
	serNs := int64(size) * 8 * 1_000_000_000 / port.Spec.Bps
	if serNs < 1 {
		serNs = 1
	}
	n.Sim.After(serNs, func() {
		now := n.Sim.Now()
		port.TxBytes += uint64(size)
		if sw != nil {
			tau := now - port.LastDeqNs
			hopLat := now - pkt.arrivedNs
			if n.OnHopLatency != nil {
				n.OnHopLatency(sw, pkt, hopLat)
			}
			if n.OnDequeue != nil {
				n.OnDequeue(n, sw, port, pkt, port.qBytes, tau, hopLat)
			}
			port.LastDeqNs = now
			pkt.Hops++
		}
		port.busy = false
		n.startTx(port, sw)
		n.Sim.After(port.Spec.PropNs, func() { n.receive(port.DstNode, pkt) })
	})
}

// receive dispatches an arriving packet to the destination node.
func (n *Network) receive(nodeID int, pkt *Packet) {
	pkt.arrivedNs = n.Sim.Now()
	if sw := n.nodes[nodeID].sw; sw != nil {
		sw.receive(pkt)
		return
	}
	n.nodes[nodeID].host.receive(pkt)
}

func (s *SwitchNode) receive(pkt *Packet) {
	next := s.nextHops[pkt.Dst]
	if len(next) == 0 {
		s.Net.Drops++ // no route
		return
	}
	// ECMP: stable per flow, spread across flows.
	nb := next[int(hash.Mix64(pkt.FlowID^uint64(s.ID)<<32)%uint64(len(next)))]
	port := s.Ports[s.portByNeighbor[nb]]
	s.Net.enqueue(port, pkt, s)
}

func (h *HostNode) receive(pkt *Packet) {
	if h.Net.OnDeliver != nil {
		h.Net.OnDeliver(h, pkt)
	}
	ep, ok := h.endpoints[pkt.FlowID]
	if !ok {
		h.Net.Drops++
		return
	}
	h.Net.Delivered++
	ep.Deliver(pkt)
}

// Attach registers a flow endpoint on the host.
func (h *HostNode) Attach(flowID uint64, ep Endpoint) {
	h.endpoints[flowID] = ep
}

// Detach removes a flow endpoint (on flow completion).
func (h *HostNode) Detach(flowID uint64) {
	delete(h.endpoints, flowID)
}

// Send injects a packet from this host into the network.
func (h *HostNode) Send(pkt *Packet) {
	pkt.SentNs = h.Net.Sim.Now()
	h.Net.enqueue(h.Port, pkt, nil)
}

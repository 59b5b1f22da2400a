package federation

import (
	"encoding/json"
	"fmt"

	"repro/internal/core"
)

// FleetMap is the epoch-versioned fleet configuration — the one document
// every component of a deployment agrees on: which members exist, where
// each listens (exporter TCP ingest + query HTTP), and the partitioning
// epoch exporters must carry in their session handshakes. It travels as
// JSON (pintgate serves GET /fleetmap, members accept POST /fleetmap)
// and implements collector.FleetRoster, so collector.Connect can take a
// fetched map directly via WithFleetMap / WithRosterFetch.
//
// The flow→member routing is *derived*, never serialized: rendezvous
// hashing over the member names (see Partitioner) makes the map a pure
// function of (epoch, members), so two holders of the same map compute
// identical homes with no coordination.
type FleetMap struct {
	// Epoch versions the partitioning. A resize publishes a new map with
	// a strictly larger epoch; members fence exporter handshakes on it.
	Epoch uint64 `json:"epoch"`
	// Members lists the fleet in home-index order (FlowHome returns
	// indices into this slice).
	Members []FleetMember `json:"members"`

	part *Partitioner
}

// FleetMember is one fleet node's entry in the map.
type FleetMember struct {
	// Name is the member's stable identity — the rendezvous-hash input.
	// It must survive restarts and address changes, or a bounced member
	// would silently orphan its flows.
	Name string `json:"name"`
	// Ingest is the member's exporter-session TCP address.
	Ingest string `json:"ingest"`
	// Query is the member's query HTTP base URL.
	Query string `json:"query"`
}

// NewFleetMap builds and validates a fleet map.
func NewFleetMap(epoch uint64, members []FleetMember) (*FleetMap, error) {
	m := &FleetMap{Epoch: epoch, Members: append([]FleetMember(nil), members...)}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// ParseFleetMap decodes and validates a JSON fleet map (the body of
// GET /fleetmap).
func ParseFleetMap(data []byte) (*FleetMap, error) {
	var m FleetMap
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("federation: bad fleet map: %w", err)
	}
	return &m, nil
}

// UnmarshalJSON decodes the wire form and rebuilds the derived
// partitioner, so a decoded map is immediately routable.
func (m *FleetMap) UnmarshalJSON(data []byte) error {
	type wireMap FleetMap // drop methods: plain field decode
	var w wireMap
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	m.Epoch, m.Members, m.part = w.Epoch, w.Members, nil
	return m.Validate()
}

// Validate checks the map (non-empty membership, unique non-empty
// names, no blank addresses) and caches the derived partitioner.
// NewFleetMap and UnmarshalJSON call it; a map built by hand must be
// validated before routing with it.
func (m *FleetMap) Validate() error {
	names := make([]string, len(m.Members))
	for i, mem := range m.Members {
		if mem.Ingest == "" {
			return fmt.Errorf("federation: fleet map member %q has no ingest address", mem.Name)
		}
		if mem.Query == "" {
			return fmt.Errorf("federation: fleet map member %q has no query URL", mem.Name)
		}
		names[i] = mem.Name
	}
	part, err := NewPartitioner(names)
	if err != nil {
		return err
	}
	m.part = part
	return nil
}

// FleetEpoch implements collector.FleetRoster.
func (m *FleetMap) FleetEpoch() uint64 { return m.Epoch }

// IngestAddrs implements collector.FleetRoster: the members' exporter
// TCP addresses in home-index order.
func (m *FleetMap) IngestAddrs() []string {
	out := make([]string, len(m.Members))
	for i, mem := range m.Members {
		out[i] = mem.Ingest
	}
	return out
}

// FlowHome implements collector.FleetRoster: the index of the member
// that owns flow. It panics on an unvalidated map — routing with a map
// that skipped Validate is a programming error, not a runtime condition.
func (m *FleetMap) FlowHome(flow core.FlowKey) int {
	if m.part == nil {
		panic("federation: FlowHome on an unvalidated FleetMap (call Validate)")
	}
	return m.part.Home(flow)
}

// HomeName returns the owning member's stable name — what the rebalance
// planner compares across epochs (indices shift when membership changes;
// names do not).
func (m *FleetMap) HomeName(flow core.FlowKey) string {
	return m.Members[m.FlowHome(flow)].Name
}

package pint

import (
	"time"

	"repro/internal/collector"
	"repro/internal/federation"
)

// The federated collector API (internal/federation): a fleet of
// Collectors behind exporter-side flow routing and a merging query
// frontend, so the recording tier scales by adding machines.
//
// Three invariants make a fleet answer exactly like one big collector:
// every flow routes to exactly one home member (FleetMap.FlowHome),
// sessions are fenced by a cluster epoch (CollectorConfig.Epoch on the
// member, the map's epoch in every session handshake Connect sends) so
// a repartitioned exporter cannot mix fleet maps, and
// queries merge the members' disjoint flow sets in flow-key order
// (Frontend — the HTTP image of Recording merging in the sharded sink).
//
// One document describes a fleet to every component: the epoch-versioned
// FleetMap (membership + addresses; the routing is derived by rendezvous
// hashing over the member names, never serialized and never configured
// beside the map). Exporters and the frontend are both built from it,
// and — with a roster fetch — exporters follow a live fleet resize end
// to end: the collectors fence the old epoch, moving flows' recording
// state ships to its new homes, and the exporters re-partition and
// re-handshake when the new map publishes:
//
//	fm, _ := pint.ParseFleetMap(mapJSON) // e.g. GET /fleetmap from pintgate
//	fx, _ := pint.Connect(engine, 7, "tor-7",
//	        pint.WithFleetMap(fm),
//	        pint.WithRosterFetch(fetch))
//	fx.Send(pkts) // each digest routed to its flow's home collector
//
//	fe, _ := pint.NewFrontend(pint.WithFrontendFleetMap(fm))
//	http.ListenAndServe(":9700", fe.Handler())
//
// cmd/pintd -epoch, cmd/pintload -gate, and cmd/pintgate -fleetmap are
// the same pieces as daemons; the federated-scale scenario pins the
// fleet's byte-identity to a single collector, and the fleet-resize
// scenario pins a mid-stream resize's byte-identity to a fleet that
// started at the final membership.

// FleetMap is the epoch-versioned fleet configuration: membership,
// addresses, and the partitioning epoch, as served on /fleetmap. It
// implements the roster interface Connect's WithFleetMap takes.
type FleetMap = federation.FleetMap

// FleetMember is one fleet node's entry in a FleetMap.
type FleetMember = federation.FleetMember

// NewFleetMap builds and validates a fleet map.
func NewFleetMap(epoch uint64, members []FleetMember) (*FleetMap, error) {
	return federation.NewFleetMap(epoch, members)
}

// ParseFleetMap decodes and validates a JSON fleet map (the body of
// GET /fleetmap).
func ParseFleetMap(data []byte) (*FleetMap, error) {
	return federation.ParseFleetMap(data)
}

// Move is one flow's relocation in a fleet resize plan.
type Move = federation.Move

// Rebalance plans a resize: exactly the flows whose rendezvous home
// changed between the two maps, nothing else.
func Rebalance(oldMap, newMap *FleetMap, flows []FlowKey) ([]Move, error) {
	return federation.Rebalance(oldMap, newMap, flows)
}

// FleetExporter streams digest batches to a collector fleet, routing
// every packet to its flow's home member. Built with a roster fetch
// (WithRosterFetch) it survives fleet resizes: it re-partitions its
// unsent buffers under the new map and re-handshakes at the new epoch,
// losing nothing.
type FleetExporter = collector.FleetExporter

// FleetRoster is the exporter-side view of a fleet configuration
// (FleetMap implements it).
type FleetRoster = collector.FleetRoster

// DialOption configures Connect.
type DialOption = collector.DialOption

// Connect is the one way to open exporter sessions — to one standalone
// collector (WithAddrs) or to a fleet (WithFleetMap):
//
//	ex, err := pint.Connect(engine, 3, "tor-3", pint.WithAddrs("collector:9777"))
//
//	fx, err := pint.Connect(engine, 7, "tor-7",
//	        pint.WithFleetMap(fm),
//	        pint.WithRosterFetch(fetch),
//	        pint.WithTenant("team-a"))
func Connect(engine *Engine, exporterID uint64, name string, opts ...DialOption) (*FleetExporter, error) {
	return collector.Connect(engine, exporterID, name, opts...)
}

// WithAddrs points the session at one standalone collector (epoch 0).
func WithAddrs(addr string) DialOption { return collector.WithAddrs(addr) }

// WithTenant labels the session with a QoS tenant.
func WithTenant(tenant string) DialOption { return collector.WithTenant(tenant) }

// WithCoalesce sets the per-session write-coalescing threshold in bytes.
func WithCoalesce(bytes int) DialOption { return collector.WithCoalesce(bytes) }

// WithFleetMap takes addresses, routing, and epoch from a fleet map.
func WithFleetMap(roster FleetRoster) DialOption { return collector.WithFleetMap(roster) }

// WithRosterFetch enables live re-routing across fleet resizes: fetch is
// polled for the current map whenever the session's epoch goes stale.
func WithRosterFetch(fetch func() (FleetRoster, error)) DialOption {
	return collector.WithRosterFetch(fetch)
}

// Frontend is the fleet's merging query endpoint: it fans /snapshot,
// /stats, and /healthz out to every member and folds the answers into
// single-collector-shaped JSON, with explicit partial results (the
// PartialHeader plus a per-node error list) when members are down. It
// serves its fleet map on GET /fleetmap, takes the next epoch's on POST
// /fleetmap, and excludes epoch-stale members from the merge.
type Frontend = federation.Frontend

// FrontendOption configures NewFrontend.
type FrontendOption = federation.FrontendOption

// NodeError names one fleet member's failure in a partial result.
type NodeError = federation.NodeError

// NodeErrorEpochStale is the NodeError.Kind for a member answering from
// a different fleet epoch than the frontend's map (a resize in flight).
const NodeErrorEpochStale = federation.NodeErrorEpochStale

// PartialHeader marks a response merged from a degraded fleet.
const PartialHeader = federation.PartialHeader

// NewFrontend builds a query frontend over a fleet map (required):
//
//	fe, err := pint.NewFrontend(pint.WithFrontendFleetMap(fm))
func NewFrontend(opts ...FrontendOption) (*Frontend, error) {
	return federation.NewFrontend(opts...)
}

// WithFrontendFleetMap gives the frontend the fleet's map: the fan-out
// follows it, /fleetmap serves it, epoch-stale members are excluded.
// (The federation package names this WithFleetMap; the facade qualifies
// frontend options to keep them distinct from the exporter-side dial
// options above.)
func WithFrontendFleetMap(m *FleetMap) FrontendOption { return federation.WithFleetMap(m) }

// WithFrontendTimeout bounds how long a member may go without answering
// a fan-out request (default 10s).
func WithFrontendTimeout(d time.Duration) FrontendOption { return federation.WithTimeout(d) }

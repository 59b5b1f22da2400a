// Package federation is the horizontal-scale tier of the collector: a
// fleet of N collector daemons (internal/collector) standing behind an
// exporter-side flow partitioner and a merging query frontend, so the
// recording tier scales by adding machines instead of sharding one.
//
// Three invariants make a fleet answer exactly like one big collector:
//
//   - home routing: a consistent-hash partitioner maps every flow ID to
//     exactly one fleet member, and exporters route each digest there, so
//     per-flow decode state (the paper's Inference Module state) never
//     splits across nodes;
//   - epoch fencing: exporters carry the cluster epoch in their session
//     handshake (wire.Hello.Epoch) and every member refuses a mismatched
//     epoch, so an exporter holding a stale fleet map cannot mix two
//     partitionings in one deployment;
//   - merge at query time: the frontend fans a query out to the fleet and
//     folds the per-member answers exactly the way the sharded sink folds
//     its per-shard Recordings (core.Recording.Merge — pure adoption of
//     disjoint flows), so the merged answer is byte-identical to a single
//     collector that ingested everything.
//
// The package's tests pin that identity against one in-process sink, and
// through the frontend at fleet sizes {2,4} × sink shards {1,4}
// (TestFrontendPartialResult); cmd/pintgate is the frontend as a daemon,
// and cmd/pintd -epoch / cmd/pintload -gate are the member and exporter
// sides.
//
// One document describes a fleet to all of them: the FleetMap (epoch,
// member names, addresses). Routing is derived from it, never configured
// beside it.
package federation

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/hash"
)

// partitionSeed salts the rendezvous scores so the flow→member map is
// independent of the sink's flow→shard map (both ultimately mix the same
// flow keys).
const partitionSeed hash.Seed = 0xFEDE7A7E

// Partitioner maps flow keys to fleet members by rendezvous (highest-
// random-weight) hashing over stable member identities: each flow scores
// every member and lives on the highest scorer. Two properties matter:
//
//   - determinism: the map is a pure function of (member names, flow), so
//     every exporter — and any offline tool — computes the same homes
//     from the same fleet configuration, with no coordination (the same
//     implicit-agreement trick the paper's global hashes play, §4.1);
//   - consistency: removing a member reassigns only that member's flows
//     (everyone else's top scorer is unchanged), so a fleet resize under
//     a new epoch moves the minimum possible state.
//
// A Partitioner is immutable and safe for concurrent use. It is the
// routing a FleetMap derives from its member names (FleetMap.Validate
// builds it); components ask the map — FlowHome, HomeName — not a
// partitioner of their own.
type Partitioner struct {
	ids []uint64
}

// NewPartitioner builds the flow→member map over the fleet's stable
// member names. Order does not matter for scoring, but Home returns
// indices into this slice.
func NewPartitioner(members []string) (*Partitioner, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("federation: empty member list")
	}
	seen := map[string]bool{}
	ids := make([]uint64, len(members))
	for i, m := range members {
		if m == "" {
			return nil, fmt.Errorf("federation: empty member name at index %d", i)
		}
		if seen[m] {
			return nil, fmt.Errorf("federation: duplicate member %q", m)
		}
		seen[m] = true
		ids[i] = partitionSeed.HashString(m)
	}
	return &Partitioner{ids: ids}, nil
}

// Home returns the index of the fleet member that owns flow — the only
// member whose collector may ingest the flow's digests.
func (p *Partitioner) Home(flow core.FlowKey) int {
	f := hash.Mix64(uint64(flow))
	best, bestScore := 0, uint64(0)
	for i, id := range p.ids {
		// Mix the member identity with the mixed flow key; ties broken by
		// the larger member id so equal scores cannot depend on list order.
		score := hash.Mix64(id ^ f)
		if score > bestScore || (score == bestScore && id > p.ids[best]) {
			best, bestScore = i, score
		}
	}
	return best
}

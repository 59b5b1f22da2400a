package federation

import (
	"context"
	"fmt"
	"time"

	"repro/internal/collector"
	"repro/internal/core"
	"repro/internal/wire"
)

// Resize grows or shrinks the fleet to n members mid-deployment with
// zero loss: every in-flight packet is either ingested at its old home
// before the hand-off or re-routed to its new home after, and every
// moving flow's recording state (decoder positions, sketch RNGs, series)
// ships to its new home before any fresh digest for it can arrive — so
// the resized fleet's answers are byte-identical to a fleet that ran at
// the new membership from the start.
//
// The sequence is coordinator-driven:
//
//  1. Grow only: start the new members, already fenced to epoch+1.
//  2. Fence: advance every pre-existing member to epoch+1 — new
//     handshakes at the old epoch are refused (wire.ErrEpochMismatch)
//     and each stale live session gets the one-byte reroute nudge.
//  3. Quiesce: wait until no exporter session remains on the old
//     members. A nudged exporter flushes and closes cleanly, so a clean
//     quiesce means everything sent is ingested and (sessions closed ⇒
//     deferred sink flush ran) visible to snapshots.
//  4. Plan: list every member's flow keys (Sink.Flows — keys only, no
//     flow's state is copied) and run Rebalance — exactly the flows
//     whose rendezvous home changed, nothing else.
//  5. Migrate: each losing member drains the moving flows' states
//     (ExportFlows — drain + evict, atomic per flow) and ships them to
//     the new homes over hand-off sessions at the new epoch
//     (SendHandoff); flow counts are conservation-checked end to end.
//  6. Shrink only: stop the departing members (now empty).
//  7. Publish: the new FleetMap becomes CurrentMap. Only now do
//     re-routing exporters see the new epoch, re-handshake, and resume —
//     no destination can see a fresh digest for a moved flow before its
//     state import.
//
// Exporters must be connected with collector.WithRosterFetch (e.g.
// Fleet.RosterFetch) to follow the resize; a session without a fetch
// ends at the fence instead. Resize returns the executed move plan.
func (f *Fleet) Resize(ctx context.Context, n int) ([]Move, error) {
	if n < 1 {
		return nil, fmt.Errorf("federation: fleet size %d below 1", n)
	}
	if n == len(f.Members) {
		return nil, nil
	}
	oldMap := f.CurrentMap()
	oldN := len(f.Members)
	newEpoch := f.Epoch + 1

	// 1. Grow: new members start life at the new epoch.
	for i := oldN; i < n; i++ {
		m, err := startMember(f.TB, fmt.Sprintf("node-%d", i), f.shards, newEpoch)
		if err != nil {
			return nil, fmt.Errorf("federation: resize: starting node-%d: %w", i, err)
		}
		f.Members = append(f.Members, m)
	}
	target := f.Members[:n]

	// Build (but do not publish) the new map over the target membership.
	newMap, err := fleetMapOf(newEpoch, target)
	if err != nil {
		return nil, fmt.Errorf("federation: resize: %w", err)
	}

	// 2. Fence the old membership at the new epoch.
	for _, m := range f.Members[:oldN] {
		m.Srv.SetEpoch(newEpoch)
	}

	// 3. Quiesce: every stale session must close before state moves.
	if err := f.waitQuiesced(ctx, f.Members[:oldN]); err != nil {
		return nil, err
	}

	// 4. Plan. Flows are collected per member so the plan can be checked
	// against where state actually lives, not just where the old map says
	// it should.
	flowsAt := make(map[string]map[core.FlowKey]bool, oldN)
	var allFlows []core.FlowKey
	for _, m := range f.Members[:oldN] {
		flows := m.Sink.Flows()
		set := make(map[core.FlowKey]bool, len(flows))
		for _, flow := range flows {
			set[flow] = true
		}
		allFlows = append(allFlows, flows...)
		flowsAt[m.Name] = set
	}
	moves, err := Rebalance(oldMap, newMap, allFlows)
	if err != nil {
		return nil, fmt.Errorf("federation: resize: %w", err)
	}
	byFrom := make(map[string][]core.FlowKey)
	for _, mv := range moves {
		if !flowsAt[mv.From][mv.Flow] {
			return nil, fmt.Errorf("federation: resize: planner says flow %d lives on %s, but %s does not track it",
				mv.Flow, mv.From, mv.From)
		}
		byFrom[mv.From] = append(byFrom[mv.From], mv.Flow)
	}

	// 5. Migrate, source by source, destination by destination.
	importedBefore := make(map[string]uint64, n)
	for _, m := range target {
		importedBefore[m.Name] = m.Srv.HandoffFlows()
	}
	shipped := 0
	for _, src := range f.Members[:oldN] {
		moving := byFrom[src.Name]
		if len(moving) == 0 {
			continue
		}
		states, err := src.Srv.ExportFlows(moving)
		if err != nil {
			return nil, fmt.Errorf("federation: resize: draining %s: %w", src.Name, err)
		}
		if len(states) != len(moving) {
			return nil, fmt.Errorf("federation: resize: %s drained %d of %d moving flows", src.Name, len(states), len(moving))
		}
		byDest := make(map[int][]wire.FlowState)
		for _, st := range states {
			byDest[newMap.FlowHome(st.Flow)] = append(byDest[newMap.FlowHome(st.Flow)], st)
		}
		for dest, batch := range byDest {
			hello := collector.HelloFor(f.TB.Engine, handoffExporterID, "handoff-"+src.Name)
			hello.Epoch = newEpoch
			hello.Tenant = f.TB.Tenant
			sent, err := collector.SendHandoff(newMap.Members[dest].Ingest, hello, batch)
			if err != nil {
				return nil, fmt.Errorf("federation: resize: shipping %s→%s: %w", src.Name, newMap.Members[dest].Name, err)
			}
			if sent != len(batch) {
				return nil, fmt.Errorf("federation: resize: %s→%s shipped %d of %d flows",
					src.Name, newMap.Members[dest].Name, sent, len(batch))
			}
			shipped += sent
		}
	}
	// Conservation, end to end: every planned flow was shipped and every
	// shipped flow was imported somewhere in the target membership.
	if shipped != len(moves) {
		return nil, fmt.Errorf("federation: resize: shipped %d of %d planned flows", shipped, len(moves))
	}
	// SendHandoff returns only once the destination has closed the session,
	// which it does after folding every frame, so one read is final.
	var imported uint64
	for _, m := range target {
		imported += m.Srv.HandoffFlows() - importedBefore[m.Name]
	}
	if imported != uint64(len(moves)) {
		return nil, fmt.Errorf("federation: resize: destinations imported %d of %d moved flows", imported, len(moves))
	}

	// 6. Shrink: departing members are empty now; stop them.
	for i := n; i < oldN; i++ {
		if err := f.StopMember(ctx, i); err != nil {
			return nil, fmt.Errorf("federation: resize: stopping %s: %w", f.Members[i].Name, err)
		}
	}
	f.Members = target

	// 7. Publish.
	f.publish(newMap)
	return moves, nil
}

// handoffExporterID identifies resize hand-off sessions in member
// ConnStats — far outside the testbench's exporter-ID range.
const handoffExporterID = uint64(1)<<63 | 0x4A0FF

// waitQuiesced blocks until no exporter session remains on the listed
// members, bounded by ctx (default 30s). Nudged exporters close on their
// next Send or Poke, so a caller that stops driving its exporters before
// the fence will sit here until the deadline.
func (f *Fleet) waitQuiesced(ctx context.Context, members []*Member) error {
	deadline := time.Now().Add(30 * time.Second)
	if d, ok := ctx.Deadline(); ok {
		deadline = d
	}
	for {
		var active int64
		for _, m := range members {
			active += m.Srv.Stats().Active
		}
		if active == 0 {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("federation: resize: %d sessions still active: %w", active, err)
		}
		if !time.Now().Before(deadline) {
			return fmt.Errorf("federation: resize: %d exporter sessions still active at the quiesce deadline "+
				"(exporters must Send or Poke to notice the reroute nudge)", active)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

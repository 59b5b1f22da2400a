package scenario

import (
	"fmt"

	"repro/internal/collector"
	"repro/internal/hash"
)

func init() {
	Register(collectorScaleScenario())
}

// collectorScaleOut is one trial's conformance record. Every field is a
// pure function of the testbench shape, so the scenario's output is
// golden-stable at any parallelism.
type collectorScaleOut struct {
	shards      int
	identical   bool
	packets     uint64
	bytesPerPkt float64
	decoded     int // flows whose path query finished
	latHops     int // (flow, hop) latency summaries recovered
}

var collectorShardAxis = []int{1, 4, 16}

func collectorScaleScenario() Scenario {
	const (
		nExporters = 4
		flowsPer   = 4
		frameBatch = 128
	)
	return define(Scenario{
		Name:     "collector-scale",
		Figure:   "new",
		Desc:     "loopback pintd deployment: TCP-framed ingest answers bit-identically to the in-process sink",
		Topology: "fat tree (K=8) switch universe, loopback TCP",
		Workload: "4 exporter connections x 4 flows, engine-batch-encoded digests",
		Queries:  "path 2×(b=4) + latency 8b in 16 bits",
		Stack:    "engine→wire frames→TCP→collector→sharded sink",
	}, func(s Scale) ([]trial[collectorScaleOut], error) {
		// Packets per flow scale with Trials, capped so the paper
		// scale doesn't turn a conformance check into a soak test.
		pktsPer := 60 * s.Trials
		if pktsPer > 600 {
			pktsPer = 600
		}
		seed := uint64(hash.Seed(s.Seed).Derive(0xC01EC7))
		var trials []trial[collectorScaleOut]
		for _, shards := range collectorShardAxis {
			trials = append(trials, trial[collectorScaleOut]{
				Name: fmt.Sprintf("shards-%d", shards),
				Run: func() (collectorScaleOut, error) {
					return runCollectorScaleTrial(seed, shards, nExporters, flowsPer, pktsPer, frameBatch)
				},
			})
		}
		return trials, nil
	}, func(s Scale, outs []collectorScaleOut) ([]Table, error) {
		t := Table{
			Title: fmt.Sprintf(
				"Collector conformance: loopback TCP vs in-process, %d exporters x %d flows",
				nExporters, flowsPer),
			Columns: []string{"sink shards", "packets", "bytes/pkt", "paths decoded", "latency hops", "bit-identical"},
		}
		for _, o := range outs {
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", o.shards),
				fmt.Sprintf("%d", o.packets),
				F(o.bytesPerPkt),
				fmt.Sprintf("%d/%d", o.decoded, nExporters*flowsPer),
				fmt.Sprintf("%d", o.latHops),
				yesNo(o.identical),
			})
		}
		return []Table{t}, nil
	})
}

// runCollectorScaleTrial runs the identical deployment through the
// networked collector (real loopback sockets, concurrent exporters) and
// the in-process sink, and demands byte-identical JSON answers. A
// mismatch is a trial error — the registry fails loudly rather than
// tabulating a broken collector.
func runCollectorScaleTrial(seed uint64, shards, nExporters, flowsPer, pktsPer, frameBatch int) (collectorScaleOut, error) {
	out := collectorScaleOut{shards: shards}
	tb, err := collector.NewTestbench(seed, 5)
	if err != nil {
		return out, err
	}
	remote, err := tb.RunLoopback(shards, nExporters, flowsPer, pktsPer, frameBatch)
	if err != nil {
		return out, err
	}
	local, err := tb.RunInProcess(shards, nExporters, flowsPer, pktsPer)
	if err != nil {
		return out, err
	}
	if out.identical, err = sameAnswers(remote.Answers, local.Answers); err != nil {
		return out, err
	}
	if !out.identical {
		return out, fmt.Errorf("scenario: collector answers diverge from in-process at %d shards", shards)
	}
	out.packets = remote.Packets
	out.bytesPerPkt = remote.BytesPerPacket()
	for _, fa := range remote.Answers {
		for _, a := range fa.Answers {
			if a.Done {
				out.decoded++
			}
			out.latHops += len(a.Hops)
		}
	}
	return out, nil
}

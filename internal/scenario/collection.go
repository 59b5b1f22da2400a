package scenario

import (
	"fmt"

	"repro/internal/netsim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

func init() {
	Register(collectionScenario())
}

// collectionStats quantifies §2's third overhead problem on a live
// simulation: the bandwidth the sink-to-collector path consumes and
// whether reports are fixed-size (what Confluo-style ingestion needs).
type collectionStats struct {
	System     string
	Reports    int
	MeanBytes  float64
	FixedSize  bool
	TotalBytes int64
}

// collectionScenario runs one loaded simulation per telemetry system. The
// paper's claims: INT reports vary with path length and dwarf PINT's
// fixed two-byte digests.
func collectionScenario() Scenario {
	systems := []struct {
		name   string
		report telemetry.ReportKind
		kind   TransportKind
	}{
		{"INT (3 values/hop)", telemetry.ReportINT, KindHPCCINT},
		{"PINT (16-bit digest)", telemetry.ReportPINT, KindHPCCPINT},
	}
	return define(Scenario{
		Name:      "collection",
		Figure:    "§2 problem 3",
		Desc:      "sink-to-collector report-stream bandwidth, INT vs PINT",
		Topology:  leafSpineTopo,
		Workload:  "hadoop",
		Transport: transportHPCC,
		Queries:   "report stream modeling",
		Stack:     stackNone,
	}, func(s Scale) ([]trial[collectionStats], error) {
		var trials []trial[collectionStats]
		for _, sys := range systems {
			trials = append(trials, trial[collectionStats]{Name: sys.name, Run: func() (collectionStats, error) {
				return collectionOverhead(s, sys.name, sys.report, sys.kind)
			}})
		}
		return trials, nil
	}, func(s Scale, stats []collectionStats) ([]Table, error) {
		t := Table{Title: "§2 problem 3: sink-to-collector report stream",
			Columns: []string{"system", "reports", "meanBytes", "fixedSize", "totalKB"}}
		for _, st := range stats {
			t.Rows = append(t.Rows, []string{
				st.System,
				fmt.Sprintf("%d", st.Reports),
				F(st.MeanBytes),
				fmt.Sprintf("%v", st.FixedSize),
				F(float64(st.TotalBytes) / 1024),
			})
		}
		return []Table{t}, nil
	})
}

// collectionOverhead runs one telemetry system's loaded simulation and
// models the sink's report stream for every delivered data packet.
func collectionOverhead(s Scale, system string, report telemetry.ReportKind, kind TransportKind) (collectionStats, error) {
	sink, err := telemetry.NewSink(report, 3, 16)
	if err != nil {
		return collectionStats{}, err
	}
	_, err = RunLoad(LoadRunConfig{Scale: s, Dist: workload.Hadoop(), Load: 0.5,
		Kind: kind, MinFlows: 100,
		deliverHook: func(h *netsim.HostNode, pkt *netsim.Packet) {
			if !pkt.Ack && pkt.Dst == h.ID && pkt.Hops > 0 {
				sink.Observe(pkt)
			}
		}})
	if err != nil {
		return collectionStats{}, err
	}
	return collectionStats{
		System:     system,
		Reports:    sink.Reports,
		MeanBytes:  sink.MeanBytes(),
		FixedSize:  sink.FixedSize(),
		TotalBytes: sink.TotalBytes,
	}, nil
}

package scenario

import (
	"fmt"

	"repro/internal/workload"
)

func init() {
	Register(fig1Scenario())
}

// overheadOut is one (load, overhead) run of Figs 1 and 2.
type overheadOut struct {
	load     float64
	overhead int
	fct      float64 // average FCT, ns
	goodput  float64 // long-flow goodput, bps
	flows    int
}

// fig1Scenario reproduces Figures 1 and 2: a 5-hop data-center topology
// runs a web-search workload over the Reno-like transport while the
// per-packet overhead sweeps over the INT-representative sizes 28..108B;
// average FCT and long-flow goodput are normalized to the zero-overhead
// run. The paper's qualitative claims: FCT grows and goodput falls
// monotonically in overhead, and the 70% load curves move much more than
// the 30% ones.
func fig1Scenario() Scenario {
	loads := []float64{0.3, 0.7}
	overheads := []int{0, 28, 48, 68, 88, 108} // the zero-overhead base comes first
	return define(Scenario{
		Name:      "fig1",
		Figure:    "Fig 1+2",
		Desc:      "normalized FCT and long-flow goodput vs per-packet telemetry overhead",
		Topology:  leafSpineTopo,
		Workload:  "websearch",
		Transport: "Reno + fixed overhead",
		Queries:   "none (overhead study)",
		Stack:     stackNone,
	}, func(s Scale) ([]trial[overheadOut], error) {
		// "Long" flows: the top ~20% of the scaled distribution.
		longThr := int64(workload.WebSearch().Scaled(s.SizeDivisor).Quantile(0.8))
		var trials []trial[overheadOut]
		for _, load := range loads {
			for _, ov := range overheads {
				trials = append(trials, trial[overheadOut]{
					Name: fmt.Sprintf("load=%v,ov=%d", load, ov),
					Run: func() (overheadOut, error) {
						res, err := RunLoad(LoadRunConfig{
							Scale: s, Dist: workload.WebSearch(), Load: load,
							Kind: KindReno, Overhead: ov, MinFlows: 50})
						if err != nil {
							return overheadOut{}, err
						}
						return overheadOut{load, ov, res.AvgFCT(), res.AvgGoodputLong(longThr),
							len(res.Collector.Completed())}, nil
					},
				})
			}
		}
		return trials, nil
	}, func(s Scale, outs []overheadOut) ([]Table, error) {
		t := Table{
			Title:   "Fig 1+2: normalized FCT and long-flow goodput vs per-packet overhead",
			Columns: []string{"load", "overheadB", "normFCT", "normGoodput", "flows"},
		}
		for i, o := range outs {
			base := outs[i-i%len(overheads)] // the same load at zero overhead
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%.0f%%", o.load*100),
				fmt.Sprintf("%d", o.overhead),
				F(o.fct / base.fct), F(o.goodput / base.goodput),
				fmt.Sprintf("%d", o.flows),
			})
		}
		return []Table{t}, nil
	})
}

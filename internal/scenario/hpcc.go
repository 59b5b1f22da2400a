package scenario

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/workload"
)

func init() {
	Register(fig7aScenario())
	Register(fig7bcScenario("b", "web search", workload.WebSearch()))
	Register(fig7bcScenario("c", "Hadoop", workload.Hadoop()))
	Register(fig8Scenario())
}

// fig7aScenario reproduces Figure 7(a): the relative long-flow goodput
// improvement of HPCC(PINT) over HPCC(INT) as network load grows. The
// paper's claim: the gain is positive and grows with load (71% at 70% in
// their setting) because PINT's byte savings matter most when residual
// capacity is scarce.
func fig7aScenario() Scenario {
	loads := []float64{0.2, 0.3, 0.4, 0.5, 0.6, 0.7}
	kinds := []TransportKind{KindHPCCINT, KindHPCCPINT}
	return define(Scenario{
		Name:      "fig7a",
		Figure:    "Fig 7(a)",
		Desc:      "long-flow goodput gain of HPCC(PINT) over HPCC(INT) vs load",
		Topology:  leafSpineTopo,
		Workload:  "websearch",
		Transport: transportHPCC,
		Queries:   "utilization (8-bit digest)",
		Stack:     stackNone,
	}, func(s Scale) ([]trial[float64], error) {
		longThr := int64(workload.WebSearch().Scaled(s.SizeDivisor).Quantile(0.8))
		var trials []trial[float64]
		for _, load := range loads {
			for _, kind := range kinds {
				trials = append(trials, trial[float64]{
					Name: fmt.Sprintf("load=%v,kind=%d", load, kind),
					Run: func() (float64, error) {
						res, err := RunLoad(LoadRunConfig{
							Scale: s, Dist: workload.WebSearch(), Load: load,
							Kind: kind, MinFlows: 50})
						if err != nil {
							return 0, err
						}
						return res.AvgGoodputLong(longThr), nil
					},
				})
			}
		}
		return trials, nil
	}, func(s Scale, goodput []float64) ([]Table, error) {
		t := Table{Title: "Fig 7a: long-flow goodput, HPCC(PINT) vs HPCC(INT)",
			Columns: []string{"load", "INT bps", "PINT bps", "gain%"}}
		for i, load := range loads {
			gi, gp := goodput[2*i], goodput[2*i+1]
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%.0f%%", load*100), F(gi), F(gp), F((gp - gi) / gi * 100),
			})
		}
		return []Table{t}, nil
	})
}

// slowdownSeries is one curve of Fig 7(b)/(c) or Fig 8.
type slowdownSeries struct {
	Name     string
	BinEdges []int64   // decile upper edges (scaled workload bytes)
	P95      []float64 // 95th-percentile slowdown per bin
}

// p95BySize runs one loaded simulation and bins its flows' p95 slowdown by
// the workload's size deciles.
func p95BySize(name string, cfg LoadRunConfig) (slowdownSeries, error) {
	res, err := RunLoad(cfg)
	if err != nil {
		return slowdownSeries{}, err
	}
	edges := decileEdges(cfg.Dist, cfg.Scale.SizeDivisor)
	sizes, slow := res.Slowdowns()
	return slowdownSeries{Name: name, BinEdges: edges,
		P95: percentileSlowdownByBin(sizes, slow, edges, 0.95)}, nil
}

// slowdownTable renders slowdown curves side by side.
func slowdownTable(title string, series []slowdownSeries) Table {
	t := Table{Title: title, Columns: []string{"size<="}}
	for _, sr := range series {
		t.Columns = append(t.Columns, sr.Name)
	}
	for i, edge := range series[0].BinEdges {
		row := []string{fmt.Sprintf("%d", edge)}
		for _, sr := range series {
			row = append(row, F(sr.P95[i]))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// fig7bcScenario reproduces Figures 7(b) and 7(c): 95th-percentile
// slowdown as a function of flow size at 50% load, HPCC(INT) vs
// HPCC(PINT), for the web-search and Hadoop workloads. The paper's
// claims: the curves are comparable overall, with PINT better on long
// flows (bandwidth saving) and slightly worse on short ones.
func fig7bcScenario(panel, wlName string, dist *workload.Dist) Scenario {
	kinds := []struct {
		name string
		k    TransportKind
	}{{"HPCC(INT)", KindHPCCINT}, {"HPCC(PINT)", KindHPCCPINT}}
	return define(Scenario{
		Name:      "fig7" + panel,
		Figure:    "Fig 7(" + panel + ")",
		Desc:      fmt.Sprintf("p95 slowdown by flow size at 50%% load, %s workload", wlName),
		Topology:  leafSpineTopo,
		Workload:  wlName,
		Transport: transportHPCC,
		Queries:   "utilization (8-bit digest)",
		Stack:     stackNone,
	}, func(s Scale) ([]trial[slowdownSeries], error) {
		var trials []trial[slowdownSeries]
		for _, kind := range kinds {
			trials = append(trials, trial[slowdownSeries]{Name: kind.name, Run: func() (slowdownSeries, error) {
				return p95BySize(kind.name, LoadRunConfig{
					Scale: s, Dist: dist, Load: 0.5, Kind: kind.k, MinFlows: 200})
			}})
		}
		return trials, nil
	}, func(s Scale, series []slowdownSeries) ([]Table, error) {
		title := fmt.Sprintf("Fig 7%s: p95 slowdown, %s, 50%% load", panel, wlName)
		return []Table{slowdownTable(title, series)}, nil
	})
}

// fig8Scenario reproduces Figure 8: PINT-based HPCC running the
// congestion query on only a p-fraction of packets, p ∈ {1, 1/16, 1/256}.
// The paper's claims: p=1/16 is nearly indistinguishable from p=1;
// p=1/256 degrades short flows (feedback slower than an RTT).
func fig8Scenario() Scenario {
	wls := []struct {
		name string
		dist *workload.Dist
	}{{"web search", workload.WebSearch()}, {"hadoop", workload.Hadoop()}}
	ps := []float64{1, 1.0 / 16, 1.0 / 256}
	return define(Scenario{
		Name:      "fig8",
		Figure:    "Fig 8",
		Desc:      "p95 slowdown with the congestion query on a p-fraction of packets",
		Topology:  leafSpineTopo,
		Workload:  "websearch + hadoop",
		Transport: transportPINTd,
		Queries:   "utilization at p ∈ {1, 1/16, 1/256}",
		Stack:     stackNone,
	}, func(s Scale) ([]trial[slowdownSeries], error) {
		var trials []trial[slowdownSeries]
		for _, wl := range wls {
			for _, p := range ps {
				curve := fmt.Sprintf("p=1/%d", int(math.Round(1/p)))
				trials = append(trials, trial[slowdownSeries]{
					Name: wl.name + "," + curve,
					Run: func() (slowdownSeries, error) {
						return p95BySize(curve, LoadRunConfig{
							Scale: s, Dist: wl.dist, Load: 0.5,
							Kind: KindHPCCPINT, PintP: p, MinFlows: 200})
					},
				})
			}
		}
		return trials, nil
	}, func(s Scale, series []slowdownSeries) ([]Table, error) {
		var tables []Table
		for wi, wl := range wls {
			tables = append(tables, slowdownTable(
				fmt.Sprintf("Fig 8: p95 slowdown vs feedback fraction, %s", wl.name),
				series[wi*len(ps):(wi+1)*len(ps)]))
		}
		return tables, nil
	})
}

// decileEdges returns the scaled workload's decile boundaries — the
// paper's x-axis ticks ("10% of the flows between consecutive marks").
func decileEdges(dist *workload.Dist, divisor float64) []int64 {
	d := dist
	if divisor > 1 {
		d = dist.Scaled(divisor)
	}
	edges := make([]int64, 10)
	for i := 1; i <= 10; i++ {
		edges[i-1] = int64(math.Ceil(d.Quantile(float64(i) / 10)))
	}
	return edges
}

// percentileSlowdownByBin computes the q-quantile slowdown within flow-size
// bins delimited by edges (ascending); bin i covers (edges[i-1], edges[i]].
func percentileSlowdownByBin(sizes []int64, slow []float64, edges []int64, q float64) []float64 {
	out := make([]float64, len(edges))
	for i := range edges {
		var lo int64
		if i > 0 {
			lo = edges[i-1]
		}
		var vals []float64
		for j, sz := range sizes {
			if sz > lo && sz <= edges[i] {
				vals = append(vals, slow[j])
			}
		}
		if len(vals) == 0 {
			out[i] = math.NaN()
			continue
		}
		sort.Float64s(vals)
		idx := int(math.Ceil(q*float64(len(vals)))) - 1
		if idx < 0 {
			idx = 0
		}
		out[i] = vals[idx]
	}
	return out
}

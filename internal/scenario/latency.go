package scenario

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/hash"
	"repro/internal/netsim"
	"repro/internal/sketch"
	"repro/internal/workload"
)

func init() {
	Register(fig9Scenario())
}

func fig9Scenario() Scenario {
	ws, hd := workload.WebSearch(), workload.Hadoop()
	panels := []fig09Panel{
		{Workload: ws, Quantile: 0.99},
		{Workload: hd, Quantile: 0.99},
		{Workload: hd, Quantile: 0.5},
		{Workload: ws, Quantile: 0.99, BySketch: true},
		{Workload: hd, Quantile: 0.99, BySketch: true},
		{Workload: hd, Quantile: 0.5, BySketch: true},
	}
	return define(Scenario{
		Name:      "fig9",
		Figure:    "Fig 9",
		Desc:      "per-hop latency quantile relative error vs sample and sketch size",
		Topology:  leafSpineTopo,
		Workload:  "websearch + hadoop",
		Transport: transportPINTd,
		Queries:   "latency (b=4/8, raw + KLL-sketched)",
		Stack:     stackRecording,
	}, func(s Scale) ([]trial[[]latencySeries], error) {
		var trials []trial[[]latencySeries]
		for _, p := range panels {
			trials = append(trials, trial[[]latencySeries]{
				Name: fig09PanelTitle(p),
				Run:  func() ([]latencySeries, error) { return fig09(s, p) },
			})
		}
		return trials, nil
	}, func(s Scale, outs [][]latencySeries) ([]Table, error) {
		var tables []Table
		for i, p := range panels {
			tables = append(tables, fig09Table(p, outs[i]))
		}
		return tables, nil
	})
}

// latencyPoint is one x-position of a Fig 9 panel.
type latencyPoint struct {
	X      int     // sample size (packets) or sketch size (bytes)
	RelErr float64 // relative error, percent
}

// latencySeries is one curve of a Fig 9 panel.
type latencySeries struct {
	Name   string // e.g. "PINT (b=8)", "PINTS (b=4)"
	Points []latencyPoint
}

// fig09Panel identifies one of the paper's six panels.
type fig09Panel struct {
	Workload *workload.Dist
	Quantile float64 // 0.5 (median) or 0.99 (tail)
	BySketch bool    // false: error vs sample size; true: error vs sketch bytes
}

// fig09 reproduces one panel of Figure 9: the relative error of PINT's per-hop latency
// quantile estimates, as a function of the number of packets sampled from
// a flow (first row) and of the per-hop sketch size in bytes (second row,
// 500-packet samples), for bit budgets b=4 and b=8, with (PINTS) and
// without sketches. Ground-truth hop-latency streams come from a loaded
// simulation of the corresponding workload. The paper's claims: error
// decreases with packets until it hits the value-compression floor, and
// small (~100B) sketches cost little accuracy.
func fig09(s Scale, panel fig09Panel) ([]latencySeries, error) {
	streams, err := collectHopStreams(s, panel.Workload)
	if err != nil {
		return nil, err
	}
	k := len(streams)
	// Ground truth per hop.
	truth := make([]float64, k)
	for h := range streams {
		truth[h] = sketch.ExactQuantile(streams[h], panel.Quantile)
	}
	rng := hash.NewRNG(s.Seed + 9)

	var out []latencySeries
	for _, b := range []int{8, 4} {
		for _, sk := range []bool{false, true} {
			if panel.BySketch && !sk {
				continue // the sketch-size row only has sketched variants
			}
			name := fmt.Sprintf("PINT (b=%d)", b)
			if sk {
				name = fmt.Sprintf("PINTS (b=%d)", b)
			}
			series := latencySeries{Name: name}
			if panel.BySketch {
				for _, bytes := range []int{50, 100, 150, 200, 250, 300} {
					e, err := latencyTrial(streams, truth, panel.Quantile, b, 500,
						sketchParamFor(bytes, b), s.Trials, rng)
					if err != nil {
						return nil, err
					}
					series.Points = append(series.Points, latencyPoint{X: bytes, RelErr: e})
				}
			} else {
				items := 0
				if sk {
					items = sketchParamFor(100, b) // 100-digest sketches (first row)
				}
				for _, z := range []int{100, 200, 400, 600, 800, 1000} {
					e, err := latencyTrial(streams, truth, panel.Quantile, b, z,
						items, s.Trials, rng)
					if err != nil {
						return nil, err
					}
					series.Points = append(series.Points, latencyPoint{X: z, RelErr: e})
				}
			}
			out = append(out, series)
		}
	}
	return out, nil
}

// fig09PanelTitle names one panel the way the paper's grid does.
func fig09PanelTitle(p fig09Panel) string {
	axis := "sample size [pkts]"
	if p.BySketch {
		axis = "sketch size [bytes]"
	}
	return fmt.Sprintf("Fig 9: %s q=%.2f, rel. error vs %s", p.Workload.Name, p.Quantile, axis)
}

// fig09Table renders one panel's series side by side (one row per
// x-position, one column per PINT variant).
func fig09Table(p fig09Panel, series []latencySeries) Table {
	t := Table{Title: fig09PanelTitle(p), Columns: []string{"x"}}
	for _, sr := range series {
		t.Columns = append(t.Columns, sr.Name)
	}
	if len(series) == 0 {
		return t
	}
	for i := range series[0].Points {
		row := []string{fmt.Sprintf("%d", series[0].Points[i].X)}
		for _, sr := range series {
			row = append(row, F(sr.Points[i].RelErr)+"%")
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// sketchParamFor converts a byte budget into a KLL accuracy parameter,
// assuming items are b-bit digests and KLL retains ~3k items.
func sketchParamFor(bytes, b int) int {
	items := bytes * 8 / b
	k := items / 3
	if k < 8 {
		k = 8
	}
	return k
}

// latencyTrial runs `trials` independent PINT samplings of z packets over
// the per-hop streams and returns the mean relative quantile error (%)
// across hops and trials. Packets are encoded by the compiled batch
// pipeline (one EncodeHops call). With sketchItems 0 they are recorded
// into a Recording; otherwise each hop's codes go to a KLL sketch of that
// accuracy parameter (sketchHops), PINTS.
func latencyTrial(streams [][]float64, truth []float64, phi float64, b, z, sketchItems, trials int, rng *hash.RNG) (float64, error) {
	k := len(streams)
	var errSum float64
	var errN int
	pkts := make([]core.PacketDigest, z)
	vals := hopColumns(k, z)
	for tr := 0; tr < trials; tr++ {
		q, err := core.NewLatencyQuery("lat", b, epsFor(b), 1, hash.Seed(rng.Uint64()))
		if err != nil {
			return 0, err
		}
		eng, err := core.Compile([]core.Query{q}, b, hash.Seed(rng.Uint64()))
		if err != nil {
			return 0, err
		}
		// base seeds the sketches; every trial draws it, so the draws
		// after it do not depend on the storage.
		base := hash.Seed(rng.Uint64())
		flow := core.FlowKey(1)
		encodeHopStreams(eng, streams, flow, rng, pkts, vals)
		var estimate func(hop int) (float64, bool)
		if sketchItems > 0 {
			sketches, err := sketchHops(eng, q, pkts, k, sketchItems, base, flow)
			if err != nil {
				return 0, err
			}
			estimate = func(hop int) (float64, bool) {
				if s := sketches[hop-1]; s.Count() > 0 {
					return q.Decode(uint64(s.Quantiles(phi)[0] + 0.5)), true
				}
				return 0, false
			}
		} else {
			rec, err := recordPackets(eng, pkts)
			if err != nil {
				return 0, err
			}
			estimate = func(hop int) (float64, bool) {
				est, err := rec.LatencyQuantile(q, flow, hop, phi)
				return est, err == nil
			}
		}
		for hop := 1; hop <= k; hop++ {
			est, ok := estimate(hop)
			if !ok {
				continue // hop got no samples this trial
			}
			if truth[hop-1] > 0 {
				errSum += math.Abs(est-truth[hop-1]) / truth[hop-1] * 100
				errN++
			}
		}
	}
	if errN == 0 {
		return math.NaN(), nil
	}
	return errSum / float64(errN), nil
}

// sketchHops is PINTS's per-flow storage: one KLL sketch of the given
// accuracy parameter per hop of a k-hop flow, fed in arrival order with
// the latency codes pkts carry for q, each attributed to its packet's
// reservoir winner (a winner past k is dropped, as the Recording drops
// it). The sketch of a hop draws from an RNG seeded by (base, q's name,
// flow, hop), so a flow's sketches depend on nothing but its own packets.
// A hop no packet reached keeps an empty sketch.
func sketchHops(eng *core.Engine, q *core.LatencyQuery, pkts []core.PacketDigest, k, items int, base hash.Seed, flow core.FlowKey) ([]*sketch.KLL, error) {
	sketches := make([]*sketch.KLL, k)
	for hop := 1; hop <= k; hop++ {
		rng := hash.NewRNG(base.Hash3(hash.Seed(0).HashString(q.Name()), uint64(flow), uint64(hop)))
		var err error
		if sketches[hop-1], err = sketch.NewKLL(items, rng); err != nil {
			return nil, err
		}
	}
	var ex []core.Extracted
	for _, p := range pkts {
		hop := q.Winner(p.PktID, p.PathLen)
		if hop > k {
			continue
		}
		ex = eng.ExtractInto(p.PktID, p.Digest, ex[:0])
		for _, x := range ex {
			if x.Query == q {
				sketches[hop-1].Add(float64(x.Bits))
			}
		}
	}
	return sketches, nil
}

// epsFor picks the compression error so the b-bit code space covers the
// nanosecond latency range (up to ~10^8 ns): (1+eps)^(2^b) >= 1e8.
func epsFor(b int) float64 {
	if b >= 8 {
		return 0.04
	}
	return 0.9 // 4 bits: very coarse, the paper's high-error floor
}

// collectHopStreams runs a loaded simulation and harvests per-hop latency
// streams for 5-switch-hop (cross-pod) traffic, concatenated across flows
// into one logical flow per hop position — the statistics a dynamic
// per-flow query would see.
func collectHopStreams(s Scale, dist *workload.Dist) ([][]float64, error) {
	const k = 5
	streams := make([][]float64, k)

	// HPCC(PINT) keeps the queues interesting while the hop hook harvests
	// the latencies.
	_, err := RunLoad(LoadRunConfig{Scale: s, Dist: dist, Load: 0.5,
		Kind: KindHPCCPINT, MinFlows: 100,
		hopHook: func(pkt *netsim.Packet, hop int, latNs int64) {
			if hop >= 1 && hop <= k {
				streams[hop-1] = append(streams[hop-1], float64(latNs))
			}
		}})
	if err != nil {
		return nil, err
	}
	for h := range streams {
		if len(streams[h]) < 50 {
			return nil, fmt.Errorf("scenario: hop %d collected only %d latencies",
				h+1, len(streams[h]))
		}
	}
	return streams, nil
}

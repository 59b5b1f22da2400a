package scenario

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/coding"
	"repro/internal/hash"
)

func init() {
	Register(fig5Scenario())
	Register(mediansScenario())
}

// codingK is §4.2's setting: a k = 25 hop path encoded with d = 25.
const codingK = 25

// hopValues returns the k distinct per-hop values the coding studies
// encode.
func hopValues(k int) []uint64 {
	values := make([]uint64, k)
	for i := range values {
		values[i] = uint64(0x1000 + i)
	}
	return values
}

// rawConfig is the coding studies' full-width configuration: 16-bit
// values in 16-bit digests, so only the layering differs between schemes.
func rawConfig(lay coding.Layering) coding.Config {
	return coding.Config{Bits: 16, Mode: coding.ModeRaw, ValueBits: 16, Layering: lay}
}

// decodeStats aggregates decoded trials' packet counts into the order
// statistics the path and coding experiments report.
func decodeStats(counts []int, trials int) coding.Stats {
	st := coding.Stats{Trials: trials, Decoded: len(counts)}
	if len(counts) == 0 {
		return st
	}
	counts = append([]int(nil), counts...)
	sort.Ints(counts)
	sum := 0
	for _, c := range counts {
		sum += c
	}
	st.Mean = float64(sum) / float64(len(counts))
	st.Median = float64(counts[len(counts)/2])
	st.P99 = float64(counts[int(math.Ceil(0.99*float64(len(counts))))-1])
	st.Max = counts[len(counts)-1]
	return st
}

// codingCurve is one scheme's Fig 5 series: mean missing hops and decode
// probability after each packet count.
type codingCurve struct {
	Scheme      string
	Packets     []int     // x axis
	MissingHops []float64 // Fig 5(a): E[missing hops]
	DecodeProb  []float64 // Fig 5(b): P[fully decoded]
}

// fig05 reproduces Figure 5: Baseline vs XOR (p=1/d) vs Hybrid for
// k = d = 25, raw full-width blocks. The paper's claims: XOR decodes
// fewer hops early but catches up; Hybrid dominates with a median of ~41
// packets vs ~89 for Baseline and much sharper tails.
func fig05(s Scale) ([]codingCurve, error) {
	const maxPackets = 200
	values := hopValues(codingK)
	rng := hash.NewRNG(s.Seed)
	var out []codingCurve
	for _, sc := range []struct {
		name string
		lay  coding.Layering
	}{
		{"Baseline", coding.PureBaseline()},
		{"XOR", coding.PureXOR(1.0 / codingK)},
		{"Hybrid", coding.Hybrid(codingK, 0.75)},
	} {
		missing := make([]float64, maxPackets)
		decoded := make([]float64, maxPackets)
		for tr := 0; tr < s.Trials; tr++ {
			prog, err := coding.Progress(rawConfig(sc.lay), hash.Seed(rng.Uint64()), values, nil,
				rng.Split(), maxPackets)
			if err != nil {
				return nil, err
			}
			for i, m := range prog {
				missing[i] += float64(m)
				if m == 0 {
					decoded[i]++
				}
			}
		}
		curve := codingCurve{Scheme: sc.name}
		for i := 0; i < maxPackets; i += 5 {
			curve.Packets = append(curve.Packets, i+1)
			curve.MissingHops = append(curve.MissingHops, missing[i]/float64(s.Trials))
			curve.DecodeProb = append(curve.DecodeProb, decoded[i]/float64(s.Trials))
		}
		out = append(out, curve)
	}
	return out, nil
}

func fig5Scenario() Scenario {
	return define(Scenario{
		Name:     "fig5",
		Figure:   "Fig 5",
		Desc:     "Baseline vs XOR vs Hybrid decode progress, k=d=25",
		Topology: "synthetic 25-hop path",
		Workload: "uniform packet IDs",
		Queries:  "static message coding",
		Stack:    stackCoding,
	}, func(s Scale) ([]trial[[]codingCurve], error) {
		// The three schemes share one RNG stream, so the figure is a
		// single trial; parallelism comes from the scenarios beside it.
		return []trial[[]codingCurve]{{Name: "all-schemes", Run: func() ([]codingCurve, error) {
			return fig05(s)
		}}}, nil
	}, func(s Scale, outs [][]codingCurve) ([]Table, error) {
		curves := outs[0]
		t := Table{Title: "Fig 5: coding scheme progress, k=d=25", Columns: []string{"packets"}}
		for _, c := range curves {
			t.Columns = append(t.Columns, c.Scheme+":missing", c.Scheme+":P(dec)")
		}
		for i, pkts := range curves[0].Packets {
			row := []string{fmt.Sprintf("%d", pkts)}
			for _, c := range curves {
				row = append(row, F(c.MissingHops[i]), F(c.DecodeProb[i]))
			}
			t.Rows = append(t.Rows, row)
		}
		return []Table{t}, nil
	})
}

// codingArm is one contender of a packets-to-decode comparison: a coding
// configuration (with its universe, in hashed mode), or LNC.
type codingArm struct {
	name     string
	cfg      coding.Config
	universe []uint64
	lnc      bool
}

// run measures the arm's packets-to-decode statistics over values.
func (a codingArm) run(values []uint64, trials int, seed uint64, maxPkts int) (coding.Stats, error) {
	if a.lnc {
		return lncTrials(values, trials, seed)
	}
	return coding.RunTrials(a.cfg, values, a.universe, trials, seed, maxPkts)
}

// lncTrials measures Linear Network Coding's packets-to-decode: LNC needs
// fewer packets than any XOR layering but cubic decoding and full-width
// blocks (§4.2's trade-off).
func lncTrials(values []uint64, trials int, seed uint64) (coding.Stats, error) {
	rng := hash.NewRNG(seed)
	counts := make([]int, 0, trials)
	for tr := 0; tr < trials; tr++ {
		l, err := coding.NewLNC(hash.NewGlobal(hash.Seed(rng.Uint64())), len(values))
		if err != nil {
			return coding.Stats{}, err
		}
		sub := rng.Split()
		n := 0
		for !l.Done() {
			pkt := sub.Uint64()
			l.Observe(pkt, l.Encode(pkt, values))
			n++
		}
		counts = append(counts, n)
	}
	return decodeStats(counts, trials), nil
}

// mediansScenario summarizes each scheme's packets-to-decode order
// statistics (the §4.2 numbers: Baseline median 89/p99 189, Hybrid median
// 41/p99 68 for k=25). Every scheme runs with the same Scale.Seed,
// independently of the others, so schemes are the trial axis.
func mediansScenario() Scenario {
	schemes := []codingArm{
		{name: "Baseline", cfg: rawConfig(coding.PureBaseline())},
		{name: "XOR(1/d)", cfg: rawConfig(coding.PureXOR(1.0 / codingK))},
		{name: "Hybrid", cfg: rawConfig(coding.Hybrid(codingK, 0.75))},
		{name: "MultiLayer", cfg: rawConfig(coding.MultiLayer(codingK, true))},
		{name: "LNC", lnc: true},
	}
	return define(Scenario{
		Name:     "medians",
		Figure:   "§4.2 table",
		Desc:     "packets-to-decode order statistics per coding scheme (incl. LNC)",
		Topology: "synthetic 25-hop path",
		Workload: "uniform packet IDs",
		Queries:  "static message coding",
		Stack:    stackCoding,
	}, func(s Scale) ([]trial[coding.Stats], error) {
		var trials []trial[coding.Stats]
		for _, sc := range schemes {
			trials = append(trials, trial[coding.Stats]{Name: sc.name, Run: func() (coding.Stats, error) {
				return sc.run(hopValues(codingK), s.Trials, s.Seed, 5000)
			}})
		}
		return trials, nil
	}, func(s Scale, outs []coding.Stats) ([]Table, error) {
		t := Table{Title: "§4.2: packets to decode, k=d=25",
			Columns: []string{"scheme", "mean", "median", "p99"}}
		for i, st := range outs {
			t.Rows = append(t.Rows, []string{schemes[i].name, F(st.Mean), F(st.Median), F(st.P99)})
		}
		return []Table{t}, nil
	})
}

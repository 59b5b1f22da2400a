package scenario

import (
	"fmt"
	"math"

	"repro/internal/coding"
	"repro/internal/core"
	"repro/internal/hash"
)

// The §4 ablations and Appendix A.4's loop-detector trade-off. One trial
// per arm; every seed is Scale.Seed plus a fixed offset, chosen so that
// the default seed at bench scale reproduces the numbers these studies
// reported when they were benchmarks (100 trials, 5000 samples, 200000
// packets). Trial, sample and packet counts scale with Scale.Trials.

func init() {
	universe := make([]uint64, 200) // 32-bit switch IDs
	for i := range universe {
		universe[i] = 0xAB000000 + uint64(i)*7
	}
	lay10 := coding.MultiLayer(10, true)
	Register(codingAblation("hash-vs-fragment",
		"§4.2's two bit-reduction techniques at an 8-bit budget: hashing vs fragmenting 32-bit switch IDs over 10 hops",
		universe[:10], 100000, 0, []codingArm{
			{name: "hashed", cfg: coding.Config{Bits: 8, Mode: coding.ModeHashed, Layering: lay10}, universe: universe},
			{name: "fragmented", cfg: coding.Config{Bits: 8, Mode: coding.ModeRaw, ValueBits: 32, Layering: lay10}},
		}))
	Register(codingAblation("multi-instance",
		"one 8-bit hash vs two independent 4-bit hashes in the same 8-bit budget (§4.2, multiple instantiations)",
		universe[:10], 100000, 2, []codingArm{
			{name: "1x8bit", cfg: coding.Config{Bits: 8, Mode: coding.ModeHashed, Layering: lay10}, universe: universe},
			{name: "2x4bit", cfg: coding.Config{Bits: 4, Instances: 2, Mode: coding.ModeHashed, Layering: lay10}, universe: universe},
		}))
	Register(codingAblation("lnc",
		"Linear Network Coding vs the multi-layer XOR scheme, k=d=25: LNC needs fewer packets but cubic decoding and full-width blocks",
		hopValues(codingK), 10000, 4, []codingArm{
			{name: "multilayer", cfg: rawConfig(coding.MultiLayer(codingK, true))},
			{name: "LNC", lnc: true},
		}))
	Register(epsilonScenario())
	Register(loopDetectScenario())
}

// codingAblation registers as "ablation-"+name and compares arms by
// packets-to-decode over the same values; arm i runs 2·Scale.Trials trials from seed Scale.Seed+seedOffset+i.
func codingAblation(name, desc string, values []uint64, maxPkts int, seedOffset uint64, arms []codingArm) Scenario {
	return define(Scenario{
		Name:     "ablation-" + name,
		Figure:   "§4.2 ablation",
		Desc:     desc,
		Topology: fmt.Sprintf("synthetic %d-hop path", len(values)),
		Workload: "uniform packet IDs",
		Queries:  "static message coding",
		Stack:    stackCoding,
	}, func(s Scale) ([]trial[coding.Stats], error) {
		var trials []trial[coding.Stats]
		for i, arm := range arms {
			seed := s.Seed + seedOffset + uint64(i)
			trials = append(trials, trial[coding.Stats]{Name: arm.name, Run: func() (coding.Stats, error) {
				return arm.run(values, 2*s.Trials, seed, maxPkts)
			}})
		}
		return trials, nil
	}, func(s Scale, outs []coding.Stats) ([]Table, error) {
		t := Table{Title: fmt.Sprintf("Ablation (%s): packets to decode %d hops", name, len(values)),
			Columns: []string{"arm", "mean", "median", "p99", "decoded"}}
		for i, st := range outs {
			t.Rows = append(t.Rows, []string{arms[i].name, F(st.Mean), F(st.Median), F(st.P99),
				fmt.Sprintf("%d/%d", st.Decoded, st.Trials)})
		}
		return []Table{t}, nil
	})
}

// epsilonScenario sweeps the per-packet compression error of the
// utilization query (§4.3's accuracy/width trade-off): each arm encodes
// utilizations through a one-query engine at its (bits, ε) and reports the
// mean relative decode error.
func epsilonScenario() Scenario {
	arms := []struct {
		bits int
		eps  float64
	}{{4, 0.2}, {8, 0.025}, {16, 0.0025}}
	return define(Scenario{
		Name:     "ablation-epsilon",
		Figure:   "§4.3 ablation",
		Desc:     "mean relative error of the utilization query's value compression vs digest width and ε",
		Topology: "single hop",
		Workload: "utilizations uniform in [0.05, 1.55)",
		Queries:  "utilization at b ∈ {4, 8, 16}",
		Stack:    "query encode/decode (no recording path)",
	}, func(s Scale) ([]trial[float64], error) {
		g := hash.NewGlobal(hash.Seed(s.Seed + 11))
		n := 100 * s.Trials
		var trials []trial[float64]
		for _, arm := range arms {
			trials = append(trials, trial[float64]{Name: fmt.Sprintf("b=%d", arm.bits), Run: func() (float64, error) {
				q, err := core.NewUtilQuery("u", arm.bits, arm.eps, 1, 1000, hash.Seed(s.Seed+76))
				if err != nil {
					return 0, err
				}
				eng, err := core.Compile([]core.Query{q}, arm.bits, hash.Seed(s.Seed+76))
				if err != nil {
					return 0, err
				}
				var errSum float64
				for j := 0; j < n; j++ {
					u := 0.05 + 1.5*hash.Unit(g.ValueDigest(uint64(j), 1, 64))
					code := eng.EncodeHopValues(uint64(j), 1, 0, &core.HopValues{Util: q.EncodeValue(u)})
					errSum += math.Abs(q.Decode(code)-u) / u
				}
				return errSum / float64(n) * 100, nil
			}})
		}
		return trials, nil
	}, func(s Scale, outs []float64) ([]Table, error) {
		t := Table{Title: fmt.Sprintf("Ablation (epsilon): utilization compression error over %d samples", 100*s.Trials),
			Columns: []string{"bits", "epsilon", "meanErr%"}}
		for i, e := range outs {
			t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", arms[i].bits), fmt.Sprintf("%g", arms[i].eps), F(e)})
		}
		return []Table{t}, nil
	})
}

// loopDetectScenario regenerates Appendix A.4's trade-off: spending one
// of the 16 bits on a confirmation counter (T=1) against the
// false-positive rate of loop reports on loop-free 32-hop paths.
func loopDetectScenario() Scenario {
	const pathLen = 32
	arms := []struct {
		bits int
		T    uint64
	}{{16, 0}, {15, 1}}
	return define(Scenario{
		Name:     "loop-detect",
		Figure:   "App. A.4",
		Desc:     "loop-detector false positives on loop-free paths: 16 digest bits vs 15 bits + a confirmation counter",
		Topology: "synthetic loop-free 32-hop path",
		Workload: "uniform packet IDs",
		Queries:  "loop detection (Algorithm 2)",
		Stack:    "per-packet loop state (no recording path)",
	}, func(s Scale) ([]trial[float64], error) {
		var trials []trial[float64]
		for i, arm := range arms {
			trials = append(trials, trial[float64]{Name: fmt.Sprintf("T=%d,b=%d", arm.T, arm.bits), Run: func() (float64, error) {
				d, err := core.NewLoopDetector(arm.bits, arm.T, hash.Seed(s.Seed+8))
				if err != nil {
					return 0, err
				}
				return d.FalsePositiveRate(pathLen, 4000*s.Trials, s.Seed+2+uint64(i)), nil
			}})
		}
		return trials, nil
	}, func(s Scale, outs []float64) ([]Table, error) {
		t := Table{Title: fmt.Sprintf("App. A.4: loop-detector false positives, %d-hop loop-free path, %d packets", pathLen, 4000*s.Trials),
			Columns: []string{"T", "digest bits", "FP per 1e6 packets"}}
		for i, fp := range outs {
			t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", arms[i].T), fmt.Sprintf("%d", arms[i].bits), F(fp * 1e6)})
		}
		return []Table{t}, nil
	})
}

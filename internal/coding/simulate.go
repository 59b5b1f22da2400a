package coding

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/hash"
)

// This file provides the trial harness used by the Fig 5 / Fig 10
// experiments and by tests: it runs encode→decode end to end over a
// synthetic path and reports how many packets decoding needed.

// Trial runs one encode/decode episode: packets with IDs drawn from rng
// traverse a k-hop path holding `values`, and the decoder consumes digests
// until the message decodes or maxPackets is hit. It returns the number of
// packets consumed and whether decoding completed.
func Trial(cfg Config, master hash.Seed, values []uint64, universe []uint64, rng *hash.RNG, maxPackets int) (int, bool, error) {
	g := hash.NewGlobal(master)
	enc, err := NewEncoder(cfg, g)
	if err != nil {
		return 0, false, err
	}
	dec, err := NewDecoder(cfg, g, len(values), universe)
	if err != nil {
		return 0, false, err
	}
	for n := 1; n <= maxPackets; n++ {
		pktID := rng.Uint64()
		dig := enc.EncodePath(pktID, values)
		if dec.Observe(pktID, dig) {
			if err := verifyDecoded(dec, values); err != nil {
				return n, false, err
			}
			return n, true, nil
		}
	}
	return maxPackets, false, nil
}

func verifyDecoded(dec *Decoder, values []uint64) error {
	got, ok := dec.Path()
	for i := range values {
		if !ok[i] {
			return fmt.Errorf("coding: hop %d reported decoded but unknown", i+1)
		}
		want := values[i]
		if cfg := dec.plan.enc.cfg; cfg.Mode == ModeRaw && cfg.ValueBits < 64 {
			want &= 1<<uint(cfg.ValueBits) - 1
		}
		if got[i] != want {
			return fmt.Errorf("coding: hop %d decoded %d, want %d", i+1, got[i], want)
		}
	}
	return nil
}

// Progress runs one episode and records MissingHops after every packet, up
// to maxPackets — the raw material of Fig 5(a)/(b).
func Progress(cfg Config, master hash.Seed, values []uint64, universe []uint64, rng *hash.RNG, maxPackets int) ([]int, error) {
	g := hash.NewGlobal(master)
	enc, err := NewEncoder(cfg, g)
	if err != nil {
		return nil, err
	}
	dec, err := NewDecoder(cfg, g, len(values), universe)
	if err != nil {
		return nil, err
	}
	out := make([]int, 0, maxPackets)
	for n := 1; n <= maxPackets; n++ {
		pktID := rng.Uint64()
		dec.Observe(pktID, enc.EncodePath(pktID, values))
		out = append(out, dec.MissingHops())
	}
	return out, nil
}

// Stats summarizes packets-to-decode over many trials.
type Stats struct {
	Trials  int
	Decoded int     // trials that completed within the cap
	Mean    float64 // over decoded trials
	Median  float64
	P99     float64
	Max     int
}

// RunTrials repeats Trial with fresh packet-ID streams and a fresh hash
// seed per trial and aggregates the packet counts.
func RunTrials(cfg Config, values []uint64, universe []uint64, trials int, seed uint64, maxPackets int) (Stats, error) {
	rng := hash.NewRNG(seed)
	counts := make([]int, 0, trials)
	decoded := 0
	for t := 0; t < trials; t++ {
		n, ok, err := Trial(cfg, hash.Seed(rng.Uint64()), values, universe, rng.Split(), maxPackets)
		if err != nil {
			return Stats{}, err
		}
		if ok {
			decoded++
			counts = append(counts, n)
		}
	}
	s := Stats{Trials: trials, Decoded: decoded}
	if len(counts) == 0 {
		return s, nil
	}
	sort.Ints(counts)
	sum := 0
	for _, c := range counts {
		sum += c
	}
	s.Mean = float64(sum) / float64(len(counts))
	s.Median = float64(counts[len(counts)/2])
	s.P99 = float64(counts[int(math.Ceil(0.99*float64(len(counts))))-1])
	s.Max = counts[len(counts)-1]
	return s, nil
}

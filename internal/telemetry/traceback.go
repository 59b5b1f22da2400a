// Package telemetry implements the per-packet marking baselines the paper
// compares PINT against in the path-tracing evaluation (§6.3):
//
//   - PPM, Savage et al.'s probabilistic packet marking [65]: each mark is
//     an 8-bit fragment of a switch identifier plus distance/offset fields,
//     16 bits total on the packet,
//   - AMS2, Song and Perrig's Advanced Marking Scheme II [70]: each mark
//     is an 11-bit hash of the switch ID under one of m hash functions
//     plus a 5-bit distance, 16 bits total; m=6 trades more packets for a
//     lower false-positive probability than m=5.
//
// Both are implemented with the Reservoir-Sampling improvement of Sattari
// [63] the paper adopts: marking switches are selected uniformly via the
// shared reservoir process, so hop attribution is exact and the packet
// counts measured here are the *improved* baselines' (the originals need
// strictly more).
package telemetry

import (
	"fmt"

	"repro/internal/hash"
)

// PPMFragments is Savage et al.'s fragment count: a 32-bit identifier is
// sent as 8 fragments of 4 bits (with 4 bits of error detection each, 8
// bits of payload per mark in the compressed edge encoding).
const PPMFragments = 8

// PPM simulates path reconstruction under fragment marking: the path is
// decoded once every (hop, fragment) pair has been received. The scheme
// costs 16 bits per packet (the overloaded IP ID field: 8-bit fragment +
// 5-bit distance + 3-bit offset).
type PPM struct {
	g    hash.Global
	k    int
	got  [][]bool
	vals [][]uint64
	need int
}

// NewPPM creates a PPM reconstruction for a k-hop path.
func NewPPM(g hash.Global, k int) (*PPM, error) {
	if k < 1 || k > 64 {
		return nil, fmt.Errorf("telemetry: path length %d out of [1,64]", k)
	}
	p := &PPM{g: g, k: k, need: k * PPMFragments}
	p.got = make([][]bool, k)
	p.vals = make([][]uint64, k)
	for i := range p.got {
		p.got[i] = make([]bool, PPMFragments)
		p.vals[i] = make([]uint64, PPMFragments)
	}
	return p, nil
}

// Mark computes what the network writes on a packet: the reservoir-chosen
// hop's fragment. values[i] is hop i+1's switch ID.
func (p *PPM) Mark(pktID uint64, values []uint64) (hop int, fragIdx int, frag uint64) {
	hop = p.g.ReservoirWinner(pktID, len(values))
	fragIdx = p.g.Fragment(pktID, PPMFragments)
	frag = values[hop-1] >> uint(4*fragIdx) & 0xF
	return hop, fragIdx, frag
}

// Observe consumes one marked packet; returns true when the path is fully
// reconstructed.
func (p *PPM) Observe(pktID uint64, values []uint64) bool {
	hop, fragIdx, frag := p.Mark(pktID, values)
	if !p.got[hop-1][fragIdx] {
		p.got[hop-1][fragIdx] = true
		p.vals[hop-1][fragIdx] = frag
		p.need--
	}
	return p.need == 0
}

// Done reports completion.
func (p *PPM) Done() bool { return p.need == 0 }

// AMS2HashBits is the width of each hash sample (the scheme costs 16 bits
// per packet: this hash + 5-bit distance).
const AMS2HashBits = 11

// AMS2 simulates Advanced Marking Scheme II reconstruction: each hop must
// be observed under all m hash functions, after which its identity is the
// universe value matching all m samples. With m=5 multiple candidates
// (false positives) are more likely than with m=6.
type AMS2 struct {
	g        hash.Global
	m        int
	k        int
	universe []uint64
	insts    []hash.Global
	got      [][]bool
	vals     [][]uint64
	need     int
}

// NewAMS2 creates an AMS2 reconstruction with m hash functions for a
// k-hop path over the given switch-ID universe.
func NewAMS2(g hash.Global, m, k int, universe []uint64) (*AMS2, error) {
	if m < 1 || m > 16 {
		return nil, fmt.Errorf("telemetry: AMS2 m=%d out of [1,16]", m)
	}
	if k < 1 || k > 64 {
		return nil, fmt.Errorf("telemetry: path length %d out of [1,64]", k)
	}
	if len(universe) == 0 {
		return nil, fmt.Errorf("telemetry: AMS2 requires a switch universe")
	}
	a := &AMS2{g: g, m: m, k: k, universe: universe, need: k * m}
	a.insts = make([]hash.Global, m)
	for i := range a.insts {
		a.insts[i] = g.Instance(i + 1000)
	}
	a.got = make([][]bool, k)
	a.vals = make([][]uint64, k)
	for i := range a.got {
		a.got[i] = make([]bool, m)
		a.vals[i] = make([]uint64, m)
	}
	return a, nil
}

// hashOf is AMS2's h_j(id): an 11-bit digest under hash function j. The
// scheme's hashes are packet-independent (the receiver matches them
// against precomputed tables), so no packet ID enters.
func (a *AMS2) hashOf(j int, id uint64) uint64 {
	return hash.Bits(a.insts[j].ValueDigest(id, 0, 64), AMS2HashBits)
}

// Observe consumes one marked packet: the reservoir-chosen hop writes
// h_j(ID) for a random j. Returns true when every (hop, j) sample exists.
func (a *AMS2) Observe(pktID uint64, values []uint64) bool {
	hop := a.g.ReservoirWinner(pktID, len(values))
	j := a.g.Fragment(pktID^0xA52, a.m)
	if !a.got[hop-1][j] {
		a.got[hop-1][j] = true
		a.vals[hop-1][j] = a.hashOf(j, values[hop-1])
		a.need--
	}
	return a.need == 0
}

// Done reports whether every (hop, hash) sample has been collected.
func (a *AMS2) Done() bool { return a.need == 0 }

// TracebackStats mirrors coding.Stats for the baseline schemes.
type TracebackStats struct {
	Mean, Median, P99 float64
}

// RunPPMTrials measures packets-to-decode for PPM over many trials.
func RunPPMTrials(values []uint64, trials int, seed uint64, maxPackets int) (TracebackStats, error) {
	counts := make([]int, 0, trials)
	rng := hash.NewRNG(seed)
	for t := 0; t < trials; t++ {
		g := hash.NewGlobal(hash.Seed(rng.Uint64()))
		p, err := NewPPM(g, len(values))
		if err != nil {
			return TracebackStats{}, err
		}
		sub := rng.Split()
		n := 0
		for !p.Done() && n < maxPackets {
			p.Observe(sub.Uint64(), values)
			n++
		}
		counts = append(counts, n)
	}
	return summarize(counts), nil
}

// RunAMS2Trials measures packets-to-decode for AMS2.
func RunAMS2Trials(values, universe []uint64, m, trials int, seed uint64, maxPackets int) (TracebackStats, error) {
	counts := make([]int, 0, trials)
	rng := hash.NewRNG(seed)
	for t := 0; t < trials; t++ {
		g := hash.NewGlobal(hash.Seed(rng.Uint64()))
		a, err := NewAMS2(g, m, len(values), universe)
		if err != nil {
			return TracebackStats{}, err
		}
		sub := rng.Split()
		n := 0
		for !a.Done() && n < maxPackets {
			a.Observe(sub.Uint64(), values)
			n++
		}
		counts = append(counts, n)
	}
	return summarize(counts), nil
}

func summarize(counts []int) TracebackStats {
	if len(counts) == 0 {
		return TracebackStats{}
	}
	sorted := append([]int(nil), counts...)
	for i := 1; i < len(sorted); i++ { // insertion sort; trial counts are small
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	sum := 0
	for _, c := range sorted {
		sum += c
	}
	p99 := sorted[(99*len(sorted)+99)/100-1]
	return TracebackStats{
		Mean:   float64(sum) / float64(len(sorted)),
		Median: float64(sorted[len(sorted)/2]),
		P99:    float64(p99),
	}
}

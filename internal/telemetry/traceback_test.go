package telemetry

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/hash"
)

func ids(k int) []uint64 {
	v := make([]uint64, k)
	for i := range v {
		v[i] = uint64(0x5A000000 + i*13)
	}
	return v
}

func universeWith(path []uint64, n int) []uint64 {
	u := append([]uint64(nil), path...)
	next := uint64(900000)
	for len(u) < n {
		u = append(u, next)
		next++
	}
	return u
}

// path reassembles the switch IDs once Done: what the fragments Observe
// stored must decode to.
func (p *PPM) path() ([]uint64, error) {
	if !p.Done() {
		return nil, fmt.Errorf("telemetry: PPM missing %d fragments", p.need)
	}
	out := make([]uint64, p.k)
	for h := 0; h < p.k; h++ {
		var v uint64
		for f := 0; f < PPMFragments; f++ {
			v |= p.vals[h][f] << uint(4*f)
		}
		out[h] = v
	}
	return out, nil
}

// path identifies each hop's switch from the samples Observe stored. ambiguous counts hops with more than
// one universe value matching all m samples — AMS2's false-positive mode;
// for those hops the first match is returned.
func (a *AMS2) path() (path []uint64, ambiguous int, err error) {
	if !a.Done() {
		return nil, 0, fmt.Errorf("telemetry: AMS2 missing %d samples", a.need)
	}
	path = make([]uint64, a.k)
	for h := 0; h < a.k; h++ {
		matches := 0
		for _, v := range a.universe {
			ok := true
			for j := 0; j < a.m; j++ {
				if a.hashOf(j, v) != a.vals[h][j] {
					ok = false
					break
				}
			}
			if ok {
				if matches == 0 {
					path[h] = v
				}
				matches++
			}
		}
		if matches == 0 {
			return nil, 0, fmt.Errorf("telemetry: AMS2 hop %d matches nothing", h+1)
		}
		if matches > 1 {
			ambiguous++
		}
	}
	return path, ambiguous, nil
}

func TestPPMValidation(t *testing.T) {
	g := hash.NewGlobal(1)
	if _, err := NewPPM(g, 0); err == nil {
		t.Fatal("k=0 must fail")
	}
	if _, err := NewPPM(g, 65); err == nil {
		t.Fatal("k=65 must fail")
	}
}

func TestPPMDecodesCorrectPath(t *testing.T) {
	g := hash.NewGlobal(2)
	values := ids(10)
	p, err := NewPPM(g, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.path(); err == nil {
		t.Fatal("Path before completion must error")
	}
	rng := hash.NewRNG(3)
	n := 0
	for !p.Done() {
		p.Observe(rng.Uint64(), values)
		n++
		if n > 100000 {
			t.Fatal("PPM never completed")
		}
	}
	got, err := p.path()
	if err != nil {
		t.Fatal(err)
	}
	for i := range values {
		// PPM carries 8 fragments × 4 bits = the low 32 bits.
		if got[i] != values[i]&0xFFFFFFFF {
			t.Fatalf("hop %d: got %#x want %#x", i+1, got[i], values[i])
		}
	}
}

func TestPPMCouponCollectorScaling(t *testing.T) {
	// Expected packets ≈ 8k·H_{8k} under the reservoir improvement.
	values := ids(25)
	st, err := RunPPMTrials(values, 100, 7, 100000)
	if err != nil {
		t.Fatal(err)
	}
	k8 := 8.0 * 25
	want := k8 * (math.Log(k8) + 0.577)
	if st.Mean < want*0.8 || st.Mean > want*1.2 {
		t.Fatalf("PPM mean %v, want ≈%v", st.Mean, want)
	}
}

func TestAMS2Validation(t *testing.T) {
	g := hash.NewGlobal(1)
	u := ids(5)
	if _, err := NewAMS2(g, 0, 5, u); err == nil {
		t.Fatal("m=0 must fail")
	}
	if _, err := NewAMS2(g, 5, 0, u); err == nil {
		t.Fatal("k=0 must fail")
	}
	if _, err := NewAMS2(g, 5, 5, nil); err == nil {
		t.Fatal("empty universe must fail")
	}
}

func TestAMS2DecodesCorrectPath(t *testing.T) {
	g := hash.NewGlobal(4)
	values := ids(12)
	uni := universeWith(values, 157)
	a, err := NewAMS2(g, 5, 12, uni)
	if err != nil {
		t.Fatal(err)
	}
	rng := hash.NewRNG(5)
	n := 0
	for !a.Done() {
		a.Observe(rng.Uint64(), values)
		n++
		if n > 100000 {
			t.Fatal("AMS2 never completed")
		}
	}
	got, ambiguous, err := a.path()
	if err != nil {
		t.Fatal(err)
	}
	if ambiguous != 0 {
		t.Fatalf("unexpected ambiguity with 55 hash bits over 157 IDs: %d", ambiguous)
	}
	for i := range values {
		if got[i] != values[i] {
			t.Fatalf("hop %d: got %#x want %#x", i+1, got[i], values[i])
		}
	}
}

func TestAMS2MoreHashesMorePackets(t *testing.T) {
	// m=6 collects 6 coupons per hop instead of 5: strictly more packets,
	// the trade-off §6.3 describes.
	values := ids(25)
	uni := universeWith(values, 157)
	s5, err := RunAMS2Trials(values, uni, 5, 100, 8, 100000)
	if err != nil {
		t.Fatal(err)
	}
	s6, err := RunAMS2Trials(values, uni, 6, 100, 9, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if s6.Mean <= s5.Mean {
		t.Fatalf("m=6 mean %v not above m=5 mean %v", s6.Mean, s5.Mean)
	}
}

func TestBaselinesNeedFarMoreThanCouponCollector(t *testing.T) {
	// Both baselines must sit well above plain k·H_k (they collect m or 8
	// coupons per hop) — this is the gap Fig 10 visualizes against PINT.
	values := ids(25)
	plain := 25 * (math.Log(25) + 0.577)
	ppm, _ := RunPPMTrials(values, 50, 10, 100000)
	ams, _ := RunAMS2Trials(values, universeWith(values, 157), 5, 50, 11, 100000)
	if ppm.Mean < 3*plain {
		t.Fatalf("PPM mean %v suspiciously low (plain CC %v)", ppm.Mean, plain)
	}
	if ams.Mean < 3*plain {
		t.Fatalf("AMS2 mean %v suspiciously low (plain CC %v)", ams.Mean, plain)
	}
}

func TestSummarizeOrderStats(t *testing.T) {
	s := summarize([]int{5, 1, 3, 2, 4})
	if s.Median != 3 {
		t.Fatalf("median %v, want 3", s.Median)
	}
	if s.Mean != 3 {
		t.Fatalf("mean %v, want 3", s.Mean)
	}
	if s.P99 != 5 {
		t.Fatalf("p99 %v, want 5", s.P99)
	}
	empty := summarize(nil)
	if empty.Mean != 0 {
		t.Fatal("empty summary must be zero")
	}
}

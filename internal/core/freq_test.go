package core

import (
	"math"
	"testing"

	"repro/internal/hash"
)

func TestFreqQueryValidation(t *testing.T) {
	if _, err := NewFreqQuery("f", 0, 1, 1); err == nil {
		t.Fatal("bits=0 must fail")
	}
	if _, err := NewFreqQuery("f", 33, 1, 1); err == nil {
		t.Fatal("bits=33 must fail")
	}
}

func TestFreqQueryEndToEnd(t *testing.T) {
	// Theorem 2 scenario: hop 2 uses egress port 7 for 70% of packets and
	// port 3 for 30%; the query must report 7 (and 3 at theta=0.25) and
	// nothing at theta=0.9.
	q, err := NewFreqQuery("ports", 8, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	e, err := Compile([]Query{q}, 8, 6)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := NewRecording(e, 0, hash.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	flow := FlowKey(1)
	rng := hash.NewRNG(8)
	const k = 3
	for i := 0; i < 30000; i++ {
		pkt := rng.Uint64()
		port7 := rng.Bool(0.7)
		var digest uint64
		for hop := 1; hop <= k; hop++ {
			port := uint64(10 + hop) // other hops: constant ports
			if hop == 2 {
				if port = 3; port7 {
					port = 7
				}
			}
			digest = e.EncodeHopValues(pkt, hop, digest, &HopValues{FreqValue: port})
		}
		if err := rec.Record(flow, k, pkt, digest); err != nil {
			t.Fatal(err)
		}
	}
	hh := rec.FrequentValues(q, flow, 2, 0.5)
	if len(hh) != 1 || hh[0].Value != 7 {
		t.Fatalf("theta=0.5: got %v, want just port 7", hh)
	}
	hh = rec.FrequentValues(q, flow, 2, 0.25)
	if len(hh) != 2 {
		t.Fatalf("theta=0.25: got %v, want ports 7 and 3", hh)
	}
	if got := rec.FrequentValues(q, flow, 2, 0.9); len(got) != 0 {
		t.Fatalf("theta=0.9: got %v, want none", got)
	}
	// Frequency estimates must be near the true fractions.
	n := float64(rec.FreqSamples(q, flow, 2))
	if n < 30000/k/2 {
		t.Fatalf("hop 2 undersampled: %v", n)
	}
	frac := float64(hh[0].Estimate) / n
	if math.Abs(frac-0.7) > 0.06 {
		t.Fatalf("port 7 fraction %v, want ~0.7", frac)
	}
	// Constant-value hops report exactly one value.
	if hh := rec.FrequentValues(q, flow, 1, 0.5); len(hh) != 1 || hh[0].Value != 11 {
		t.Fatalf("hop 1: %v, want port 11", hh)
	}
	if rec.FrequentValues(q, flow, 99, 0.5) != nil {
		t.Fatal("out-of-range hop must return nil")
	}
}

func TestCountQueryValidation(t *testing.T) {
	if _, err := NewCountQuery("c", 0, 0.3, 1, 1); err == nil {
		t.Fatal("bits=0 must fail")
	}
	if _, err := NewCountQuery("c", 4, 0, 1, 1); err == nil {
		t.Fatal("eps=0 must fail")
	}
	if _, err := NewCountQuery("c", 4, 1, 1, 1); err == nil {
		t.Fatal("eps=1 must fail")
	}
}

func TestCountQueryUnbiasedMean(t *testing.T) {
	// 6 of 20 hops fire the indicator; the mean decoded estimate over many
	// packets must approach 6 despite the counter having only 6 bits
	// (exact counting would need 5 bits for the count alone plus framing;
	// the win grows with k and value width, see approx.MorrisBits).
	q, err := NewCountQuery("high-lat-hops", 6, 0.3, 1, 9)
	if err != nil {
		t.Fatal(err)
	}
	e, err := Compile([]Query{q}, 6, 10)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := NewRecording(e, 0, hash.NewRNG(11))
	if err != nil {
		t.Fatal(err)
	}
	flow := FlowKey(2)
	rng := hash.NewRNG(12)
	const k = 20
	fire := map[int]bool{2: true, 5: true, 9: true, 13: true, 17: true, 19: true}
	for i := 0; i < 30000; i++ {
		pkt := rng.Uint64()
		var digest uint64
		for hop := 1; hop <= k; hop++ {
			var v HopValues
			if fire[hop] {
				v.CountFired = 1
			}
			digest = e.EncodeHopValues(pkt, hop, digest, &v)
		}
		if err := rec.Record(flow, k, pkt, digest); err != nil {
			t.Fatal(err)
		}
	}
	series := rec.CountSeries(q, flow)
	if len(series) != 30000 {
		t.Fatalf("recorded %d estimates", len(series))
	}
	var mean float64
	for _, v := range series {
		mean += v
	}
	mean /= float64(len(series))
	if math.Abs(mean-6) > 0.5 {
		t.Fatalf("mean count estimate %v, want ~6", mean)
	}
}

func TestCountQueryZeroStaysZero(t *testing.T) {
	q, _ := NewCountQuery("c", 6, 0.3, 1, 13)
	e, err := Compile([]Query{q}, 6, 14)
	if err != nil {
		t.Fatal(err)
	}
	for pkt := uint64(0); pkt < 100; pkt++ {
		if e.EncodeHopValues(pkt, 3, 0, &HopValues{}) != 0 {
			t.Fatal("indicator=0 must not change the counter")
		}
	}
	if q.Decode(0) != 0 {
		t.Fatal("code 0 must decode to count 0")
	}
}

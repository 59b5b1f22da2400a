package approx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLogExpTableConstruct(t *testing.T) {
	if _, err := NewLogExpTable(1); err == nil {
		t.Fatal("q=1 must be rejected")
	}
	if _, err := NewLogExpTable(17); err == nil {
		t.Fatal("q=17 must be rejected")
	}
	tbl, err := NewLogExpTable(8)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.q != 8 {
		t.Fatal("Q accessor broken")
	}
}

func TestLog2Accuracy(t *testing.T) {
	// Appendix C bound: error below ~1.44·2^-q on the log.
	tbl, _ := NewLogExpTable(8)
	bound := 1.45 * math.Pow(2, -8)
	for _, x := range []uint64{1, 2, 3, 100, 255, 256, 1000, 1 << 20, 1 << 40, 1<<63 + 12345} {
		got := tbl.Log2(x)
		want := math.Log2(float64(x))
		if math.Abs(got-want) > bound {
			t.Fatalf("Log2(%d) = %v, want %v (err %v > %v)",
				x, got, want, math.Abs(got-want), bound)
		}
	}
}

func TestLog2Property(t *testing.T) {
	tbl, _ := NewLogExpTable(10)
	bound := 1.45 * math.Pow(2, -10)
	f := func(x uint64) bool {
		if x == 0 {
			return tbl.Log2(0) == 0
		}
		return math.Abs(tbl.Log2(x)-math.Log2(float64(x))) <= bound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

func TestExp2Accuracy(t *testing.T) {
	tbl, _ := NewLogExpTable(8)
	relBound := math.Pow(2, math.Pow(2, -8)) - 1 + 1e-9
	for _, y := range []float64{0, 0.5, 1, 3.3, 10.7, 20, 40.25} {
		got := tbl.Exp2(y)
		want := math.Exp2(y)
		if math.Abs(got-want)/want > relBound {
			t.Fatalf("Exp2(%v) = %v, want %v", y, got, want)
		}
	}
}

func TestExp2FromSigned(t *testing.T) {
	tbl, _ := NewLogExpTable(8)
	if got := tbl.Exp2FromSigned(-2); math.Abs(got-0.25) > 0.01 {
		t.Fatalf("2^-2 = %v", got)
	}
	if got := tbl.Exp2FromSigned(3); math.Abs(got-8) > 0.1 {
		t.Fatalf("2^3 = %v", got)
	}
}

func TestHPCCUtilizationConvergesToLoad(t *testing.T) {
	// Feed a steady 50%-utilized link: EWMA must converge near 0.5.
	tbl, _ := NewLogExpTable(10)
	const (
		rttNs = 13000           // 13 us base RTT as in §6.1
		bwBps = 100_000_000_000 // 100 Gbps
		pkt   = 1000            // bytes
	)
	h := NewHPCCUtilization(rttNs, bwBps, tbl)
	// At 50% load a 1000B packet occupies 80 ns on the wire but arrives
	// every 160 ns; queue stays empty.
	u := 0.0
	for i := 0; i < 4000; i++ {
		u = h.Update(u, 160, 0, pkt)
	}
	if math.Abs(u-0.5) > 0.05 {
		t.Fatalf("EWMA utilization %v, want ~0.5", u)
	}
}

func TestHPCCUtilizationQueueRaisesU(t *testing.T) {
	tbl, _ := NewLogExpTable(10)
	h := NewHPCCUtilization(13000, 100_000_000_000, tbl)
	uNoQ, uQ := 0.0, 0.0
	for i := 0; i < 3000; i++ {
		uNoQ = h.Update(uNoQ, 80, 0, 1000)
		uQ = h.Update(uQ, 80, 64000, 1000) // 64KB standing queue
	}
	if uQ <= uNoQ {
		t.Fatalf("queue must raise utilization: %v <= %v", uQ, uNoQ)
	}
	if uNoQ < 0.9 || uNoQ > 1.1 {
		t.Fatalf("full-rate no-queue utilization %v, want ~1", uNoQ)
	}
}

func TestHPCCUtilizationTauClamp(t *testing.T) {
	tbl, _ := NewLogExpTable(10)
	h := NewHPCCUtilization(1000, 100_000_000_000, tbl)
	// tau larger than T must not produce negative weights / NaN.
	u := h.Update(0.5, 5000, 1000, 1000)
	if math.IsNaN(u) || u < 0 {
		t.Fatalf("update with tau>T produced %v", u)
	}
}

package approx

import (
	"fmt"
	"math"
	"math/bits"
)

// This file implements the data-plane arithmetic of Appendix C: hardware
// match-action pipelines cannot multiply or divide, so values are carried
// in fixed-point registers and products/quotients are computed as
// 2^(log₂x + log₂y) using a TCAM-style most-significant-bit search plus a
// small 2^q-entry lookup table. The HPCC-on-switch variant of PINT (§4.3,
// Appendix B) routes every utilization update through this machinery, and
// the simulator uses the same code path so the reproduction inherits the
// same quantization error the P4 program would have.

// LogExpTable is the 2^q-entry lookup pair of Appendix C. Log2 finds the
// most significant set bit ℓ (the TCAM step), reads the next q bits x_q and
// returns (ℓ−q) + log₂(x_q) from the table — an approximation with relative
// error below 1.44·2^-q on the log. Exp2 inverts it with the analogous
// table.
type LogExpTable struct {
	q        int
	smallLog []float64 // smallLog[x] = log2(x) exactly, for x < 2^q
	fracLog  []float64 // fracLog[i] ≈ log2(1 + i/2^q), midpoint-centred
	expTable []float64 // expTable[i] = 2^(i/2^q) for i in [0, 2^q)
}

// NewLogExpTable builds tables with q index bits (e.g. q=8 gives 256-entry
// tables, the size the paper deems feasible on-switch). The fractional-log
// table stores the midpoint log2(1 + (i+0.5)/2^q) so the truncation of the
// dropped low bits is centred instead of downward-biased — a downward bias
// would systematically shrink the EWMA decay factor in Appendix B's
// utilization update and distort the steady state.
func NewLogExpTable(q int) (*LogExpTable, error) {
	if q < 2 || q > 16 {
		return nil, fmt.Errorf("approx: q=%d out of [2,16]", q)
	}
	t := &LogExpTable{q: q}
	n := 1 << uint(q)
	t.smallLog = make([]float64, n)
	for i := 1; i < n; i++ {
		t.smallLog[i] = math.Log2(float64(i))
	}
	t.fracLog = make([]float64, n)
	for i := range t.fracLog {
		t.fracLog[i] = math.Log2(1 + (float64(i)+0.5)/float64(n))
	}
	t.expTable = make([]float64, n)
	for i := range t.expTable {
		t.expTable[i] = math.Exp2(float64(i) / float64(n))
	}
	return t, nil
}

// Log2 approximates log₂(x) for x >= 1 using only the operations a switch
// has: MSB search (TCAM), shift, and one table read. Per Appendix C, the q
// bits following the most significant set bit index the table; the error is
// below 1.44·2^-q (and centred, see NewLogExpTable).
func (t *LogExpTable) Log2(x uint64) float64 {
	if x == 0 {
		return 0 // undefined; pipeline treats log(0) as 0 by convention
	}
	l := 63 - bits.LeadingZeros64(x) // TCAM: index of MSB
	if l < t.q {
		return t.smallLog[x] // small values: exact lookup
	}
	// x = 2^l · (1 + frac/2^q + δ), δ < 2^-q: read the q bits after the MSB.
	frac := (x >> uint(l-t.q)) & (uint64(1)<<uint(t.q) - 1)
	return float64(l) + t.fracLog[frac]
}

// Exp2 approximates 2^y for y >= 0 via integer/fraction split and one table
// read. The relative error is at most 2^2^-q − 1 (< 0.28% for q = 8).
func (t *LogExpTable) Exp2(y float64) float64 {
	if y <= 0 {
		return 1
	}
	ip, fp := math.Floor(y), y-math.Floor(y)
	idx := int(math.Round(fp * float64(int(1)<<uint(t.q))))
	if idx >= len(t.expTable) {
		ip++
		idx = 0
	}
	if ip > 62 {
		ip = 62 // saturate rather than overflow
	}
	return float64(uint64(1)<<uint64(ip)) * t.expTable[idx]
}

// HPCCUtilization computes one EWMA update of the link utilization U the
// way Appendix B prescribes for the switch data plane:
//
//	U' = (T−τ)/T · U + qlen·τ/(B·T²) + byte/(B·T)
//
// with every product realized as exp(log+log) through the lookup tables.
// Arguments use integer "register" units: nanoseconds for T and tau, bytes
// for qlen and byte, bytes/ns for bandwidth scaled by 2^16 to stay integral.
type HPCCUtilization struct {
	T   uint64 // base RTT in ns
	B   uint64 // link bandwidth in bytes per second
	tbl *LogExpTable
}

// NewHPCCUtilization builds the per-link utilization updater.
func NewHPCCUtilization(baseRTTns, bandwidthBps uint64, tbl *LogExpTable) *HPCCUtilization {
	return &HPCCUtilization{T: baseRTTns, B: bandwidthBps / 8, tbl: tbl}
}

// Update performs one dequeue-time update (Appendix B):
// tau = packet serialization+gap time in ns, qlen and pktBytes in bytes.
// U is dimensionless utilization in [0, ~2].
func (h *HPCCUtilization) Update(u float64, tauNs, qlen, pktBytes uint64) float64 {
	if tauNs > h.T {
		tauNs = h.T
	}
	// Term 1: (T-τ)/T · U. Computed via logs when U > 0.
	var term1 float64
	if u > 0 {
		// Represent U in fixed point (16 fractional bits) so it can enter
		// the log table as an integer, as the P4 program would.
		uFix := uint64(u * (1 << 16))
		if uFix == 0 {
			uFix = 1
		}
		logU := h.tbl.Log2(uFix) - 16
		logScale := h.tbl.Log2(h.T-tauNs) - h.tbl.Log2(h.T)
		term1 = h.tbl.Exp2FromSigned(logU + logScale)
	}
	// Term 2: qlen·τ / (B·T²), B in bytes/ns fixed-point.
	var term2 float64
	if qlen > 0 && tauNs > 0 {
		logNum := h.tbl.Log2(qlen) + h.tbl.Log2(tauNs)
		logDen := h.logBperNs() + 2*h.tbl.Log2(h.T)
		term2 = h.tbl.Exp2FromSigned(logNum - logDen)
	}
	// Term 3: byte / (B·T).
	var term3 float64
	if pktBytes > 0 {
		logNum := h.tbl.Log2(pktBytes)
		logDen := h.logBperNs() + h.tbl.Log2(h.T)
		term3 = h.tbl.Exp2FromSigned(logNum - logDen)
	}
	return term1 + term2 + term3
}

// logBperNs returns log2 of the bandwidth in bytes per nanosecond, as the
// difference of two table lookups (B bytes/sec over 1e9 ns/sec).
func (h *HPCCUtilization) logBperNs() float64 {
	return h.tbl.Log2(h.B) - h.tbl.Log2(1_000_000_000)
}

// Exp2FromSigned extends Exp2 to negative exponents (quotients < 1), which
// the pipeline realizes by swapping numerator and denominator.
func (t *LogExpTable) Exp2FromSigned(y float64) float64 {
	if y >= 0 {
		return t.Exp2(y)
	}
	return 1 / t.Exp2(-y)
}

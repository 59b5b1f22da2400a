package core

import (
	"fmt"
	"testing"

	"repro/internal/coding"
	"repro/internal/hash"
)

// combinedTestPlan compiles a Fig-11-shaped plan exercising every query
// kind: path 2x(b=4) on every packet, latency b=8 on 7/8, util b=8 on
// 1/8 — 24-bit global budget, so the plan has three sets.
func combinedTestPlan(t testing.TB, master hash.Seed) (*Engine, *PathQuery, *LatencyQuery, *UtilQuery) {
	t.Helper()
	universe := make([]uint64, 64)
	for i := range universe {
		universe[i] = uint64(0xAB00 + i*3)
	}
	cfg, err := DefaultPathConfig(4, 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	path, err := NewPathQuery("path", cfg, 1, master, universe)
	if err != nil {
		t.Fatal(err)
	}
	lat := latQueryOfBits(t, 8, 7.0/8, master)
	util, err := NewUtilQuery("util", 8, 0.025, 1.0/8, 1000, master)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Compile([]Query{path, lat, util}, 24, master.Derive(9))
	if err != nil {
		t.Fatal(err)
	}
	return eng, path, lat, util
}

// hopValuesFor derives deterministic pseudo-values for one (packet, hop).
func hopValuesFor(pktID uint64, hop int, universe0 uint64) HopValues {
	h := hash.Seed(42).Hash2(pktID, uint64(hop))
	return HopValues{
		SwitchID:  universe0 + (h%16)*3,
		LatencyNs: 1000 + h%100000,
		Util:      1 + h%1500,
	}
}

// TestCompiledEncodeMatchesLegacy holds EncodeHopBatch and EncodeHopValues
// to the oracle on the three-kind plan: every query kind and every set of
// the plan in one digest, over a full path.
func TestCompiledEncodeMatchesLegacy(t *testing.T) {
	eng, _, _, _ := combinedTestPlan(t, 7)
	const k = 6
	rng := hash.NewRNG(11)
	pkts := make([]PacketDigest, 512)
	for i := range pkts {
		pkts[i] = PacketDigest{Flow: FlowKey(i % 5), PktID: rng.Uint64(), PathLen: k}
	}
	vals := make([]HopValues, len(pkts))
	for hop := 1; hop <= k; hop++ {
		for i := range pkts {
			vals[i] = hopValuesFor(pkts[i].PktID, hop, 0xAB00)
		}
		checkParity(t, eng, pkts, vals, []int{hop})
	}
}

// TestOverwrittenLatencyUnobservable is the encoder-side reason a
// generator may draw a packet's latency only at its reservoir winner
// (LatencyQuery.Winner) and pass 0 at every other hop: the latency slot
// keeps the last hop that writes it, so what the other hops write never
// reaches a digest. On the testbench plan and on the three-kind plan, for
// every path length the wire carries, the final digests of both encodings
// must be equal, while zeroing the winner's latency too must show.
func TestOverwrittenLatencyUnobservable(t *testing.T) {
	tbEng, _, tbLat := testbenchPlan(t, 31)
	combEng, _, combLat, _ := combinedTestPlan(t, 37)
	plans := []struct {
		name string
		eng  *Engine
		lat  *LatencyQuery
		uni0 uint64
	}{
		{"testbench", tbEng, tbLat, testUniverse(5, 80)[0]},
		{"combined", combEng, combLat, 0xAB00},
	}
	const n = 257
	for _, pl := range plans {
		for k := 1; k <= coding.MaxPathLen; k++ {
			rng := hash.NewRNG(uint64(k))
			every := make([]PacketDigest, n)
			for i := range every {
				every[i] = PacketDigest{Flow: FlowKey(i % 7), PktID: rng.Uint64(), PathLen: k}
			}
			winner := append([]PacketDigest(nil), every...)
			none := append([]PacketDigest(nil), every...)
			vEvery := make([]HopValues, n)
			vWinner := make([]HopValues, n)
			vNone := make([]HopValues, n)
			for hop := 1; hop <= k; hop++ {
				for i := range every {
					v := hopValuesFor(every[i].PktID, hop, pl.uni0)
					vEvery[i], vWinner[i], vNone[i] = v, v, v
					vNone[i].LatencyNs = 0
					if pl.lat.Winner(every[i].PktID, k) != hop {
						vWinner[i].LatencyNs = 0
					}
				}
				pl.eng.EncodeHopBatch(hop, every, vEvery)
				pl.eng.EncodeHopBatch(hop, winner, vWinner)
				pl.eng.EncodeHopBatch(hop, none, vNone)
			}
			differ := 0
			for i := range every {
				if winner[i].Digest != every[i].Digest {
					t.Fatalf("%s k=%d pkt %d: digest %#x with latency only at the winner, %#x with it at every hop",
						pl.name, k, i, winner[i].Digest, every[i].Digest)
				}
				if none[i].Digest != every[i].Digest {
					differ++
				}
			}
			if differ == 0 {
				t.Fatalf("%s k=%d: zeroing every latency changed no digest; the test cannot see latency", pl.name, k)
			}
		}
	}
}

// TestExtractIntoMatchesExtract checks ExtractInto against the slices the
// published plan describes (SetFor's queries and offsets), including
// buffer reuse.
func TestExtractIntoMatchesExtract(t *testing.T) {
	eng, _, _, _ := combinedTestPlan(t, 13)
	rng := hash.NewRNG(17)
	var buf []Extracted
	for i := 0; i < 2000; i++ {
		pktID, digest := rng.Uint64(), rng.Uint64()
		var want []Extracted
		if set := eng.SetFor(pktID); set != nil {
			for j, q := range set.Queries {
				want = append(want, Extracted{q, digest >> uint(set.Offsets[j]) & (1<<uint(q.Bits()) - 1)})
			}
		}
		buf = eng.ExtractInto(pktID, digest, buf[:0])
		if len(want) != len(buf) {
			t.Fatalf("pkt %d: ExtractInto %d slices, the plan %d", i, len(buf), len(want))
		}
		for j := range want {
			if want[j] != buf[j] {
				t.Fatalf("pkt %d slice %d: got %+v want %+v", i, j, buf[j], want[j])
			}
		}
	}
}

// TestRecordBatchMatchesRecord checks batched ingest leaves a Recording in
// exactly the state per-packet ingest does.
func TestRecordBatchMatchesRecord(t *testing.T) {
	eng, path, lat, util := combinedTestPlan(t, 19)
	const k = 6
	const nFlows = 8
	rng := hash.NewRNG(23)
	pkts := make([]PacketDigest, 4096)
	vals := make([]HopValues, len(pkts))
	for i := range pkts {
		pkts[i] = PacketDigest{Flow: FlowKey(i % nFlows), PktID: rng.Uint64(), PathLen: k}
	}
	for hop := 1; hop <= k; hop++ {
		for i := range pkts {
			vals[i] = hopValuesFor(pkts[i].PktID, hop, 0xAB00)
		}
		eng.EncodeHopBatch(hop, pkts, vals)
	}
	serial, err := NewRecording(eng)
	if err != nil {
		t.Fatal(err)
	}
	batched, err := NewRecording(eng)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pkts {
		if err := serial.Record(pkts[i].Flow, pkts[i].PathLen, pkts[i].PktID, pkts[i].Digest); err != nil {
			t.Fatal(err)
		}
	}
	for off := 0; off < len(pkts); off += 100 {
		end := off + 100
		if end > len(pkts) {
			end = len(pkts)
		}
		if err := batched.RecordBatch(pkts[off:end]); err != nil {
			t.Fatal(err)
		}
	}
	for f := 0; f < nFlows; f++ {
		flow := FlowKey(f)
		assertSameAnswers(t, serial, batched, flow, k, path, lat, util)
	}
}

// assertSameAnswers compares every query's answer between two recordings
// for one flow, requiring bit-identity.
func assertSameAnswers(t *testing.T, a, b *Recording, flow FlowKey, k int,
	path *PathQuery, lat *LatencyQuery, util *UtilQuery) {
	t.Helper()
	pa, oka := a.Path(path, flow)
	pb, okb := b.Path(path, flow)
	if oka != okb || len(pa) != len(pb) {
		t.Fatalf("flow %d: path answers diverge (%v/%d vs %v/%d)", flow, oka, len(pa), okb, len(pb))
	}
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("flow %d hop %d: path %d vs %d", flow, i+1, pa[i], pb[i])
		}
	}
	for hop := 1; hop <= k; hop++ {
		na, nb := a.LatencySamples(lat, flow, hop), b.LatencySamples(lat, flow, hop)
		if na != nb {
			t.Fatalf("flow %d hop %d: %d vs %d latency samples", flow, hop, na, nb)
		}
		if na == 0 {
			continue
		}
		for _, phi := range []float64{0.5, 0.9, 0.99} {
			qa, erra := a.LatencyQuantile(lat, flow, hop, phi)
			qb, errb := b.LatencyQuantile(lat, flow, hop, phi)
			if (erra == nil) != (errb == nil) || (erra == nil && qa != qb) {
				t.Fatalf("flow %d hop %d phi %v: quantile %v(%v) vs %v(%v)",
					flow, hop, phi, qa, erra, qb, errb)
			}
		}
	}
	ua, ub := a.UtilSeries(util, flow), b.UtilSeries(util, flow)
	if len(ua) != len(ub) {
		t.Fatalf("flow %d: util series %d vs %d", flow, len(ua), len(ub))
	}
	for i := range ua {
		if ua[i] != ub[i] {
			t.Fatalf("flow %d util[%d]: %v vs %v", flow, i, ua[i], ub[i])
		}
	}
}

// TestEncodeBatchZeroAlloc is the count gate on the encode path: no heap
// allocation per call at steady state for EncodeHopBatch at n = 1, 16
// and 256, for EncodeHopValues, and for ExtractInto into a reused buffer.
func TestEncodeBatchZeroAlloc(t *testing.T) {
	eng, _, _, _ := combinedTestPlan(t, 29)
	const k = 6
	rng := hash.NewRNG(31)
	pkts := make([]PacketDigest, 256)
	vals := make([]HopValues, len(pkts))
	for i := range pkts {
		pkts[i] = PacketDigest{Flow: FlowKey(i), PktID: rng.Uint64(), PathLen: k}
		vals[i] = hopValuesFor(pkts[i].PktID, 1, 0xAB00)
	}
	var buf []Extracted
	var digest uint64
	runs := map[string]func(){
		"EncodeHopValues": func() {
			for hop := 1; hop <= k; hop++ {
				digest = eng.EncodeHopValues(pkts[hop].PktID, hop, digest, &vals[hop])
			}
		},
		"ExtractInto": func() {
			for i := range pkts {
				buf = eng.ExtractInto(pkts[i].PktID, pkts[i].Digest, buf[:0])
			}
		},
	}
	for _, n := range []int{1, 16, 256} {
		runs[fmt.Sprintf("EncodeHopBatch n=%d", n)] = func() {
			for hop := 1; hop <= k; hop++ {
				eng.EncodeHopBatch(hop, pkts[:n], vals[:n])
			}
		}
	}
	for name, run := range runs {
		// The column scratch rides a sync.Pool, and under -race the pool
		// deliberately drops a fraction of Puts to surface reuse bugs — the
		// re-allocations that causes are race-runtime behavior, not a
		// hot-path leak, so the encode assertions only hold in a normal build.
		if raceEnabled && name != "ExtractInto" {
			continue
		}
		if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
			t.Errorf("%s allocates %.1f times per run, want 0", name, allocs)
		}
	}
}

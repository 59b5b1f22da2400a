package core

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"repro/internal/approx"
	"repro/internal/hash"
	"repro/internal/sketch"
)

// latQueryOfBits builds a latency query of any digest width 1..64. The
// constructor stops at 32 bits (the compressor's domain); wider queries
// are assembled around a 32-bit compressor, which only Decode consults —
// the record stage stores and ranks codes, it never interprets them.
func latQueryOfBits(t testing.TB, bits int, freq float64, master hash.Seed) *LatencyQuery {
	t.Helper()
	if bits <= 32 {
		q, err := NewLatencyQuery("lat", bits, 0.04, freq, master)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	comp, err := approx.NewMultCompressor(0.04, 32)
	if err != nil {
		t.Fatal(err)
	}
	g := hash.NewGlobal(master.Derive(hash.Seed(0).HashString("lat")))
	return &LatencyQuery{name: "lat", bits: bits, freq: freq, g: g, comp: comp}
}

// testbenchPlan mirrors collector.NewTestbench's plan (which this package
// cannot import): path tracing at 2×4 bits on every packet and an 8-bit
// latency query on 15/16 of them, sharing a 16-bit budget, 5-hop flows.
func testbenchPlan(t testing.TB, master hash.Seed) (*Engine, *PathQuery, *LatencyQuery) {
	t.Helper()
	cfg, err := DefaultPathConfig(4, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	path, err := NewPathQuery("path", cfg, 1, master, testUniverse(5, 80))
	if err != nil {
		t.Fatal(err)
	}
	lat := latQueryOfBits(t, 8, 15.0/16, master)
	eng, err := Compile([]Query{path, lat}, 16, master.Derive(1))
	if err != nil {
		t.Fatal(err)
	}
	return eng, path, lat
}

// testbenchFlow encodes n packets of one 5-hop flow on the testbench plan.
func testbenchFlow(eng *Engine, flow FlowKey, seed uint64, n int) []PacketDigest {
	const k = 5
	rng := hash.NewRNG(seed)
	uni := testUniverse(5, 80)
	pkts := make([]PacketDigest, n)
	vals := make([]HopValues, n)
	for i := range pkts {
		pkts[i] = PacketDigest{Flow: flow, PktID: rng.Uint64(), PathLen: k}
	}
	for hop := 1; hop <= k; hop++ {
		for i := range vals {
			vals[i] = HopValues{SwitchID: uni[(int(flow)*7+hop)%len(uni)], LatencyNs: 4000 + rng.Uint64()%8000}
		}
		eng.EncodeHopBatch(hop, pkts, vals)
	}
	return pkts
}

// TestRecordStageAllocationPins pins the record stage's allocation counts
// (counts, not clocks, so they hold on a loaded box): observing into a
// decoded flow allocates nothing, a frame recorded into converged flows
// allocates only when a sample series grows, and a raw latency quantile
// allocates its result however many samples it ranks.
func TestRecordStageAllocationPins(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime instruments allocations and inflates AllocsPerRun")
	}
	eng, path, lat := testbenchPlan(t, 71)
	const flow = FlowKey(9)
	rec, err := NewRecordingSeeded(eng, 0, 0xA110C)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.RecordBatch(testbenchFlow(eng, flow, 73, 4096)); err != nil {
		t.Fatal(err)
	}
	dec := rec.PathDecoder(path, flow)
	if dec == nil || !dec.Done() {
		t.Fatal("flow did not decode; the pins below need a converged flow")
	}

	frame := testbenchFlow(eng, flow, 79, 256)
	pathBits := make([]uint64, len(frame))
	for i := range frame {
		for _, x := range eng.ExtractInto(frame[i].PktID, frame[i].Digest, nil) {
			if x.Query == Query(path) {
				pathBits[i] = x.Bits
			}
		}
	}
	if got := testing.AllocsPerRun(50, func() {
		for i := range frame {
			path.ObserveInto(dec, frame[i].PktID, pathBits[i])
		}
	}); got != 0 {
		t.Errorf("ObserveInto on a decoded flow: %.2f allocs per 256 packets, want 0", got)
	}

	if got := testing.AllocsPerRun(50, func() {
		if err := rec.RecordBatch(frame); err != nil {
			t.Fatal(err)
		}
	}); got >= 256.0/64 {
		t.Errorf("RecordBatch into a converged flow: %.2f allocs per 256-packet frame, want < 1 per 64 packets", got)
	}

	quantileAllocs := func(pkts int) float64 {
		rec, err := NewRecordingSeeded(eng, 0, 0xA110C)
		if err != nil {
			t.Fatal(err)
		}
		if err := rec.RecordBatch(testbenchFlow(eng, flow, 83, pkts)); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(50, func() {
			if _, err := rec.LatencyQuantiles(lat, flow, 3, 0.5, 0.99); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := quantileAllocs(2048), quantileAllocs(8*2048)
	if small != large || small > 2 {
		t.Errorf("LatencyQuantiles(p50, p99) on an 8-bit raw store: %.1f allocs at N, %.1f at 8N; want equal and at most the phis and the result", small, large)
	}
}

// TestRawStoreMatchesModel is the property the code-width store must
// hold at every digest width 1..64 — the byte boundaries 8/9, 16/17,
// 32/33 and 63/64 among them: for random, all-equal, all-max-code and
// single-sample streams, the sample count, the storage bytes and every
// quantile equal a from-scratch model that keeps the codes in a plain
// slice and ranks them with sketch.ExactQuantile; and the state survives
// a hand-off round trip byte for byte.
func TestRawStoreMatchesModel(t *testing.T) {
	const k = 3
	phis := []float64{0, 1e-9, 0.5, 0.99, 1}
	for bits := 1; bits <= 64; bits++ {
		lat := latQueryOfBits(t, bits, 1, 89)
		eng, err := Compile([]Query{lat}, bits, 97)
		if err != nil {
			t.Fatal(err)
		}
		mask := digestMask(bits)
		rng := hash.NewRNG(uint64(1009 * bits))
		streams := []struct {
			name string
			gen  func() uint64
		}{
			{"random", rng.Uint64},
			{"all-equal", func() uint64 { return 0x5A5A5A5A5A5A5A5A }},
			{"all-max", func() uint64 { return ^uint64(0) }},
		}
		for _, stream := range streams {
			for _, n := range []int{1, 2 + rng.Intn(700)} {
				rec, err := NewRecordingSeeded(eng, 0, 101)
				if err != nil {
					t.Fatal(err)
				}
				const flow = FlowKey(5)
				model := make([][]float64, k)
				for i := 0; i < n; i++ {
					pktID, digest := rng.Uint64(), stream.gen()
					if err := rec.Record(flow, k, pktID, digest); err != nil {
						t.Fatal(err)
					}
					hop := lat.Winner(pktID, k)
					model[hop-1] = append(model[hop-1], float64(digest&mask))
				}
				ctx := fmt.Sprintf("bits=%d %s n=%d", bits, stream.name, n)
				storage := 0
				for hop := 1; hop <= k; hop++ {
					want := model[hop-1]
					storage += len(want) * ((bits + 7) / 8)
					if got := rec.LatencySamples(lat, flow, hop); got != len(want) {
						t.Fatalf("%s hop %d: %d samples, model %d", ctx, hop, got, len(want))
					}
					got, err := rec.LatencyQuantiles(lat, flow, hop, phis...)
					if len(want) == 0 {
						if err == nil {
							t.Fatalf("%s hop %d: quantiles of an empty store", ctx, hop)
						}
						continue
					}
					if err != nil {
						t.Fatalf("%s hop %d: %v", ctx, hop, err)
					}
					// Decode saturates on wide codes, so the codes themselves
					// are compared too, straight from the store.
					codes := make([]float64, len(phis))
					rec.flows[flow].slots[0].lat[hop-1].rawQuantiles(phis, codes)
					for i, phi := range phis {
						code := sketch.ExactQuantile(want, phi)
						if w := lat.Decode(uint64(code + 0.5)); got[i] != w || codes[i] != code {
							t.Fatalf("%s hop %d phi %v: %v (code %v), model %v (code %v)", ctx, hop, phi, got[i], codes[i], w, code)
						}
					}
				}
				got := 0
				for _, st := range rec.flows[flow].slots[0].lat {
					got += len(st.raw)
				}
				if got != storage {
					t.Fatalf("%s: %d storage bytes, model %d", ctx, got, storage)
				}
				blob, err := rec.AppendFlowState(nil, []Query{lat}, flow)
				if err != nil {
					t.Fatal(err)
				}
				back, err := NewRecordingSeeded(eng, 0, 101)
				if err != nil {
					t.Fatal(err)
				}
				if err := back.RestoreFlowState([]Query{lat}, flow, blob); err != nil {
					t.Fatalf("%s: restore: %v", ctx, err)
				}
				again, err := back.AppendFlowState(nil, []Query{lat}, flow)
				if err != nil || !bytes.Equal(blob, again) {
					t.Fatalf("%s: hand-off round trip changed the blob (err %v)", ctx, err)
				}
			}
		}
	}
}

// recordingState is everything observable about a Recording's flows: the
// tracked set and each flow's complete hand-off blob.
func recordingState(t *testing.T, rec *Recording, queries []Query) string {
	t.Helper()
	var b bytes.Buffer
	for _, f := range rec.Flows() {
		blob, err := rec.AppendFlowState(nil, queries, f)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%d:%x\n", f, blob)
	}
	return b.String()
}

// TestRecordBatchFlowRunHazards drives the two ways the once-per-run
// flow lookup of RecordBatch could go stale — an Evict of the last-recorded
// flow between batches, two flows interleaved packet by packet — and
// requires the
// batched Recording to equal, bit for bit, one fed the same packets
// through Record one at a time (with the same Evict calls).
func TestRecordBatchFlowRunHazards(t *testing.T) {
	const k = 6
	for _, v := range storageVariants {
		eng, path, lat, util := combinedTestPlanLat(t, 103, v.latBits)
		queries := []Query{path, lat, util}
		all := cloneWorkload(t, eng, 107, 4, 1600, k)
		interleaved := cloneWorkload(t, eng, 109, 2, 600, k) // flows 1,2,1,2,…
		scramble(v.latBits, 113, all, interleaved)
		fl := make([][]PacketDigest, 4) // all, split by flow
		for _, p := range all {
			fl[p.Flow-1] = append(fl[p.Flow-1], p)
		}
		concat := slices.Concat[[]PacketDigest]
		cases := []struct {
			name    string
			batches [][]PacketDigest
			evict   []FlowKey // evict[i] (if nonzero) is evicted after batch i
		}{
			{
				// The flow a batch ends on is evicted before the next batch
				// opens with it again: the next batch must start it afresh.
				name: "evict-between-batches",
				batches: [][]PacketDigest{
					concat(fl[0][:150], fl[1][:150]),
					concat(fl[1][150:300], fl[0][150:300]),
					concat(fl[0][300:400], fl[1][300:400]),
				},
				evict: []FlowKey{2, 1, 0},
			},
			{
				name:    "interleaved-packet-by-packet",
				batches: [][]PacketDigest{interleaved[:256], interleaved[256:]},
				evict:   []FlowKey{0, 0},
			},
		}
		for _, tc := range cases {
			t.Run(tc.name+"/"+v.name, func(t *testing.T) {
				mk := func() *Recording {
					rec, err := NewRecordingSeeded(eng, v.sketchItems, 0xCAC4E)
					if err != nil {
						t.Fatal(err)
					}
					return rec
				}
				batched, serial := mk(), mk()
				for i, b := range tc.batches {
					if err := batched.RecordBatch(b); err != nil {
						t.Fatal(err)
					}
					for _, p := range b {
						if err := serial.Record(p.Flow, p.PathLen, p.PktID, p.Digest); err != nil {
							t.Fatal(err)
						}
					}
					if f := tc.evict[i]; f != 0 {
						batched.Evict(f)
						serial.Evict(f)
					}
					if got, want := recordingState(t, batched, queries), recordingState(t, serial, queries); got != want {
						t.Fatalf("after batch %d the batched state diverges from packet-at-a-time Record", i)
					}
				}
				for _, f := range serial.Flows() {
					assertSameAnswers(t, serial, batched, f, k, path, lat, util)
				}
			})
		}
	}
}

// TestLengtheningRouteRecords: a flow whose packets claim a longer path
// than its first packet did — k=3, then k=5, which any exporter can send —
// used to index past the flow's per-hop stores and panic the worker. The
// per-hop sample whose winner hop has no store is dropped instead, and
// deterministically: RecordBatch and packet-at-a-time Record agree bit for
// bit, the flow keeps its first-seen hop count, and the latency stores hold
// exactly the samples whose winner is within it.
func TestLengtheningRouteRecords(t *testing.T) {
	for _, v := range storageVariants {
		t.Run(v.name, func(t *testing.T) {
			eng, path, lat, util := combinedTestPlanLat(t, 127, v.latBits)
			queries := []Query{path, lat, util}
			const flow, short, long = FlowKey(1), 3, 5
			stream := slices.Concat(cloneWorkload(t, eng, 131, 1, 300, short), cloneWorkload(t, eng, 137, 1, 900, long))
			scramble(v.latBits, 139, stream)
			mk := func() *Recording {
				rec, err := NewRecordingSeeded(eng, v.sketchItems, 0xCAC4E)
				if err != nil {
					t.Fatal(err)
				}
				return rec
			}
			batched, serial := mk(), mk()
			if err := batched.RecordBatch(stream); err != nil {
				t.Fatal(err)
			}
			wantLat, dropped := 0, 0
			for _, p := range stream {
				if err := serial.Record(p.Flow, p.PathLen, p.PktID, p.Digest); err != nil {
					t.Fatal(err)
				}
				for _, x := range eng.ExtractInto(p.PktID, p.Digest, nil) {
					if x.Query != Query(lat) {
						continue
					}
					if lat.Winner(p.PktID, p.PathLen) <= short {
						wantLat++
					} else {
						dropped++
					}
				}
			}
			if dropped == 0 {
				t.Fatal("no packet elected a hop past the flow's stores; the case is not exercised")
			}
			if got, want := recordingState(t, batched, queries), recordingState(t, serial, queries); got != want {
				t.Fatal("RecordBatch and packet-at-a-time Record diverge on a lengthening route")
			}
			assertSameAnswers(t, serial, batched, flow, short, path, lat, util)
			gotLat := 0
			for hop := 1; hop <= long; hop++ {
				gotLat += batched.LatencySamples(lat, flow, hop)
			}
			if batched.Hops(lat, flow) != short || batched.Hops(path, flow) != short {
				t.Fatalf("hop counts %d/%d, want the first-seen %d", batched.Hops(path, flow), batched.Hops(lat, flow), short)
			}
			if gotLat != wantLat {
				t.Fatalf("stores hold %d latency samples, want %d (winner within the first %d hops)",
					gotLat, wantLat, short)
			}
		})
	}
}

// allocDelta runs f and returns the bytes and heap objects it allocated.
func allocDelta(f func()) (bytes, mallocs float64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc - before.TotalAlloc), float64(after.Mallocs - before.Mallocs)
}

// TestColdFlowAllocationShape pins what a new flow costs the record stage
// and what a decoded one costs a snapshot, in bytes and heap objects per
// flow (counts, so they hold on a loaded box). The flows are the
// benchmark's: the testbench plan, 5 hops, 500 packets each. Before the
// decoder split into a per-query plan and a flat per-flow state a flow
// cost 7.3 KB in 50 objects to record (3.2 KB of it re-checking the
// universe for duplicates) and 1.4 KB in 12.6 to clone.
func TestColdFlowAllocationShape(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime instruments allocations")
	}
	const flows, pkts = 512, 500
	eng, path, _ := testbenchPlan(t, 71)
	batch := make([]PacketDigest, 0, flows*pkts)
	for f := 1; f <= flows; f++ {
		batch = append(batch, testbenchFlow(eng, FlowKey(f), uint64(1000+f), pkts)...)
	}
	rec, err := NewRecordingSeeded(eng, 0, 0xA110C)
	if err != nil {
		t.Fatal(err)
	}
	bytes, mallocs := allocDelta(func() {
		if err := rec.RecordBatch(batch); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("RecordBatch: %.0f B and %.1f objects per cold %d-packet flow", bytes/flows, mallocs/flows, pkts)
	if bytes/flows > 3500 || mallocs/flows > 36 {
		t.Errorf("RecordBatch: %.0f B and %.1f objects per cold flow, want at most 3500 B and 36", bytes/flows, mallocs/flows)
	}
	for f := 1; f <= flows; f++ {
		if dec := rec.PathDecoder(path, FlowKey(f)); dec == nil || !dec.Done() {
			t.Fatalf("flow %d did not decode in %d packets; the clone pin needs finished flows", f, pkts)
		}
	}

	dec := rec.PathDecoder(path, 1)
	frame := batch[:pkts]
	pathBits := make([]uint64, len(frame))
	for i := range frame {
		for _, x := range eng.ExtractInto(frame[i].PktID, frame[i].Digest, nil) {
			if x.Query == Query(path) {
				pathBits[i] = x.Bits
			}
		}
	}
	if got := testing.AllocsPerRun(20, func() {
		for i := range frame {
			path.ObserveInto(dec, frame[i].PktID, pathBits[i])
		}
	}); got != 0 {
		t.Errorf("ObserveInto on a finished decoder: %.2f allocs per %d packets, want 0", got, pkts)
	}

	var clone *Recording
	bytes, mallocs = allocDelta(func() { clone = rec.Clone() })
	// The flow map's buckets are the clone's, not a flow's; what is left
	// of them per flow is inside the budget.
	t.Logf("Clone: %.0f B and %.1f objects per finished flow", bytes/flows, mallocs/flows)
	if bytes/flows > 700 || mallocs/flows > 5 {
		t.Errorf("Clone: %.0f B and %.1f objects per finished flow, want at most 700 B and 5", bytes/flows, mallocs/flows)
	}
	if clone.TrackedFlows() != flows {
		t.Fatalf("clone tracks %d flows, want %d", clone.TrackedFlows(), flows)
	}
}

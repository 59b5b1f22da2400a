package core

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/coding"
	"repro/internal/hash"
	"repro/internal/sketch"
)

// latQueryOfBits builds a latency query named lat of a digest width 1..8.
func latQueryOfBits(t testing.TB, bits int, freq float64, master hash.Seed) *LatencyQuery {
	t.Helper()
	q, err := NewLatencyQuery("lat", bits, 0.04, freq, master)
	if err != nil {
		t.Fatal(err)
	}
	return q
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
	rec, err := NewRecording(eng)
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
		rec, err := NewRecording(eng)
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

// TestRawStoreMatchesModel is the property the counting store must hold at
// every digest width 1..8: for random, all-equal, all-max-code and
// single-sample streams, the sample count, the samples held unfolded and
// every quantile equal a from-scratch model that keeps the codes in a plain
// slice and ranks them with sketch.ExactQuantile; the stores count the
// model's codes, tail and histogram together, and the state survives a
// hand-off round trip byte for byte. A store counts in its inline tail and
// folds it into its histogram when a code does not fit: random 8-bit codes
// span more than the tail's window, and a stream of one code folds at
// every 256th sample, when its counter is full. At 8 bits a stream per
// counter position j opens each hop's window at code 100 with code 114 and
// then sends code 100+j, so every one of the 29 packed counters, the five
// in the tail's first word beside lo and the shared mark among them,
// counts to 254 and 255 and folds. Hop 1 is also filled to 255, 256, 257
// and 511 samples with a clone taken after the flow's first packet, so its
// first fold goes into a copy of a histogram the clone may hold; the clone
// must still answer for that first packet.
func TestRawStoreMatchesModel(t *testing.T) {
	const k = 3
	phis := []float64{0, 1e-9, 0.5, 0.99, 1}
	for bits := 1; bits <= 8; bits++ {
		lat := latQueryOfBits(t, bits, 1, 89)
		eng, err := Compile([]Query{lat}, bits, 97)
		if err != nil {
			t.Fatal(err)
		}
		mask := digestMask(bits)
		rng := hash.NewRNG(uint64(1009 * bits))
		// A stream's gen is given the samples the packet's hop holds.
		type stream struct {
			name string
			gen  func(n int) uint64
		}
		streams := []stream{
			{"random", func(int) uint64 { return rng.Uint64() }},
			{"all-equal", func(int) uint64 { return 0x5A5A5A5A5A5A5A5A }},
			{"all-max", func(int) uint64 { return ^uint64(0) }},
		}
		for j := 0; bits == 8 && j < latTail; j++ {
			streams = append(streams, stream{fmt.Sprintf("counter-%d", j), func(n int) uint64 {
				if n == 0 {
					return 114
				}
				return uint64(100 + j)
			}})
		}
		for _, stream := range streams {
			// A length counts packets recorded, or with hop1 the samples
			// hop 1 ends with, a clone taken after the first packet.
			type length struct {
				n    int
				hop1 bool
			}
			lengths := []length{{1, false}, {2 + rng.Intn(700), false}}
			for _, n := range []int{math.MaxUint8, math.MaxUint8 + 1, math.MaxUint8 + 2, 2*math.MaxUint8 + 1} {
				lengths = append(lengths, length{n, true})
			}
			for _, l := range lengths {
				rec, err := NewRecording(eng)
				if err != nil {
					t.Fatal(err)
				}
				const flow = FlowKey(5)
				model, raw := make([][]float64, k), make([][]uint64, k)
				// tail and shared model each store's samples not folded, per
				// code, and whether a clone may share its histogram: every
				// stream but the random one keeps its codes within one window,
				// so a store folds when a counter is full. A random stream's
				// folds are not modelled.
				tail, shared := make([][1 << 8]int, k), make([]bool, k)
				modelled := stream.name != "random"
				var clone *Recording
				var cloneRaw [][]uint64
				for i := 0; l.hop1 && len(model[0]) < l.n || !l.hop1 && i < l.n; i++ {
					if l.hop1 && i == 1 {
						clone, cloneRaw = rec.Clone(), slices.Clone(raw)
						for h := range shared {
							shared[h] = true
						}
					}
					pktID := rng.Uint64()
					hop := lat.Winner(pktID, k)
					digest := stream.gen(len(model[hop-1]))
					if err := rec.Record(flow, k, pktID, digest); err != nil {
						t.Fatal(err)
					}
					code := digest & mask
					model[hop-1] = append(model[hop-1], float64(code))
					raw[hop-1] = append(raw[hop-1], code)
					if tail[hop-1][code] == math.MaxUint8 {
						tail[hop-1], shared[hop-1] = [1 << 8]int{}, false
					}
					tail[hop-1][code]++
				}
				ctx := fmt.Sprintf("bits=%d %s n=%d hop1=%v", bits, stream.name, l.n, l.hop1)
				for hop := 1; hop <= k; hop++ {
					want := model[hop-1]
					st, _ := rec.storeOf(lat, flow, hop)
					var held [1 << 8]int
					for j, c := range st.tail() {
						if c != 0 {
							held[st.lo()+j] = int(c)
						}
					}
					if modelled && (held != tail[hop-1] || st.shared() != shared[hop-1]) {
						t.Fatalf("%s hop %d: of %d samples, the tail holds %v (shared %v), want %v (shared %v)",
							ctx, hop, len(want), held, st.shared(), tail[hop-1], shared[hop-1])
					}
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
					// Decode may map two codes to one value, so the codes
					// themselves are compared too, straight from the store.
					codes := make([]float64, len(phis))
					st.countQuantiles(phis, codes)
					for i, phi := range phis {
						code := sketch.ExactQuantile(want, phi)
						if w := lat.Decode(uint64(code + 0.5)); got[i] != w || codes[i] != code {
							t.Fatalf("%s hop %d phi %v: %v (code %v), model %v (code %v)", ctx, hop, phi, got[i], codes[i], w, code)
						}
					}
				}
				img, err := rec.AppendFlowState(nil, flow)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(storeCounts(rec, lat, flow, k), modelCounts(raw)) {
					t.Fatalf("%s: the stores count other codes than the model's samples", ctx)
				}
				back, err := NewRecording(eng)
				if err != nil {
					t.Fatal(err)
				}
				if err := back.RestoreFlowState(flow, img); err != nil {
					t.Fatalf("%s: restore: %v", ctx, err)
				}
				again, err := back.AppendFlowState(nil, flow)
				if err != nil || !bytes.Equal(img, again) {
					t.Fatalf("%s: hand-off round trip changed the image (err %v)", ctx, err)
				}
				if clone != nil {
					if !slices.Equal(storeCounts(clone, lat, flow, k), modelCounts(cloneRaw)) {
						t.Fatalf("%s: the clone taken after the first packet no longer holds it", ctx)
					}
				}
				// The restored stores record on as the originals do, past a
				// full counter of an all-equal stream.
				for range math.MaxUint8 + 1 {
					pktID, digest := rng.Uint64(), stream.gen(1)
					for _, r := range []*Recording{rec, back} {
						if err := r.Record(flow, k, pktID, digest); err != nil {
							t.Fatal(err)
						}
					}
				}
				img, _ = rec.AppendFlowState(nil, flow)
				if again, err = back.AppendFlowState(nil, flow); err != nil || !bytes.Equal(img, again) {
					t.Fatalf("%s: a restored flow records differently (err %v)", ctx, err)
				}
			}
		}
	}
}

// storeCounts is what rec's stores of lat count for flow at each of k
// hops, tail and histogram together.
func storeCounts(rec *Recording, lat *LatencyQuery, flow FlowKey, k int) [][1 << 8]uint64 {
	out := make([][1 << 8]uint64, k)
	for hop := 1; hop <= k; hop++ {
		if st, ok := rec.storeOf(lat, flow, hop); ok {
			st.countInto(&out[hop-1])
		}
	}
	return out
}

// modelCounts is the counts of codes[hop-1] at each hop.
func modelCounts(codes [][]uint64) [][1 << 8]uint64 {
	out := make([][1 << 8]uint64, len(codes))
	for h, c := range codes {
		for _, code := range c {
			out[h][code]++
		}
	}
	return out
}

// TestInlineTailWindow walks a latency store's inline tail through its
// rules. The first code centres the window on itself, within the code
// domain; a code outside the window slides it to centre the codes held
// while they still fit; a code that would spread them past latTail, and
// one whose counter is full, fold the tail into the histogram and start a
// new window at the code. After every step the store's histogram and tail
// together count what a plain histogram of the codes does.
//
// The tail is packed in four words, lo and the shared mark in the low three
// bytes of the first: every counter position, the five in word 0 among
// them, counts to 254 and 255 beside an untouched lo and mark, and its
// next sample folds the tail and clears the mark; a slide moves counts
// between the words and keeps the mark.
func TestInlineTailWindow(t *testing.T) {
	newStore := func() (latStore, *[1 << 8]uint64) {
		a := &arena{pageSet: pageSet{e: &Engine{}}}
		fs := &flowState{w: make([]uint64, headerWords(1)), ps: &a.pageSet, a: a}
		return latStore{t: new([tailWords]uint64), fs: fs, n: 1}, new([1 << 8]uint64)
	}
	add := func(st latStore, model *[1 << 8]uint64, code, times int) {
		for range times {
			st.add(uint64(code))
			model[code]++
		}
	}
	// check holds the store to a window at lo, the given counts at codes,
	// folded samples in its histogram, the mark and the model histogram.
	check := func(ctx string, st latStore, model *[1 << 8]uint64, lo int, counts map[int]int, folded int, shared bool) {
		t.Helper()
		n := uint64(0)
		if st.sum() != nil {
			n = st.sum().n
		}
		var hist [1 << 8]uint64
		st.countInto(&hist)
		tail := st.tail()
		for code, c := range counts {
			if code-lo < 0 || code-lo >= latTail || int(tail[code-lo]) != c {
				t.Fatalf("%s: code %d not counted %d times in a window at %d (tail %v)", ctx, code, c, st.lo(), tail)
			}
		}
		if st.lo() != lo || n != uint64(folded) || st.shared() != shared || hist != *model {
			t.Fatalf("%s: window at %d, %d samples folded, shared %v; want %d, %d, %v; counts match a plain histogram: %v",
				ctx, st.lo(), n, st.shared(), lo, folded, shared, hist == *model)
		}
	}
	for j := range latTail {
		st, model := newStore()
		add(st, model, 114, 1) // opens the window at 100
		st.t[0] |= markShared
		code, opener := 100+j, map[int]int{114: 1}
		if j == 14 {
			opener = nil
		}
		held := func(c int) map[int]int {
			m := map[int]int{code: c}
			for code, c := range opener {
				m[code] = c
			}
			return m
		}
		add(st, model, code, math.MaxUint8-1-int(model[code]))
		check(fmt.Sprintf("counter %d at 254", j), st, model, 100, held(254), 0, true)
		add(st, model, code, 1)
		check(fmt.Sprintf("counter %d at 255", j), st, model, 100, held(255), 0, true)
		add(st, model, code, 1)
		check(fmt.Sprintf("counter %d's fold", j), st, model, code-(latTail-1)/2, map[int]int{code: 1},
			math.MaxUint8+len(opener), false)
	}
	for d := 15; d < latTail; d++ {
		for _, other := range []int{114 + d, 114 - d} {
			st, model := newStore()
			add(st, model, 114, 3) // counter 14, in word 2
			st.t[0] |= markShared
			add(st, model, other, 2)
			lo := min(114, other) - (latTail-1-d)/2
			check(fmt.Sprintf("slide to %d", other), st, model, lo, map[int]int{114: 3, other: 2}, 0, true)
		}
	}

	st, model := newStore()
	for i, step := range []struct {
		code, times int
		lo          int // the window's first code afterwards
		folded      int // samples in the histogram afterwards
	}{
		{100, 1, 86, 0},
		{120, 1, 96, 0},  // 100..120 fit: the window slides
		{80, 1, 66, 2},   // 80..120 do not: fold
		{0, 1, 0, 3},     // clamped at code 0
		{255, 1, 227, 4}, // and at code 255
		{255, math.MaxUint8 - 1, 227, 4},
		{255, 1, 227, 4 + math.MaxUint8}, // a full counter folds
		{230, 1, 227, 4 + math.MaxUint8},
	} {
		add(st, model, step.code, step.times)
		check(fmt.Sprintf("step %d (code %d ×%d)", i, step.code, step.times), st, model, step.lo, nil, step.folded, false)
	}
}

// recordingState is everything observable about a Recording's flows: the
// tracked set and each flow's complete hand-off image.
func recordingState(t *testing.T, rec *Recording) string {
	t.Helper()
	var b bytes.Buffer
	for _, f := range rec.Flows() {
		img, err := rec.AppendFlowState(nil, f)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%d:%x\n", f, img)
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
	eng, path, lat, util := combinedTestPlan(t, 103)
	all := cloneWorkload(t, eng, 107, 4, 1600, k)
	interleaved := cloneWorkload(t, eng, 109, 2, 600, k) // flows 1,2,1,2,…
	fl := make([][]PacketDigest, 4)                      // all, split by flow
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
		t.Run(tc.name+"/raw", func(t *testing.T) {
			mk := func() *Recording {
				rec, err := NewRecording(eng)
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
				if got, want := recordingState(t, batched), recordingState(t, serial); got != want {
					t.Fatalf("after batch %d the batched state diverges from packet-at-a-time Record", i)
				}
			}
			for _, f := range serial.Flows() {
				assertSameAnswers(t, serial, batched, f, k, path, lat, util)
			}
		})
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
	t.Run("raw", func(t *testing.T) {
		eng, path, lat, util := combinedTestPlan(t, 127)
		const flow, short, long = FlowKey(1), 3, 5
		stream := slices.Concat(cloneWorkload(t, eng, 131, 1, 300, short), cloneWorkload(t, eng, 137, 1, 900, long))
		mk := func() *Recording {
			rec, err := NewRecording(eng)
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
		if got, want := recordingState(t, batched), recordingState(t, serial); got != want {
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
// flow (counts, so they hold on a loaded box). The flows take the
// testbench plan over 5 hops; the benchmark's are 500 packets long, and
// the 16- and 64-packet rows are mouse flows, 3 and 12 latency samples
// per (flow, hop). Before the decoder split into a per-query plan and a
// flat per-flow state a 500-packet flow cost 7.3 KB in 50 objects to
// record (3.2 KB of it re-checking the universe for duplicates) and 1.4 KB
// in 12.6 to clone; while a clone copied every flow's state it cost 532 B
// in 4 objects. While one-byte latency grew by append, the rows cost
// 751 B in 10.1 objects, 834 B in 15.0 and 1,953 B in 30.3; in fixed
// 128-byte chunks, whose first sample took a whole chunk and a two-slot
// list (144 B a store), 1,408 B in 15.0, 1,433 B in 15.3 and 1,433 B in
// 15.3. Counted in each store's inline tail, in an array of stores beside
// a decoder struct with a block of its own and a slot per query, they
// cost 713 B in 5.3 at every length. As one 64-byte header and one
// 40-word block, the decoder's words and the tails in it, they cost 479 B
// in 2.6: the header, the block, the flow's share of the map, and for
// about a quarter of flows a slab of stored packets and the one-entry
// array that holds it. In the arena they cost 399 B in 0.38: a 42-word
// block cut from a page (the header grew by the key and the hold word),
// the flow's share of the pages (~16 B) and of a table of 4-byte slots
// (~16 B), and for about a quarter of flows a slab and its side entry.
// While a flow whose path had decoded moved into a 32-word block without
// its decoder's candidate rows, and the 42-word block it left was the
// next flow's, they cost 335 B in 0.37 at every length. Now the decoder
// packs its values and keeps no packet counter, a run's decoder grows
// the Recording's scratch, and a flow keeps a slab only while its path
// is undecoded at a run's end, so a flow that decodes in its first run
// is its 37-word block, then a 27-word one, and no side entry: 243 B in
// 0.07 objects (the Recording's own pages, table and free lists, spread
// over its flows) at 64 and 500 packets. At 16 packets some paths are
// still undecoded, and each keeps an exact-length slab in a side entry:
// 282 B in 0.14. The pages are cut in doubling sizes, so the bytes move
// in steps. The budgets are each measurement plus 4 % and 0.03 objects.
// Each row is measured three times and the lowest bytes and objects are
// held to them: allocDelta counts the runtime's own mallocs in its window
// too, which once in a dozen 386 runs put five objects on one
// measurement.
//
// A clone's row is its run: 4.4 B in 0.008 objects per flow, a block
// offset each (budget 6 B and 0.02). While the run kept each flow's key
// beside the offset it cost 17 B, and while a map indexed it ~36 B.
//
// One more row prices what hangs off the side entry: 500-packet 6-hop
// flows of the combined plan, whose util query takes 1/8 of packets into a
// series that grows by append and whose latency codes span the whole code
// domain, so every store folds (9,793 B in 40.8 objects; 9,899 B in 41.4
// while the decoder was 10 words and a decoded flow kept its slab, 9,963 B
// while it kept its candidate rows, 10,010 B in 43.7 with a header
// object, 10,169 B in 43.3 before). Its budget is the measurement plus 4 %
// and 1 object.
// cutWords is the words a's blocks have been cut from: every page before
// the last, whole, and the last up to fill.
func cutWords(a *arena) int {
	n := a.fill
	for _, p := range a.pages[:len(a.pages)-1] {
		n += len(p)
	}
	return n
}

func TestColdFlowAllocationShape(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime instruments allocations")
	}
	const flows, pkts = 512, 500
	eng, path, _ := testbenchPlan(t, 71)
	// cost records batch into three new Recordings and returns the last
	// with the lowest bytes and objects per flow any of them cost.
	cost := func(eng *Engine, batch []PacketDigest) (rec *Recording, bytes, objs float64) {
		bytes, objs = math.Inf(1), math.Inf(1)
		for range 3 {
			var err error
			if rec, err = NewRecording(eng); err != nil {
				t.Fatal(err)
			}
			b, m := allocDelta(func() {
				if err := rec.RecordBatch(batch); err != nil {
					t.Fatal(err)
				}
			})
			bytes, objs = min(bytes, b/flows), min(objs, m/flows)
		}
		return rec, bytes, objs
	}
	var rec *Recording
	var batch []PacketDigest
	for _, row := range []struct {
		pkts                        int
		maxBytes, maxObjs, maxWords float64
	}{{16, 293, 0.17, 30.75}, {64, 253, 0.1, 27.75}, {pkts, 253, 0.1, 27.75}} { // the last row's flows stay in rec
		batch = make([]PacketDigest, 0, flows*row.pkts)
		for f := 1; f <= flows; f++ {
			batch = append(batch, testbenchFlow(eng, FlowKey(f), uint64(1000+f), row.pkts)...)
		}
		var bytes, objs float64
		rec, bytes, objs = cost(eng, batch)
		t.Logf("RecordBatch: %.0f B and %.2f objects per cold %d-packet flow", bytes, objs, row.pkts)
		if bytes > row.maxBytes || objs > row.maxObjs {
			t.Errorf("RecordBatch: %.0f B and %.2f objects per cold %d-packet flow, want at most %.0f B and %.2f",
				bytes, objs, row.pkts, row.maxBytes, row.maxObjs)
		}
		// The allocator's bytes move in page steps; the words the arena
		// has cut move with every block. A flow that decodes cuts its
		// 37-word block and then its 27-word rowless one, and later new
		// flows take the freed 37-word blocks first.
		words := float64(cutWords(rec.flows)) / flows
		t.Logf("RecordBatch: %.2f arena words (%.0f B) cut per cold %d-packet flow", words, words*8, row.pkts)
		if words > row.maxWords {
			t.Errorf("RecordBatch: %.2f arena words cut per cold %d-packet flow, want at most %.2f", words, row.pkts, row.maxWords)
		}
	}

	utilEng, _, _, _ := combinedTestPlan(t, 71)
	var utilBatch []PacketDigest
	for f := 1; f <= flows; f++ {
		stream := cloneWorkload(t, utilEng, uint64(1000+f), 1, pkts, 6)
		for i := range stream {
			stream[i].Flow = FlowKey(f)
		}
		utilBatch = append(utilBatch, stream...)
	}
	const maxBytes, maxObjs = 10185.0, 41.8
	_, bytes, objs := cost(utilEng, utilBatch)
	t.Logf("RecordBatch: %.0f B and %.1f objects per cold 500-packet 6-hop flow of the combined plan", bytes, objs)
	if bytes > maxBytes || objs > maxObjs {
		t.Errorf("RecordBatch: %.0f B and %.1f objects per cold 500-packet 6-hop flow of the combined plan, want at most %.0f B and %.1f",
			bytes, objs, maxBytes, maxObjs)
	}

	for f := 1; f <= flows; f++ {
		if dec := rec.PathDecoder(path, FlowKey(f)); dec == nil || !dec.Done() {
			t.Fatalf("flow %d did not decode in %d packets; the clone pin needs finished flows", f, pkts)
		}
	}

	dec := rec.PathDecoder(path, 1)
	frame := testbenchFlow(eng, 1, 1001, pkts) // flow 1's packets again
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

	// A clone copies no flow: all it allocates is its run. Each Clone
	// holds its flows for good, so none reuses another's run.
	var clone *Recording
	bytes, objs = math.Inf(1), math.Inf(1)
	for range 3 {
		b, m := allocDelta(func() { clone = rec.Clone() })
		bytes, objs = min(bytes, b/flows), min(objs, m/flows)
	}
	t.Logf("Clone: %.1f B and %.3f objects per finished flow", bytes, objs)
	if bytes > 6 || objs > 0.02 {
		t.Errorf("Clone: %.1f B and %.3f objects per finished flow, want at most 6 B and 0.02", bytes, objs)
	}
	if clone.TrackedFlows() != flows {
		t.Fatalf("clone tracks %d flows, want %d", clone.TrackedFlows(), flows)
	}
}

// convergedTwins records the same 500 packets of each of n testbench flows
// into two Recordings, checks that every flow decoded, and returns both
// with each flow's next frame of packets.
func convergedTwins(t *testing.T, n, frame int) (rec, twin *Recording, next [][]PacketDigest) {
	t.Helper()
	const warm = 500
	eng, path, _ := testbenchPlan(t, 71)
	var err error
	if rec, err = NewRecording(eng); err != nil {
		t.Fatal(err)
	}
	if twin, err = NewRecording(eng); err != nil {
		t.Fatal(err)
	}
	for f := FlowKey(1); f <= FlowKey(n); f++ {
		pkts := testbenchFlow(eng, f, uint64(1000+f), warm+frame)
		for _, r := range []*Recording{rec, twin} {
			if err := r.RecordBatch(pkts[:warm]); err != nil {
				t.Fatal(err)
			}
		}
		if dec := rec.PathDecoder(path, f); dec == nil || !dec.Done() {
			t.Fatalf("flow %d did not decode in %d packets; the pin needs converged flows", f, warm)
		}
		next = append(next, pkts[warm:])
	}
	return rec, twin, next
}

// TestOwnerWriteAfterCloneCopiesOnce pins the writer's side of a
// snapshot: after a Clone, the owner's next frame into each converged flow
// costs at most one copy of that flow's state over what the same frame
// costs with no snapshot, and no latency object: each store's inline tail
// is copied with the flow's block, and its histogram is shared until it
// folds. The copy is a decoded flow's 27-word block cut from a page, and
// no side entry, as a decoded path keeps no slab: ~201 B in 0.08 objects;
// ~281 B in 0.11 while the block was 32 words and a quarter of flows kept
// a side entry sharing the finished decoder's slab, ~345 B in 0.12 while
// the block kept the decoder's candidate rows, ~390 B in 2.3 while it was a header and a
// block, ~496 B in 4 while the decoder and the stores were objects of
// their own. A runtime
// allocation landing inside one measurement could fail the budget, so
// the test measures three fresh triples and keeps the smallest excess, as
// noise only adds.
func TestOwnerWriteAfterCloneCopiesOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime instruments allocations")
	}
	const flows, frame = 128, 64
	extra, extraObjs := math.Inf(1), math.Inf(1)
	for range 3 {
		rec, twin, next := convergedTwins(t, flows, frame)
		clone := rec.Clone()
		record := func(r *Recording) (bytes, mallocs float64) {
			return allocDelta(func() {
				for _, b := range next {
					if err := r.RecordBatch(b); err != nil {
						t.Fatal(err)
					}
				}
			})
		}
		bytes, mallocs := record(rec)
		baseBytes, baseMallocs := record(twin)
		extra, extraObjs = min(extra, (bytes-baseBytes)/flows), min(extraObjs, (mallocs-baseMallocs)/flows)
		if clone.TrackedFlows() != flows {
			t.Fatalf("clone tracks %d flows, want %d", clone.TrackedFlows(), flows)
		}
	}
	t.Logf("a %d-packet frame after a Clone: %.0f B and %.2f objects per flow over the same frame with no snapshot", frame, extra, extraObjs)
	if extra > 600 || extraObjs > 4 {
		t.Errorf("a %d-packet frame after a Clone: %.0f B and %.2f objects per flow over the same frame with no snapshot, want at most one flow-state copy (600 B, 4 objects)",
			frame, extra, extraObjs)
	}
}

// TestOwnerFoldAfterCloneCopiesOnce pins the writer's side of a snapshot
// for long one-byte stores. After a Clone, the owner's copy of a flow
// takes each store's inline tail by value and shares its histogram with
// the clone, so the store's next fold, when a counter fills or a code
// falls outside the tail's window, counts into a copy of the histogram:
// one copy per store over the 1,100 and more samples per hop that follow,
// made at a fold its twin, never cloned, makes in place at the same
// sample. From then on it folds in place too: a frame allocates what it
// does in the twin. The clone still holds the state it was taken with.
func TestOwnerFoldAfterCloneCopiesOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime instruments allocations")
	}
	const flows, warm, more, last, frame, k = 16, 14000, 14000, 1024, 64, 5
	eng, _, lat := testbenchPlan(t, 71)
	rec, err := NewRecording(eng)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := NewRecording(eng)
	if err != nil {
		t.Fatal(err)
	}
	stream := make([][]PacketDigest, flows)
	for f := range stream {
		stream[f] = testbenchFlow(eng, FlowKey(f+1), uint64(3000+f), warm+more+last)
	}
	recordInto := func(r *Recording, from, to int) {
		for off := from; off < to; off += frame {
			for f := range stream {
				if err := r.RecordBatch(stream[f][off:min(off+frame, to)]); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	record := func(from, to int) {
		recordInto(rec, from, to)
		recordInto(twin, from, to)
	}
	record(0, warm)
	store := func(r *Recording, f, hop int) latStore {
		st, _ := r.storeOf(lat, FlowKey(f+1), hop+1)
		return st
	}
	sums, folded := make([][k]*latSum, flows), make([][k]uint64, flows)
	for f := range sums {
		for hop := range k {
			if sums[f][hop] = store(rec, f, hop).sum(); sums[f][hop] == nil {
				t.Fatalf("flow %d hop %d has not folded in %d packets; the pin needs folded stores", f+1, hop+1, warm)
			}
			folded[f][hop] = store(twin, f, hop).sum().n
		}
	}
	held := recordingState(t, rec)
	clone := rec.Clone()
	samples := func(f, hop int) int { return rec.LatencySamples(lat, FlowKey(f+1), hop+1) }
	from := make([][k]int, flows)
	for f := range from {
		for hop := range k {
			from[f][hop] = samples(f, hop)
		}
	}
	copies := make([][k]int, flows)
	for off := warm; off < warm+more; off += frame {
		record(off, off+frame)
		for f := range sums {
			for hop := range k {
				st, was := store(rec, f, hop), folded[f][hop]
				folded[f][hop] = store(twin, f, hop).sum().n
				if st.sum() != sums[f][hop] {
					if folded[f][hop] == was || copies[f][hop] > 0 {
						t.Fatalf("flow %d hop %d: a new histogram %d samples after the clone, in a frame its twin folded %d samples in; want one copy, at a fold",
							f+1, hop+1, samples(f, hop)-from[f][hop], folded[f][hop]-was)
					}
					sums[f][hop] = st.sum()
					copies[f][hop]++
				}
			}
		}
	}
	for f := range copies {
		for hop := range k {
			st := store(rec, f, hop)
			if n := samples(f, hop) - from[f][hop]; n < 1100 {
				t.Fatalf("flow %d hop %d took %d samples after the clone; the pin needs 1,100", f+1, hop+1, n)
			}
			if copies[f][hop] != 1 || st.shared() {
				t.Errorf("flow %d hop %d: %d histogram copies after the clone (still shared: %v), want 1",
					f+1, hop+1, copies[f][hop], st.shared())
			}
		}
	}
	// Averaged over frames, as AllocsPerRun counts, so that an allocation of
	// the runtime's own does not count against the store.
	frames := func(r *Recording) float64 {
		off := warm + more
		return testing.AllocsPerRun(last/frame-1, func() {
			recordInto(r, off, off+frame)
			off += frame
		})
	}
	if got, want := frames(rec), frames(twin); got != want {
		t.Errorf("a %d-packet frame into each of %d flows after the fold: %.0f allocations, %.0f with no snapshot; want the in-place folds of a twin",
			frame, flows, got, want)
	}
	if recordingState(t, clone) != held {
		t.Fatal("the clone's state moved while the owner recorded on")
	}
	if recordingState(t, rec) != recordingState(t, twin) {
		t.Fatal("the owner's state differs from its twin's")
	}
}

// TestLeaseSharesOnlyItsFlows pins that a flow-scoped lease marks only
// the flows it holds as shared: recording into any other flow afterwards
// allocates exactly what it does with no snapshot, while the held flow
// pays for its copy. A runtime allocation landing inside one measurement
// would break the equality, so every figure is the smallest of three
// fresh measurements: noise only adds.
func TestLeaseSharesOnlyItsFlows(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime instruments allocations")
	}
	inf := [2]float64{math.Inf(1), math.Inf(1)} // per flow
	bytes, mallocs, baseBytes, baseMallocs := inf, inf, inf, inf
	for range 3 {
		rec, twin, next := convergedTwins(t, 2, 256)
		clone, _ := rec.Lease([]FlowKey{1})
		record := func(r *Recording, f FlowKey, bytes, mallocs *[2]float64) {
			b, m := allocDelta(func() {
				if err := r.RecordBatch(next[f-1]); err != nil {
					t.Fatal(err)
				}
			})
			bytes[f-1], mallocs[f-1] = min(bytes[f-1], b), min(mallocs[f-1], m)
		}
		for _, f := range []FlowKey{2, 1} {
			record(rec, f, &bytes, &mallocs)
			record(twin, f, &baseBytes, &baseMallocs)
		}
		if clone.TrackedFlows() != 1 {
			t.Fatalf("clone tracks %d flows, want 1", clone.TrackedFlows())
		}
	}
	if bytes[1] != baseBytes[1] || mallocs[1] != baseMallocs[1] {
		t.Errorf("a frame into a flow the Lease did not take: %.0f B in %.0f objects, %.0f B in %.0f with no snapshot",
			bytes[1], mallocs[1], baseBytes[1], baseMallocs[1])
	}
	if bytes[0] <= baseBytes[0] {
		t.Errorf("a frame into the flow the Lease took: %.0f B, %.0f B with no snapshot; want the copy of the shared state on top", bytes[0], baseBytes[0])
	}
}

// TestLongFlowBytesPerPacket pins what the record stage allocates per
// packet once flows have converged and their latency stores run long —
// the shape of a saturated collector, ~1,000 samples per (flow, hop). The
// plan is the testbench's; every flow decodes in its first 500 packets,
// and the bytes are counted over the rest. While raw latency grew by
// append this cost 2.73 B a packet, the growth re-allocating and copying
// each one-byte sample several times; in fixed chunks it cost 1.16 B, each
// sample allocated once in a 128-byte chunk, plus the chunk lists' growth.
// Folded into counts it was 0.16 B, a store refilling one chunk. Counted
// in place in each store's inline tail it is ~0 B: a store allocates only
// when it folds, and a testbench store folds every ~2,000 samples.
func TestLongFlowBytesPerPacket(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime instruments allocations")
	}
	const flows, warm, pkts, frame = 32, 512, 6144, 256
	eng, path, lat := testbenchPlan(t, 71)
	stream := make([][]PacketDigest, flows)
	for f := range stream {
		stream[f] = testbenchFlow(eng, FlowKey(f+1), uint64(2000+f), pkts)
	}
	rec, err := NewRecording(eng)
	if err != nil {
		t.Fatal(err)
	}
	for f := range stream {
		if err := rec.RecordBatch(stream[f][:warm]); err != nil {
			t.Fatal(err)
		}
		if dec := rec.PathDecoder(path, FlowKey(f+1)); dec == nil || !dec.Done() {
			t.Fatalf("flow %d did not decode in %d packets; the pin needs converged flows", f+1, warm)
		}
	}
	bytes, _ := allocDelta(func() {
		for off := warm; off < pkts; off += frame {
			for f := range stream {
				if err := rec.RecordBatch(stream[f][off:min(off+frame, pkts)]); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
	for f := 1; f <= flows; f++ {
		for hop := 1; hop <= 5; hop++ {
			if n := rec.LatencySamples(lat, FlowKey(f), hop); n < 1000 {
				t.Fatalf("flow %d hop %d holds %d samples; the pin needs at least 1,000", f, hop, n)
			}
		}
	}
	perPkt := bytes / float64(flows*(pkts-warm))
	t.Logf("RecordBatch into converged flows: %.2f B per packet", perPkt)
	if perPkt > 0.25 {
		t.Errorf("RecordBatch into converged flows: %.2f B per packet, want at most 0.25", perPkt)
	}
}

// TestFlowBlockWords pins a testbench flow's block at 5 hops: the
// header's 3 words (TestFlowStateSize), five 4-word latency tails, the
// path decoder's 4 words (the inconsistency counter, the listed mask, the
// known mask, and the 5 universe indices packed at 7 bits in one word)
// and, last, the decoder's 5 two-word candidate rows: 37 words in all,
// cut from a page, while the path decodes, and 27 from the end of the run
// of packets in which it decodes (Recording.recordRun). Before the arena
// it was 40 words in a 320 B object of its own, the started bits its one
// header word; until a decoded flow dropped its rows it was 42 words for
// good, and until the decoder packed its values and lost its packet
// counter, 42 and 32 (a 9-word decoder with 64-bit switch IDs).
func TestFlowBlockWords(t *testing.T) {
	eng, path, lat := testbenchPlan(t, 71)
	const k = 5
	if got := eng.blockWords(k); got != 37 {
		t.Errorf("a %d-hop testbench flow's block is %d words, want 37 (296 B)", k, got)
	}
	if got := eng.blockWords(k | rowless); got != 27 {
		t.Errorf("a decoded %d-hop testbench flow's block is %d words, want 27 (216 B)", k, got)
	}
	pl, ll := eng.places[eng.slots[path]], eng.places[eng.slots[lat]]
	if got := eng.blockWords(k|rowless) - pl.at(k); got != path.plan.Words(k) || got != 4 {
		t.Errorf("the path decoder takes %d words (Plan.Words %d), want 4", got, path.plan.Words(k))
	}
	if got := pl.at(k) - ll.at(k); got != tailWords*k {
		t.Errorf("the path decoder starts %d words past the latency tails, want right after their %d", got, tailWords*k)
	}
	if got := path.plan.RowWords(k); got != 10 {
		t.Errorf("the path decoder's candidate rows take %d words, want 10", got)
	}
	rec, err := NewRecording(eng)
	if err != nil {
		t.Fatal(err)
	}
	decodedAt := 0
	for i, p := range testbenchFlow(eng, 1, 1001, 200) {
		if err := rec.RecordBatch([]PacketDigest{p}); err != nil {
			t.Fatal(err)
		}
		fs, _ := rec.find(1)
		want := 37
		if rec.PathDecoder(path, 1).Done() {
			want = 27
			decodedAt = cmp.Or(decodedAt, i+1)
		}
		if len(fs.w) != want {
			t.Fatalf("after packet %d (decoded at packet %d, 0: not yet) the flow's block is %d words, want %d", i+1, decodedAt, len(fs.w), want)
		}
	}
	if decodedAt == 0 {
		t.Fatal("the flow did not decode in 200 packets; the pin needs a decoded flow")
	}
}

// TestRunSlabIsScratch pins where a path decoder's stored packets live.
// A run of a flow's packets binds the decoder over the Recording's own
// scratch, so a testbench flow that decodes within its first 256-packet
// frame allocates no slab and no side entry: into blocks freed by evicted
// flows, 64 such flows, of which some stored packets on the way, cost no
// heap object at all. A flow still undecoded at a run's end keeps a slab
// of exactly the packets a coding.Decoder fed the same packets stores, in
// a side entry, and a Lease taken then reads that slab, never the
// scratch: the owner's next runs, another flow's and the rest of this
// one's, in which the stored packets are cascaded into and the path
// decodes, leave the view's image as it was. The decoded flow keeps no
// slab, and its side entry, then empty, goes back to the free list.
func TestRunSlabIsScratch(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime instruments allocations")
	}
	const flows, frame = 64, 256
	eng, path, _ := testbenchPlan(t, 79)
	rec, err := NewRecording(eng)
	if err != nil {
		t.Fatal(err)
	}
	record := func(pkts []PacketDigest) {
		t.Helper()
		if err := rec.RecordBatch(pkts); err != nil {
			t.Fatal(err)
		}
	}
	// stores replays one flow's packets into a decoder of its own and
	// returns it and the most words its slab held.
	stores := func(pkts []PacketDigest) (*coding.Decoder, int) {
		dec, err := path.NewDecoder(5)
		if err != nil {
			t.Fatal(err)
		}
		most := 0
		for _, p := range pkts {
			for _, x := range eng.ExtractInto(p.PktID, p.Digest, nil) {
				if x.Query == Query(path) {
					path.ObserveInto(dec, p.PktID, x.Bits)
				}
			}
			most = max(most, len(dec.Slab()))
		}
		return dec, most
	}
	frames := func(first FlowKey) (batch []PacketDigest, storing int) {
		for f := first; f < first+flows; f++ {
			pkts := testbenchFlow(eng, f, uint64(f)*13, frame)
			dec, most := stores(pkts)
			if !dec.Done() {
				t.Fatalf("flow %d did not decode in its first %d packets", f, frame)
			}
			if most > 0 {
				storing++
			}
			batch = append(batch, pkts...)
		}
		return batch, storing
	}
	warm, _ := frames(1)
	record(warm)
	mallocs := math.Inf(1)
	for try := range 3 {
		for f := FlowKey(1); f <= flows; f++ {
			rec.Evict(FlowKey(try*1000) + f)
		}
		batch, storing := frames(FlowKey(try*1000+1000) + 1)
		if storing < 4 {
			t.Fatalf("%d of %d flows stored a packet before decoding; the pin needs some", storing, flows)
		}
		_, m := allocDelta(func() { record(batch) })
		mallocs = min(mallocs, m)
	}
	if mallocs != 0 || rec.flows.sides != 0 {
		t.Errorf("%d flows decoding within a frame: %.0f heap objects and %d side entries, want none", flows, mallocs, rec.flows.sides)
	}

	// A flow undecoded after its first run, with packets stored.
	var flow FlowKey
	var pkts []PacketDigest
	cut := 0
	for f := FlowKey(100); f < 164 && cut == 0; f++ {
		pkts = testbenchFlow(eng, f, uint64(f)*17, frame)
		for n := 1; n < 16; n++ {
			if dec, _ := stores(pkts[:n]); !dec.Done() && len(dec.Slab()) > 0 {
				flow, cut = f, n
			}
		}
	}
	if cut == 0 {
		t.Fatal("no flow stored packets while undecoded; the pin needs one")
	}
	record(pkts[:cut])
	dec, _ := stores(pkts[:cut])
	fs, _ := rec.find(flow)
	if kept := fs.slab(0); !slices.Equal(kept, dec.Slab()) || cap(kept) != len(kept) || fs.side() == 0 {
		t.Fatalf("an undecoded flow kept %d slab words (capacity %d, side %d), want exactly the %d a decoder stores",
			len(kept), cap(kept), fs.side(), len(dec.Slab()))
	}
	view, l := rec.Lease([]FlowKey{flow})
	want := flowImage(t, view, flow)
	record(testbenchFlow(eng, 999, 999, frame))
	record(pkts[cut:])
	if got := flowImage(t, view, flow); !slices.Equal(got, want) {
		t.Error("the owner's runs after a Lease changed the view's image: the view read the scratch")
	}
	if !rec.PathDecoder(path, flow).Done() {
		t.Fatalf("flow %d did not decode in %d packets", flow, frame)
	}
	l.Release()
	record(nil) // reclaims the block the Lease held, and its side entry
	if fs, _ := rec.find(flow); fs.slab(0) != nil || fs.side() != 0 || rec.flows.sides != len(rec.flows.freeSide) {
		t.Errorf("the decoded flow keeps a %d-word slab and side %d; %d side entries given out, %d free",
			len(fs.slab(0)), fs.side(), rec.flows.sides, len(rec.flows.freeSide))
	}
}

// TestRecordRefusesPathLength: a flow's first packet lays out its block
// for its path length, so a length below 1, which no wire carries, is
// refused like one past an int16, and the flow records nothing. A latency
// query alone used to take a length of 0 as a flow of no hops, and a
// negative one panicked.
func TestRecordRefusesPathLength(t *testing.T) {
	lat := latQueryOfBits(t, 8, 1, 89)
	eng, err := Compile([]Query{lat}, 8, 97)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{-1, 0, math.MaxInt16 + 1} {
		rec, err := NewRecording(eng)
		if err != nil {
			t.Fatal(err)
		}
		if err := rec.Record(1, k, 7, 42); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("path length %d", k)) {
			t.Errorf("Record at path length %d: %v, want it refused naming the length", k, err)
		}
		if rec.Hops(lat, 1) != 0 {
			t.Errorf("path length %d: the flow holds state for %d hops", k, rec.Hops(lat, 1))
		}
	}
}

// TestFlowStateSize pins what every flow costs besides its queries'
// words: a block header of 3 words — the key; the hold count and the side
// index; k and the started bits, which share one word up to 48 queries —
// and one 4-byte slot of the flow table, which is at most 7/8 full. It
// used to pin a 64-byte header object per flow.
func TestFlowStateSize(t *testing.T) {
	for nq, want := range map[int]int{1: 3, 48: 3, 49: 4} {
		if got := headerWords(nq); got != want {
			t.Errorf("%d queries: a %d-word header, want %d", nq, got, want)
		}
	}
	if got := unsafe.Sizeof(arena{}.slots[0]); got != 4 {
		t.Errorf("a flow table slot is %d B, want 4: the table is slots of block offsets", got)
	}
}

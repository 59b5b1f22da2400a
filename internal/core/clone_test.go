package core

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/hash"
)

// cloneWorkload encodes an interleaved multi-flow stream through the
// batch pipeline for clone/merge testing.
func cloneWorkload(t testing.TB, eng *Engine, seed uint64, nFlows, n, k int) []PacketDigest {
	t.Helper()
	rng := hash.NewRNG(seed)
	pkts := make([]PacketDigest, n)
	vals := make([]HopValues, n)
	for i := range pkts {
		pkts[i] = PacketDigest{Flow: FlowKey(i%nFlows + 1), PktID: rng.Uint64(), PathLen: k}
	}
	for hop := 1; hop <= k; hop++ {
		for i := range pkts {
			vals[i] = hopValuesFor(pkts[i].PktID, hop, 0xAB00)
		}
		eng.EncodeHopBatch(hop, pkts, vals)
	}
	return pkts
}

// storageVariants are the two latency storages a Recording can run on
// the 8-bit combined plan, plus raw storage under a 12-bit and a 40-bit
// latency query — 2 and 5 bytes a sample, so a shared prefix that cut a
// sample in half would show. The wide variants scramble their digests
// (see plan), so every byte of a sample carries bits.
var storageVariants = []struct {
	name        string
	sketchItems int
	latBits     int
}{
	{name: "raw", latBits: 8},
	{name: "sketched", sketchItems: 24, latBits: 8},
	{name: "raw-lat12", latBits: 12},
	{name: "raw-lat40", latBits: 40},
}

// scramble overwrites the digests of an encoded stream with random bits
// when the variant's latency query is wider than its compressor's codes.
func scramble(latBits int, seed uint64, streams ...[]PacketDigest) {
	if latBits == 8 {
		return
	}
	rng := hash.NewRNG(seed)
	for _, pkts := range streams {
		for i := range pkts {
			pkts[i].Digest = rng.Uint64()
		}
	}
}

// TestRecordingCloneIsIndependentAndIdentical is the contract snapshot
// queries rely on: a clone answers bit-identically at the copy point, and
// recording into the original afterwards leaves the clone untouched while
// the clone, fed the same continuation, stays bit-identical to the
// original — for raw and sketched latency storage.
func TestRecordingCloneIsIndependentAndIdentical(t *testing.T) {
	for _, v := range storageVariants {
		t.Run(v.name, func(t *testing.T) {
			eng, path, lat, util := combinedTestPlanLat(t, 37, v.latBits)
			const (
				nFlows = 6
				k      = 6
			)
			pkts := cloneWorkload(t, eng, 91, nFlows, 4096, k)
			scramble(v.latBits, 93, pkts)
			half := len(pkts) / 2
			mk := func() *Recording {
				rec, err := NewRecordingSeeded(eng, v.sketchItems, 0xC10)
				if err != nil {
					t.Fatal(err)
				}
				return rec
			}
			orig := mk()
			if err := orig.RecordBatch(pkts[:half]); err != nil {
				t.Fatal(err)
			}
			// Three clones and a reference, all taken at the copy point.
			cloneA, cloneB, cloneC, halfRef := orig.Clone(), orig.Clone(), orig.Clone(), orig.Clone()
			if got, want := cloneA.TrackedFlows(), orig.TrackedFlows(); got != want {
				t.Fatalf("clone tracks %d flows, original %d", got, want)
			}

			// At the copy point a clone answers bit-identically.
			for f := 1; f <= nFlows; f++ {
				assertSameAnswers(t, halfRef, cloneA, FlowKey(f), k, path, lat, util)
			}

			// Recording the continuation into the original must not leak
			// into the clones...
			if err := orig.RecordBatch(pkts[half:]); err != nil {
				t.Fatal(err)
			}
			fresh := mk()
			if err := fresh.RecordBatch(pkts[:half]); err != nil {
				t.Fatal(err)
			}
			for f := 1; f <= nFlows; f++ {
				assertSameAnswers(t, fresh, cloneB, FlowKey(f), k, path, lat, util)
			}

			// ...and feeding a clone the same continuation converges it
			// with the original, bit for bit.
			if err := cloneC.RecordBatch(pkts[half:]); err != nil {
				t.Fatal(err)
			}
			for f := 1; f <= nFlows; f++ {
				assertSameAnswers(t, orig, cloneC, FlowKey(f), k, path, lat, util)
			}
		})
	}
}

// TestRecordingMergeAdoptsDisjointFlows splits a stream by flow parity
// into two recordings and merges them; every answer must match a single
// recording that saw the whole stream.
func TestRecordingMergeAdoptsDisjointFlows(t *testing.T) {
	eng, path, lat, util := combinedTestPlan(t, 41)
	const (
		nFlows = 8
		k      = 6
	)
	pkts := cloneWorkload(t, eng, 97, nFlows, 4096, k)
	mk := func() *Recording {
		rec, err := NewRecordingSeeded(eng, 24, 0xE5)
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}
	whole, left, right := mk(), mk(), mk()
	if err := whole.RecordBatch(pkts); err != nil {
		t.Fatal(err)
	}
	for i := range pkts {
		dst := left
		if pkts[i].Flow%2 == 0 {
			dst = right
		}
		// Copy the packet so the cached query-set selection filled by the
		// first RecordBatch is reused, matching the serial path exactly.
		if err := dst.RecordBatch(pkts[i : i+1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := left.Merge(right); err != nil {
		t.Fatal(err)
	}
	if got, want := left.TrackedFlows(), whole.TrackedFlows(); got != want {
		t.Fatalf("merged tracks %d flows, want %d", got, want)
	}
	for f := 1; f <= nFlows; f++ {
		assertSameAnswers(t, whole, left, FlowKey(f), k, path, lat, util)
	}
}

// TestRecordingMergeManyWay folds K recordings holding disjoint flow
// slices into one — the shape a federated query frontend produces when it
// folds per-collector snapshots — including empty members, and demands
// answers identical to a single recording that saw everything. A single
// overlapping flow anywhere in the chain must abort the fold.
func TestRecordingMergeManyWay(t *testing.T) {
	eng, path, lat, util := combinedTestPlan(t, 53)
	const (
		nFlows  = 9
		k       = 6
		members = 4 // flows spread over 3; member 3 stays empty
	)
	pkts := cloneWorkload(t, eng, 103, nFlows, 4096, k)
	mk := func() *Recording {
		rec, err := NewRecordingSeeded(eng, 24, 0xF7)
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}
	whole := mk()
	if err := whole.RecordBatch(pkts); err != nil {
		t.Fatal(err)
	}
	parts := make([]*Recording, members)
	for i := range parts {
		parts[i] = mk()
	}
	for i := range pkts {
		dst := parts[uint64(pkts[i].Flow)%3]
		if err := dst.RecordBatch(pkts[i : i+1]); err != nil {
			t.Fatal(err)
		}
	}
	merged := parts[0]
	for _, part := range parts[1:] {
		if err := merged.Merge(part); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := merged.TrackedFlows(), whole.TrackedFlows(); got != want {
		t.Fatalf("merged tracks %d flows, want %d", got, want)
	}
	for f := 1; f <= nFlows; f++ {
		assertSameAnswers(t, whole, merged, FlowKey(f), k, path, lat, util)
	}

	// One overlapping flow anywhere aborts: a recording holding a flow the
	// fold already adopted is a partitioning violation, not mergeable data.
	dup := mk()
	if err := dup.RecordBatch(pkts[:1]); err != nil {
		t.Fatal(err)
	}
	if err := merged.Merge(dup); err == nil {
		t.Fatal("merge accepted a single-flow overlap after a clean many-way fold")
	}
}

// TestRecordingMergeRejectsOverlapAndForeignEngine pins Merge's error
// cases: duplicated flows and mismatched engines.
func TestRecordingMergeRejectsOverlapAndForeignEngine(t *testing.T) {
	eng, _, _, _ := combinedTestPlan(t, 43)
	pkts := cloneWorkload(t, eng, 101, 4, 512, 6)
	a, err := NewRecordingSeeded(eng, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRecordingSeeded(eng, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.RecordBatch(pkts); err != nil {
		t.Fatal(err)
	}
	if err := b.RecordBatch(pkts); err != nil {
		t.Fatal(err)
	}
	if err := a.Merge(b); err == nil {
		t.Fatal("merge accepted overlapping flow sets")
	}
	eng2, _, _, _ := combinedTestPlan(t, 47)
	c, err := NewRecordingSeeded(eng2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Merge(c); err == nil {
		t.Fatal("merge accepted a recording from a different engine")
	}
}

// randomWorkload is cloneWorkload with flows drawn at random instead of
// round-robin, so streams differ in how flows interleave and how many
// packets each gets.
func randomWorkload(eng *Engine, rng *hash.RNG, nFlows, n, k int) []PacketDigest {
	pkts := make([]PacketDigest, n)
	vals := make([]HopValues, n)
	for i := range pkts {
		pkts[i] = PacketDigest{Flow: FlowKey(rng.Intn(nFlows) + 1), PktID: rng.Uint64(), PathLen: k}
	}
	for hop := 1; hop <= k; hop++ {
		for i := range pkts {
			vals[i] = hopValuesFor(pkts[i].PktID, hop, 0xAB00)
		}
		eng.EncodeHopBatch(hop, pkts, vals)
	}
	return pkts
}

// TestClonePrefixProperty is the sharing invariant stated as a property:
// for random digest streams, at EVERY prefix, a Clone — and a flow-scoped
// Lease — of the live state answers exactly like a Recording rebuilt
// from scratch from that prefix. The rebuilt Recording never shares an
// array with anything, so it is an independent oracle: a clone that saw
// a later append, or lost a sample to one, diverges from it. The live
// state is spread over 1, 2 and 4 Recordings by the sink's routing
// function and the clones are folded with Merge, which is exactly what a
// pipeline snapshot does; shards a scoped clone does not ask contribute
// an empty Recording. Leases are released before the next packet, so the
// live state records on into states that were shared and are its own
// again.
func TestClonePrefixProperty(t *testing.T) {
	const k = 6
	for _, v := range storageVariants {
		for _, shards := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", v.name, shards), func(t *testing.T) {
				eng, path, lat, util := combinedTestPlanLat(t, 59, v.latBits)
				mk := func() *Recording {
					rec, err := NewRecordingSeeded(eng, v.sketchItems, 0xC10)
					if err != nil {
						t.Fatal(err)
					}
					return rec
				}
				rebuilt := func(prefix []PacketDigest) *Recording {
					rec := mk()
					if err := rec.RecordBatch(prefix); err != nil {
						t.Fatal(err)
					}
					return rec
				}
				rng := hash.NewRNG(uint64(7919*shards + len(v.name)))
				for trial := 0; trial < 3; trial++ {
					nFlows := 2 + rng.Intn(6)
					pkts := randomWorkload(eng, rng, nFlows, 64+rng.Intn(96), k)
					scramble(v.latBits, rng.Uint64(), pkts)
					live := make([]*Recording, shards)
					for i := range live {
						live[i] = mk()
					}
					home := func(f FlowKey) int { return int(hash.ShardOf(uint64(f), uint64(shards))) }
					for n := 0; n <= len(pkts); n++ {
						if n > 0 {
							if err := live[home(pkts[n-1].Flow)].RecordBatch(pkts[n-1 : n]); err != nil {
								t.Fatal(err)
							}
						}
						// Every flow, from full clones: leases on even trials,
						// released below, and Clones held for good on odd ones.
						full := mk()
						leases := make([]*Lease, 2*shards)
						for i, rec := range live {
							var clone *Recording
							if trial%2 == 0 {
								clone, leases[shards+i] = rec.Lease(nil)
							} else {
								clone = rec.Clone()
							}
							if err := full.Merge(clone); err != nil {
								t.Fatal(err)
							}
						}
						ref := rebuilt(pkts[:n])
						if got, want := full.TrackedFlows(), ref.TrackedFlows(); got != want {
							t.Fatalf("prefix %d: clone tracks %d flows, rebuilt %d", n, got, want)
						}
						if got, want := full.Flows(), ref.Flows(); !slices.Equal(got, want) {
							t.Fatalf("prefix %d: merged clones list flows %v, rebuilt %v", n, got, want)
						}
						for f := 1; f <= nFlows; f++ {
							assertSameAnswers(t, ref, full, FlowKey(f), k, path, lat, util)
						}
						// A random subset (plus one flow nobody ever sent), from
						// flow-scoped clones of only the shards that own them.
						asked := []FlowKey{FlowKey(nFlows + 100)}
						for f := 1; f <= nFlows; f++ {
							if rng.Intn(2) == 0 {
								asked = append(asked, FlowKey(f))
							}
						}
						byShard := make([][]FlowKey, shards)
						for _, f := range asked {
							byShard[home(f)] = append(byShard[home(f)], f)
						}
						scoped := mk()
						for i, rec := range live {
							if len(byShard[i]) == 0 {
								continue
							}
							var clone *Recording
							clone, leases[i] = rec.Lease(byShard[i])
							if err := scoped.Merge(clone); err != nil {
								t.Fatal(err)
							}
						}
						ref = rebuilt(pkts[:n])
						tracked := 0
						for _, f := range asked {
							if ref.HasFlow(f) {
								tracked++
							}
							if scoped.HasFlow(f) != ref.HasFlow(f) {
								t.Fatalf("prefix %d flow %d: scoped clone tracked=%v, rebuilt %v", n, f, scoped.HasFlow(f), ref.HasFlow(f))
							}
							assertSameAnswers(t, ref, scoped, f, k, path, lat, util)
						}
						if got := scoped.TrackedFlows(); got != tracked {
							t.Fatalf("prefix %d: scoped clone tracks %d flows, asked for %d tracked ones", n, got, tracked)
						}
						for i, l := range leases {
							if l != nil {
								live[i%shards].Release(l)
							}
						}
					}
				}
			})
		}
	}
}

// TestCloneAppendsStayPrivate pins the clamp and the copy-on-write tail.
// A clone shares the origin's util series, whose array has spare capacity
// past the shared prefix, and its raw latency chunks, whose last chunk has
// room past the shared samples. Only the origin, the flows' owner, may go
// on appending there; the copy any clone writes through must be clamped,
// so that its appends reallocate or copy, or they would show through to
// the origin's next append and to every sibling clone. So must the copy of
// a Recording that merged a clone: merging one makes it a clone. Origin,
// two sibling clones and an empty Recording that merged a third each
// record a different continuation; each must equal a Recording rebuilt
// from scratch from the prefix plus its own continuation.
func TestCloneAppendsStayPrivate(t *testing.T) {
	const (
		nFlows = 4
		k      = 6
	)
	for _, v := range storageVariants {
		t.Run(v.name, func(t *testing.T) {
			eng, path, lat, util := combinedTestPlanLat(t, 61, v.latBits)
			mk := func() *Recording {
				rec, err := NewRecordingSeeded(eng, v.sketchItems, 0xC10)
				if err != nil {
					t.Fatal(err)
				}
				return rec
			}
			prefix := cloneWorkload(t, eng, 107, nFlows, 1200, k)
			conts := [][]PacketDigest{
				cloneWorkload(t, eng, 109, nFlows, 800, k),
				cloneWorkload(t, eng, 113, nFlows, 800, k),
				cloneWorkload(t, eng, 127, nFlows, 800, k),
			}
			scramble(v.latBits, 131, append(conts, prefix)...)
			adopterCont := cloneWorkload(t, eng, 137, nFlows, 800, k)
			scramble(v.latBits, 139, adopterCont)
			conts = append(conts, adopterCont)
			orig := mk()
			if err := orig.RecordBatch(prefix); err != nil {
				t.Fatal(err)
			}
			// The test means something only if an append could land in
			// shared memory: some origin series must have room to spare,
			// and some origin raw store must end mid-chunk.
			per := latChunk / codeWidth(v.latBits)
			spare, midChunk := false, v.sketchItems != 0
			for _, fs := range orig.flows {
				for _, slot := range fs.slots {
					spare = spare || cap(slot.series) > len(slot.series)
					for _, st := range slot.lat {
						midChunk = midChunk || int(st.n)%per != 0
					}
				}
			}
			if !spare || !midChunk {
				t.Fatal("no origin series has spare capacity or no raw store ends mid-chunk; pick another prefix length")
			}
			adopter := mk()
			if err := adopter.Merge(orig.Clone()); err != nil {
				t.Fatal(err)
			}
			holders := []*Recording{orig, orig.Clone(), orig.Clone(), adopter}
			// A write through any holder first swaps in its own copy of the
			// flow. The owner's copy keeps the shared lists as they are,
			// spare capacity included; a clone's is clamped.
			for i, h := range holders {
				wantCap := func(l, c int) int {
					if h == orig {
						return c
					}
					return l
				}
				for f := FlowKey(1); f <= nFlows; f++ {
					shared := h.find(f)
					fs := h.stateOf(f)
					if fs == shared {
						t.Fatalf("holder %d flow %d: a write would land in the state the clones share", i, f)
					}
					for s, slot := range fs.slots {
						was := shared.slots[s]
						if vs := slot.series; len(vs) != len(was.series) || cap(vs) != wantCap(len(was.series), cap(was.series)) {
							t.Fatalf("holder %d flow %d: a series of len %d cap %d copied as len %d cap %d",
								i, f, len(was.series), cap(was.series), len(vs), cap(vs))
						}
						for hop, st := range slot.lat {
							ws := was.lat[hop]
							if len(st.chunks) != len(ws.chunks) || cap(st.chunks) != wantCap(len(ws.chunks), cap(ws.chunks)) {
								t.Fatalf("holder %d flow %d: %d samples in %d chunks of a list of cap %d copied as %d chunks of cap %d",
									i, f, st.n, len(ws.chunks), cap(ws.chunks), len(st.chunks), cap(st.chunks))
							}
						}
					}
				}
			}
			// Interleave the continuations chunk by chunk, so every
			// holder appends while the others' arrays are still live.
			for off := 0; off < 800; off += 50 {
				for i, h := range holders {
					if err := h.RecordBatch(conts[i][off : off+50]); err != nil {
						t.Fatal(err)
					}
				}
			}
			for i, h := range holders {
				ref := mk()
				if err := ref.RecordBatch(prefix); err != nil {
					t.Fatal(err)
				}
				if err := ref.RecordBatch(conts[i]); err != nil {
					t.Fatal(err)
				}
				for f := 1; f <= nFlows; f++ {
					assertSameAnswers(t, ref, h, FlowKey(f), k, path, lat, util)
				}
			}
		})
	}
}

// TestHeldCloneRacesOwnerTail is the copy-on-write tail under the race
// detector. Two clones are held while the owner records on: one only
// answers, the other answers — quantiles of every hop and the hand-off
// blob — between appends of its own continuation. A fourth goroutine
// clones the reading clone while it is read and does the same with that
// clone of a clone. The owner fills the very tail chunks every clone
// shares, the appending clones copy their part of them while the owner
// writes past it, and the reading clone ranks the shared bytes throughout.
// Any shared byte written by one side while another reads it fails under
// -race; afterwards each holder must carry the state of a Recording
// rebuilt from its own packets, blob for blob.
func TestHeldCloneRacesOwnerTail(t *testing.T) {
	for _, v := range storageVariants {
		t.Run(v.name, func(t *testing.T) {
			raceHeldClones(t, v.sketchItems, v.latBits, heldRace{nFlows: 4, k: 6, prefix: 600, cont: 800, step: 16})
		})
	}
}

// TestHeldCloneRacesFold is TestHeldCloneRacesOwnerTail for one-byte
// stores long enough to fold. The prefix folds every store in place, so
// the clones share a histogram as well as a tail; each continuation then
// grows its shared tail to eight chunks, folds them into a copy of the
// histogram while the reading clone ranks the original, and folds in
// place after that.
func TestHeldCloneRacesFold(t *testing.T) {
	lat, owner, writer, grand := raceHeldClones(t, 0, 8, heldRace{nFlows: 2, k: 2, prefix: 800, cont: 5120, step: 64})
	for name, rec := range map[string]*Recording{"owner": owner, "appending clone": writer, "appending clone of the reading clone": grand} {
		for _, f := range rec.Flows() {
			for hop, st := range rec.slot(lat, f).lat {
				if st.sum == nil || st.shared {
					t.Errorf("%s flow %d hop %d: shared %v after %d samples; the continuation did not fold into a copy",
						name, f, hop+1, st.shared, st.samples())
				}
			}
		}
	}
}

// heldRace is the shape of one raceHeldClones run: flows, hops, the
// packets recorded before the clones are taken and in each continuation,
// and the packets recorded between two answers.
type heldRace struct{ nFlows, k, prefix, cont, step int }

// raceHeldClones runs the race TestHeldCloneRacesOwnerTail describes on a
// three-query plan whose latency query is latBits wide, and returns that
// query and the three holders that recorded on: the owner, the appending
// clone and the clone of the reading clone.
func raceHeldClones(t *testing.T, sketchItems, latBits int, s heldRace) (lat *LatencyQuery, owner, writer, grand *Recording) {
	eng, path, lat, util := combinedTestPlanLat(t, 151, latBits)
	queries := []Query{path, lat, util}
	mk := func(batches ...[]PacketDigest) *Recording {
		rec, err := NewRecordingSeeded(eng, sketchItems, 0xC10)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range batches {
			if err := rec.RecordBatch(b); err != nil {
				t.Fatal(err)
			}
		}
		return rec
	}
	prefix := cloneWorkload(t, eng, 157, s.nFlows, s.prefix, s.k)
	ownerCont := cloneWorkload(t, eng, 163, s.nFlows, s.cont, s.k)
	cloneCont := cloneWorkload(t, eng, 167, s.nFlows, s.cont, s.k)
	grandCont := cloneWorkload(t, eng, 179, s.nFlows, s.cont, s.k)
	scramble(latBits, 173, prefix, ownerCont, cloneCont, grandCont)
	owner = mk(prefix)
	per := latChunk / codeWidth(latBits)
	midChunk := sketchItems != 0
	for _, fs := range owner.flows {
		for _, st := range fs.slots[eng.slots[lat]].lat {
			midChunk = midChunk || int(st.n)%per != 0
		}
	}
	if !midChunk {
		t.Fatal("no raw store ends mid-chunk; pick another prefix length")
	}
	reader, writer := owner.Clone(), owner.Clone()
	answer := func(rec *Recording, blob []byte) []byte {
		for f := FlowKey(1); f <= FlowKey(s.nFlows); f++ {
			for hop := 1; hop <= s.k; hop++ {
				if _, err := rec.LatencyQuantiles(lat, f, hop, 0, 0.5, 0.99, 1); err != nil && rec.LatencySamples(lat, f, hop) != 0 {
					t.Error(err)
				}
			}
			var err error
			if blob, err = rec.AppendFlowState(blob[:0], queries, f); err != nil {
				t.Error(err)
			}
		}
		return blob
	}
	// appendAll answers from rec and records cont into it, a step at a
	// time.
	appendAll := func(rec *Recording, cont []PacketDigest) {
		var blob []byte
		for off := 0; off < len(cont); off += s.step {
			blob = answer(rec, blob)
			if err := rec.RecordBatch(cont[off : off+s.step]); err != nil {
				t.Error(err)
			}
		}
	}
	var wg sync.WaitGroup
	wg.Add(4)
	go func() {
		defer wg.Done()
		for off := 0; off < s.cont; off += s.step {
			if err := owner.RecordBatch(ownerCont[off : off+s.step]); err != nil {
				t.Error(err)
			}
		}
	}()
	go func() {
		defer wg.Done()
		appendAll(writer, cloneCont)
	}()
	go func() {
		defer wg.Done()
		var blob []byte
		for off := 0; off < s.cont; off += s.step {
			blob = answer(reader, blob)
		}
	}()
	go func() {
		defer wg.Done()
		grand = reader.Clone()
		appendAll(grand, grandCont)
	}()
	wg.Wait()
	for _, h := range []struct {
		name string
		got  *Recording
		want *Recording
	}{
		{"owner", owner, mk(prefix, ownerCont)},
		{"appending clone", writer, mk(prefix, cloneCont)},
		{"reading clone", reader, mk(prefix)},
		{"appending clone of the reading clone", grand, mk(prefix, grandCont)},
	} {
		if recordingState(t, h.got, queries) != recordingState(t, h.want, queries) {
			t.Fatalf("%s: state differs from a Recording rebuilt from its own packets", h.name)
		}
	}
	return lat, owner, writer, grand
}

// TestLatencyQuantilesMatchesSingleCalls pins the batched form to the
// single-phi one it now backs: for every storage, LatencyQuantiles(phis)
// equals LatencyQuantile per phi on the same Recording.
func TestLatencyQuantilesMatchesSingleCalls(t *testing.T) {
	const (
		nFlows = 3
		k      = 6
	)
	phis := []float64{0.5, 0.99, 0, 1, 0.5}
	for _, v := range storageVariants {
		t.Run(v.name, func(t *testing.T) {
			eng, _, lat, _ := combinedTestPlanLat(t, 67, v.latBits)
			rec, err := NewRecordingSeeded(eng, v.sketchItems, 0xC10)
			if err != nil {
				t.Fatal(err)
			}
			pkts := cloneWorkload(t, eng, 131, nFlows, 1500, k)
			scramble(v.latBits, 137, pkts)
			if err := rec.RecordBatch(pkts); err != nil {
				t.Fatal(err)
			}
			for f := 1; f <= nFlows; f++ {
				for hop := 0; hop <= k+1; hop++ {
					got, gerr := rec.LatencyQuantiles(lat, FlowKey(f), hop, phis...)
					for i, phi := range phis {
						want, werr := rec.LatencyQuantile(lat, FlowKey(f), hop, phi)
						if (gerr == nil) != (werr == nil) {
							t.Fatalf("flow %d hop %d: batched err %v, single err %v", f, hop, gerr, werr)
						}
						if gerr == nil && got[i] != want {
							t.Fatalf("flow %d hop %d phi %v: batched %v, single %v", f, hop, phi, got[i], want)
						}
					}
				}
			}
		})
	}
}

// TestLeaseHoldCount walks one flow's state through sequences of leases,
// Clones, releases and writes, and after each step requires the state
// installed in the owner to be private exactly when nobody holds it: the
// owner's next write then lands in place, and before that it copies. A
// Clone holds for good; so does a lease a clone was taken from, directly
// or through a Recording that merged it. A state the owner replaced — by
// writing through a copy, or by evicting the flow and importing it again
// under the same key — is never made private by a release.
func TestLeaseHoldCount(t *testing.T) {
	const flow = FlowKey(1)
	eng, path, lat := testbenchPlan(t, 71)
	queries := []Query{path, lat}
	pkts := testbenchFlow(eng, flow, 5, 96)
	type step struct {
		op, name string // op on the lease or clone called name
		private  bool   // the installed state is private afterwards
	}
	for _, tc := range []struct {
		name  string
		steps []step
	}{
		{"two leases released in order", []step{
			{"lease", "a", false}, {"lease", "b", false}, {"release", "a", false}, {"release", "b", true}}},
		{"two leases released in reverse", []step{
			{"lease", "a", false}, {"lease", "b", false}, {"release", "b", false}, {"release", "a", true}}},
		{"two leases and a Clone", []step{
			{"lease", "a", false}, {"clone", "", false}, {"lease", "b", false},
			{"release", "a", false}, {"release", "b", false}}},
		{"a Clone, then two leases released in reverse", []step{
			{"clone", "", false}, {"lease", "a", false}, {"lease", "b", false},
			{"release", "b", false}, {"release", "a", false}}},
		{"a released lease released again", []step{
			{"lease", "a", false}, {"lease", "b", false}, {"release", "a", false}, {"release", "a", false},
			{"release", "b", true}}},
		{"a clone of the leased clone, then release", []step{
			{"lease", "a", false}, {"clone-of", "a", false}, {"release", "a", false}}},
		{"a clone of a Recording that merged the leased clone", []step{
			{"lease", "a", false}, {"lease", "b", false}, {"merge-clone-of", "a", false},
			{"release", "b", false}, {"release", "a", false}}},
		{"a lease of the leased clone", []step{
			{"lease", "a", false}, {"lease-of", "a", false}, {"release", "a", false}}},
		{"a write while leased", []step{
			{"lease", "a", false}, {"write", "", true}, {"lease", "b", false},
			{"release", "a", false}, {"release", "b", true}}},
		{"evicted and imported again while leased", []step{
			{"lease", "a", false}, {"reimport", "", true}, {"release", "a", true}, {"write", "", true}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			owner, err := NewRecordingSeeded(eng, 0, 0xA110C)
			if err != nil {
				t.Fatal(err)
			}
			if err := owner.RecordBatch(pkts[:64]); err != nil {
				t.Fatal(err)
			}
			clones, leases := map[string]*Recording{}, map[string]*Lease{}
			var replaced []*flowState // states the owner no longer holds installed
			for i, s := range tc.steps {
				was := owner.flows[flow]
				switch s.op {
				case "lease":
					clones[s.name], leases[s.name] = owner.Lease(nil)
				case "release":
					owner.Release(leases[s.name])
				case "clone":
					owner.Clone()
				case "clone-of":
					clones[s.name].Clone()
				case "lease-of":
					_, l := clones[s.name].Lease(nil)
					owner.Release(l)
				case "merge-clone-of":
					adopter, err := NewRecordingSeeded(eng, 0, 0xA110C)
					if err != nil {
						t.Fatal(err)
					}
					if err := adopter.Merge(clones[s.name]); err != nil {
						t.Fatal(err)
					}
					adopter.Clone()
				case "write":
					if err := owner.RecordBatch(pkts[64+i : 65+i]); err != nil {
						t.Fatal(err)
					}
				case "reimport":
					blob, err := owner.AppendFlowState(nil, queries, flow)
					if err != nil {
						t.Fatal(err)
					}
					owner.Evict(flow)
					if err := owner.RestoreFlowState(queries, flow, blob); err != nil {
						t.Fatal(err)
					}
				}
				fs := owner.flows[flow]
				if fs != was {
					replaced = append(replaced, was)
				}
				if fs.shared == s.private {
					t.Fatalf("step %d (%s %s): installed state shared=%v, want %v", i, s.op, s.name, fs.shared, !s.private)
				}
				for _, old := range replaced {
					if !old.shared {
						t.Fatalf("step %d (%s %s): a state the owner replaced was made private", i, s.op, s.name)
					}
				}
			}
		})
	}
}

package core

import (
	"fmt"
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
// CloneFlows — of the live state answers exactly like a Recording rebuilt
// from scratch from that prefix. The rebuilt Recording never shares an
// array with anything, so it is an independent oracle: a clone that saw
// a later append, or lost a sample to one, diverges from it. The live
// state is spread over 1, 2 and 4 Recordings by the sink's routing
// function and the clones are folded with Merge, which is exactly what a
// pipeline snapshot does; shards a scoped clone does not ask contribute
// an empty Recording.
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
						// Every flow, from full clones.
						full := mk()
						for _, rec := range live {
							if err := full.Merge(rec.Clone()); err != nil {
								t.Fatal(err)
							}
						}
						ref := rebuilt(pkts[:n])
						if got, want := full.TrackedFlows(), ref.TrackedFlows(); got != want {
							t.Fatalf("prefix %d: clone tracks %d flows, rebuilt %d", n, got, want)
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
							if err := scoped.Merge(rec.CloneFlows(byShard[i])); err != nil {
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
					}
				}
			})
		}
	}
}

// TestCloneAppendsStayPrivate pins the clamp and the copy-on-write tail.
// A clone shares the origin's util series, whose array has spare capacity
// past the shared prefix, and its raw latency chunks, whose last chunk has
// room past the shared samples; an append through a clone must reallocate
// or copy instead of writing there, or it would show through to the
// origin's next append and to every sibling clone. Origin and two sibling
// clones each record a different continuation; each must equal a
// Recording rebuilt from scratch from the prefix plus its own continuation.
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
						midChunk = midChunk || st.n%per != 0
					}
				}
			}
			if !spare || !midChunk {
				t.Fatal("no origin series has spare capacity or no raw store ends mid-chunk; pick another prefix length")
			}
			holders := []*Recording{orig, orig.Clone(), orig.Clone()}
			for _, c := range holders[1:] {
				for f, fs := range c.flows {
					for _, slot := range fs.slots {
						if vs := slot.series; cap(vs) != len(vs) {
							t.Fatalf("flow %d: clone's series has cap %d > len %d", f, cap(vs), len(vs))
						}
						for _, st := range slot.lat {
							if cap(st.chunks) != len(st.chunks) || len(st.chunks) != (st.n+per-1)/per {
								t.Fatalf("flow %d: clone holds %d samples in %d chunks of a list of cap %d, want a clamped list of %d",
									f, st.n, len(st.chunks), cap(st.chunks), (st.n+per-1)/per)
							}
						}
					}
				}
			}
			// Interleave the three continuations chunk by chunk, so every
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
// blob — between appends of its own continuation. The owner fills the
// very tail chunks both clones share, the appending clone copies its part
// of them while the owner writes past it, and the reading clone ranks the
// shared bytes throughout. Any shared byte written by one side while
// another reads it fails under -race; afterwards each holder must carry
// the state of a Recording rebuilt from its own packets, blob for blob.
func TestHeldCloneRacesOwnerTail(t *testing.T) {
	const (
		nFlows = 4
		k      = 6
		cont   = 800
		step   = 16
	)
	for _, v := range storageVariants {
		t.Run(v.name, func(t *testing.T) {
			eng, path, lat, util := combinedTestPlanLat(t, 151, v.latBits)
			queries := []Query{path, lat, util}
			mk := func(batches ...[]PacketDigest) *Recording {
				rec, err := NewRecordingSeeded(eng, v.sketchItems, 0xC10)
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
			prefix := cloneWorkload(t, eng, 157, nFlows, 600, k)
			ownerCont := cloneWorkload(t, eng, 163, nFlows, cont, k)
			cloneCont := cloneWorkload(t, eng, 167, nFlows, cont, k)
			scramble(v.latBits, 173, prefix, ownerCont, cloneCont)
			owner := mk(prefix)
			per := latChunk / codeWidth(v.latBits)
			midChunk := v.sketchItems != 0
			for _, fs := range owner.flows {
				for _, st := range fs.slots[eng.slots[lat]].lat {
					midChunk = midChunk || st.n%per != 0
				}
			}
			if !midChunk {
				t.Fatal("no raw store ends mid-chunk; pick another prefix length")
			}
			reader, writer := owner.Clone(), owner.Clone()
			answer := func(rec *Recording, blob []byte) []byte {
				for f := FlowKey(1); f <= nFlows; f++ {
					for hop := 1; hop <= k; hop++ {
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
			var wg sync.WaitGroup
			wg.Add(3)
			go func() {
				defer wg.Done()
				for off := 0; off < cont; off += step {
					if err := owner.RecordBatch(ownerCont[off : off+step]); err != nil {
						t.Error(err)
					}
				}
			}()
			go func() {
				defer wg.Done()
				var blob []byte
				for off := 0; off < cont; off += step {
					blob = answer(writer, blob)
					if err := writer.RecordBatch(cloneCont[off : off+step]); err != nil {
						t.Error(err)
					}
				}
			}()
			go func() {
				defer wg.Done()
				var blob []byte
				for off := 0; off < cont; off += step {
					blob = answer(reader, blob)
				}
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
			} {
				if recordingState(t, h.got, queries) != recordingState(t, h.want, queries) {
					t.Fatalf("%s: state differs from a Recording rebuilt from its own packets", h.name)
				}
			}
		})
	}
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

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

// TestRecordingCloneIsIndependentAndIdentical is the contract snapshot
// queries rely on: a clone answers bit-identically at the copy point, and
// recording into the original afterwards leaves the clone untouched while
// the clone, fed the same continuation, stays bit-identical to the
// original.
func TestRecordingCloneIsIndependentAndIdentical(t *testing.T) {
	t.Run("raw", func(t *testing.T) {
		eng, path, lat, util := combinedTestPlan(t, 37)
		const (
			nFlows = 6
			k      = 6
		)
		pkts := cloneWorkload(t, eng, 91, nFlows, 4096, k)
		half := len(pkts) / 2
		mk := func() *Recording {
			rec, err := NewRecording(eng)
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
		rec, err := NewRecording(eng)
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
		rec, err := NewRecording(eng)
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
	a, err := NewRecording(eng)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRecording(eng)
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
	c, err := NewRecording(eng2)
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
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("raw/shards=%d", shards), func(t *testing.T) {
			eng, path, lat, util := combinedTestPlan(t, 59)
			mk := func() *Recording {
				rec, err := NewRecording(eng)
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
			rng := hash.NewRNG(uint64(7919*shards + len("raw")))
			for trial := 0; trial < 3; trial++ {
				nFlows := 2 + rng.Intn(6)
				pkts := randomWorkload(eng, rng, nFlows, 64+rng.Intn(96), k)
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

// TestCloneAppendsStayPrivate pins the clamp. A clone shares the origin's
// util series, whose array has spare capacity past the shared prefix. Only
// the origin, the flows' owner, may go on appending there; the copy any
// clone writes through must be clamped, so that its appends reallocate, or
// they would show through to the origin's next append and to every sibling
// clone. So must the copy of a Recording that merged a clone: merging one
// makes it a clone. A latency store's copy takes its inline tail by value
// and shares its histogram, marked shared. Origin, two sibling clones and
// an empty Recording that merged a third each record a different
// continuation; each must equal a Recording rebuilt from scratch from the
// prefix plus its own continuation.
func TestCloneAppendsStayPrivate(t *testing.T) {
	const (
		nFlows = 4
		k      = 6
	)
	t.Run("raw", func(t *testing.T) {
		eng, path, lat, util := combinedTestPlan(t, 61)
		mk := func() *Recording {
			rec, err := NewRecording(eng)
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
		conts = append(conts, cloneWorkload(t, eng, 137, nFlows, 800, k))
		orig := mk()
		if err := orig.RecordBatch(prefix); err != nil {
			t.Fatal(err)
		}
		// The test means something only if an append could land in
		// shared memory: some origin series must have room to spare.
		spare := false
		for _, fs := range orig.flows {
			for _, series := range fs.more.series {
				spare = spare || cap(series) > len(series)
			}
		}
		if !spare {
			t.Fatal("no origin series has spare capacity; pick another prefix length")
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
				for s := range eng.places {
					pl := &eng.places[s]
					if vs, was := fs.series(pl), shared.series(pl); pl.kind == opUtil &&
						(len(vs) != len(was) || cap(vs) != wantCap(len(was), cap(was))) {
						t.Fatalf("holder %d flow %d: a series of len %d cap %d copied as len %d cap %d",
							i, f, len(was), cap(was), len(vs), cap(vs))
					}
					for hop := 1; pl.kind == opLatency && hop <= k; hop++ {
						st, ws := fs.store(eng, pl, hop), shared.store(eng, pl, hop)
						if st.sum() != ws.sum() || st.lo() != ws.lo() || st.tail() != ws.tail() || !st.shared() {
							t.Fatalf("holder %d flow %d hop %d: a latency store copied with its own histogram (%v), another tail, or not marked shared (%v)",
								i, f, hop, st.sum() != ws.sum(), st.shared())
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

// TestHeldCloneRacesOwnerTail is held clones under the race detector. Two
// clones are held while the owner records on: one only answers, the other
// answers — quantiles of every hop and the hand-off blob — between appends
// of its own continuation. A fourth goroutine clones the reading clone
// while it is read and does the same with that clone of a clone. The owner
// appends to the util series every clone shares, past their values; a
// latency store's inline tail is each holder's own. Any shared byte written by one side while another reads it fails
// under -race; afterwards each holder must carry the state of a Recording
// rebuilt from its own packets, blob for blob.
func TestHeldCloneRacesOwnerTail(t *testing.T) {
	t.Run("raw", func(t *testing.T) {
		raceHeldClones(t, heldRace{nFlows: 4, k: 6, prefix: 600, cont: 800, step: 16})
	})
}

// TestHeldCloneRacesFold is TestHeldCloneRacesOwnerTail for latency
// stores long enough to fold. The prefix folds every store in place, so
// the clones share a histogram; each continuation's first fold, when a
// code falls outside its inline tail's window or a counter fills, counts
// into a copy of the histogram while the reading clone ranks the
// original, and its later folds count in place.
func TestHeldCloneRacesFold(t *testing.T) {
	lat, reader, owner, writer, grand := raceHeldClones(t, heldRace{nFlows: 2, k: 2, prefix: 800, cont: 5120, step: 64})
	for _, f := range reader.Flows() {
		for hop := 1; hop <= reader.Hops(lat, f); hop++ {
			if st, _ := reader.store(lat, f, hop); st.sum() == nil {
				t.Fatalf("flow %d hop %d: the prefix folded none of its %d samples; the clones share no histogram", f, hop, st.samples())
			}
		}
	}
	for name, rec := range map[string]*Recording{"owner": owner, "appending clone": writer, "appending clone of the reading clone": grand} {
		for _, f := range rec.Flows() {
			for hop := 1; hop <= rec.Hops(lat, f); hop++ {
				if st, _ := rec.store(lat, f, hop); st.sum() == nil || st.shared() {
					t.Errorf("%s flow %d hop %d: shared %v after %d samples; the continuation did not fold into a copy",
						name, f, hop, st.shared(), st.samples())
				}
			}
		}
	}
}

// heldRace is the shape of one raceHeldClones run: flows, hops, the
// packets recorded before the clones are taken and in each continuation,
// and the packets recorded between two answers.
type heldRace struct{ nFlows, k, prefix, cont, step int }

// raceHeldClones runs the race TestHeldCloneRacesOwnerTail describes on
// the three-query plan, and returns its latency query, the reading clone
// and the three holders that recorded on: the owner, the appending clone
// and the clone of the reading clone.
func raceHeldClones(t *testing.T, s heldRace) (lat *LatencyQuery, reader, owner, writer, grand *Recording) {
	eng, path, lat, util := combinedTestPlan(t, 151)
	queries := []Query{path, lat, util}
	mk := func(batches ...[]PacketDigest) *Recording {
		rec, err := NewRecording(eng)
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
	owner = mk(prefix)
	reader, writer = owner.Clone(), owner.Clone()
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
	return lat, reader, owner, writer, grand
}

// TestLatencyQuantilesMatchesSingleCalls pins the batched form to the
// single-phi one it now backs: LatencyQuantiles(phis) equals LatencyQuantile per phi on the same Recording.
func TestLatencyQuantilesMatchesSingleCalls(t *testing.T) {
	const (
		nFlows = 3
		k      = 6
	)
	phis := []float64{0.5, 0.99, 0, 1, 0.5}
	t.Run("raw", func(t *testing.T) {
		eng, _, lat, _ := combinedTestPlan(t, 67)
		rec, err := NewRecording(eng)
		if err != nil {
			t.Fatal(err)
		}
		pkts := cloneWorkload(t, eng, 131, nFlows, 1500, k)
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
			owner, err := NewRecording(eng)
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
					adopter, err := NewRecording(eng)
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

// TestUnshareSharesOnlyAFinishedSlab is the frozen-share rule as the
// Recording runs it. The private copy a holder of a shared flow writes to
// (flowState.unshare) has block words of its own; it shares a finished
// path decoder's slab, which no Observe writes again, and copies a slab
// still being peeled. Afterwards the owner and the clone each record on
// exactly as a Recording that was never cloned does.
func TestUnshareSharesOnlyAFinishedSlab(t *testing.T) {
	eng, path, _ := testbenchPlan(t, 73)
	newRec := func() *Recording {
		r, err := NewRecording(eng)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	const n = 600
	// Find a flow whose decoder stores packets, and the packet after which
	// its slab is nonempty (peeling) and the one after which it is done.
	var flow FlowKey
	var pkts []PacketDigest
	peeling, finished := 0, 0
	for f := FlowKey(1); f <= 64 && finished == 0; f++ {
		probe, stream := newRec(), testbenchFlow(eng, f, uint64(7000+f), n)
		peeling = 0
		for i := range stream {
			if err := probe.RecordBatch(stream[i : i+1]); err != nil {
				t.Fatal(err)
			}
			fs := probe.find(f)
			stored := fs.slabs != nil && len(fs.slabs[0]) > 0
			if done := probe.PathDecoder(path, f).Done(); stored && !done && peeling == 0 {
				peeling = i + 1
			} else if done && peeling > 0 {
				flow, pkts, finished = f, stream, i+1
				break
			}
		}
	}
	if finished == 0 {
		t.Fatal("no flow stored a packet before decoding its path")
	}
	for _, c := range []struct {
		name   string
		prefix int
		shared bool
	}{{"peeling", peeling, false}, {"finished", finished, true}} {
		rec, control := newRec(), newRec()
		if err := rec.RecordBatch(pkts[:c.prefix]); err != nil {
			t.Fatal(err)
		}
		clone := rec.Clone()
		orig := rec.find(flow)
		mine := rec.stateOf(flow)
		if mine == orig {
			t.Fatalf("%s: a shared flow was written in place", c.name)
		}
		if &mine.words[0] == &orig.words[0] {
			t.Errorf("%s: the private copy shares the block's words", c.name)
		}
		if got := &mine.slabs[0][0] == &orig.slabs[0][0]; got != c.shared {
			t.Errorf("%s: slab shared %v, want %v", c.name, got, c.shared)
		}
		if err := control.RecordBatch(pkts); err != nil {
			t.Fatal(err)
		}
		for _, r := range []*Recording{rec, clone} {
			if err := r.RecordBatch(pkts[c.prefix:]); err != nil {
				t.Fatal(err)
			}
			got, want := r.PathDecoder(path, flow).AppendState(nil), control.PathDecoder(path, flow).AppendState(nil)
			if !slices.Equal(got, want) {
				t.Errorf("%s: a holder's decoder diverged from a Recording never cloned", c.name)
			}
		}
	}
}

// TestPathDecoderIsACopy pins PathDecoder's contract: the decoder it
// returns owns its state, so the Recording's later packets do not show in
// it and observing through it leaves the Recording's answers as they were.
func TestPathDecoderIsACopy(t *testing.T) {
	eng, path, _ := testbenchPlan(t, 74)
	rec, err := NewRecording(eng)
	if err != nil {
		t.Fatal(err)
	}
	pkts := testbenchFlow(eng, 1, 7100, 400)
	if err := rec.RecordBatch(pkts[:8]); err != nil {
		t.Fatal(err)
	}
	dec := rec.PathDecoder(path, 1)
	before, answer := dec.AppendState(nil), rec.PathDecoder(path, 1).AppendState(nil)
	for _, p := range pkts[8:] {
		set := eng.SetFor(p.PktID)
		for i, q := range set.Queries {
			if q == Query(path) {
				path.ObserveInto(dec, p.PktID, p.Digest>>uint(set.Offsets[i])&(1<<uint(path.Bits())-1))
			}
		}
	}
	if !dec.Done() {
		t.Fatal("the copy did not decode the path from the rest of the stream")
	}
	if got := rec.PathDecoder(path, 1).AppendState(nil); !slices.Equal(got, answer) {
		t.Error("observing through PathDecoder's result changed the Recording")
	}
	if err := rec.RecordBatch(pkts[8:]); err != nil {
		t.Fatal(err)
	}
	if again := rec.PathDecoder(path, 1); !again.Done() || slices.Equal(again.AppendState(nil), before) {
		t.Error("the Recording did not record on after a copy was taken")
	}
}

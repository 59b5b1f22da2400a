package core

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
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
// the original, writing through copies of the flows the clones hold, ends
// bit-identical to a Recording that was never cloned.
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
		// Two clones and a reference, all taken at the copy point.
		cloneA, cloneB, halfRef := orig.Clone(), orig.Clone(), orig.Clone()
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

		// ...and the original records on as if no clone had been taken.
		whole := mk()
		if err := whole.RecordBatch(pkts); err != nil {
			t.Fatal(err)
		}
		for f := 1; f <= nFlows; f++ {
			assertSameAnswers(t, whole, orig, FlowKey(f), k, path, lat, util)
		}
	})
}

// TestRecordingMergeAdoptsDisjointFlows splits a stream by flow parity
// into two recordings and merges a view of each into an empty Recording;
// every answer must match a single recording that saw the whole stream.
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
	merged := mk()
	for _, part := range []*Recording{left, right} {
		if err := merged.Merge(part.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := merged.TrackedFlows(), whole.TrackedFlows(); got != want {
		t.Fatalf("merged tracks %d flows, want %d", got, want)
	}
	for f := 1; f <= nFlows; f++ {
		assertSameAnswers(t, whole, merged, FlowKey(f), k, path, lat, util)
	}
}

// TestRecordingMergeManyWay folds views of K recordings holding disjoint
// flow slices into one — the shape a federated query frontend produces when
// it folds per-collector snapshots — including empty members, and demands
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
	merged := mk()
	for _, part := range parts {
		if err := merged.Merge(part.Clone()); err != nil {
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
	if err := merged.Merge(dup.Clone()); err == nil {
		t.Fatal("merge accepted a single-flow overlap after a clean many-way fold")
	}
}

// TestRecordingMergeRejectsOverlapAndForeignEngine pins Merge's error
// cases: duplicated flows and mismatched engines. (TestViewsAreReadOnly
// pins the third: a merge with a Recording that records.)
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
	view := a.Clone()
	if err := view.Merge(b.Clone()); err == nil {
		t.Fatal("merge accepted overlapping flow sets")
	}
	eng2, _, _, _ := combinedTestPlan(t, 47)
	c, err := NewRecording(eng2)
	if err != nil {
		t.Fatal(err)
	}
	if err := view.Merge(c.Clone()); err == nil {
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
					for _, l := range leases {
						if l != nil {
							l.Release()
						}
					}
				}
			}
		})
	}
}

// TestCloneAppendsStayPrivate pins where the owner's appends land. A view
// shares the owner's util series, whose array has spare capacity past the
// shared prefix. Only the owner appends, so its copy of a held flow keeps
// the array, spare capacity included, and appends past every view's
// values; a latency store's copy takes its inline tail by value and shares
// its histogram, marked shared. Views taken at several points of the
// owner's continuation must each equal a Recording rebuilt from scratch
// from the packets before it, and the owner one rebuilt from all of them.
func TestCloneAppendsStayPrivate(t *testing.T) {
	const (
		nFlows = 4
		k      = 6
	)
	t.Run("raw", func(t *testing.T) {
		eng, path, lat, util := combinedTestPlan(t, 61)
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
		prefix := cloneWorkload(t, eng, 107, nFlows, 1200, k)
		cont := cloneWorkload(t, eng, 109, nFlows, 800, k)
		orig := mk(prefix)
		// The test means something only if an append could land in
		// shared memory: some origin series must have room to spare.
		spare := false
		for _, fs := range orig.states() {
			for _, series := range fs.more().series {
				spare = spare || cap(series) > len(series)
			}
		}
		if !spare {
			t.Fatal("no origin series has spare capacity; pick another prefix length")
		}
		first := orig.Clone()
		// The owner's next write first swaps in its own copy of the flow,
		// which keeps the shared series as they are, spare capacity
		// included.
		for f := FlowKey(1); f <= nFlows; f++ {
			shared, _ := first.find(f)
			fs := orig.stateOf(f)
			if fs.off == shared.off {
				t.Fatalf("flow %d: a write would land in the state the view holds", f)
			}
			for s := range eng.places {
				pl := &eng.places[s]
				if vs, was := fs.series(pl), shared.series(pl); pl.kind == opUtil && (len(vs) != len(was) || cap(vs) != cap(was)) {
					t.Fatalf("flow %d: a series of len %d cap %d copied as len %d cap %d",
						f, len(was), cap(was), len(vs), cap(vs))
				}
				for hop := 1; pl.kind == opLatency && hop <= k; hop++ {
					st, ws := fs.store(eng, pl, hop), shared.store(eng, pl, hop)
					if st.sum() != ws.sum() || st.lo() != ws.lo() || st.tail() != ws.tail() || !st.shared() {
						t.Fatalf("flow %d hop %d: a latency store copied with its own histogram (%v), another tail, or not marked shared (%v)",
							f, hop, st.sum() != ws.sum(), st.shared())
					}
				}
			}
		}
		// The owner records on in chunks, with a view taken every fourth
		// chunk, so every append lands beside arrays some view still reads.
		views := map[int]*Recording{0: first}
		for off := 0; off < len(cont); off += 50 {
			if off%200 == 0 && off > 0 {
				views[off] = orig.Clone()
			}
			if err := orig.RecordBatch(cont[off : off+50]); err != nil {
				t.Fatal(err)
			}
		}
		for off, v := range views {
			ref := mk(prefix, cont[:off])
			for f := 1; f <= nFlows; f++ {
				assertSameAnswers(t, ref, v, FlowKey(f), k, path, lat, util)
			}
		}
		ref := mk(prefix, cont)
		for f := 1; f <= nFlows; f++ {
			assertSameAnswers(t, ref, orig, FlowKey(f), k, path, lat, util)
		}
	})
}

// TestHeldCloneRacesOwnerTail is held views under the race detector. The
// owner records on while a Clone taken before is answered — quantiles of
// every hop and the hand-off image — on one goroutine, and each lease the
// owner takes between its batches is answered and released on another.
// The owner appends to the util series every view shares, past their
// values; a latency store's inline tail is the owner's own copy; and every
// other step the owner waits for its lease to come back and writes the
// states only that lease held in place.
// Any shared byte written by one side while another reads it fails under
// -race. Each lease must carry the state of a Recording rebuilt from the
// packets before it, and afterwards the owner and the clone theirs, image
// for image.
func TestHeldCloneRacesOwnerTail(t *testing.T) {
	t.Run("raw", func(t *testing.T) {
		raceHeldClones(t, heldRace{nFlows: 4, k: 6, prefix: 600, cont: 800, step: 16})
	})
}

// TestHeldCloneRacesFold is TestHeldCloneRacesOwnerTail for latency
// stores long enough to fold. The prefix folds every store in place, so
// the views share a histogram; the continuation's first fold, when a
// code falls outside its inline tail's window or a counter fills, counts
// into a copy of the histogram while the reading clone ranks the
// original.
func TestHeldCloneRacesFold(t *testing.T) {
	lat, reader, owner := raceHeldClones(t, heldRace{nFlows: 2, k: 2, prefix: 800, cont: 5120, step: 64})
	for _, f := range reader.Flows() {
		for hop := 1; hop <= reader.Hops(lat, f); hop++ {
			if st, _ := reader.storeOf(lat, f, hop); st.sum() == nil {
				t.Fatalf("flow %d hop %d: the prefix folded none of its %d samples; the views share no histogram", f, hop, st.samples())
			}
		}
	}
	for _, f := range owner.Flows() {
		for hop := 1; hop <= owner.Hops(lat, f); hop++ {
			st, _ := owner.storeOf(lat, f, hop)
			if held, _ := reader.storeOf(lat, f, hop); st.sum() == nil || st.sum() == held.sum() {
				t.Errorf("owner flow %d hop %d: the clone's histogram after %d samples; the continuation did not fold into a copy",
					f, hop, st.samples())
			}
		}
	}
}

// heldRace is the shape of one raceHeldClones run: flows, hops, the
// packets recorded before the clone is taken and in the continuation,
// and the packets the owner records between two leases, at least nFlows,
// so that every step writes every flow.
type heldRace struct{ nFlows, k, prefix, cont, step int }

// raceHeldClones runs the race TestHeldCloneRacesOwnerTail describes on
// the three-query plan, and returns its latency query, the reading clone
// and the owner.
func raceHeldClones(t *testing.T, s heldRace) (lat *LatencyQuery, reader, owner *Recording) {
	eng, _, lat, _ := combinedTestPlan(t, 151)
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
	cont := cloneWorkload(t, eng, 163, s.nFlows, s.cont, s.k)
	// What each lease must read: the state after every step of the
	// continuation, rebuilt by a Recording nobody leases.
	var want []string
	for ref, off := mk(prefix), 0; off < s.cont; off += s.step {
		want = append(want, recordingState(t, ref))
		if err := ref.RecordBatch(cont[off : off+s.step]); err != nil {
			t.Fatal(err)
		}
	}
	owner = mk(prefix)
	reader = owner.Clone()
	// answer answers every hop's quantiles and renders every flow's image.
	answer := func(rec *Recording) string {
		var b strings.Builder
		for _, f := range rec.Flows() {
			for hop := 1; hop <= s.k; hop++ {
				if _, err := rec.LatencyQuantiles(lat, f, hop, 0, 0.5, 0.99, 1); err != nil && rec.LatencySamples(lat, f, hop) != 0 {
					t.Error(err)
				}
			}
			img, err := rec.AppendFlowState(nil, f)
			if err != nil {
				t.Error(err)
			}
			fmt.Fprintf(&b, "%d:%x\n", f, img)
		}
		return b.String()
	}
	type lease struct {
		view *Recording
		l    *Lease
		step int
	}
	leased := make(chan lease)
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		defer close(leased)
		for off := 0; off < s.cont; off += s.step {
			view, l := owner.Lease(nil)
			leased <- lease{view, l, off / s.step}
			// Every other step waits for the lease to come back, through the
			// hold counts alone, as the owner's write reads them: the owner then
			// writes the states only that lease held in place.
			inPlace := off/s.step%2 == 1
			before := map[FlowKey]uint32{}
			for f, fs := range owner.states() {
				before[f] = fs.off
				for inPlace && holds(fs.w) != 0 {
					runtime.Gosched()
				}
			}
			if err := owner.RecordBatch(cont[off : off+s.step]); err != nil {
				t.Error(err)
			}
			for f, was := range before {
				if inPlace && owner.blockOf(f) != was {
					t.Errorf("step %d flow %d: written through a copy after its lease came back", off/s.step, f)
				}
			}
		}
	}()
	go func() {
		defer wg.Done()
		for v := range leased {
			if answer(v.view) != want[v.step] {
				t.Errorf("lease %d: state differs from a Recording rebuilt from the packets before it", v.step)
			}
			v.l.Release()
		}
	}()
	go func() {
		defer wg.Done()
		for range s.cont / s.step {
			answer(reader)
		}
	}()
	wg.Wait()
	for _, h := range []struct {
		name string
		got  *Recording
		want *Recording
	}{
		{"owner", owner, mk(prefix, cont)},
		{"reading clone", reader, mk(prefix)},
	} {
		if recordingState(t, h.got) != recordingState(t, h.want) {
			t.Fatalf("%s: state differs from a Recording rebuilt from its own packets", h.name)
		}
	}
	return lat, reader, owner
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
// Clone holds for good. A block the owner replaced — by writing through a
// copy, or by evicting the flow and importing it again under the same key
// — is not written while a lease holds it.
func TestLeaseHoldCount(t *testing.T) {
	const flow = FlowKey(1)
	eng, _, _ := testbenchPlan(t, 71)
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
			leases := map[string]*Lease{}
			// Blocks the owner no longer has installed, and their words when
			// it replaced them.
			replaced := map[uint32][]uint64{}
			for i, s := range tc.steps {
				was, _ := owner.find(flow)
				switch s.op {
				case "lease":
					_, leases[s.name] = owner.Lease(nil)
				case "release":
					leases[s.name].Release()
				case "clone":
					owner.Clone()
				case "write":
					if err := owner.RecordBatch(pkts[64+i : 65+i]); err != nil {
						t.Fatal(err)
					}
				case "reimport":
					img, err := owner.AppendFlowState(nil, flow)
					if err != nil {
						t.Fatal(err)
					}
					owner.Evict(flow)
					if err := owner.RestoreFlowState(flow, img); err != nil {
						t.Fatal(err)
					}
				}
				fs, _ := owner.find(flow)
				if fs.off != was.off {
					replaced[was.off] = slices.Clone(was.w)
				}
				if held := holds(fs.w) != 0; held == s.private {
					t.Fatalf("step %d (%s %s): installed state held=%v, want %v", i, s.op, s.name, held, !s.private)
				}
				for old, words := range replaced {
					if owner.holdsAt(old) == 0 {
						delete(replaced, old) // free to reuse
					} else if !slices.Equal(owner.flows.block(old)[hdrK:], words[hdrK:]) {
						t.Fatalf("step %d (%s %s): a held block the owner replaced was written", i, s.op, s.name)
					}
				}
			}
		})
	}
}

// TestViewsAreReadOnly pins the one-writer rule: a view — a Lease, a
// Clone, or a Recording that merged one — refuses every write, and taking a
// view of it panics. Merge takes views only, into a view or an empty
// Recording; a Recording that records neither merges into another nor
// takes a view's flows once it has its own.
func TestViewsAreReadOnly(t *testing.T) {
	eng, _, _, _ := combinedTestPlan(t, 79)
	pkts := cloneWorkload(t, eng, 173, 3, 300, 6)
	owner, err := NewRecording(eng)
	if err != nil {
		t.Fatal(err)
	}
	if err := owner.RecordBatch(pkts); err != nil {
		t.Fatal(err)
	}
	img, err := owner.AppendFlowState(nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	empty, err := NewRecording(eng)
	if err != nil {
		t.Fatal(err)
	}
	leased, l := owner.Lease([]FlowKey{1})
	defer l.Release()
	adopter, err := NewRecording(eng)
	if err != nil {
		t.Fatal(err)
	}
	if err := adopter.Merge(owner.Clone()); err != nil {
		t.Fatal(err)
	}
	before := recordingState(t, owner)
	for name, view := range map[string]*Recording{"lease": leased, "clone": owner.Clone(), "merged": adopter} {
		want := recordingState(t, view)
		if err := view.RecordBatch(pkts[:4]); err == nil {
			t.Errorf("%s: RecordBatch accepted", name)
		}
		if err := view.Record(1, 6, pkts[0].PktID, pkts[0].Digest); err == nil {
			t.Errorf("%s: Record accepted", name)
		}
		if err := view.RestoreFlowState(9, img); err == nil {
			t.Errorf("%s: RestoreFlowState accepted", name)
		}
		for op, take := range map[string]func(){"Lease": func() { view.Lease(nil) }, "Clone": func() { view.Clone() }} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: %s of a view did not panic", name, op)
					}
				}()
				take()
			}()
		}
		if err := owner.Merge(view); err == nil {
			t.Errorf("%s: merged into a Recording that records", name)
		}
		if err := view.Merge(empty); err != nil {
			t.Errorf("%s: merging an empty Recording: %v", name, err)
		}
		if got := recordingState(t, view); got != want {
			t.Errorf("%s: a refused write changed the view", name)
		}
	}
	if err := adopter.Merge(owner); err == nil {
		t.Error("a Recording that records merged into a view")
	}
	if got := recordingState(t, owner); got != before {
		t.Error("a refused merge changed the owner")
	}
}

// TestUnshareSharesTheKeptSlab is the frozen-share rule as the Recording
// runs it. The private copy the owner of a held flow writes to
// (flowState.unshare) has block words of its own; it shares the slab a
// path still being peeled kept, which no run writes again (a run grows the
// Recording's scratch and keeps a fresh copy, Recording.recordRun), and a
// finished path keeps no slab at all, nor a side entry for one.
// Afterwards the owner records on exactly as a Recording that was never
// cloned does, and the clone still reads the decoder at the copy point.
func TestUnshareSharesTheKeptSlab(t *testing.T) {
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
			fs, _ := probe.find(f)
			stored := len(fs.slab(0)) > 0
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
	}{{"peeling", peeling, true}, {"finished", finished, false}} {
		rec, control := newRec(), newRec()
		if err := rec.RecordBatch(pkts[:c.prefix]); err != nil {
			t.Fatal(err)
		}
		clone := rec.Clone()
		orig, _ := rec.find(flow)
		mine := rec.stateOf(flow)
		if mine.off == orig.off {
			t.Fatalf("%s: a shared flow was written in place", c.name)
		}
		if &mine.w[0] == &orig.w[0] {
			t.Errorf("%s: the private copy shares the block's words", c.name)
		}
		switch {
		case c.shared && (len(orig.slab(0)) == 0 || &mine.slab(0)[0] != &orig.slab(0)[0]):
			t.Errorf("%s: the copy does not share the kept slab", c.name)
		case !c.shared && (orig.slab(0) != nil || mine.slab(0) != nil || orig.side() != 0 || mine.side() != 0):
			t.Errorf("%s: a finished path kept a slab (%d words) or a side entry", c.name, len(orig.slab(0)))
		}
		if err := control.RecordBatch(pkts[:c.prefix]); err != nil {
			t.Fatal(err)
		}
		atCopy := flowImage(t, control, flow)
		if err := control.RecordBatch(pkts[c.prefix:]); err != nil {
			t.Fatal(err)
		}
		if err := rec.RecordBatch(pkts[c.prefix:]); err != nil {
			t.Fatal(err)
		}
		for _, h := range []struct {
			name string
			got  *Recording
			want []byte
		}{{"owner", rec, flowImage(t, control, flow)}, {"clone", clone, atCopy}} {
			if got := flowImage(t, h.got, flow); !slices.Equal(got, h.want) {
				t.Errorf("%s: the %s's state diverged from a Recording never cloned", c.name, h.name)
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
	before, answer := decoderAnswers(dec), decoderAnswers(rec.PathDecoder(path, 1))
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
	if got := decoderAnswers(rec.PathDecoder(path, 1)); got != answer {
		t.Error("observing through PathDecoder's result changed the Recording")
	}
	if err := rec.RecordBatch(pkts[8:]); err != nil {
		t.Fatal(err)
	}
	if again := rec.PathDecoder(path, 1); !again.Done() || decoderAnswers(again) == before {
		t.Error("the Recording did not record on after a copy was taken")
	}
}

// TestLeaseRunReuse pins how a released Lease's run is reused. Release
// gives the run back to the Recording that made it, whose next Lease
// fills it again; the Lease itself is never reused, so releasing it a
// second time, after its run already indexes another Lease, gives back
// none of that Lease's holds. A point Lease that took a large spare
// returns it, a smaller run returned does not displace a larger spare,
// and a block the owner replaced while a Lease held it, which only that
// Lease's run still pointed at, is not kept from reuse by the spare.
func TestLeaseRunReuse(t *testing.T) {
	eng, path, _ := testbenchPlan(t, 83)
	flows := []FlowKey{3, 5, 8, 13}
	newOwner := func(t *testing.T) (*Recording, map[FlowKey][]PacketDigest) {
		owner, err := NewRecording(eng)
		if err != nil {
			t.Fatal(err)
		}
		pkts := map[FlowKey][]PacketDigest{}
		for i, f := range flows {
			pkts[f] = testbenchFlow(eng, f, uint64(90+i), 48)
			if err := owner.RecordBatch(pkts[f][:40]); err != nil {
				t.Fatal(err)
			}
		}
		return owner, pkts
	}
	first := func(l *Lease) *uint32 { return &l.run[:1][0] }

	t.Run("a second release after the run was reused", func(t *testing.T) {
		owner, pkts := newOwner(t)
		_, a := owner.Lease(nil)
		arr := first(a)
		a.Release()
		view, b := owner.Lease(nil)
		if first(b) != arr {
			t.Fatal("the next Lease did not refill the released run")
		}
		want := recordingState(t, view)
		a.Release()
		for _, f := range flows {
			if n := owner.holdsAt(owner.blockOf(f)); n != 1 {
				t.Fatalf("flow %v: %d holds after the first Lease was released again, want 1 (the second Lease's)", f, n)
			}
		}
		for _, f := range flows {
			was := owner.blockOf(f)
			if err := owner.RecordBatch(pkts[f][40:42]); err != nil {
				t.Fatal(err)
			}
			if owner.blockOf(f) == was {
				t.Fatalf("flow %v: the owner wrote a state the second Lease holds in place", f)
			}
		}
		if got := recordingState(t, view); got != want {
			t.Fatal("the owner's writes showed in the second Lease's view")
		}
		b.Release()
		for _, f := range flows {
			if n := owner.holdsAt(owner.blockOf(f)); n != 0 {
				t.Fatalf("flow %v: %d holds after every Lease was released", f, n)
			}
		}
	})

	t.Run("a point lease gives the large spare back", func(t *testing.T) {
		owner, _ := newOwner(t)
		_, full := owner.Lease(nil)
		arr := first(full)
		full.Release()
		_, point := owner.Lease([]FlowKey{flows[1]})
		if first(point) != arr {
			t.Fatal("a point Lease did not take the spare")
		}
		point.Release()
		_, held := owner.Lease(nil)
		if first(held) != arr {
			t.Fatal("the spare a point Lease took did not come back")
		}
		// The spare is out, so a point Lease makes its own run; returned
		// first, it waits as the spare until the larger run comes back.
		_, small := owner.Lease([]FlowKey{flows[2]})
		if first(small) == arr {
			t.Fatal("a point Lease shares a run a held Lease indexes")
		}
		small.Release()
		held.Release()
		_, again := owner.Lease(nil)
		if first(again) != arr {
			t.Fatal("a smaller run returned displaced the larger spare")
		}
		again.Release()
	})

	t.Run("the spare keeps no replaced state alive", func(t *testing.T) {
		owner, pkts := newOwner(t)
		_, l := owner.Lease(nil)
		arr := first(l)
		f := flows[0]
		replaced := owner.blockOf(f)
		if err := owner.RecordBatch(pkts[f][40:41]); err != nil {
			t.Fatal(err)
		}
		if owner.blockOf(f) == replaced {
			t.Fatal("the owner wrote a held state in place")
		}
		if !slices.Contains(l.run, replaced) {
			t.Fatal("the Lease's run does not point at the block the owner replaced")
		}
		l.Release()
		spare := owner.spare.run
		if cap(spare) < len(flows) || &spare[:1][0] != arr {
			t.Fatalf("the spare holds %d entries after Release, want the released run back", cap(spare))
		}
		// The spare's offsets are not holds, however long it waits for the
		// next Lease: the next batch reuses the replaced block, once the
		// new flow is decoded like the replaced one and so takes a rowless
		// block too.
		if !owner.PathDecoder(path, f).Done() {
			t.Fatalf("flow %v did not decode in 41 packets; the pin needs a decoded flow", f)
		}
		if err := owner.RecordBatch(testbenchFlow(eng, 99, 99, 64)); err != nil {
			t.Fatal(err)
		}
		if !owner.PathDecoder(path, 99).Done() {
			t.Fatal("flow 99 did not decode in 64 packets; the pin needs a decoded flow")
		}
		if owner.blockOf(99) != replaced {
			t.Fatal("a new flow did not reuse the block the released Lease held")
		}
	})
}

// TestAllFlowsWalksRunsInPlace pins the walk a full snapshot streams
// from: over a view merged from several owners' Leases, AllFlows yields
// Flows' keys in the same order, each already the entry find returns
// without a search, and stops when the consumer does. A Recording that
// records yields its sorted flows too.
func TestAllFlowsWalksRunsInPlace(t *testing.T) {
	eng, _, _ := testbenchPlan(t, 89)
	view, err := NewRecording(eng)
	if err != nil {
		t.Fatal(err)
	}
	var owners []*Recording
	for o := range 3 {
		owner, err := NewRecording(eng)
		if err != nil {
			t.Fatal(err)
		}
		for f := FlowKey(o + 1); f < 40; f += 3 {
			if err := owner.RecordBatch(testbenchFlow(eng, f*7919, uint64(f), 4)); err != nil {
				t.Fatal(err)
			}
		}
		owners = append(owners, owner)
		leased, l := owner.Lease(nil)
		defer l.Release()
		if err := view.Merge(leased); err != nil {
			t.Fatal(err)
		}
	}
	want := view.Flows()
	if len(want) != view.TrackedFlows() || !slices.IsSorted(want) {
		t.Fatalf("Flows: %d keys of %d, sorted %v", len(want), view.TrackedFlows(), slices.IsSorted(want))
	}
	var got []FlowKey
	for f := range view.AllFlows() {
		if p := view.found.Load(); p == 0 || view.runs[p>>32-1].ps.key(uint32(p)) != f {
			t.Fatalf("flow %v yielded before find would return it without a search", f)
		}
		got = append(got, f)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("AllFlows yields %v, want %v", got, want)
	}
	n := 0
	for range view.AllFlows() {
		if n++; n == 5 {
			break
		}
	}
	if n != 5 {
		t.Fatalf("the walk yielded %d flows before the break, want 5", n)
	}
	for _, owner := range owners {
		if got := slices.Collect(owner.AllFlows()); !slices.Equal(got, owner.Flows()) {
			t.Fatalf("a Recording that records yields %v, want %v", got, owner.Flows())
		}
	}
}

package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/coding"
)

// Test access to a recording's arena.

// states returns the state of every flow r records.
func (r *Recording) states() map[FlowKey]flowState {
	out := map[FlowKey]flowState{}
	for _, f := range r.Flows() {
		out[f], _ = r.find(f)
	}
	return out
}

// blockOf returns the offset of the block r's table gives flow.
func (r *Recording) blockOf(flow FlowKey) uint32 {
	fs, ok := r.find(flow)
	if !ok {
		panic("not tracked")
	}
	return fs.off
}

// holdsAt returns the hold count of r's block at off.
func (r *Recording) holdsAt(off uint32) uint32 { return holds(r.flows.block(off)) }

// stateOf returns a tracked flow's state ready to write to, as RecordBatch
// takes it: a held block is copied first.
func (r *Recording) stateOf(flow FlowKey) flowState {
	fs, err := r.flows.writable(flow, 0)
	if err != nil {
		panic(err)
	}
	return fs
}

// storeOf is Recording.store with a state of its own.
// decoderAnswers spells everything a decoder answers: its path, its
// missing hops, its inconsistencies and its stored packets.
func decoderAnswers(d *coding.Decoder) string {
	vals, ok := d.Path()
	return fmt.Sprintf("path %v %v, %d missing, %d inconsistent, slab %v", vals, ok, d.MissingHops(), d.Inconsistent(), d.Slab())
}

func (r *Recording) storeOf(q *LatencyQuery, flow FlowKey, hop int) (latStore, bool) {
	return r.store(new(flowState), q, flow, hop)
}

// TestBlockReclamation pins when the arena reuses a block a lease held.
// A Lease of every flow, then a write to each, copies every flow to a
// fresh block; the view still answers as at the Lease while new cold
// flows arrive, and once it is released the next as many cold flows
// reuse the replaced blocks, so the pages do not grow, and the owner
// answers byte for byte as a Recording never leased. A flow evicted while
// a lease holds it, as a hand-off's export does during a snapshot, is
// still answered by the view, and its block is reused only after Release.
func TestBlockReclamation(t *testing.T) {
	eng, path, _ := testbenchPlan(t, 101)
	const flows = 64
	record := func(first FlowKey, from, to int, recs ...*Recording) {
		t.Helper()
		for f := first; f < first+flows; f++ {
			pkts := testbenchFlow(eng, f, uint64(f)*7, to)[from:]
			for _, r := range recs {
				if err := r.RecordBatch(pkts); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	newRec := func() *Recording {
		r, err := NewRecording(eng)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	t.Run("replaced while leased", func(t *testing.T) {
		owner, twin := newRec(), newRec()
		record(1, 0, 40, owner, twin)
		view, l := owner.Lease(nil)
		want := recordingState(t, view)
		record(1, 40, 48, owner, twin)
		record(1001, 0, 40, owner, twin)
		if got := recordingState(t, view); got != want {
			t.Fatal("new flows recorded into blocks the view still reads")
		}
		pages := len(owner.flows.pages)
		l.Release()
		record(2001, 0, 40, owner, twin)
		if got := len(owner.flows.pages); got != pages {
			t.Errorf("%d pages after the released blocks could be reused, want %d", got, pages)
		}
		if recordingState(t, owner) != recordingState(t, twin) {
			t.Error("the owner's answers differ from a Recording never leased")
		}
	})

	t.Run("evicted while leased", func(t *testing.T) {
		const flow = FlowKey(7)
		owner := newRec()
		record(1, 0, 40, owner)
		view, l := owner.Lease(nil)
		want := recordingState(t, view)
		if !owner.PathDecoder(path, flow).Done() {
			t.Fatalf("flow %v did not decode in 40 packets; the pin needs a decoded flow", flow)
		}
		evicted := owner.blockOf(flow)
		owner.Evict(flow)
		record(1001, 0, 40, owner)
		for f := FlowKey(1001); f < 1001+flows; f++ {
			if owner.blockOf(f) == evicted {
				t.Fatalf("flow %v took the block of a held flow the owner evicted", f)
			}
		}
		if got := recordingState(t, view); got != want {
			t.Fatal("the view's answers changed after the owner evicted a flow it holds")
		}
		l.Release()
		// The evicted flow had decoded, so its block is rowless; a new flow
		// takes it once it has decoded too.
		record(2001, 0, 64, owner)
		if !owner.PathDecoder(path, 2001).Done() {
			t.Fatal("flow 2001 did not decode in 64 packets; the pin needs a decoded flow")
		}
		if owner.blockOf(2001) != evicted {
			t.Error("the evicted block was not reused once its lease was released")
		}
	})
}

// TestDecodeWhileHeld pins a flow whose path decodes while a view holds
// its block. The owner's first write after the Lease (or Clone) copies
// the held 37-word block, and the run in which the path decodes moves the
// copy into a 27-word block without the decoder's candidate rows
// (Recording.recordRun), freeing the copy. A reader answers from the view
// on its own goroutine meanwhile, as at the Lease, and releases it there;
// the held block is not written, new flows do not take it until the
// Release, and the next one after it does (a Clone's, never). The decoded
// flow's decoder answers as a coding.Decoder that kept its rows and
// observed the same packets, down to its stored packets (none, once
// done), and restoring the flow's image lays out the 27-word block
// directly, cutting no 37-word one.
func TestDecodeWhileHeld(t *testing.T) {
	const flow, early = FlowKey(1), 2
	eng, path, _ := testbenchPlan(t, 163)
	pkts := testbenchFlow(eng, flow, 167, 200)
	for _, clone := range []bool{false, true} {
		owner, err := NewRecording(eng)
		if err != nil {
			t.Fatal(err)
		}
		record := func(pkts []PacketDigest) {
			t.Helper()
			if err := owner.RecordBatch(pkts); err != nil {
				t.Fatal(err)
			}
		}
		record(pkts[:early])
		if owner.PathDecoder(path, flow).Done() {
			t.Fatalf("the flow decoded in %d packets; the pin needs one still decoding", early)
		}
		held := owner.blockOf(flow)
		words := slices.Clone(owner.flows.block(held))
		var view *Recording
		var l *Lease
		if clone {
			view = owner.Clone()
		} else {
			view, l = owner.Lease(nil)
		}
		want, err := view.AppendFlowState(nil, flow)
		if err != nil {
			t.Fatal(err)
		}
		stop, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			for {
				if got, err := view.AppendFlowState(nil, flow); err != nil || !slices.Equal(got, want) {
					t.Errorf("the view's image changed while the owner recorded on (err %v)", err)
				}
				select {
				case <-stop:
					if l != nil {
						l.Release()
					}
					return
				default:
				}
			}
		}()
		record(pkts[early:])
		if !owner.PathDecoder(path, flow).Done() {
			t.Fatalf("the flow did not decode in %d packets", len(pkts))
		}
		if fs, _ := owner.find(flow); len(fs.w) != 27 {
			t.Errorf("a decoded flow's block is %d words, want 27", len(fs.w))
		}
		for f := FlowKey(100); f < 104; f++ {
			record(testbenchFlow(eng, f, uint64(f), early))
			if owner.blockOf(f) == held {
				t.Fatalf("new flow %v took a block a view holds", f)
			}
		}
		if !slices.Equal(owner.flows.block(held)[hdrK:], words[hdrK:]) {
			t.Error("the owner wrote the block a view holds")
		}
		close(stop)
		<-done
		record(testbenchFlow(eng, 200, 200, early))
		if reused := owner.blockOf(200) == held; reused == clone {
			t.Errorf("clone %v: the next new flow took the held block %v, want %v", clone, reused, !clone)
		}

		dec, err := path.NewDecoder(5)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pkts {
			for _, x := range eng.ExtractInto(p.PktID, p.Digest, nil) {
				if x.Query == Query(path) {
					path.ObserveInto(dec, p.PktID, x.Bits)
				}
			}
		}
		if got, want := decoderAnswers(owner.PathDecoder(path, flow)), decoderAnswers(dec); got != want {
			t.Errorf("the decoded flow's decoder answers %s, a decoder that kept its rows %s", got, want)
		}

		img, err := owner.AppendFlowState(nil, flow)
		if err != nil {
			t.Fatal(err)
		}
		dst, err := NewRecording(eng)
		if err != nil {
			t.Fatal(err)
		}
		if err := dst.RestoreFlowState(flow, img); err != nil {
			t.Fatal(err)
		}
		if fs, _ := dst.find(flow); len(fs.w) != 27 || len(dst.flows.free[37]) != 0 {
			t.Errorf("the restored flow's block is %d words with %d 37-word blocks freed, want 27 and none cut",
				len(fs.w), len(dst.flows.free[37]))
		}
		if again, err := dst.AppendFlowState(nil, flow); err != nil || !slices.Equal(again, img) {
			t.Errorf("the restored flow re-emits a different image (err %v)", err)
		}
	}
}

// TestRestoreReusesEvictedBlocks pins what flows that leave a Recording
// and come back cost its arena, as a hand-off's export and a later import
// do: half of the flows are exported (AppendFlowState) and evicted, then
// restored from their images. Each restore takes an evicted block from the
// free lists, so the arena cuts no word from a page and adds no page, and
// the Recording answers as before.
func TestRestoreReusesEvictedBlocks(t *testing.T) {
	eng, _, _ := testbenchPlan(t, 137)
	rec, err := NewRecording(eng)
	if err != nil {
		t.Fatal(err)
	}
	const flows = 512
	for f := FlowKey(1); f <= flows; f++ {
		if err := rec.RecordBatch(testbenchFlow(eng, f, uint64(f)*3, 40)); err != nil {
			t.Fatal(err)
		}
	}
	want := recordingState(t, rec)
	var images [][]byte
	for f := FlowKey(2); f <= flows; f += 2 {
		img, err := rec.AppendFlowState(nil, f)
		if err != nil {
			t.Fatal(err)
		}
		images = append(images, img)
		rec.Evict(f)
	}
	pages, fill := len(rec.flows.pages), rec.flows.fill
	for i, img := range images {
		if err := rec.RestoreFlowState(FlowKey(2*i+2), img); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(rec.flows.pages); got != pages || rec.flows.fill != fill {
		t.Errorf("restoring %d evicted flows grew the arena from %d pages (%d words cut from the last) to %d (%d)",
			len(images), pages, fill, got, rec.flows.fill)
	}
	if recordingState(t, rec) != want {
		t.Error("the restored flows answer differently from before their export")
	}
}

// FuzzLeaseLookup holds views over runs of block offsets to a sorted-set
// model. Flows 1..256 (a byte plus one) are recorded, in the order tracked
// lists them, into shards+1 Recordings, a flow into the one its key picks
// modulo their number. Each shard then leases every flow when its bit in
// full is set, else the flows leased lists, repeats and flows it does not
// track included, and one Recording merges every view. HasFlow over every
// key from 0 to 257, Flows, AllFlows and the key in each block found must
// agree with the model, before and after the owners write: for each byte of
// writes, a packet to its flow when the byte is even (a held flow's copy,
// or a new flow) and an Evict when it is odd. Once every Lease is
// released, no flow an owner tracks is held.
func FuzzLeaseLookup(f *testing.F) {
	f.Add(uint8(0), uint8(0), []byte{5, 3, 9, 1}, []byte{0, 3, 3, 4, 9, 200}, []byte(nil))
	f.Add(uint8(0), uint8(1), []byte{5, 3, 9, 1}, []byte(nil), []byte{3, 4, 10})
	f.Add(uint8(1), uint8(1), []byte{7, 2, 11, 4, 30, 8}, []byte{0, 2, 2, 5, 11, 29, 30, 255}, []byte{2, 7, 100})
	f.Add(uint8(2), uint8(7), []byte{40, 1, 2, 3, 90, 17, 64}, []byte{3}, []byte{1, 2, 40, 41, 90})
	f.Add(uint8(3), uint8(10), []byte{200, 12, 13, 14, 15, 99, 6, 0, 255}, []byte{0, 13, 13, 14, 50, 99, 254, 255}, []byte{12, 13, 0, 255})
	f.Add(uint8(3), uint8(0), []byte(nil), []byte{1, 2, 3}, []byte{4})
	eng, _, _ := testbenchPlan(f, 131)
	pkts := make([][]PacketDigest, 258)
	for k := range pkts {
		pkts[k] = testbenchFlow(eng, FlowKey(k), uint64(k)+1, 2)
	}
	f.Fuzz(func(t *testing.T, shards, full uint8, tracked, leased, writes []byte) {
		owners := make([]*Recording, shards%4+1)
		for i := range owners {
			owners[i], _ = NewRecording(eng)
		}
		owner := func(b byte) (*Recording, FlowKey) {
			k := FlowKey(b) + 1
			return owners[int(k)%len(owners)], k
		}
		for _, b := range tracked {
			if r, k := owner(b); !r.HasFlow(k) {
				if err := r.RecordBatch(pkts[k][:1]); err != nil {
					t.Fatal(err)
				}
			}
		}
		var list []FlowKey
		for _, b := range leased {
			list = append(list, FlowKey(b)+1)
		}
		merged, _ := NewRecording(eng)
		var model []FlowKey
		var leases []*Lease
		for s, r := range owners {
			flows := list
			if full>>s&1 != 0 {
				flows = nil
			}
			for _, k := range r.Flows() {
				if flows == nil || slices.Contains(flows, k) {
					model = append(model, k)
				}
			}
			view, l := r.Lease(flows)
			leases = append(leases, l)
			if err := merged.Merge(view); err != nil {
				t.Fatal(err)
			}
		}
		slices.Sort(model)
		check := func(when string) {
			t.Helper()
			if got := merged.Flows(); merged.TrackedFlows() != len(model) || !slices.Equal(got, model) {
				t.Fatalf("%s: Flows %v (%d tracked), want %v", when, got, merged.TrackedFlows(), model)
			}
			var walked []FlowKey
			for k := range merged.AllFlows() {
				if fs, ok := merged.find(k); !ok || FlowKey(fs.w[hdrKey]) != k {
					t.Fatalf("%s: flow %v yielded by AllFlows finds block of flow %v", when, k, FlowKey(fs.w[hdrKey]))
				}
				walked = append(walked, k)
			}
			if !slices.Equal(walked, model) {
				t.Fatalf("%s: AllFlows %v, want %v", when, walked, model)
			}
			for k := FlowKey(0); k <= 257; k++ {
				_, want := slices.BinarySearch(model, k)
				if merged.HasFlow(k) != want {
					t.Fatalf("%s: HasFlow(%v) = %v, want %v", when, k, !want, want)
				}
			}
		}
		check("after the leases")
		for _, b := range writes {
			if r, k := owner(b); b&1 == 0 {
				if err := r.RecordBatch(pkts[k][1:]); err != nil {
					t.Fatal(err)
				}
			} else {
				r.Evict(k)
			}
		}
		check("after the owners wrote")
		for _, l := range leases {
			l.Release()
		}
		for _, r := range owners {
			for _, k := range r.Flows() {
				if n := r.holdsAt(r.blockOf(k)); n != 0 {
					t.Fatalf("flow %v: %d holds after every Lease was released", k, n)
				}
			}
		}
	})
}

// TestLatencySamplesPastMaxInt pins what a store counted past math.MaxInt
// answers, which only a 32-bit platform reaches below the 2^62 cap:
// LatencySamples saturates at math.MaxInt, and quantiles rank the 64-bit
// count.
func TestLatencySamplesPastMaxInt(t *testing.T) {
	const flow = FlowKey(1)
	ref, lat, img := histImage(t, 1, 10, 1, 1)
	rec, err := NewRecording(ref.engine)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.RestoreFlowState(flow, img); err != nil {
		t.Fatal(err)
	}
	st, _ := rec.storeOf(lat, flow, 1)
	sum := st.sum()
	sum.counts[0], sum.counts[1] = math.MaxInt, 2
	sum.n = uint64(math.MaxInt) + 2
	if got := rec.LatencySamples(lat, flow, 1); got != math.MaxInt {
		t.Errorf("%d samples, want math.MaxInt", got)
	}
	// The nearest-rank rule, sketch.RankIndex's, on the 64-bit count.
	n := uint64(math.MaxInt) + 2
	for phi, want := range map[float64]uint64{0: 0, 0.5: uint64(math.Ceil(0.5*float64(n))) - 1, 1: n - 1} {
		if got := rankIndex(phi, n); got != want {
			t.Errorf("rank at phi %v of MaxInt+2 samples: %d, want %d", phi, got, want)
		}
	}
	codes := make([]float64, 2)
	st.countQuantiles([]float64{0.5, 1}, codes)
	if codes[0] != 10 || codes[1] != 11 {
		t.Errorf("codes at phi 0.5, 1: %v, want [10 11]", codes)
	}
}

// TestNewFlowCutsOneBlock: a new flow's first packet states its path
// length, and a restored flow's image does, so either gets one block cut
// for it, and no block with no per-hop state is cut and freed on the way.
// A first packet whose path length no recording takes is refused before
// anything is cut, and leaves no flow tracked.
func TestNewFlowCutsOneBlock(t *testing.T) {
	eng, _, _ := testbenchPlan(t, 113)
	rec, err := NewRecording(eng)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.RecordBatch(testbenchFlow(eng, 1, 3, 1)); err != nil {
		t.Fatal(err)
	}
	if n := len(rec.flows.free[eng.blockBase]); n != 0 {
		t.Errorf("one new flow left %d %d-word blocks on the free list, want none", n, eng.blockBase)
	}
	if fs, _ := rec.find(1); len(fs.w) != eng.blockWords(5) || rec.flows.fill != eng.blockWords(5) {
		t.Errorf("one new flow has a %d-word block with %d words cut, want %d and %d",
			len(fs.w), rec.flows.fill, eng.blockWords(5), eng.blockWords(5))
	}
	for _, k := range []int{0, -1, math.MaxInt16 + 1} {
		bad := testbenchFlow(eng, 2, 5, 1)
		bad[0].PathLen = k
		if err := rec.RecordBatch(bad); err == nil {
			t.Errorf("path length %d: recorded, want refused", k)
		}
		if got := rec.TrackedFlows(); got != 1 {
			t.Errorf("path length %d: %d flows tracked after the refusal, want 1", k, got)
		}
	}
	if got := rec.flows.fill; got != eng.blockWords(5) {
		t.Errorf("the refused flows cut %d words, want none", got-eng.blockWords(5))
	}
	img, err := rec.AppendFlowState(nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := NewRecording(eng)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.RestoreFlowState(1, img); err != nil {
		t.Fatal(err)
	}
	if n := len(dst.flows.free[eng.blockBase]); n != 0 || dst.flows.fill != eng.blockWords(5) {
		t.Errorf("one restored flow cut %d words and left %d %d-word blocks on the free list, want %d and none",
			dst.flows.fill, n, eng.blockBase, eng.blockWords(5))
	}
}

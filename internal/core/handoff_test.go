package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/coding"
)

// The reference stream's length, ~87 latency samples per (flow, hop), and
// a longer one, ~350, whose stores fold into histograms.
const referencePkts, foldedPkts = 3000, 12000

// referenceFlowStates records the first n packets of the three-query
// plan's reference stream and returns the Recording, its queries (path,
// latency, util), and every flow's image in flow order.
func referenceFlowStates(t testing.TB, n int) (*Recording, []Query, [][]byte) {
	t.Helper()
	eng, path, lat, util := combinedTestPlan(t, 139)
	rec, err := NewRecording(eng)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.RecordBatch(cloneWorkload(t, eng, 149, 5, n, 6)); err != nil {
		t.Fatal(err)
	}
	return rec, []Query{path, lat, util}, flowImages(t, rec)
}

// flowImages returns every flow's image in flow order.
func flowImages(t testing.TB, rec *Recording) [][]byte {
	t.Helper()
	var images [][]byte
	for _, f := range rec.Flows() {
		img, err := rec.AppendFlowState(nil, f)
		if err != nil {
			t.Fatal(err)
		}
		images = append(images, img)
	}
	return images
}

// flowImage is flow's image in rec.
func flowImage(t testing.TB, rec *Recording, flow FlowKey) []byte {
	t.Helper()
	img, err := rec.AppendFlowState(nil, flow)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// readStates returns the files of testdata/dir matching glob, in name
// order.
func readStates(t testing.TB, dir, glob string) [][]byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", dir, glob))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no states in testdata/%s/%s (%v)", dir, glob, err)
	}
	var states [][]byte
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		states = append(states, b)
	}
	return states
}

// digestOf hashes states in order.
func digestOf(states [][]byte) string {
	h := sha256.New()
	for _, s := range states {
		h.Write(s)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// strays returns what restores may have lost in rec's arena, which must
// have one page: the words cut that neither a tracked flow's block nor a
// free or retired one holds, and the side entries given out that neither
// a block nor the free list holds.
func strays(rec *Recording) (words, sides int) {
	a := rec.flows
	if a == nil {
		return 0, 0
	}
	words, sides = a.fill, a.sides-len(a.freeSide)
	count := func(off uint32) {
		w := a.block(off)
		words -= len(w)
		if sideOf(w) != 0 {
			sides--
		}
	}
	for _, s := range a.slots {
		if s != 0 {
			count(s - 1)
		}
	}
	for n, offs := range a.free {
		words -= n * len(offs)
	}
	for _, off := range a.retired {
		count(off)
	}
	return words, sides
}

// restoreInto restores img as flow into a fresh Recording of eng, and
// fails t if a refusal leaves the flow or anything of its block behind.
func restoreInto(t testing.TB, eng *Engine, flow FlowKey, img []byte) (*Recording, error) {
	t.Helper()
	dst, err := NewRecording(eng)
	if err != nil {
		t.Fatal(err)
	}
	err = dst.RestoreFlowState(flow, img)
	if words, sides := strays(dst); err != nil && (dst.HasFlow(flow) || words != 0 || sides != 0) {
		t.Fatalf("a refused restore left the flow (%v), %d words or %d side entries behind: %v", dst.HasFlow(flow), words, sides, err)
	}
	return dst, err
}

// TestFlowStateBlobsUnchanged: the blobs of the format before images, the
// reference stream's at referencePkts and foldedPkts packets as the last
// build that wrote them did, still hash to the digests that build pinned,
// so they are those very bytes, and each is now refused by its version
// number, 1, with no flow or block left behind.
func TestFlowStateBlobsUnchanged(t *testing.T) {
	eng, _, _, _ := combinedTestPlan(t, 139)
	for _, c := range []struct {
		n    int
		want string
	}{{referencePkts, "2a079615c18a9f36"}, {foldedPkts, "0b631441da02f0d3"}} {
		blobs := readStates(t, "flowstate-v1", fmt.Sprintf("%05d-*.bin", c.n))
		if got := digestOf(blobs); got != c.want {
			t.Fatalf("%d packets: version-1 blobs hash to %s, want %s", c.n, got, c.want)
		}
		for i, blob := range blobs {
			_, err := restoreInto(t, eng, FlowKey(i+1), blob)
			if err == nil || !strings.Contains(err.Error(), "flow state version 1 (have 3)") {
				t.Errorf("%d packets, blob %d: restore returned %v, want a refusal of version 1", c.n, i, err)
			}
		}
	}
}

// TestSketchedFlowStatesRefused: the version-1 blobs of stores kept as
// 24-item KLL sketches, as the last build that kept sketches wrote them,
// still hash to the digest that build pinned, and each is refused by its
// version number with no flow or block left behind.
func TestSketchedFlowStatesRefused(t *testing.T) {
	blobs := readStates(t, "sketched-flowstate", "*.bin")
	if got, want := digestOf(blobs), "d09b3b2d6d4d4684"; got != want {
		t.Fatalf("sketched flow-state blobs hash to %s, want %s", got, want)
	}
	eng, _, _, _ := combinedTestPlan(t, 139)
	for i, blob := range blobs {
		if _, err := restoreInto(t, eng, 1, blob); err == nil || !strings.Contains(err.Error(), "flow state version 1 (have 3)") {
			t.Errorf("blob %d: restore returned %v, want a refusal of version 1", i, err)
		}
	}
}

// TestNewRecordingSeededRefusesSketches: the deprecated constructor
// refuses a caller that asks for latency sketches, and otherwise is
// NewRecording whatever the seed: fed the reference stream, it writes the
// reference images.
func TestNewRecordingSeededRefusesSketches(t *testing.T) {
	ref, _, want := referenceFlowStates(t, referencePkts)
	if rec, err := NewRecordingSeeded(ref.engine, 24, 0xB10B); err == nil || rec != nil {
		t.Fatalf("NewRecordingSeeded with 24 sketch items returned (%v, %v), want a refusal", rec, err)
	}
	rec, err := NewRecordingSeeded(ref.engine, 0, 0x5EED)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.RecordBatch(cloneWorkload(t, ref.engine, 149, 5, referencePkts, 6)); err != nil {
		t.Fatal(err)
	}
	if got := flowImages(t, rec); !slices.EqualFunc(got, want, bytes.Equal) {
		t.Fatal("a seeded Recording's images differ from NewRecording's")
	}
}

// TestAppendFlowStateKeepsDst: an image is appended where it lands — behind
// other bytes it is the same image, and they are untouched — and a flow
// the Recording does not track appends nothing.
func TestAppendFlowStateKeepsDst(t *testing.T) {
	rec, _, images := referenceFlowStates(t, referencePkts)
	dst := []byte("earlier states")
	for i, f := range rec.Flows() {
		at := len(dst)
		var err error
		if dst, err = rec.AppendFlowState(dst, f); err != nil || !bytes.Equal(dst[at:], images[i]) {
			t.Fatalf("flow %d: the image appended behind %d bytes differs from the one appended to nil (err %v)", f, at, err)
		}
	}
	if !bytes.HasPrefix(dst, []byte("earlier states")) {
		t.Fatal("appending images wrote over the bytes before them")
	}
	before := slices.Clip(dst)
	got, err := rec.AppendFlowState(before, 99)
	if err == nil || len(got) != len(before) || &got[0] != &before[0] {
		t.Fatalf("an untracked flow: AppendFlowState returned %d bytes of %d (err %v), want dst unchanged and an error", len(got), len(before), err)
	}
}

// image is an image taken apart: its block's words and the runs of its side
// entries, nil for none, and which of them are packed (packedRun; a run
// past the list's end is not).
type image struct {
	block  []uint64
	side   [][]uint64
	packed []bool
}

// splitImage takes an image of e's plan apart.
func splitImage(e *Engine, img []byte) image {
	n := e.blockWords(word(img, 2+hdrK) & layout)
	im := splitRuns(img[8*(2+n):])
	im.block = imageWords(img[8*2 : 8*(2+n)])
	return im
}

// splitRuns takes a sequence of runs apart.
func splitRuns(b []byte) image {
	var im image
	for ws := imageWords(b); len(ws) > 0; {
		m := int(ws[0] &^ packedRun)
		im.side, im.packed = append(im.side, ws[1:1+m]), append(im.packed, ws[0]&packedRun != 0)
		ws = ws[1+m:]
	}
	return im
}

// imageWords reads b as little-endian words.
func imageWords(b []byte) []uint64 {
	ws := make([]uint64, len(b)/8)
	for i := range ws {
		ws[i] = word(b, i)
	}
	return ws
}

// bytes puts an image together under e's plan hash.
func (im image) bytes(e *Engine) []byte {
	img := appendWords(appendWords(nil, imageVersion, e.PlanHash()), im.block...)
	for i, run := range im.side {
		n := uint64(len(run))
		if i < len(im.packed) && im.packed[i] {
			n |= packedRun
		}
		img = appendWords(appendWords(img, n), run...)
	}
	return img
}

// clone returns a copy of the image whose block and run lists are its own,
// with a packed flag for every run.
func (im image) clone() image {
	packed := make([]bool, len(im.side))
	copy(packed, im.packed)
	return image{block: slices.Clone(im.block), side: slices.Clone(im.side), packed: packed}
}

// with returns a copy of the image with block word i set to v.
func (im image) with(i int, v uint64) image {
	c := im.clone()
	c.block[i] = v
	return c
}

// withRun returns a copy of the image with side run i replaced by an
// unpacked run.
func (im image) withRun(i int, run ...uint64) image {
	c := im.clone()
	c.side[i], c.packed[i] = run, false
	return c
}

// withPacked returns a copy of the image with side run i's packedRun flag
// set to packed.
func (im image) withPacked(i int, packed bool) image {
	c := im.clone()
	c.packed[i] = packed
	return c
}

// tailAt is the first word of hop's latency tail in a k-hop block, for the
// engine's query in slot i.
func tailAt(e *Engine, i, k, hop int) int { return e.places[i].at(k) + (hop-1)*tailWords }

// withHist returns a copy of im, an image of the combined plan, whose
// latency store at hop holds a histogram of counts from code lo, written
// as appendHist writes one (a run of lo alone for no counts), and an empty
// tail, closed exactly when the histogram is too full for one to open.
func (im image) withHist(e *Engine, hop int, lo uint64, counts ...uint64) image {
	k := int(im.block[hdrK] & (1<<kBits - 1))
	var n uint64
	for _, c := range counts {
		n += c
	}
	c := im.withRun(hop, lo)
	if len(counts) > 0 {
		run := splitRuns(appendHist(nil, &latSum{lo: int(lo), counts: counts}))
		c.side[hop], c.packed[hop] = run.side[0], run.packed[0]
	}
	at := tailAt(e, 1, k, hop)
	clear(c.block[at : at+tailWords])
	if n > maxLatSamples-latTail*math.MaxUint8 {
		c.block[at] = tailClosed
	}
	return c
}

// flowStateRow is an image and what RestoreFlowState must say about it
// ("" = accept).
type flowStateRow struct {
	name, wantErr string
	img           []byte
}

// flowStateRows are images around the edge of what AppendFlowState writes
// for flow 1 of the reference Recording, whose path has decoded and whose
// side entries are the path's slab (empty), six latency histograms and a
// util series: the image it wrote, hand-built ones it could have written, and
// one per rule of RestoreFlowState's check an image it could not have
// written breaks.
func flowStateRows(t testing.TB, rec *Recording, reference []byte) []flowStateRow {
	t.Helper()
	e := rec.engine
	im := splitImage(e, reference)
	const k = 6
	n := e.blockWords(k | rowless)
	if len(im.block) != n || len(im.side) != 1+k+1 {
		t.Fatalf("the reference image is %d block words and %d side runs, want a decoded %d-hop flow's %d and %d",
			len(im.block), len(im.side), k, n, 1+k+1)
	}
	// The block with the path's candidate rows back: each hop's row the bit
	// of its decoded value in combinedTestPlan's universe.
	vals, done := rec.Path(e.places[0].q.(*PathQuery), 1)
	if !done {
		t.Fatal("the reference flow's path has not decoded")
	}
	rows := slices.Clone(im.block)
	rows[hdrK] &^= rowless
	for _, v := range vals {
		rows = append(rows, 1<<((v-0xAB00)/3))
	}
	withRows := image{block: rows, side: im.side}
	// The path decoder's words: inconsistent, listed, known, then the six
	// universe indices packed at 6 bits (the universe has 64 values) in
	// one word. Unknown, every hop, it needs its rows.
	dec := e.places[0].at(k)
	undecoded := im.with(dec+2, 0).with(dec+3, 0)
	tail, full := tailAt(e, 1, k, 1), uint64(maxLatSamples-latTail*math.MaxUint8)
	empty := make([][]uint64, len(im.side))
	for i := range empty {
		empty[i] = []uint64{}
	}
	v1 := readStates(t, "flowstate-v1", "03000-00.bin")[0]
	v2 := readStates(t, "flowimage-v2", "1-decoded.bin")[0]
	row := func(name, wantErr string, img image) flowStateRow { return flowStateRow{name, wantErr, img.bytes(e)} }
	return []flowStateRow{
		{"reference", "", reference},
		{"version 1", "flow state version 1 (have 3)", v1},
		{"version 2", "flow state version 2 (have 3)", v2},
		{"version 4", "flow state version 4 (have 3)", append([]byte{4}, reference[1:]...)},
		{"empty", "flow state of 0 bytes is no image", nil},
		{"a byte short", "is no image", reference[:len(reference)-1]},
		{"a header and no block", "is no image", reference[:8*(2+hdrK)]},
		{"version word with a high byte", "flow state version word 0x100000000000003", slices.Concat(reference[:7], []byte{1}, reference[8:])},
		{"another plan", "flow state of plan", slices.Concat(reference[:8], appendWords(nil, e.PlanHash()+1), reference[16:])},
		row("another flow", "flow state of flow 2, restored as flow 1", im.with(hdrKey, 2)),
		row("hold word", "hold word 0x100000001", im.with(hdrHolds, 1<<32|1)),
		row("no hops", "state for 0 hops", im.with(hdrK, im.block[hdrK]&^(1<<kBits-1))),
		{"block cut short", fmt.Sprintf("image of %d words, its block alone has %d", n-1, n), reference[:8*(2+n-1)]},
		row("started bit past the plan's slots", "started bits beyond the plan's 3 query slots", im.with(hdrK, im.block[hdrK]|1<<(kBits+1+3))),
		row("latency state, not started", `query "lat": state, and not started`, im.with(hdrK, im.block[hdrK]&^(1<<(kBits+1+1)))),
		row("rows kept for a decoded path", "candidate rows kept = true, and every path decoder done = true", withRows),
		row("rowless while decoding", "without candidate rows", undecoded),
		row("decoder counter past MaxInt", "coding: decoder state counter", im.with(dec, math.MaxInt64+1)),
		row("packed bits past the path's hops", "packed value word 0: bits 0x1000000000 past the path's 6 values", im.with(dec+3, im.block[dec+3]|1<<36)),
		row("a decoded path's slab", "a done decoder with a slab of 5 words", im.withRun(0, 7, 0b1, 1, 1, 2)),
		row("slab of a packet and a word", "no whole number", im.withRun(0, 0)),
		row("a packed slab", "a packed run that is no histogram", im.withPacked(0, true)),
		row("a packed util series", "a packed run that is no histogram", im.withPacked(1+k, true)),
		row("tail's shared mark", "latency tail with mark byte 0x1", im.with(tail, im.block[tail]|markShared)),
		row("tail past the last window", "latency tail at code 228", im.withHist(e, 1, 10, 5).with(tail, 1<<8-latTail+1)),
		row("tail closed beside few samples", "latency tail closed = true beside a histogram of 5 samples", im.withHist(e, 1, 10, 5).with(tail, tailClosed)),
		row("tail open beside a full histogram", "latency tail closed = false", im.withHist(e, 1, 10, full+1).with(tail, 0)),
		row("closed tail counting a code", "latency tail counts code 256", im.withHist(e, 1, 10, full+1).with(tail, tailClosed|1<<24)),
		row("histogram", "", im.withHist(e, 1, 10, 100, 28)),
		row("histogram of 1 sample", "", im.withHist(e, 1, 10, 1)),
		row("histogram of code 255 alone", "", im.withHist(e, 1, 255, 256)),
		row("histogram counting 2^32 samples of one code", "", im.withHist(e, 1, 10, math.MaxUint32, 1)),
		row("histogram of 64-bit counts", "", im.withHist(e, 1, 10, math.MaxUint32+1, 1, 7)),
		row("histogram of 32-bit counts, unpacked", "latency histogram of 32-bit counts not packed", im.withRun(1, 10, 100, 28)),
		row("histogram run packed and empty", "latency histogram run marked packed and empty", im.withHist(e, 1, 10, 5).withRun(1).withPacked(1, true)),
		row("histogram packed with a zero last word", "not trimmed", im.withHist(e, 1, 10, 100, 28).withRun(1, 10, 100|28<<32, 0).withPacked(1, true)),
		row("histogram packed with a zero last half", "", im.withHist(e, 1, 10, 100, 28, 5)),
		row("histogram just open", "", im.withHist(e, 1, 10, full)),
		row("histogram just closed", "", im.withHist(e, 1, 10, full+1)),
		row("histogram counting 2^62 samples", "", im.withHist(e, 1, 10, 1<<62-1, 1)),
		row("histogram of no codes", "latency histogram of no codes", im.withHist(e, 1, 10)),
		row("histogram with a zero first count", "not trimmed", im.withHist(e, 1, 9, 0, 100, 28)),
		row("histogram with a zero last count", "not trimmed", im.withHist(e, 1, 10, 100, 28, 0)),
		row("histogram past code 255", "latency histogram of 6 codes from 251 does not fit 8 bits", im.withHist(e, 1, 251, 64, 0, 0, 0, 0, 64)),
		row("histogram past 2^62 samples", "more than 2^62 samples", im.withHist(e, 1, 10, 1<<62, 1)),
		row("histogram whose total wraps", "more than 2^62 samples", im.withHist(e, 1, 10, 1<<63, 1<<63, 128)),
		row("side entries that hold nothing", "side entries that hold nothing", image{block: im.block, side: empty}),
		{"run past the end", "side entries end in a run", reference[:len(reference)-8]},
		{"a word after the side entries", "1 words after the side entries", appendWords(slices.Clone(reference), 0)},
	}
}

// TestRestoreFlowStateRefusesWhatAppendNeverWrites: RestoreFlowState
// accepts exactly the images AppendFlowState could write. Each refused row
// breaks one rule of the check and is refused naming it, leaving the
// destination untouched, its arena included; each accepted row re-emits
// byte for byte and answers every query.
func TestRestoreFlowStateRefusesWhatAppendNeverWrites(t *testing.T) {
	rec, _, images := referenceFlowStates(t, referencePkts)
	for _, row := range flowStateRows(t, rec, images[0]) {
		checkRestoreRow(t, rec.engine, 1, row)
	}
}

// checkRestoreRow restores row's image as flow into an empty Recording of
// eng and checks what RestoreFlowState says against the row.
func checkRestoreRow(t *testing.T, eng *Engine, flow FlowKey, row flowStateRow) {
	t.Helper()
	dst, err := restoreInto(t, eng, flow, row.img)
	switch {
	case row.wantErr == "" && err != nil:
		t.Errorf("%s: refused: %v", row.name, err)
	case row.wantErr == "":
		if again, err := dst.AppendFlowState(nil, flow); err != nil || !bytes.Equal(again, row.img) {
			t.Errorf("%s: re-emitted differently (err %v)", row.name, err)
		}
		answerAll(t, dst, flow)
	case err == nil || !strings.Contains(err.Error(), row.wantErr):
		t.Errorf("%s: got %v, want an error containing %q", row.name, err, row.wantErr)
	}
}

// answerAll asks rec every question its engine's queries answer about
// flow: the path and its decoder, the lowest, median and highest code of
// each hop that holds samples, and the util series.
func answerAll(t testing.TB, rec *Recording, flow FlowKey) {
	t.Helper()
	for _, pl := range rec.engine.places {
		switch q := pl.q.(type) {
		case *PathQuery:
			rec.Path(q, flow)
			if d := rec.PathDecoder(q, flow); d != nil {
				d.MissingHops()
			}
		case *LatencyQuery:
			for hop := 1; hop <= rec.Hops(q, flow); hop++ {
				if _, err := rec.LatencyQuantiles(q, flow, hop, 0, 0.5, 1); err != nil && rec.LatencySamples(q, flow, hop) != 0 {
					t.Errorf("flow %d hop %d: %v", flow, hop, err)
				}
			}
		case *UtilQuery:
			rec.UtilSeries(q, flow)
		}
	}
}

// histImage is flow 1's reference image with hop's latency store holding
// a histogram of counts from code lo, and the reference Recording's
// latency query.
func histImage(t testing.TB, hop int, lo uint64, counts ...uint64) (*Recording, *LatencyQuery, []byte) {
	t.Helper()
	ref, queries, images := referenceFlowStates(t, referencePkts)
	return ref, queries[1].(*LatencyQuery), splitImage(ref.engine, images[0]).withHist(ref.engine, hop, lo, counts...).bytes(ref.engine)
}

// TestLatencyHistogramCounts: a store restored with 2^32-1 samples of one
// code and one of the next counts on past 32 bits, and its quantiles stay
// within the codes it holds; a store restored a few samples short of
// maxLatSamples, its tail closed, takes no sample more, and its image is
// accepted again.
func TestLatencyHistogramCounts(t *testing.T) {
	const flow = FlowKey(1)
	restore := func(counts ...uint64) (*Recording, latStore, *LatencyQuery) {
		ref, lat, img := histImage(t, 1, 10, counts...)
		rec, err := restoreInto(t, ref.engine, flow, img)
		if err != nil {
			t.Fatal(err)
		}
		st, _ := rec.storeOf(lat, flow, 1)
		return rec, st, lat
	}
	rec, st, lat := restore(math.MaxUint32, 1)
	for range math.MaxUint8 + 1 {
		st.add(10)
	}
	if got, want := st.sum().counts[0], uint64(math.MaxUint32)+math.MaxUint8; got != want {
		t.Fatalf("code 10 counted %d times, want %d", got, want)
	}
	if got, want := uint64(rec.LatencySamples(lat, flow, 1)), min(math.MaxUint32+1+math.MaxUint8+1, uint64(math.MaxInt)); got != want {
		t.Fatalf("%d samples, want %d", got, want)
	}
	codes := make([]float64, 3)
	st.countQuantiles([]float64{0, 0.5, 1}, codes)
	if !slices.Equal(codes, []float64{10, 10, 11}) {
		t.Fatalf("codes at phi 0, 0.5, 1: %v, want [10 10 11]", codes)
	}

	const short = 130
	rec, st, _ = restore(maxLatSamples-short-1, 1)
	for range 3 * short {
		st.add(11)
	}
	// No tail fits: a full one could pass the cap.
	if got := maxLatSamples - st.samples(); got != short {
		t.Fatalf("a store restored %d samples short of maxLatSamples ends %d short of it", short, got)
	}
	img, err := rec.AppendFlowState(nil, flow)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := restoreInto(t, rec.engine, flow, img); err != nil {
		t.Fatalf("the image of a store at its cap is refused: %v", err)
	}
}

// TestLatencyCodeIsOneByte: a latency query's code is at most one byte,
// which is all the Recording counts. NewLatencyQuery accepts 1 to 8 bits
// and refuses anything else naming the limit. A flow recorded under a
// 4-bit and under an 8-bit query hands off and restores to the same
// answers and the same image.
func TestLatencyCodeIsOneByte(t *testing.T) {
	for bits := -1; bits <= 64; bits++ {
		_, err := NewLatencyQuery("lat", bits, 0.04, 1, 191)
		if ok := bits >= 1 && bits <= 8; ok != (err == nil) || !ok && !strings.Contains(err.Error(), "one-byte codes") {
			t.Errorf("%d bits: %v", bits, err)
		}
	}
	const flow, k = FlowKey(1), 5 // cloneWorkload's one flow
	for _, c := range []struct {
		bits int
		eps  float64
	}{{4, 0.9}, {8, 0.04}} {
		lat, err := NewLatencyQuery("lat", c.bits, c.eps, 1, 193)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := Compile([]Query{lat}, c.bits, 197)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := NewRecording(eng)
		if err != nil {
			t.Fatal(err)
		}
		if err := rec.RecordBatch(cloneWorkload(t, eng, 211, 1, 2000, k)); err != nil {
			t.Fatal(err)
		}
		img, err := rec.AppendFlowState(nil, flow)
		if err != nil {
			t.Fatal(err)
		}
		back, err := restoreInto(t, eng, flow, img)
		if err != nil {
			t.Fatalf("%d bits: %v", c.bits, err)
		}
		if again, err := back.AppendFlowState(nil, flow); err != nil || !bytes.Equal(again, img) {
			t.Fatalf("%d bits: hand-off round trip changed the image (err %v)", c.bits, err)
		}
		codes := map[float64]bool{}
		for hop := 1; hop <= k; hop++ {
			phis := []float64{0, 0.25, 0.5, 0.9, 0.99, 1}
			want, err := rec.LatencyQuantiles(lat, flow, hop, phis...)
			if err != nil {
				t.Fatal(err)
			}
			got, err := back.LatencyQuantiles(lat, flow, hop, phis...)
			if err != nil || !slices.Equal(got, want) || back.LatencySamples(lat, flow, hop) != rec.LatencySamples(lat, flow, hop) {
				t.Fatalf("%d bits hop %d: restored answers %v (err %v), want %v", c.bits, hop, got, err, want)
			}
			for _, v := range want {
				codes[v] = true
			}
		}
		if len(codes) < 3 {
			t.Fatalf("%d bits: the flow's quantiles take %d values; the case needs spread codes", c.bits, len(codes))
		}
	}
}

// FuzzFlowState: whatever bytes arrive as a flow's hand-off state,
// RestoreFlowState either refuses them, leaving no flow and no block or
// side entry out of reach behind, or yields a flow that (1) re-emits the
// very same bytes — the image was one AppendFlowState could have written —
// (2) answers every query, and (3) records packets of the plan on into a
// state whose image is accepted again. The bytes are restored as the flow
// their key word names. Seeds are the reference Recording's images at
// both stream lengths, the pinned flowimage-v3 set, the version-1,
// sketched and version-2 blobs (all refused), and flowStateRows.
func FuzzFlowState(f *testing.F) {
	rec, _, raw := referenceFlowStates(f, referencePkts)
	_, _, folded := referenceFlowStates(f, foldedPkts)
	old := slices.Concat(readStates(f, "flowstate-v1", "*.bin"), readStates(f, "sketched-flowstate", "*.bin"), readStates(f, "flowimage-v2", "*.bin"))
	for _, img := range slices.Concat(raw, folded, readStates(f, "flowimage-v3", "*.bin"), old) {
		f.Add(img)
	}
	for _, row := range flowStateRows(f, rec, raw[0]) {
		f.Add(row.img)
	}
	more := cloneWorkload(f, rec.engine, 151, 1, 64, 6)
	f.Fuzz(func(t *testing.T, img []byte) {
		flow := FlowKey(1)
		if len(img) >= 8*(2+hdrKey+1) {
			flow = FlowKey(word(img, 2+hdrKey))
		}
		dst, err := restoreInto(t, rec.engine, flow, img)
		if err != nil {
			return
		}
		if again, err := dst.AppendFlowState(nil, flow); err != nil || !bytes.Equal(again, img) {
			t.Fatalf("accepted state re-emits differently (err %v):\n got %x\nwant %x", err, again, img)
		}
		answerAll(t, dst, flow)
		pkts := slices.Clone(more)
		for i := range pkts {
			pkts[i].Flow = flow
		}
		if err := dst.RecordBatch(pkts); err != nil {
			t.Fatalf("recording into the restored flow: %v", err)
		}
		answerAll(t, dst, flow)
		final, err := dst.AppendFlowState(nil, flow)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := restoreInto(t, rec.engine, flow, final); err != nil {
			t.Fatalf("the state the restored flow recorded into is refused: %v", err)
		}
	})
}

// shortenedRoute is a flow whose route shortens (§7) between the packet
// that starts its path decoder, over 6 hops, and the first packet that
// reaches its latency query: every packet after the first arrives over 5.
func shortenedRoute(t testing.TB, eng *Engine, path *PathQuery, lat *LatencyQuery) []PacketDigest {
	t.Helper()
	pkts := cloneWorkload(t, eng, 173, 1, 600, 6)
	first := slices.IndexFunc(pkts, func(p PacketDigest) bool {
		set := eng.SetFor(p.PktID).Queries
		return slices.Contains(set, Query(path)) && !slices.Contains(set, Query(lat))
	})
	if first < 0 {
		t.Fatal("no packet selects the path query without the latency query")
	}
	pkts[0], pkts[first] = pkts[first], pkts[0]
	for i := 1; i < len(pkts); i++ {
		pkts[i].PathLen = 5
	}
	return pkts
}

// TestShortenedRouteFlowHandsOff: a flow whose route shortens keeps the
// path length of its first packet for every query — the per-hop state is
// sized by the flow, not by whichever packet first reached a query — so
// its image states one path length, and the flow survives a resize.
func TestShortenedRouteFlowHandsOff(t *testing.T) {
	const flow = FlowKey(1)
	eng, path, lat, _ := combinedTestPlan(t, 139)
	rec, err := NewRecording(eng)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.RecordBatch(shortenedRoute(t, eng, path, lat)); err != nil {
		t.Fatal(err)
	}
	for _, q := range []Query{path, lat} {
		if got := rec.Hops(q, flow); got != 6 {
			t.Errorf("%s answers for %d hops, want the flow's path length 6", q.Name(), got)
		}
	}
	if n := rec.LatencySamples(lat, flow, 6); n != 0 {
		t.Errorf("hop 6 holds %d samples; no packet crossed it after the route shortened", n)
	}
	img, err := rec.AppendFlowState(nil, flow)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := restoreInto(t, eng, flow, img)
	if err != nil {
		t.Fatalf("a state record built was refused: %v", err)
	}
	if again, err := dst.AppendFlowState(nil, flow); err != nil || !bytes.Equal(img, again) {
		t.Fatalf("hand-off round trip changed the image (err %v)", err)
	}
	if fs, _ := dst.find(flow); fs.k() != 6 {
		t.Errorf("restored path length %d, want 6", fs.k())
	}
}

// TestRestoreThenRecordIdentity is the hand-off's contract: a flow handed
// off after N packets and then fed M more at both ends holds the same
// state at both, image for image — while its path decodes, once it has, on
// a shortened route, with histograms folded, and exported from the copy
// made while a Lease held it, whose tails are marked shared.
func TestRestoreThenRecordIdentity(t *testing.T) {
	eng, path, lat, _ := combinedTestPlan(t, 139)
	all := cloneWorkload(t, eng, 149, 5, foldedPkts+600, 6)
	short := shortenedRoute(t, eng, path, lat)
	decoded := func(rec *Recording) bool {
		for _, f := range rec.Flows() {
			if _, done := rec.Path(path, f); !done {
				return false
			}
		}
		return true
	}
	folded := func(rec *Recording) bool {
		for _, f := range rec.Flows() {
			for hop := 1; hop <= rec.Hops(lat, f); hop++ {
				if st, _ := rec.storeOf(lat, f, hop); st.sum() != nil {
					return true
				}
			}
		}
		return false
	}
	shared := func(rec *Recording) bool {
		st, _ := rec.storeOf(lat, 1, 1)
		return folded(rec) && st.shared()
	}
	for _, c := range []struct {
		name        string
		first, then []PacketDigest
		lease       bool
		shape       func(*Recording) bool // what the case needs of the source at hand-off
	}{
		{"decoding", all[:40], all[40:640], false, func(r *Recording) bool { return !decoded(r) }},
		{"decoded", all[:referencePkts], all[referencePkts : referencePkts+600], false, decoded},
		{"shortened route", short[:300], short[300:], false, func(*Recording) bool { return true }},
		{"folded", all[:foldedPkts], all[foldedPkts:], false, folded},
		{"folded, held", all[:foldedPkts-5], all[foldedPkts:], true, shared},
	} {
		src, err := NewRecording(eng)
		if err != nil {
			t.Fatal(err)
		}
		if err := src.RecordBatch(c.first); err != nil {
			t.Fatal(err)
		}
		if c.lease {
			// A packet of each flow after the Lease copies the flow, its
			// tails marked shared.
			_, l := src.Lease(nil)
			defer l.Release()
			if err := src.RecordBatch(all[foldedPkts-5 : foldedPkts]); err != nil {
				t.Fatal(err)
			}
		}
		if !c.shape(src) {
			t.Fatalf("%s: the source does not have the case's shape at hand-off", c.name)
		}
		dst, err := NewRecording(eng)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range src.Flows() {
			img, err := src.AppendFlowState(nil, f)
			if err != nil {
				t.Fatal(err)
			}
			if err := dst.RestoreFlowState(f, img); err != nil {
				t.Fatalf("%s: flow %d: %v", c.name, f, err)
			}
		}
		for _, r := range []*Recording{src, dst} {
			if err := r.RecordBatch(c.then); err != nil {
				t.Fatal(err)
			}
		}
		want, got := flowImages(t, src), flowImages(t, dst)
		if len(want) != len(got) {
			t.Fatalf("%s: %d flows at the source, %d at the destination", c.name, len(want), len(got))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Errorf("%s: flow %d's image differs after recording on at both ends", c.name, src.Flows()[i])
			}
		}
	}
}

// flowImageCases are the images testdata/flowimage-v3 holds, in file
// order: flow 1 of the reference stream while its path decodes (two hops
// to go, its candidate rows kept), once it has, and with its histograms
// folded, and the shortened-route flow.
func flowImageCases(t testing.TB) [][]byte {
	t.Helper()
	eng, path, lat, _ := combinedTestPlan(t, 139)
	all := cloneWorkload(t, eng, 149, 5, foldedPkts, 6)
	var images [][]byte
	for _, pkts := range [][]PacketDigest{all[:30], all[:referencePkts], all, shortenedRoute(t, eng, path, lat)} {
		rec, err := NewRecording(eng)
		if err != nil {
			t.Fatal(err)
		}
		if err := rec.RecordBatch(pkts); err != nil {
			t.Fatal(err)
		}
		img, err := rec.AppendFlowState(nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		images = append(images, img)
	}
	return images
}

// TestFlowImagesPinned pins the image format: the committed images hash to
// the digest they were written at, this build writes them byte for byte,
// and each restores, re-emits itself and answers — on every platform CI
// builds for, 32-bit included, as an image is words, not the platform's
// ints. Their bytes, against the version-2 images of the same flows
// (2 header words, the block, a length word a side run):
//
//   - 0-decoding, 312 B (360): the 37-word block with rows; the path
//     decoder is 4 words, not 10 (no packet counter, six 6-bit universe
//     indices in one word);
//   - 1-decoded, 2,112 B (3,312): a 31-word block, an empty slab run, six
//     histograms of 148 count words (292 at 64 bits, 2,336 B) beside their
//     6 lo words, and a 69-word util series;
//   - 2-folded, 4,176 B (5,528): six histograms of 168 count words (331)
//     and a 307-word util series;
//   - 3-shortened, 1,968 B (3,200): no slab (a 15-word one), five
//     histograms of 136 count words (269) and a 64-word util series.
//
// Odd-length histograms pad their last word, so the counts shrink by a
// little less than half, and each image by a little more, the decoder's
// six words included.
func TestFlowImagesPinned(t *testing.T) {
	files := readStates(t, "flowimage-v3", "*.bin")
	if got, want := digestOf(files), "ea9c1c4e7ba00a96"; got != want {
		t.Fatalf("the committed images hash to %s, want %s", got, want)
	}
	if got := flowImageCases(t); !slices.EqualFunc(got, files, bytes.Equal) {
		t.Fatal("this build writes other images than the committed ones")
	}
	eng, _, _, _ := combinedTestPlan(t, 139)
	if splitImage(eng, files[0]).block[hdrK]&rowless != 0 {
		t.Fatal("the first image's path has decoded; it pins a block with candidate rows")
	}
	for i, img := range files {
		dst, err := restoreInto(t, eng, 1, img)
		if err != nil {
			t.Fatalf("image %d: %v", i, err)
		}
		if again, err := dst.AppendFlowState(nil, 1); err != nil || !bytes.Equal(again, img) {
			t.Fatalf("image %d re-emits differently (err %v)", i, err)
		}
		answerAll(t, dst, 1)
	}
	if im := splitImage(eng, files[3]); len(im.side[0]) != 0 {
		t.Fatalf("the shortened-route image carries a %d-word slab; its path has decoded", len(im.side[0]))
	}
}

// TestFlowImagesV2Refused: the version-2 images, as the last build that
// wrote them did, still hash to the digest that build pinned, and each is
// refused by its version number, with no flow or block left behind.
func TestFlowImagesV2Refused(t *testing.T) {
	files := readStates(t, "flowimage-v2", "*.bin")
	if got, want := digestOf(files), "3cd98c14c743f815"; got != want {
		t.Fatalf("the version-2 images hash to %s, want %s", got, want)
	}
	eng, _, _, _ := combinedTestPlan(t, 139)
	for i, img := range files {
		if _, err := restoreInto(t, eng, 1, img); err == nil || !strings.Contains(err.Error(), "flow state version 2 (have 3)") {
			t.Errorf("image %d: restore returned %v, want a refusal of version 2", i, err)
		}
	}
}

// TestRestoreFlowStateRejectsHostileDecoderState: a decoder state that is
// well-formed but that no decoder of the plan could have reached — the
// states coding.TestDecoderStateRejectsCorrupt refuses — is refused at the
// hand-off too, naming the query and what is wrong, and the destination
// stays untouched. Restored, such states used to panic the shard worker
// on a later packet of the flow.
func TestRestoreFlowStateRejectsHostileDecoderState(t *testing.T) {
	const flow, k = FlowKey(77), 5
	cfg, err := DefaultPathConfig(8, 1, k)
	if err != nil {
		t.Fatal(err)
	}
	u := testUniverse(k, 80)
	path, err := NewPathQuery("path", cfg, 1, 151, u)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Compile([]Query{path}, 8, 157)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := NewRecording(eng)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.RecordBatch(testbenchFlow(eng, flow, 167, 1)); err != nil {
		t.Fatal(err)
	}
	img, err := rec.AppendFlowState(nil, flow)
	if err != nil {
		t.Fatal(err)
	}
	base := splitImage(eng, img)
	if base.block[hdrK]&rowless != 0 {
		t.Fatal("the flow decoded on its first packet; the case needs rows")
	}
	// A one-instance k=5 decoder state: a live packet waiting on hops 1 and
	// 2, hop 3 narrowed to two candidates by a dead packet, hop 5 decoded
	// as u[4]. Its words are inconsistent, listed, known, then the universe
	// indices packed at 7 bits (the universe has 80 values); its rows two
	// words a hop.
	words := []uint64{1, 0b10100, 0b10000, 4 << (4 * 7)}
	rows := []uint64{0, 0, 0, 0, 1<<1 | 1<<7, 0, 0, 0, 1 << 4, 0}
	slab := []uint64{77, 0b00011, 0, 0xAB, 78, 0b00100, 1, 0xCD}
	with := func(part []uint64, i int, v uint64) []uint64 {
		c := slices.Clone(part)
		c[i] = v
		return c
	}
	for _, c := range []struct {
		name              string
		words, rows, slab []uint64
		wantErr           string // "" for the image that must restore
	}{
		{"valid", words, rows, slab, ""},
		{"mask bit beyond k", words, rows, with(slab, 1, 0b100011), `query "path": coding: packet 0 mask 0x23`},
		{"live packet waiting on a decoded hop", words, rows, with(slab, 1, 0b10001), "packet 0 waits on decoded hops 0x10"},
		{"decoded hop not listed", with(words, 1, 0b00100), rows, slab, "hop 5: decoded, and not listed"},
		{"decoded index past the universe", with(words, 3, 80<<(4*7)), rows, slab, "hop 5: decoded as universe index 80, past the universe's 80 values"},
		{"candidate outside the universe", words, with(rows, 5, 1<<16), slab, "hop 3: candidates beyond the universe's 80 values"},
		{"slab of a packet and a word", words, rows, append(slices.Clone(slab), 0), "slab of 9 words"},
	} {
		block := slices.Clone(base.block)
		copy(block[eng.places[0].at(k):], c.words)
		copy(block[eng.blockWords(k|rowless):], c.rows)
		h := image{block: block, side: [][]uint64{c.slab}}
		dst, err := restoreInto(t, eng, flow, h.bytes(eng))
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("%s: refused: %v", c.name, err)
		case c.wantErr == "":
			// The restored flow keeps recording: nothing in the state it
			// was given can index outside it.
			if err := dst.RecordBatch(testbenchFlow(eng, flow, 167, 400)); err != nil {
				t.Errorf("%s: recording into the restored flow: %v", c.name, err)
			}
		case err == nil || !strings.Contains(err.Error(), c.wantErr):
			t.Errorf("%s: got %v, want an error containing %q", c.name, err, c.wantErr)
		}
	}
}

// TestRestoreFlowStateRejectsImpossibleState: a latency code the query's
// digest slice could not have carried, in a tail or in a histogram, is
// refused with an error naming flow and hop — not stored, where a
// code-width store would truncate the sample into some other code — and
// the destination stays untouched; so are an image offered as another
// flow, one of another plan, and one whose block is cut short.
func TestRestoreFlowStateRejectsImpossibleState(t *testing.T) {
	const flow, k = FlowKey(77), 5
	cfg, err := DefaultPathConfig(4, 2, k)
	if err != nil {
		t.Fatal(err)
	}
	path, err := NewPathQuery("path", cfg, 1, 151, testUniverse(k, 80))
	if err != nil {
		t.Fatal(err)
	}
	lat := latQueryOfBits(t, 4, 1, 151)
	eng, err := Compile([]Query{path, lat}, 12, 157)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := NewRecording(eng)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.RecordBatch(testbenchFlow(eng, flow, 167, 400)); err != nil {
		t.Fatal(err)
	}
	good, err := rec.AppendFlowState(nil, flow)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := restoreInto(t, eng, flow, good); err != nil {
		t.Fatalf("valid image refused: %v", err)
	}
	im := splitImage(eng, good)
	if st, _ := rec.storeOf(lat, flow, 5); st.sum() != nil || st.lo() != 0 {
		t.Fatal("hop 5's store folded or slid; the case needs its tail at code 0")
	}
	// Code 16 is the tail's counter 16, byte 3+16 of its words.
	at := tailAt(eng, 1, k, 5)
	tail16 := im.with(at+2, im.block[at+2]|1<<(3*8))
	hist := im
	if hist.side == nil {
		hist.side = make([][]uint64, 1+k)
		for i := range hist.side {
			hist.side[i] = []uint64{}
		}
	}
	hist = hist.withRun(5, 15, 1|1<<32).withPacked(5, true)
	n := len(im.block)
	for _, c := range []struct {
		name, wantErr string
		img           []byte
	}{
		{"tail counting code 16", "hop 5: latency tail counts code 16, beyond the 4-bit codes", tail16.bytes(eng)},
		{"histogram of codes 15 and 16", "hop 5: latency histogram of 2 codes from 15 does not fit 4 bits", hist.bytes(eng)},
		{"block cut short", fmt.Sprintf("image of %d words, its block alone has %d", n-1, n), good[:8*(2+n-1)]},
	} {
		_, err := restoreInto(t, eng, flow, c.img)
		if err == nil || !strings.Contains(err.Error(), c.wantErr) || !strings.Contains(err.Error(), "flow 77") {
			t.Errorf("%s: got %v, want an error naming flow 77 and containing %q", c.name, err, c.wantErr)
		}
	}
	if _, err := restoreInto(t, eng, flow+1, good); err == nil || !strings.Contains(err.Error(), "flow state of flow 77, restored as flow 78") {
		t.Errorf("another flow: got %v", err)
	}
	other, err := Compile([]Query{path, lat}, 12, 158)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := restoreInto(t, other, flow, good); err == nil || !strings.Contains(err.Error(), "flow state of plan") {
		t.Errorf("another plan: got %v", err)
	}
}

// TestNewPathQueryRejectsBadUniverse: an empty or duplicated universe is a
// plan error — NewPathQuery's, so Compile never sees the query — not one
// the first packet of the first flow finds in the record stage.
func TestNewPathQueryRejectsBadUniverse(t *testing.T) {
	cfg, err := DefaultPathConfig(8, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPathQuery("path", cfg, 1, 151, nil); err == nil {
		t.Error("hashed path query without a universe accepted")
	}
	if _, err := NewPathQuery("path", cfg, 1, 151, []uint64{7, 8, 7}); err == nil || !strings.Contains(err.Error(), "7 duplicated") {
		t.Errorf("duplicated universe: got %v, want an error naming the value", err)
	}
	raw := coding.Config{Bits: 16, Mode: coding.ModeRaw, ValueBits: 16, Layering: coding.PureBaseline()}
	if _, err := NewPathQuery("path", raw, 1, 151, nil); err == nil || !strings.Contains(err.Error(), "raw") {
		t.Errorf("raw path query: got %v, want a refusal naming the mode", err)
	}
}

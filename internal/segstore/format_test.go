package segstore

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/wire"
)

// randDigests draws a batch the wire format accepts: path lengths in
// [1, 64], everything else arbitrary.
func randDigests(rng *rand.Rand, n int) []core.PacketDigest {
	out := make([]core.PacketDigest, n)
	for i := range out {
		out[i] = core.PacketDigest{
			Flow:    core.FlowKey(rng.Uint64() >> uint(rng.Intn(64))),
			PktID:   rng.Uint64() >> uint(rng.Intn(64)),
			PathLen: 1 + rng.Intn(wire.MaxPathLen),
			Digest:  rng.Uint64() >> uint(rng.Intn(64)),
		}
	}
	return out
}

// TestAppendsMatchOracleBytes is the write path's format identity: a
// random run of AppendDigests/AppendCheckpoint must leave in
// the segment file exactly the bytes of the composition it replaced —
// the file magic, then for each append AppendFrame(kind | ts | body) with
// the body marshaled on its own (appendBlock, oracle_test.go).
func TestAppendsMatchOracleBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for round := 0; round < 20; round++ {
		dir := t.TempDir()
		st, _ := openTest(t, dir, Options{SegmentBytes: 1 << 30})
		want := []byte(segMagic)
		oracle := func(kind uint8, body []byte) {
			var err error
			// The test clock ticks 10 per append, from 10.
			ts := uint64(10 * (1 + st.Stats().ActiveBlocks))
			if want, err = appendBlock(want, kind, ts, body); err != nil {
				t.Fatal(err)
			}
		}
		for op, ops := 0, 1+rng.Intn(40); op < ops; op++ {
			switch rng.Intn(4) {
			case 0:
				cp := Checkpoint{Round: rng.Uint64(), Shard: rng.Intn(4), Shards: 4, Packets: rng.Uint64(), Flows: rng.Intn(1 << 20)}
				oracle(KindCheckpoint, appendCheckpointBody(nil, cp))
				if err := st.AppendCheckpoint(cp); err != nil {
					t.Fatal(err)
				}
			default:
				// Sizes on both sides of the previous one, so the reused
				// block buffer is exercised growing and with a stale tail.
				batch := randDigests(rng, 1+rng.Intn(600))
				body, err := wire.AppendMarshal(nil, batch)
				if err != nil {
					t.Fatal(err)
				}
				oracle(KindDigests, body)
				if err := st.AppendDigests(batch); err != nil {
					t.Fatal(err)
				}
			}
		}
		st.Abandon() // no seal: the file is the appends and nothing else
		got, err := os.ReadFile(filepath.Join(dir, segName(0)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("round %d: segment bytes differ from the oracle composition (%d vs %d bytes)", round, len(got), len(want))
		}
	}
}

// writeReferenceLog drives the fixed append sequence that wrote
// testdata/parent_log: rotation at the 4 KiB floor, retention down to one
// sealed segment (so a Retain record is in the log), checkpoints, a clean
// Close.
func writeReferenceLog(t *testing.T, dir string) {
	t.Helper()
	st, _, err := Open(dir, Options{SegmentBytes: 4096, MaxSegments: 1, NoSync: true, Now: testClock()})
	if err != nil {
		t.Fatal(err)
	}
	var pkts uint64
	for i := 0; i < 36; i++ {
		batch := testDigests(16+i%9, uint64(i))
		if err := st.AppendDigests(batch); err != nil {
			t.Fatal(err)
		}
		pkts += uint64(len(batch))
		if i%5 == 4 {
			if err := st.AppendCheckpoint(Checkpoint{Round: uint64(i / 5), Shard: 0, Shards: 1, Packets: pkts, Flows: 3}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// segmentFiles reads dir's segment files, in name (= sequence) order.
func segmentFiles(t *testing.T, dir string) (names []string, data [][]byte) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		names, data = append(names, e.Name()), append(data, b)
	}
	return names, data
}

// bruteBlocks is the whole-log reference Scan is compared against: every
// data block of every segment image, decoded front to back from the bytes
// alone (sealed or not — the walk ends at the index block or the end of
// the image), with nothing but a timestamp filter applied.
func bruteBlocks(t *testing.T, images [][]byte, since, until uint64) []Block {
	t.Helper()
	var out []Block
	for _, img := range images {
		if string(img[:segHeaderLen]) != segMagic {
			t.Fatal("segment image lacks its magic")
		}
		for rest := img[segHeaderLen:]; len(rest) > 0; {
			blk, after, err := decodeBlock(rest)
			if err != nil {
				t.Fatalf("brute-force walk: %v", err)
			}
			if blk.Kind == kindIndex {
				break
			}
			if blk.TS >= since && blk.TS <= until {
				out = append(out, Block{Kind: blk.Kind, TS: blk.TS, Body: bytes.Clone(blk.Body)})
			}
			rest = after
		}
	}
	return out
}

func sameBlocks(a, b []Block) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Kind != b[i].Kind || a[i].TS != b[i].TS || !bytes.Equal(a[i].Body, b[i].Body) {
			return false
		}
	}
	return true
}

// TestRegenerateParentLog rewrites testdata/parent_log through
// writeReferenceLog. Like the fuzz-corpus regenerator it is a no-op unless
// PINT_REGEN_CORPUS=1: run it after a deliberate change of the on-disk
// format and commit the result. CI regenerates and diffs, so the committed
// log cannot drift from the writer.
func TestRegenerateParentLog(t *testing.T) {
	if os.Getenv("PINT_REGEN_CORPUS") != "1" {
		t.Skip("set PINT_REGEN_CORPUS=1 to rewrite testdata/parent_log")
	}
	dir := filepath.Join("testdata", "parent_log")
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	writeReferenceLog(t, dir)
}

// TestParentLogIdentity pins the on-disk format. testdata/parent_log was
// written by writeReferenceLog (TestRegenerateParentLog) at PR 23, the
// commit that moved digest blocks to wire format version 2 — the first
// whose bodies are column-major — and rewritten at PR 25 without the
// sequence's kind-3 records, which Open now refuses (TestOpenRefusesKind3);
// PR 24's writer wrote the same bytes for the shorter sequence. The same
// sequence must write the same bytes today, and the committed files must
// recover and scan to exactly the blocks their bytes hold. A log written
// before PR 23 is refused (TestOpenRefusesVersion1Log).
func TestParentLogIdentity(t *testing.T) {
	wantNames, wantData := segmentFiles(t, filepath.Join("testdata", "parent_log"))
	if len(wantNames) != 2 {
		t.Fatalf("testdata/parent_log holds %d files, want 2", len(wantNames))
	}
	fresh := t.TempDir()
	writeReferenceLog(t, fresh)
	gotNames, gotData := segmentFiles(t, fresh)
	if len(gotNames) != len(wantNames) {
		t.Fatalf("the reference sequence now leaves %v, the parent left %v", gotNames, wantNames)
	}
	for i := range wantNames {
		if gotNames[i] != wantNames[i] || !bytes.Equal(gotData[i], wantData[i]) {
			t.Fatalf("segment %s differs from the parent's bytes (now %s, %d vs %d bytes)",
				wantNames[i], gotNames[i], len(gotData[i]), len(wantData[i]))
		}
	}

	// Recovery works on a copy: Open adds the next active segment.
	dir := t.TempDir()
	for i, name := range wantNames {
		if err := os.WriteFile(filepath.Join(dir, name), wantData[i], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st, rep := openTest(t, dir, Options{MaxSegments: 1})
	defer st.Close()
	all := bruteBlocks(t, wantData, 0, ^uint64(0))
	var pkts uint64
	for _, b := range all {
		if b.Kind == KindDigests {
			batch, err := DecodeDigests(nil, b.Body, nil)
			if err != nil {
				t.Fatal(err)
			}
			pkts += uint64(len(batch))
		}
	}
	if rep.Segments != 2 || rep.Blocks != len(all) || rep.Packets != pkts || rep.TornBytes != 0 ||
		rep.DeletedSegments != 1 || rep.MinTS != all[0].TS || rep.MaxTS != all[len(all)-1].TS {
		t.Fatalf("the parent's log recovered as %+v; its bytes hold %d blocks, %d packets, ts %d..%d",
			rep, len(all), pkts, all[0].TS, all[len(all)-1].TS)
	}
	if got := collectBlocks(t, st, 0, ^uint64(0)); !sameBlocks(got, all) {
		t.Fatalf("full scan of the parent's log: %d blocks, its bytes hold %d", len(got), len(all))
	}
	mid := all[len(all)/3].TS
	if got, want := collectBlocks(t, st, mid, mid+95), bruteBlocks(t, wantData, mid, mid+95); !sameBlocks(got, want) || len(want) != 10 {
		t.Fatalf("window scan of the parent's log: %d blocks, its bytes hold %d (want 10)", len(got), len(want))
	}
}

// TestAppendDigestsSteadyStateAllocs: once the block buffer has reached
// the batch size, logging a batch allocates nothing — it is marshaled,
// framed and checksummed in the buffer it is written from. (The block
// directory grows by amortised doubling; the measurement runs where it
// has room.)
func TestAppendDigestsSteadyStateAllocs(t *testing.T) {
	st, _ := openTest(t, t.TempDir(), Options{SegmentBytes: 1 << 30})
	defer st.Close()
	batch := testDigests(256, 3)
	const runs = 100
	for cap(st.idx)-len(st.idx) <= runs+1 {
		if err := st.AppendDigests(batch); err != nil {
			t.Fatal(err)
		}
	}
	if got := testing.AllocsPerRun(runs, func() {
		if err := st.AppendDigests(batch); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Fatalf("steady-state AppendDigests: %v allocs per batch, want 0", got)
	}
}

package segstore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/wire"
)

// TestRegenerateFuzzCorpus rewrites the committed seed corpora under
// testdata/fuzz/ from the same golden encoders the fuzzers seed with.
// It is a no-op unless PINT_REGEN_CORPUS=1 — run it after a deliberate
// format change, then commit the result; CI replays these files on every
// PR (go test -run='^Fuzz'), so a format drift that breaks old corpora
// fails loudly.
func TestRegenerateFuzzCorpus(t *testing.T) {
	if os.Getenv("PINT_REGEN_CORPUS") != "1" {
		t.Skip("set PINT_REGEN_CORPUS=1 to rewrite testdata/fuzz/")
	}
	write := func(fuzzName, seedName string, data []byte) {
		dir := filepath.Join("testdata", "fuzz", fuzzName)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		content := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(data)))
		if err := os.WriteFile(filepath.Join(dir, seedName), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	mustBlock := func(kind uint8, ts uint64, body []byte) []byte {
		buf, err := appendBlock(nil, kind, ts, body)
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	digests, err := wire.AppendMarshal(nil, testDigests(4, 7))
	if err != nil {
		t.Fatal(err)
	}
	dblk := mustBlock(KindDigests, 100, digests)
	cblk := mustBlock(KindCheckpoint, 200, appendCheckpointBody(nil, Checkpoint{Round: 3, Shard: 1, Shards: 4, Packets: 77, Flows: 5}))
	rblk := mustBlock(KindRetain, 400, appendRetainBody(nil, Retain{Segments: 2, Packets: 64, HorizonTS: 350}))
	iblk := mustBlock(kindIndex, 400, appendIndexBody(nil, Index{
		MinTS: 100, MaxTS: 400, Packets: 4,
		Entries: []IndexEntry{{Offset: 4, Kind: KindDigests, TS: 100, Packets: 4}, {Offset: 90, Kind: KindRetain, TS: 400}},
	}))
	write("FuzzSegmentDecode", "seed-digest-block", dblk)
	write("FuzzSegmentDecode", "seed-checkpoint-block", cblk)
	write("FuzzSegmentDecode", "seed-retain-block", rblk)
	write("FuzzSegmentDecode", "seed-index-block", iblk)
	write("FuzzSegmentDecode", "seed-torn-tail", dblk[:len(dblk)-3])
	write("FuzzSegmentDecode", "seed-two-blocks", append(bytes.Clone(dblk), cblk...))
	flipped := bytes.Clone(rblk)
	flipped[len(flipped)-2] ^= 0x10
	write("FuzzSegmentDecode", "seed-bit-flip", flipped)

	full := appendIndexBody(nil, Index{MinTS: 10, MaxTS: 90, Packets: 12, Entries: []IndexEntry{
		{Offset: 4, Kind: KindDigests, TS: 10, Packets: 8},
		{Offset: 60, Kind: KindCheckpoint, TS: 40},
		{Offset: 100, Kind: KindDigests, TS: 90, Packets: 4},
	}})
	write("FuzzIndexFooter", "seed-three-entries", full)
	write("FuzzIndexFooter", "seed-empty-directory", appendIndexBody(nil, Index{}))
	write("FuzzIndexFooter", "seed-truncated", full[:len(full)/2])
	write("FuzzIndexFooter", "seed-trailing-byte", append(bytes.Clone(full), 0x01))
}

// FuzzSegmentDecode drives arbitrary bytes through the segment block
// decoder — the exact code recovery runs over a crashed collector's log.
// The contract:
//
//   - decodeBlock never panics,
//   - wire.ErrShortFrame is returned exactly for truncation (a prefix of
//     a longer valid block — the benign torn-tail class); every other
//     error is corruption and the two are never confused,
//   - on success, re-encoding the block reproduces the consumed bytes
//     (the format is canonical), and
//   - every typed body decoder (checkpoint/retain/index) is strict:
//     what it accepts, it re-encodes byte-identically.
func FuzzSegmentDecode(f *testing.F) {
	addBlock := func(kind uint8, ts uint64, body []byte) {
		buf, err := appendBlock(nil, kind, ts, body)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
		f.Add(buf[:len(buf)-1])
		f.Add(append(append([]byte(nil), buf...), buf...))
	}
	digests, err := wire.AppendMarshal(nil, testDigests(4, 7))
	if err != nil {
		f.Fatal(err)
	}
	addBlock(KindDigests, 100, digests)
	addBlock(KindCheckpoint, 200, appendCheckpointBody(nil, Checkpoint{Round: 3, Shard: 1, Shards: 4, Packets: 77, Flows: 5}))
	// One packet: the ID-delta column is empty.
	single, err := wire.AppendMarshal(nil, testDigests(1, 9))
	if err != nil {
		f.Fatal(err)
	}
	addBlock(KindDigests, 300, single)
	addBlock(KindRetain, 400, appendRetainBody(nil, Retain{Segments: 2, Packets: 64, HorizonTS: 350}))
	addBlock(kindIndex, 400, appendIndexBody(nil, Index{
		MinTS: 100, MaxTS: 400, Packets: 4,
		Entries: []IndexEntry{{Offset: 4, Kind: KindDigests, TS: 100, Packets: 4}, {Offset: 90, Kind: KindRetain, TS: 400}},
	}))
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})

	f.Fuzz(func(t *testing.T, data []byte) {
		rest := data
		for len(rest) > 0 {
			blk, after, err := decodeBlock(rest)
			if errors.Is(err, wire.ErrShortFrame) {
				return // truncation: recovery truncates and reports
			}
			if err != nil {
				return // corruption: recovery refuses, never repairs
			}
			consumed := rest[:len(rest)-len(after)]
			again, err := appendBlock(nil, blk.Kind, blk.TS, blk.Body)
			if err != nil {
				t.Fatalf("re-encoding a decoded block: %v", err)
			}
			if !bytes.Equal(again, consumed) {
				t.Fatalf("block re-encode differs from input:\n got %x\nwant %x", again, consumed)
			}
			switch blk.Kind {
			case KindDigests:
				batch, err := DecodeDigests(nil, blk.Body, nil)
				if err == nil {
					body, err := wire.AppendMarshal(nil, batch)
					if err != nil {
						t.Fatalf("re-marshalling decoded digests: %v", err)
					}
					round, err := DecodeDigests(nil, body, nil)
					if err != nil || len(round) != len(batch) {
						t.Fatalf("digest re-marshal round trip: %v (%d vs %d)", err, len(round), len(batch))
					}
				}
			case KindCheckpoint:
				if cp, err := DecodeCheckpoint(blk.Body); err == nil {
					if !bytes.Equal(appendCheckpointBody(nil, cp), blk.Body) {
						t.Fatalf("checkpoint body not canonical: %x", blk.Body)
					}
				}
			case KindRetain:
				if r, err := DecodeRetain(blk.Body); err == nil {
					if !bytes.Equal(appendRetainBody(nil, r), blk.Body) {
						t.Fatalf("retain body not canonical: %x", blk.Body)
					}
				}
			case kindIndex:
				if idx, err := DecodeIndex(blk.Body); err == nil {
					if !bytes.Equal(appendIndexBody(nil, idx), blk.Body) {
						t.Fatalf("index body not canonical: %x", blk.Body)
					}
				}
			}
			rest = after
		}
	})
}

// FuzzIndexFooter targets the per-segment index directory decoder: no
// panics on arbitrary bytes, and everything it accepts re-encodes to the
// identical bytes — the property recovery leans on when it trusts a
// sealed segment's directory instead of re-reading every block.
func FuzzIndexFooter(f *testing.F) {
	add := func(idx Index) {
		body := appendIndexBody(nil, idx)
		f.Add(body)
		f.Add(body[:len(body)/2])
		f.Add(append(append([]byte(nil), body...), 0x01))
	}
	add(Index{})
	add(Index{MinTS: 10, MaxTS: 10, Packets: 3,
		Entries: []IndexEntry{{Offset: 4, Kind: KindDigests, TS: 10, Packets: 3}}})
	add(Index{MinTS: 10, MaxTS: 90, Packets: 12, Entries: []IndexEntry{
		{Offset: 4, Kind: KindDigests, TS: 10, Packets: 8},
		{Offset: 60, Kind: KindCheckpoint, TS: 40},
		{Offset: 100, Kind: KindDigests, TS: 90, Packets: 4},
	}})
	f.Add([]byte{})
	f.Add([]byte{0x01})

	f.Fuzz(func(t *testing.T, body []byte) {
		idx, err := DecodeIndex(body)
		if err != nil {
			return
		}
		again := appendIndexBody(nil, idx)
		if !bytes.Equal(again, body) {
			t.Fatalf("index re-encode differs from input:\n got %x\nwant %x", again, body)
		}
		// Directory invariants the rest of recovery assumes hold for
		// anything the decoder lets through.
		if idx.MinTS > idx.MaxTS {
			t.Fatalf("decoded inverted bounds: %+v", idx)
		}
		var sum uint64
		for i, e := range idx.Entries {
			sum += e.Packets
			if e.TS < idx.MinTS || e.TS > idx.MaxTS {
				t.Fatalf("entry %d timestamp %d outside [%d,%d]", i, e.TS, idx.MinTS, idx.MaxTS)
			}
			if i > 0 && e.Offset <= idx.Entries[i-1].Offset {
				t.Fatalf("entry %d offset not increasing", i)
			}
		}
		if sum != idx.Packets {
			t.Fatalf("entry packets sum %d != total %d", sum, idx.Packets)
		}
	})
}

package segstore

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/wire"
)

// testDigests builds a small deterministic batch with valid path lengths.
func testDigests(n int, salt uint64) []core.PacketDigest {
	out := make([]core.PacketDigest, n)
	for i := range out {
		out[i] = core.PacketDigest{
			Flow:    core.FlowKey(salt<<8 | uint64(i%3)),
			PktID:   salt*1_000_003 + uint64(i),
			PathLen: 1 + i%5,
			Digest:  salt ^ uint64(i)*0x9E3779B97F4A7C15,
		}
	}
	return out
}

func TestBlockRoundTrip(t *testing.T) {
	body := []byte("payload bytes")
	buf, err := appendBlock(nil, KindCheckpoint, 42, body)
	if err != nil {
		t.Fatal(err)
	}
	blk, rest, err := decodeBlock(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 || blk.Kind != KindCheckpoint || blk.TS != 42 || !bytes.Equal(blk.Body, body) {
		t.Fatalf("round trip mangled the block: %+v rest=%d", blk, len(rest))
	}

	// Every strict prefix must decode as a short frame — truncation, not
	// corruption.
	for i := 0; i < len(buf); i++ {
		if _, _, err := decodeBlock(buf[:i]); !errors.Is(err, wire.ErrShortFrame) {
			t.Fatalf("prefix %d/%d: want ErrShortFrame, got %v", i, len(buf), err)
		}
	}

	// A flipped payload bit must be a CRC error, never a short frame.
	for _, off := range []int{8, 9, len(buf) - 1} {
		bad := bytes.Clone(buf)
		bad[off] ^= 0x40
		_, _, err := decodeBlock(bad)
		if err == nil || errors.Is(err, wire.ErrShortFrame) {
			t.Fatalf("bit flip at %d: want a hard error, got %v", off, err)
		}
	}
}

func TestCheckpointBodyRoundTrip(t *testing.T) {
	cases := []Checkpoint{
		{Round: 1, Shard: 0, Shards: 1, Packets: 0, Flows: 0},
		{Round: 7, Shard: 3, Shards: 4, Packets: 123456, Flows: 99},
		{Round: 1<<64 - 1, Shard: 0, Shards: 1, Packets: 1<<64 - 1, Flows: 1<<31 - 1},
	}
	for _, cp := range cases {
		body := appendCheckpointBody(nil, cp)
		got, err := DecodeCheckpoint(body)
		if err != nil {
			t.Fatalf("%+v: %v", cp, err)
		}
		if got != cp {
			t.Fatalf("round trip: got %+v, want %+v", got, cp)
		}
		if again := appendCheckpointBody(nil, got); !bytes.Equal(again, body) {
			t.Fatalf("re-encode of %+v is not canonical", cp)
		}
	}
	if _, err := DecodeCheckpoint(appendCheckpointBody(nil, Checkpoint{Round: 1, Shard: 2, Shards: 2})); err == nil {
		t.Fatal("shard ≥ shards decoded")
	}
	if _, err := DecodeCheckpoint(append(appendCheckpointBody(nil, Checkpoint{Shards: 1}), 0)); err == nil {
		t.Fatal("trailing byte decoded")
	}
}

func TestRetainBodyRoundTrip(t *testing.T) {
	r := Retain{Segments: 3, Packets: 4096, HorizonTS: 1 << 40}
	body := appendRetainBody(nil, r)
	got, err := DecodeRetain(body)
	if err != nil {
		t.Fatal(err)
	}
	if got != r {
		t.Fatalf("round trip: got %+v, want %+v", got, r)
	}
	if _, err := DecodeRetain(append(body, 1)); err == nil {
		t.Fatal("trailing byte decoded")
	}
}

func TestStrictUvarint(t *testing.T) {
	bad := [][]byte{
		{},                             // empty
		{0x80},                         // truncated continuation
		{0x80, 0x00},                   // non-minimal zero
		{0xFF, 0x80, 0x00},             // non-minimal
		bytes.Repeat([]byte{0xFF}, 10), // overflow
	}
	for _, b := range bad {
		if _, _, err := uvarint(b); err == nil {
			t.Fatalf("uvarint(% x) decoded", b)
		}
	}
}

func TestIndexRoundTrip(t *testing.T) {
	idx := Index{
		MinTS: 100, MaxTS: 400, Packets: 42,
		Entries: []IndexEntry{
			{Offset: 4, Kind: KindDigests, TS: 100, Packets: 30},
			{Offset: 90, Kind: KindCheckpoint, TS: 250, Packets: 0},
			{Offset: 130, Kind: KindDigests, TS: 400, Packets: 12},
		},
	}
	body := appendIndexBody(nil, idx)
	got, err := DecodeIndex(body)
	if err != nil {
		t.Fatal(err)
	}
	if got.MinTS != idx.MinTS || got.MaxTS != idx.MaxTS || got.Packets != idx.Packets ||
		len(got.Entries) != len(idx.Entries) {
		t.Fatalf("round trip: got %+v", got)
	}
	for i := range got.Entries {
		if got.Entries[i] != idx.Entries[i] {
			t.Fatalf("entry %d: got %+v, want %+v", i, got.Entries[i], idx.Entries[i])
		}
	}
	if again := appendIndexBody(nil, got); !bytes.Equal(again, body) {
		t.Fatal("re-encode is not canonical")
	}

	// Inconsistent directories must refuse to decode.
	broken := idx
	broken.Packets = 41
	if _, err := DecodeIndex(appendIndexBody(nil, broken)); err == nil {
		t.Fatal("wrong packet total decoded")
	}
	broken = idx
	broken.MinTS = 101
	if _, err := DecodeIndex(appendIndexBody(nil, broken)); err == nil {
		t.Fatal("first entry before MinTS decoded")
	}
}

func TestDigestBodyRoundTrip(t *testing.T) {
	batch := testDigests(9, 5)
	body, err := wire.AppendMarshal(nil, batch)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeDigests(nil, body, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(batch) {
		t.Fatalf("decoded %d digests, want %d", len(got), len(batch))
	}
	for i := range got {
		if got[i].Flow != batch[i].Flow || got[i].PktID != batch[i].PktID ||
			got[i].PathLen != batch[i].PathLen || got[i].Digest != batch[i].Digest {
			t.Fatalf("digest %d: got %+v, want %+v", i, got[i], batch[i])
		}
	}
}

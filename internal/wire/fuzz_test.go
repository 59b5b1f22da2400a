package wire

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
)

// decodeSeed is one named input of the decode fuzzers' seed set.
type decodeSeed struct {
	name string
	data []byte
}

// decodeSeeds is what FuzzUnmarshal and FuzzUnmarshalSharded start from
// and what their committed corpora hold: valid batches of every shape the
// tree frames, a truncation and an extension of each, and hostileBatches —
// one input per rule the decoder enforces.
func decodeSeeds(t testing.TB) []decodeSeed {
	var seeds []decodeSeed
	valid := func(name string, batch []core.PacketDigest) {
		data, err := AppendMarshal(nil, batch)
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, decodeSeed{name, data})
		if len(batch) > 0 {
			stem, _, _ := strings.Cut(name, "-")
			seeds = append(seeds,
				decodeSeed{stem + "-truncated", data[:len(data)-1]},
				decodeSeed{stem + "-trailing", append(bytes.Clone(data), 0x00)})
		}
	}
	valid("empty-batch", nil)
	valid("one-packet", []core.PacketDigest{{Flow: 7, PktID: 99, PathLen: 12, Digest: 0xABCD}})
	valid("many-packets", sampleBatch(64))
	valid("extreme-values", []core.PacketDigest{
		{Flow: ^core.FlowKey(0), PktID: ^uint64(0), PathLen: MaxPathLen, Digest: ^uint64(0)},
		{Flow: 0, PktID: 0, PathLen: 1, Digest: 0},
	})
	valid("testbench-frame", testbenchFrame(32))
	valid("interleaved-frame", interleavedFrame(16))
	for _, h := range hostileBatches {
		seeds = append(seeds, decodeSeed{h.name, h.data})
	}
	return seeds
}

// FuzzUnmarshal drives arbitrary byte streams through the strict decoder.
// The contract under fuzzing:
//
//   - AppendUnmarshal never panics and never allocates disproportionately to its
//     input (the count-vs-remaining-bytes guard),
//   - on error it returns a nil slice, and Count fails with the same text,
//   - on success the format is canonical: re-marshaling the decoded batch
//     reproduces the input byte-for-byte, and decoding that again yields
//     the same packets (the encode side of the round trip).
//
// The committed seed corpus under testdata/fuzz/FuzzUnmarshal is
// decodeSeeds, written by TestRegenerateDecodeFuzzCorpus; `go test
// -run='^Fuzz'` replays it in CI.
func FuzzUnmarshal(f *testing.F) {
	for _, seed := range decodeSeeds(f) {
		f.Add(seed.data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		pkts, err := AppendUnmarshal(nil, data)
		n, countErr := Count(data)
		if err != nil {
			if pkts != nil {
				t.Fatalf("error %v with non-nil packets", err)
			}
			if countErr == nil || countErr.Error() != err.Error() {
				t.Fatalf("AppendUnmarshal refused with %q, Count with %v", err, countErr)
			}
			return
		}
		if countErr != nil || n != len(pkts) {
			t.Fatalf("Count = %d, %v of a batch that decodes to %d packets", n, countErr, len(pkts))
		}
		for i := range pkts {
			if pkts[i].PathLen < 1 || pkts[i].PathLen > MaxPathLen {
				t.Fatalf("packet %d decoded with path length %d", i, pkts[i].PathLen)
			}
		}
		again, err := AppendMarshal(nil, pkts)
		if err != nil {
			t.Fatalf("re-marshal of a decoded batch failed: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("encoding not canonical:\n in  %x\n out %x", data, again)
		}
		second, err := AppendUnmarshal(nil, again)
		if err != nil {
			t.Fatalf("second decode failed: %v", err)
		}
		if len(second) != len(pkts) {
			t.Fatalf("second decode has %d packets, want %d", len(second), len(pkts))
		}
		for i := range pkts {
			if second[i] != pkts[i] {
				t.Fatalf("packet %d unstable across round trips", i)
			}
		}
	})
}

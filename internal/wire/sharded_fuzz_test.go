package wire

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/hash"
)

// FuzzUnmarshalSharded pins the run-routed decode-and-shard pass to the
// unfused reference — AppendUnmarshal followed by a separate per-packet
// hash.ShardOf routing pass — over arbitrary inputs and shard counts, and
// AppendUnmarshalFlows to the same decode filtered. The contract:
//
//   - both decoders accept exactly the same byte strings,
//   - on rejection the error text is identical (the collector logs it when
//     it kills a connection, and the message must not depend on the path),
//   - on success every shard's staged sequence matches the reference,
//     in order, and the returned counts agree,
//   - decoding only the flows of one shard yields that shard's sequence.
//
// The committed seed corpus under testdata/fuzz/FuzzUnmarshalSharded is
// decodeSeeds across shard counts, written by
// TestRegenerateDecodeFuzzCorpus; `go test -run='^Fuzz'` replays it in CI.
func FuzzUnmarshalSharded(f *testing.F) {
	for i, seed := range decodeSeeds(f) {
		f.Add(uint8(i), seed.data)
	}

	f.Fuzz(func(t *testing.T, shards uint8, data []byte) {
		n := int(shards%32) + 1 // 1..32 destinations; zero is tested separately
		flat, refErr := AppendUnmarshal(nil, data)
		dsts := make([][]core.PacketDigest, n)
		count, gotErr := AppendUnmarshalSharded(dsts, data)
		if refErr != nil {
			if gotErr == nil {
				t.Fatalf("reference rejected (%v), fused accepted", refErr)
			}
			if refErr.Error() != gotErr.Error() {
				t.Fatalf("error text diverged:\n reference %q\n fused     %q", refErr, gotErr)
			}
			return
		}
		if gotErr != nil {
			t.Fatalf("reference accepted, fused rejected: %v", gotErr)
		}
		if count != len(flat) {
			t.Fatalf("fused count %d, reference decoded %d packets", count, len(flat))
		}
		want := make([][]core.PacketDigest, n)
		for i := range flat {
			sh := hash.ShardOf(uint64(flat[i].Flow), uint64(n))
			want[sh] = append(want[sh], flat[i])
		}
		for sh := range dsts {
			if len(dsts[sh]) != len(want[sh]) {
				t.Fatalf("shard %d/%d: fused staged %d packets, reference %d",
					sh, n, len(dsts[sh]), len(want[sh]))
			}
			for i := range dsts[sh] {
				if dsts[sh][i] != want[sh][i] {
					t.Fatalf("shard %d/%d packet %d: fused %+v, reference %+v",
						sh, n, i, dsts[sh][i], want[sh][i])
				}
			}
		}
		only := map[core.FlowKey]bool{}
		for _, p := range want[0] {
			only[p.Flow] = true
		}
		filtered, err := AppendUnmarshalFlows(nil, data, only)
		if err != nil || !slices.Equal(filtered, want[0]) {
			t.Fatalf("decoding shard 0's %d flows alone: %d packets, %v; the shard staged %d", len(only), len(filtered), err, len(want[0]))
		}
	})
}

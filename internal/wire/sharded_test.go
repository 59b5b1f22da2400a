package wire

import (
	"testing"

	"repro/internal/core"
	"repro/internal/hash"
)

// referenceShard is the unfused two-pass path the fused decoder replaces:
// the byte-at-a-time whole-batch referenceUnmarshal (bulk_test.go) followed
// by a separate routing pass. The fused decoder must be indistinguishable
// from it.
func referenceShard(shards int, data []byte) ([][]core.PacketDigest, int, error) {
	flat, err := referenceUnmarshal(data)
	if err != nil {
		return nil, 0, err
	}
	dsts := make([][]core.PacketDigest, shards)
	for i := range flat {
		sh := hash.ShardOf(uint64(flat[i].Flow), uint64(shards))
		dsts[sh] = append(dsts[sh], flat[i])
	}
	return dsts, len(flat), nil
}

func TestUnmarshalShardedParity(t *testing.T) {
	batches := [][]core.PacketDigest{adversarialBatch(), testbenchFrame(256), interleavedFrame(255)}
	for _, n := range []int{0, 1, 7, 255, 4096} {
		batches = append(batches, sampleBatch(n))
	}
	for _, batch := range batches {
		n := len(batch)
		data, err := AppendMarshal(nil, batch)
		if err != nil {
			t.Fatalf("n=%d: marshal: %v", n, err)
		}
		for _, shards := range []int{1, 2, 3, 4, 16} {
			want, wantN, err := referenceShard(shards, data)
			if err != nil {
				t.Fatalf("n=%d shards=%d: reference: %v", n, shards, err)
			}
			dsts := make([][]core.PacketDigest, shards)
			gotN, err := AppendUnmarshalSharded(dsts, data)
			if err != nil {
				t.Fatalf("n=%d shards=%d: fused: %v", n, shards, err)
			}
			if gotN != wantN {
				t.Fatalf("n=%d shards=%d: fused count %d, reference %d", n, shards, gotN, wantN)
			}
			for sh := range dsts {
				if len(dsts[sh]) != len(want[sh]) {
					t.Fatalf("n=%d shard %d/%d: fused staged %d packets, reference %d",
						n, sh, shards, len(dsts[sh]), len(want[sh]))
				}
				for i := range dsts[sh] {
					if dsts[sh][i] != want[sh][i] {
						t.Fatalf("n=%d shard %d/%d packet %d: fused %+v, reference %+v",
							n, sh, shards, i, dsts[sh][i], want[sh][i])
					}
				}
			}
		}
	}
}

// TestUnmarshalShardedAppends pins the append contract: staged packets
// already in dsts survive, and recycled capacity is reused (the
// steady-state zero-allocation property the per-connection decode path
// relies on).
func TestUnmarshalShardedAppends(t *testing.T) {
	batch := sampleBatch(64)
	data, err := AppendMarshal(nil, batch)
	if err != nil {
		t.Fatal(err)
	}
	const shards = 4
	dsts := make([][]core.PacketDigest, shards)
	marker := core.PacketDigest{Flow: 12345, PktID: 1, PathLen: 3}
	dsts[2] = append(dsts[2], marker)
	if _, err := AppendUnmarshalSharded(dsts, data); err != nil {
		t.Fatal(err)
	}
	if dsts[2][0] != marker {
		t.Fatalf("pre-staged packet clobbered: %+v", dsts[2][0])
	}
	// Second decode into truncated-but-capacious buffers must not grow.
	for i := range dsts {
		dsts[i] = dsts[i][:0]
	}
	caps := make([]int, shards)
	for i := range dsts {
		caps[i] = cap(dsts[i])
	}
	if _, err := AppendUnmarshalSharded(dsts, data); err != nil {
		t.Fatal(err)
	}
	for i := range dsts {
		if cap(dsts[i]) != caps[i] {
			t.Fatalf("shard %d grew from cap %d to %d on a warm decode", i, caps[i], cap(dsts[i]))
		}
	}
}

// TestUnmarshalShardedErrorParity feeds every error class through both
// entry points and demands the identical error string — the collector logs
// and kills a connection on either path, and the messages must not
// depend on which one it ran — and that a refused batch staged nothing.
func TestUnmarshalShardedErrorParity(t *testing.T) {
	good, err := AppendMarshal(nil, sampleBatch(8))
	if err != nil {
		t.Fatal(err)
	}
	cases := [][]byte{good[:len(good)-1], good[:len(good)/2], good[:5]}
	for _, h := range hostileBatches {
		cases = append(cases, h.data)
	}
	for ci, data := range cases {
		_, refErr := AppendUnmarshalFlows(nil, data, nil)
		dsts := make([][]core.PacketDigest, 3)
		_, gotErr := AppendUnmarshalSharded(dsts, data)
		switch {
		case refErr == nil && gotErr == nil:
		case refErr == nil || gotErr == nil:
			t.Fatalf("case %d: reference err %v, fused err %v", ci, refErr, gotErr)
		case refErr.Error() != gotErr.Error():
			t.Fatalf("case %d: error text diverged:\n reference %q\n fused     %q", ci, refErr, gotErr)
		}
		for sh := range dsts {
			if len(dsts[sh]) != 0 {
				t.Fatalf("case %d: refused with %v after staging %d packets on shard %d", ci, gotErr, len(dsts[sh]), sh)
			}
		}
	}
	if _, err := AppendUnmarshalSharded(nil, good); err == nil {
		t.Fatal("no destinations accepted")
	}
}

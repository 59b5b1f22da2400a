package collector

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/core"
)

// flowBatchPins are the sha256 of every PktID and Digest FlowBatch returns
// at testbench seed 7, per hop count, over n ∈ {1, 13, 256, 500} × 200
// flows spread across exporters 1-3. pintbench's oracle generates its
// reference with FlowBatch too, so its correctness check cannot see a
// change here; this pin can.
var flowBatchPins = map[int]string{
	1:  "07a8b2a358c1c5fbe8457d43428a558f606c6597eec01b988cd5e386afef4fa0",
	2:  "a0558c10eb04bd0252d00afde2aa31778c74683a1af63fab4af822aad6a2efc3",
	5:  "0554e179669dab56ffe7bc563e47daee7395f5012be66c94d616cdee9c8569de",
	9:  "56b954df76763214b05326a92213719b18714429912dc832c46795e0cb5087c5",
	25: "a1de0295c6b64f4197878aeb3bea9c658406087d12859849bc5005e5489ed19e",
}

func TestFlowBatchBytesPinned(t *testing.T) {
	for _, k := range []int{1, 2, 5, 9, 25} {
		tb, err := NewTestbench(7, k)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		// Scratch is reused across calls, so stale packets and values
		// from a longer or shorter batch must not leak into the next.
		var pkts []core.PacketDigest
		vals := make([]core.HopValues, 500)
		var word [8]byte
		for _, n := range []int{1, 13, 256, 500} {
			for i := 0; i < 200; i++ {
				pkts = tb.FlowBatch(uint64(i%3)+1, i/3, n, pkts, vals)
				if len(pkts) != n {
					t.Fatalf("k=%d n=%d: %d packets", k, n, len(pkts))
				}
				for _, p := range pkts {
					binary.LittleEndian.PutUint64(word[:], p.PktID)
					h.Write(word[:])
					binary.LittleEndian.PutUint64(word[:], p.Digest)
					h.Write(word[:])
				}
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != flowBatchPins[k] {
			t.Errorf("k=%d: FlowBatch bytes %s, pinned %s", k, got, flowBatchPins[k])
		}
	}
}

// TestFlowBatchZeroAlloc pins the generator at no heap object per call
// once the caller passes scratch: the path and the per-packet winners
// live on the stack, the encoder's columns in its pool.
func TestFlowBatchZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime drops pooled buffers at random")
	}
	tb, err := NewTestbench(7, 5)
	if err != nil {
		t.Fatal(err)
	}
	const n = 256
	pkts := make([]core.PacketDigest, n)
	vals := make([]core.HopValues, n)
	f := 0
	if allocs := testing.AllocsPerRun(100, func() {
		pkts = tb.FlowBatch(uint64(f%3)+1, f, n, pkts, vals)
		f++
	}); allocs != 0 {
		t.Fatalf("FlowBatch at n=%d with scratch: %v allocations per call, want 0", n, allocs)
	}
}

// BenchmarkFlowBatch times the generator at pintbench's shape (k = 5,
// 256 or 500 packets a flow, scratch reused) in ns per packet.
func BenchmarkFlowBatch(b *testing.B) {
	tb, err := NewTestbench(7, 5)
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{256, 500} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			pkts := make([]core.PacketDigest, n)
			vals := make([]core.HopValues, n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pkts = tb.FlowBatch(uint64(i%3)+1, i, n, pkts, vals)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/pkt")
		})
	}
}

package core

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/coding"
	"repro/internal/hash"
)

// parityPlans builds one engine per plan shape the column passes have a
// distinct branch for: the combined benchmark plan, a reservoir and a
// max-aggregation slice at odd widths sharing a digest, the paper's b=1
// path, a one-instance hashed path over two XOR layers, three path
// queries (layer cache overflow), and a multi-set plan with unassigned
// probability mass.
func parityPlans(t testing.TB) map[string]*Engine {
	t.Helper()
	master := hash.Seed(0x50A)
	build := func(qs ...Query) *Engine {
		eng, err := Compile(qs, 16, master)
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		return eng
	}
	pathCfg, err := DefaultPathConfig(4, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	path, err := NewPathQuery("path", pathCfg, 1, master, []uint64{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	lat, err := NewLatencyQuery("lat", 8, 0.04, 15.0/16, master)
	if err != nil {
		t.Fatal(err)
	}
	util, err := NewUtilQuery("hpcc", 8, 0.025, 1.0/16, 1000, master)
	if err != nil {
		t.Fatal(err)
	}
	lat6, err := NewLatencyQuery("lat6", 6, 0.1, 0.5, master)
	if err != nil {
		t.Fatal(err)
	}
	util5, err := NewUtilQuery("util5", 5, 0.2, 0.25, 1000, master)
	if err != nil {
		t.Fatal(err)
	}
	bitCfg, err := DefaultPathConfig(1, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	bitPath, err := NewPathQuery("bit", bitCfg, 1, master, []uint64{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	deepPath, err := NewPathQuery("deep",
		coding.Config{Bits: 4, Mode: coding.ModeHashed, Layering: coding.MultiLayer(20, true)},
		1, master, []uint64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	var triple []Query
	for i := 0; i < 3; i++ {
		p, err := NewPathQuery(fmt.Sprintf("p%d", i),
			coding.Config{Bits: 3, Mode: coding.ModeHashed, Layering: coding.Hybrid(6, 0.75)},
			1, master, []uint64{1, 2, 3})
		if err != nil {
			t.Fatal(err)
		}
		triple = append(triple, p)
	}
	return map[string]*Engine{
		"combined":     build(path, lat, util),
		"latency+util": build(lat6, util5),
		"bit-path":     build(bitPath),
		"deep-path":    build(deepPath),
		"triple-path":  build(triple[0], triple[1], triple[2]),
		"multi-set":    build(lat, lat6, util5), // total mass < 1: unassigned packets
	}
}

func parityBatch(seed uint64, n int) ([]PacketDigest, []HopValues) {
	pkts := make([]PacketDigest, n)
	vals := make([]HopValues, n)
	s := hash.Seed(seed)
	for i := range pkts {
		u := uint64(i)
		pkts[i] = PacketDigest{
			Flow:    FlowKey(s.Hash2(u, 1) % 64),
			PktID:   s.Hash2(u, 2),
			PathLen: 1 + int(s.Hash2(u, 3)%8),
		}
		vals[i] = HopValues{
			SwitchID:  1 + s.Hash2(u, 4)%5,
			LatencyNs: 1 + s.Hash2(u, 5)%2000,
			Util:      s.Hash2(u, 6) % 1500,
		}
	}
	return pkts, vals
}

// TestEncodeHopBatchSoAParity holds the column passes to the oracle for
// every plan shape, at batch sizes from one packet up (around the sizes
// where column scratch first grows) and for hops beyond the reservoir
// threshold table.
func TestEncodeHopBatchSoAParity(t *testing.T) {
	for name, eng := range parityPlans(t) {
		t.Run(name, func(t *testing.T) {
			for _, n := range []int{1, 2, 15, 16, 17, 64, 301} {
				pkts, vals := parityBatch(uint64(n)*977+7, n)
				checkParity(t, eng, pkts, vals, []int{1, 2, 3, 4, 5, 64, 65, 66})
			}
		})
	}
}

// hopColumns returns nh value columns for the packets of parityBatch(seed,
// n), every hop observing other values.
func hopColumns(seed uint64, n, nh int) [][]HopValues {
	cols := make([][]HopValues, nh)
	for t := range cols {
		_, cols[t] = parityBatch(seed+uint64(t)*7919, n)
	}
	return cols
}

// checkHopsParity runs hops first..first+len(cols)-1 over a batch three
// ways: one EncodeHops call, one EncodeHopBatch call per hop, and the
// oracle hop by hop; all three must leave bit-identical packets.
func checkHopsParity(t *testing.T, eng *Engine, pkts []PacketDigest, first int, cols [][]HopValues) {
	t.Helper()
	want := append([]PacketDigest(nil), pkts...)
	each := append([]PacketDigest(nil), pkts...)
	for h, col := range cols {
		for i := range want {
			oracleEncodeHop(eng, first+h, &want[i], &col[i])
		}
		eng.EncodeHopBatch(first+h, each, col)
	}
	eng.EncodeHops(first, pkts, cols)
	for i := range pkts {
		if pkts[i] != want[i] || each[i] != want[i] {
			t.Fatalf("n=%d hops [%d,%d] pkt %d diverged:\noracle    %+v\nper hop   %+v\none range %+v",
				len(pkts), first, first+len(cols)-1, i, want[i], each[i], pkts[i])
		}
	}
}

// TestEncodeHopsParity holds a range of hops in one pass to the same hops
// one at a time and to the oracle, for every plan shape: ranges from hop
// 1 and from above it, one hop up to 64, across the reservoir threshold
// table's end (hop 64), and ranges applied after earlier ones.
func TestEncodeHopsParity(t *testing.T) {
	ranges := [][2]int{{1, 1}, {1, 2}, {1, 5}, {1, 25}, {1, 64}, {0, 3}, {2, 2}, {2, 9}, {5, 5}, {3, 64}, {60, 70}}
	for name, eng := range parityPlans(t) {
		t.Run(name, func(t *testing.T) {
			for _, n := range []int{1, 16, 17, 301} {
				for _, r := range ranges {
					seed := uint64(n)*31 + uint64(r[0])*977 + uint64(r[1])
					pkts, _ := parityBatch(seed, n)
					checkHopsParity(t, eng, pkts, r[0], hopColumns(seed, n, r[1]-r[0]+1))
					// The same packets through a later range start from
					// the digests and caches the first range left.
					last := r[1] + 1
					checkHopsParity(t, eng, pkts, last, hopColumns(seed+1, n, 3))
				}
			}
		})
	}
}

// TestEncodeHopsShortValsPanics: any short column panics before a packet
// is touched.
func TestEncodeHopsShortValsPanics(t *testing.T) {
	eng := parityPlans(t)["combined"]
	pkts, _ := parityBatch(5, 20)
	cols := hopColumns(5, 20, 4)
	cols[2] = cols[2][:19]
	defer func() {
		if recover() == nil {
			t.Fatal("a short column did not panic")
		}
		for i := range pkts {
			if pkts[i].Digest != 0 || pkts[i].set != 0 {
				t.Fatalf("packet %d mutated before bounds panic: %+v", i, pkts[i])
			}
		}
	}()
	eng.EncodeHops(1, pkts, cols)
}

// FuzzEncodeHopsParity: arbitrary bytes pick a plan, a batch, a range of
// up to 64 hops and where it starts; one EncodeHops call must agree with
// the hops one at a time and with the oracle bit for bit.
func FuzzEncodeHopsParity(f *testing.F) {
	f.Add(uint8(0), uint64(1), uint8(1), uint8(5), []byte("pint"))
	f.Add(uint8(1), uint64(0xF16), uint8(2), uint8(63), make([]byte, 25*24))
	f.Add(uint8(3), ^uint64(0), uint8(60), uint8(10), []byte("\x01\x02\x03\x04\x05\x06\x07\x08hops-range-seed!"))
	f.Add(uint8(4), uint64(42), uint8(0), uint8(2), []byte("{\xff\x00AA\x10zzzzzzzzzzzzzzzz}"))

	var plans []*Engine
	built := parityPlans(f)
	for _, name := range []string{"combined", "latency+util", "bit-path", "deep-path", "triple-path", "multi-set"} {
		plans = append(plans, built[name])
	}
	f.Fuzz(func(t *testing.T, planSel uint8, seed uint64, first, nh uint8, data []byte) {
		eng := plans[int(planSel)%len(plans)]
		n := min(len(data)/8+1, 200)
		pkts, _ := parityBatch(seed, n)
		cols := hopColumns(seed, n, int(nh)%64+1)
		for i := 0; i+8 <= len(data) && i/8 < n; i += 8 {
			v := binary.LittleEndian.Uint64(data[i:])
			col := cols[(i/8)%len(cols)]
			switch (i / 8) % 4 {
			case 0:
				pkts[i/8].PktID = v
			case 1:
				col[i/8].Util = v
			case 2:
				col[i/8].LatencyNs = v
			case 3:
				col[i/8].SwitchID = v
			}
		}
		checkHopsParity(t, eng, pkts, int(first)%80, cols)
	})
}

// TestOneEncodePath keeps the oracle the only second implementation of a
// hop: no non-test file of this package may declare an EncodeHop method
// (the per-query extension point Compile could never dispatch to) or a
// batch-size cutoff that would route some batches around the column passes.
func TestOneEncodePath(t *testing.T) {
	second := regexp.MustCompile(`func \([^)]*\) EncodeHop\(|soaMinBatch`)
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if m := second.Find(src); m != nil {
			t.Errorf("%s declares %q: the column passes of soa.go are the one production encoder", f, m)
		}
	}
}

// TestEncodeHopBatchShortValsPanics pins the documented bounds contract:
// len(vals) < len(pkts) must panic up front, before any packet is mutated.
func TestEncodeHopBatchShortValsPanics(t *testing.T) {
	eng := parityPlans(t)["combined"]
	for _, n := range []int{2, 20} {
		pkts, vals := parityBatch(3, n)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("n=%d: short vals did not panic", n)
				}
			}()
			eng.EncodeHopBatch(1, pkts, vals[:n-1])
		}()
		for i := range pkts {
			if pkts[i].Digest != 0 || pkts[i].set != 0 {
				t.Fatalf("n=%d: packet %d mutated before bounds panic: %+v", n, i, pkts[i])
			}
		}
	}
}

// FuzzEncodeBatchParity is the differential-fuzz safety net of the column
// passes: arbitrary bytes pick a plan, a batch, and a hop sequence, and
// the passes must agree with the oracle bit for bit.
func FuzzEncodeBatchParity(f *testing.F) {
	f.Add(uint8(0), uint64(1), []byte("pint"))
	f.Add(uint8(1), uint64(0xF16), make([]byte, 25*24))
	f.Add(uint8(3), ^uint64(0), []byte("\x01\x02\x03\x04\x05\x06\x07\x08kernels-soa-parity-seed!"))
	f.Add(uint8(5), uint64(42), []byte("{\xff\x00AA\x10zzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzz}"))

	var plans []*Engine
	names := []string{"combined", "latency+util", "bit-path", "deep-path", "triple-path", "multi-set"}
	built := parityPlans(f)
	for _, name := range names {
		plans = append(plans, built[name])
	}

	f.Fuzz(func(t *testing.T, planSel uint8, seed uint64, data []byte) {
		eng := plans[int(planSel)%len(plans)]
		n := len(data)/8 + 1
		if n > 300 {
			n = 300
		}
		pkts, vals := parityBatch(seed, n)
		// Overlay fuzz bytes so the batch isn't purely hash-shaped:
		// adversarial pktIDs/values directly from the corpus.
		for i := 0; i+8 <= len(data) && i/8 < n; i += 8 {
			v := binary.LittleEndian.Uint64(data[i:])
			switch (i / 8) % 3 {
			case 0:
				pkts[i/8].PktID = v
			case 1:
				vals[i/8].Util = v
			case 2:
				vals[i/8].LatencyNs = v
			}
		}
		checkParity(t, eng, pkts, vals, []int{1, 2, 3, 1 + int(seed%70)})
	})
}

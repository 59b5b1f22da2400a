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

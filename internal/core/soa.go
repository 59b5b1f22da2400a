package core

import (
	"sync"

	"repro/internal/hash"
)

// This file is the Encoding Module: the one implementation of what a hop
// does to a digest. A batch is partitioned by query set once, each compiled
// op runs as one pass over flat columns (pktIDs, digests, per-op values),
// and the per-packet work collapses to a hash-column evaluation
// (internal/kernels) plus a branch-free select. The passes serve every
// batch size from one packet up; oracle_test.go restates each query kind
// packet by packet from the algorithm packages' definitions, and
// TestEncodeHopBatchSoAParity and FuzzEncodeBatchParity hold the passes to it
// bit for bit.

// soaScratch is one batch's worth of column storage, pooled so
// steady-state encoding allocates nothing. Engines are driven
// concurrently by exporter goroutines, so scratch lives in a pool rather
// than on the Engine.
type soaScratch struct {
	idx [][]int32 // per-set original packet indices
	pkt []uint64  // set's PktID column
	dig []uint64  // set's digest column
	h   []uint64  // hash column
	tmp []uint64  // offset / gathered-pktID column
	val []uint64  // gathered value column
	pay []uint64  // payload column
	lay []uint8   // per-packet coding-layer column
	act []int32   // compacted actor positions within the set's columns
}

var soaPool = sync.Pool{New: func() any { return new(soaScratch) }}

func growCol(c []uint64, n int) []uint64 {
	if cap(c) < n {
		return make([]uint64, n, n+n/2+8)
	}
	return c[:n]
}

// EncodeHopBatch applies hop `hop`'s Encoding Modules to every packet of a
// batch in place: pkts[i].Digest is rewritten using vals[i]. len(vals)
// must be at least len(pkts). This is the shape a shard worker or a
// line-rate simulation drives, 0 B/op at steady state. The packet's
// query-set and coding-layer selections are computed at its first hop and
// cached in the PacketDigest for the later hops and the Recording Module.
func (e *Engine) EncodeHopBatch(hop int, pkts []PacketDigest, vals []HopValues) {
	if len(pkts) == 0 {
		return
	}
	_ = vals[len(pkts)-1] // bounds hint
	s := soaPool.Get().(*soaScratch)
	// Pass 1: partition by query set, filling the per-packet set cache.
	for len(s.idx) < len(e.progs) {
		s.idx = append(s.idx, nil)
	}
	s.idx = s.idx[:len(e.progs)]
	for si := range s.idx {
		s.idx[si] = s.idx[si][:0]
	}
	for i := range pkts {
		if si := e.setIndexOf(&pkts[i]); si >= 0 {
			s.idx[si] = append(s.idx[si], int32(i))
		}
	}
	// Pass 2: per set, gather columns, run each op over the whole set,
	// scatter digests back.
	for si := range e.progs {
		if len(s.idx[si]) != 0 {
			e.progs[si].encodeColumns(hop, s, s.idx[si], pkts, vals)
		}
	}
	soaPool.Put(s)
}

func (p *encodeProgram) encodeColumns(hop int, s *soaScratch, idx []int32, pkts []PacketDigest, vals []HopValues) {
	n := len(idx)
	s.pkt = growCol(s.pkt, n)
	s.dig = growCol(s.dig, n)
	pktCol, digCol := s.pkt, s.dig
	for j, i := range idx {
		pktCol[j] = pkts[i].PktID
		digCol[j] = pkts[i].Digest
	}
	for oi := range p.ops {
		op := &p.ops[oi]
		switch op.kind {
		case opPath:
			op.soaPath(hop, s, idx, pkts, vals, pktCol, digCol)
		case opLatency:
			op.soaLatency(hop, s, idx, vals, pktCol, digCol)
		case opUtil:
			op.soaUtil(hop, s, idx, vals, pktCol, digCol)
		}
	}
	for j, i := range idx {
		pkts[i].Digest = digCol[j]
	}
}

// soaLatency: reservoir overwrite with the compressed value. Winners are
// a 1/hop fraction, so the compressor runs only for them, behind a
// one-entry value→code memo (hop latencies repeat heavily in a batch).
func (op *encodeOp) soaLatency(hop int, s *soaScratch, idx []int32, vals []HopValues, pktCol, digCol []uint64) {
	shift, mask := op.shift, op.mask
	keep := ^(mask << shift)
	comp := op.lat.comp
	var lastV, lastCode uint64
	have := false
	if hop <= 1 {
		for j, i := range idx {
			if v := vals[i].LatencyNs; !have || v != lastV {
				lastV, lastCode, have = v, comp.Encode(float64(v)), true
			}
			digCol[j] = digCol[j]&keep | (lastCode&mask)<<shift
		}
		return
	}
	s.h = growCol(s.h, len(idx))
	h := s.h
	op.resG.ActHashColumn(h, pktCol, uint64(hop))
	thr := hash.ReservoirThreshold(hop)
	for j, i := range idx {
		if h[j] >= thr {
			continue
		}
		if v := vals[i].LatencyNs; !have || v != lastV {
			lastV, lastCode, have = v, comp.Encode(float64(v)), true
		}
		digCol[j] = digCol[j]&keep | (lastCode&mask)<<shift
	}
}

// soaUtil: max-aggregation of randomized-rounded codes. The log/floor
// decomposition is memoized per distinct value (RandomizedParts); the
// per-packet coin is one hash column keyed pktID + hop<<48 under
// EncodeRandomized's dedicated 1<<20 coin index.
func (op *encodeOp) soaUtil(hop int, s *soaScratch, idx []int32, vals []HopValues, pktCol, digCol []uint64) {
	n := len(idx)
	shift, mask := op.shift, op.mask
	keep := ^(mask << shift)
	comp := op.util.comp
	maxCode := comp.MaxCode()
	s.h = growCol(s.h, n)
	s.tmp = growCol(s.tmp, n)
	h, tmp := s.h, s.tmp
	off := uint64(hop) << 48
	for j, p := range pktCol {
		tmp[j] = p + off
	}
	op.util.g.ActHashColumn(h, tmp, 1<<20)
	var lastRaw, lo, coinThr uint64
	var always, have bool
	for j, i := range idx {
		if raw := vals[i].Util; !have || raw != lastRaw {
			lo, coinThr, always = comp.RandomizedParts(float64(raw))
			lastRaw, have = raw, true
		}
		code := lo
		if always || h[j] < coinThr {
			code++
		}
		if code > maxCode {
			code = maxCode
		}
		old := digCol[j] >> shift & mask
		if old > code {
			code = old
		}
		digCol[j] = digCol[j]&keep | code<<shift
	}
}

// soaPath: the distributed-coding op (hashed mode, the only one
// NewPathQuery admits). Layer selections ride the PacketDigest cache; act
// decisions are one hash column against per-layer thresholds; acting
// packets are compacted and each hash instance's payload is one value-hash
// column folded into the digest column with overwrite (Baseline) or xor
// (XOR layers) selects.
func (op *encodeOp) soaPath(hop int, s *soaScratch, idx []int32, pkts []PacketDigest, vals []HopValues, pktCol, digCol []uint64) {
	enc := op.pathEnc
	cfg := enc.Config()
	n := len(idx)
	if cap(s.lay) < n {
		s.lay = make([]uint8, n, n+n/2+8)
	}
	s.lay = s.lay[:n]
	lay := s.lay
	if pi := op.pathIdx; pi >= 0 {
		for j, i := range idx {
			if c := pkts[i].layers[pi]; c != 0 {
				lay[j] = c - 1
			} else {
				l := uint8(enc.LayerOf(pktCol[j]))
				pkts[i].layers[pi] = l + 1
				lay[j] = l
			}
		}
	} else {
		for j := range pktCol {
			lay[j] = uint8(enc.LayerOf(pktCol[j]))
		}
	}

	var thrArr [8]uint64
	var alwArr [8]bool
	thr, alw := thrArr[:], alwArr[:]
	nl := cfg.Layering.Layers()
	if nl+1 > len(thrArr) {
		thr = make([]uint64, nl+1)
		alw = make([]bool, nl+1)
	}
	for l := 0; l <= nl; l++ {
		thr[l], alw[l] = enc.ActConst(hop, l)
	}
	s.h = growCol(s.h, n)
	h := s.h
	enc.ActGlobal().ActHashColumn(h, pktCol, uint64(hop))
	s.act = s.act[:0]
	for j := range pktCol {
		l := lay[j]
		if alw[l] || h[j] < thr[l] {
			s.act = append(s.act, int32(j))
		}
	}
	act := s.act
	if len(act) == 0 {
		return
	}

	na := len(act)
	s.val = growCol(s.val, na)
	s.tmp = growCol(s.tmp, na)
	s.pay = growCol(s.pay, na)
	valCol, tmp, pay := s.val, s.tmp, s.pay
	for t, j := range act {
		valCol[t] = vals[idx[j]].SwitchID
		tmp[t] = pktCol[j]
	}
	width, wmask := op.pathBits, op.pathWordMask
	for inst := 0; inst < op.pathN; inst++ {
		enc.InstanceGlobal(inst).ValueDigestColumn(pay, valCol, tmp, cfg.Bits)
		ishift := op.shift + uint(inst)*width
		ikeep := ^(wmask << ishift)
		for t, j := range act {
			w := pay[t]
			var c uint64
			if lay[j] != 0 {
				c = 1
			}
			// XOR layers fold into the existing word; Baseline overwrites.
			w ^= digCol[j] >> ishift & wmask & -c
			digCol[j] = digCol[j]&ikeep | (w&wmask)<<ishift
		}
	}
}

package core

import (
	"sync"

	"repro/internal/hash"
)

// This file is the Encoding Module: the one implementation of what a hop
// does to a digest. The unit is a range of consecutive hops: a batch is
// partitioned by query set once, its PktID and Digest columns are gathered
// once, each compiled op runs every hop of the range over those resident
// columns, and the digests are scattered back once. Inside a range each op
// does only what its semantics leave observable: the latency reservoir and
// a Baseline path word keep the last hop that writes them, so each packet's
// last writer is found from one first hash round (hash.ActKeyColumn) and
// only its value is compressed or hashed; XOR path layers fold every
// acting hop, and util takes the max of every hop's code. One hop is the
// range of length one (EncodeHopBatch). oracle_test.go restates each query
// kind packet by packet and hop by hop from the algorithm packages'
// definitions, and TestEncodeHopBatchSoAParity, TestEncodeHopsParity and
// the two parity fuzz targets hold the passes to it bit for bit.

// soaScratch is one batch's worth of column storage, pooled so
// steady-state encoding allocates nothing. Engines are driven
// concurrently by exporter goroutines, so scratch lives in a pool rather
// than on the Engine.
type soaScratch struct {
	idx [][]int32 // per-set original packet indices
	pkt []uint64  // set's PktID column
	dig []uint64  // set's digest column
	h   []uint64  // hash column: act keys, or coin hashes
	tmp []uint64  // offset column, or acting packets' IDs
	val []uint64  // acting packets' values
	pay []uint64  // payload column
	thr []uint64  // reservoir threshold of each hop of the range
	lay []uint8   // per-packet coding-layer column
	act []int32   // acting packets' positions within the set's columns
}

var soaPool = sync.Pool{New: func() any { return new(soaScratch) }}

func growCol(c []uint64, n int) []uint64 {
	if cap(c) < n {
		return make([]uint64, n, n+n/2+8)
	}
	return c[:n]
}

func growIdx(c []int32, n int) []int32 {
	if cap(c) < n {
		return make([]int32, n, n+n/2+8)
	}
	return c[:n]
}

// EncodeHopBatch applies hop `hop`'s Encoding Modules to every packet of a
// batch in place: pkts[i].Digest is rewritten using vals[i]. len(vals)
// must be at least len(pkts). It is EncodeHops over the one hop. The
// packet's query-set and coding-layer selections are computed at its first
// hop and cached in the PacketDigest for the later hops and the Recording
// Module.
func (e *Engine) EncodeHopBatch(hop int, pkts []PacketDigest, vals []HopValues) {
	one := [1][]HopValues{vals}
	e.EncodeHops(hop, pkts, one[:])
}

// EncodeHops applies hops first, first+1, …, first+len(vals)-1 to every
// packet of a batch in place, in that order: vals[h][i] is what hop
// first+h observed of pkts[i], and each vals[h] must be at least
// len(pkts) long. The digests equal one EncodeHopBatch call per hop; a
// caller that holds all of a flow's hops (a traffic generator, a
// simulation without queues) pays the partition, gather and scatter once
// and each packet's reservoir decisions from one hash round. This is the
// shape an exporter or a line-rate simulation drives, 0 B/op at steady
// state.
func (e *Engine) EncodeHops(first int, pkts []PacketDigest, vals [][]HopValues) {
	if len(pkts) == 0 || len(vals) == 0 {
		return
	}
	for _, v := range vals {
		_ = v[len(pkts)-1] // bounds: panic before any packet is touched
	}
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
	s.thr = growCol(s.thr, len(vals))
	for t := range s.thr {
		s.thr[t] = hash.ReservoirThreshold(first + t)
	}
	// Pass 2: per set, gather columns, run each op over the whole range,
	// scatter digests back.
	for si := range e.progs {
		if len(s.idx[si]) != 0 {
			e.progs[si].encodeColumns(first, s, s.idx[si], pkts, vals)
		}
	}
	soaPool.Put(s)
}

func (p *encodeProgram) encodeColumns(first int, s *soaScratch, idx []int32, pkts []PacketDigest, vals [][]HopValues) {
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
			op.soaPath(first, s, idx, pkts, vals, pktCol, digCol)
		case opLatency:
			op.soaLatency(first, s, idx, vals, pktCol, digCol)
		case opUtil:
			op.soaUtil(first, s, idx, vals, pktCol, digCol)
		}
	}
	for j, i := range idx {
		pkts[i].Digest = digCol[j]
	}
}

// alwaysWrites returns the index of the last hop of the range [first,
// first+nh) that writes under reservoir sampling whatever its hash (hops
// <= 1), or -1 when every hop of the range decides by hash.
func alwaysWrites(first, nh int) int {
	if first > 1 {
		return -1
	}
	return min(1-first, nh-1)
}

// lastWriter returns the index of the last hop of the range whose
// reservoir write fires on the packet with act key key (thr[t]: hop
// first+t's threshold), or -1 when none does. It searches down from the
// range's end, so the hops before the winner are never hashed.
func lastWriter(key uint64, first int, thr []uint64, always int) int {
	for t := len(thr) - 1; t > always; t-- {
		if hash.ActAt(key, uint64(first+t)) < thr[t] {
			return t
		}
	}
	return always
}

// soaLatency: reservoir overwrite with the compressed value. Only a
// packet's last writing hop of the range shows, so its value alone is
// compressed, by range match (MultCompressor.EncodeUint).
func (op *encodeOp) soaLatency(first int, s *soaScratch, idx []int32, vals [][]HopValues, pktCol, digCol []uint64) {
	shift, mask := op.shift, op.mask
	keep := ^(mask << shift)
	comp := op.lat.comp
	nh := len(vals)
	always := alwaysWrites(first, nh)
	if always == nh-1 {
		last := vals[nh-1]
		for j, i := range idx {
			digCol[j] = digCol[j]&keep | (comp.EncodeUint(last[i].LatencyNs)&mask)<<shift
		}
		return
	}
	s.h = growCol(s.h, len(idx))
	h := s.h
	op.resG.ActKeyColumn(h, pktCol)
	for j, i := range idx {
		if t := lastWriter(h[j], first, s.thr, always); t >= 0 {
			digCol[j] = digCol[j]&keep | (comp.EncodeUint(vals[t][i].LatencyNs)&mask)<<shift
		}
	}
}

// soaUtil: max-aggregation of randomized-rounded codes, every hop of the
// range in turn. The log/floor decomposition is memoized per distinct
// value (RandomizedParts); the per-packet coin is one hash column keyed
// pktID + hop<<48 under EncodeRandomized's dedicated 1<<20 coin index.
func (op *encodeOp) soaUtil(first int, s *soaScratch, idx []int32, vals [][]HopValues, pktCol, digCol []uint64) {
	n := len(idx)
	shift, mask := op.shift, op.mask
	keep := ^(mask << shift)
	comp := op.util.comp
	maxCode := comp.MaxCode()
	s.h = growCol(s.h, n)
	s.tmp = growCol(s.tmp, n)
	h, tmp := s.h, s.tmp
	var lastRaw, lo, coinThr uint64
	var always, have bool
	for t, hv := range vals {
		off := uint64(first+t) << 48
		for j, p := range pktCol {
			tmp[j] = p + off
		}
		op.util.g.ActHashColumn(h, tmp, 1<<20)
		for j, i := range idx {
			if raw := hv[i].Util; !have || raw != lastRaw {
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
}

// soaPath: the distributed-coding op (hashed mode, the only one
// NewPathQuery admits). Layer selections ride the PacketDigest cache. Each
// packet's act decisions over the range complete one act key: a Baseline
// packet keeps only its last acting hop (the word is overwritten), an XOR
// packet every acting hop. The (packet, hop) pairs are compacted and each
// hash instance's payload is one value-hash column over all of them,
// folded into the digest column with overwrite (Baseline) or xor (XOR
// layers) selects.
func (op *encodeOp) soaPath(first int, s *soaScratch, idx []int32, pkts []PacketDigest, vals [][]HopValues, pktCol, digCol []uint64) {
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

	// XOR layer l acts when its key completes below thr[l] (or always);
	// the threshold does not depend on the hop. Layer 0 is the reservoir.
	var thrArr [8]uint64
	var alwArr [8]bool
	thr, alw := thrArr[:], alwArr[:]
	nl := cfg.Layering.Layers()
	if nl+1 > len(thrArr) {
		thr = make([]uint64, nl+1)
		alw = make([]bool, nl+1)
	}
	for l := 1; l <= nl; l++ {
		thr[l], alw[l] = enc.ActConst(first, l)
	}
	nh := len(vals)
	always := alwaysWrites(first, nh)
	s.h = growCol(s.h, n)
	h := s.h
	enc.ActGlobal().ActKeyColumn(h, pktCol)
	// Compact the acting (packet, hop) pairs: each one's position, value
	// and packet ID.
	s.act = growIdx(s.act, n*nh)
	s.val = growCol(s.val, n*nh)
	s.tmp = growCol(s.tmp, n*nh)
	act, valCol, tmp := s.act, s.val, s.tmp
	na := 0
	for j, i := range idx {
		l := lay[j]
		if l == 0 {
			if t := lastWriter(h[j], first, s.thr, always); t >= 0 {
				act[na], valCol[na], tmp[na] = int32(j), vals[t][i].SwitchID, pktCol[j]
				na++
			}
			continue
		}
		for t, hv := range vals {
			if alw[l] || hash.ActAt(h[j], uint64(first+t)) < thr[l] {
				act[na], valCol[na], tmp[na] = int32(j), hv[i].SwitchID, pktCol[j]
				na++
			}
		}
	}
	if na == 0 {
		return
	}
	act, valCol, tmp = act[:na], valCol[:na], tmp[:na]
	s.pay = growCol(s.pay, na)
	pay := s.pay
	width, wmask := op.pathBits, op.pathWordMask
	for inst := 0; inst < op.pathN; inst++ {
		enc.InstanceGlobal(inst).ValueDigestColumn(pay, valCol, tmp, cfg.Bits)
		ishift := op.shift + uint(inst)*width
		ikeep := ^(wmask << ishift)
		for x, j := range act {
			w := pay[x]
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

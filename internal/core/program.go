package core

import (
	"fmt"

	"repro/internal/approx"
	"repro/internal/coding"
	"repro/internal/hash"
)

// This file is the compiled form of the execution plan: each QuerySet is
// lowered at Compile time into a flat sequence of encodeOps carrying
// precomputed shifts, masks, and direct query-kind dispatch, so the
// per-packet hot path runs with no interface calls, no closures, and no
// allocations. The same ops drive switch-side encoding (EncodeHopValues /
// EncodeHopBatch), sink-side extraction (ExtractInto), and the Recording
// Module's batched ingest.

// HopValues carries everything a switch observes at one hop, one field per
// query kind; the compiled encoder reads only the fields its plan needs.
// It replaces the per-packet `func(Query) uint64` closure of EncodeHop.
type HopValues struct {
	// SwitchID feeds PathQuery (the hop's block value).
	SwitchID uint64
	// LatencyNs feeds LatencyQuery (the hop's observed latency).
	LatencyNs uint64
	// Util feeds UtilQuery, pre-scaled to integer register units via
	// UtilQuery.EncodeValue.
	Util uint64
	// FreqValue feeds FreqQuery (e.g. the egress port).
	FreqValue uint64
	// CountFired feeds CountQuery: nonzero means this hop's indicator
	// fired.
	CountFired uint64
}

// PacketDigest is one packet's telemetry state moving through the batch
// pipeline: the flow it belongs to, its path length as known at the sink
// (from the received TTL), its ID, and the digest it carries.
type PacketDigest struct {
	Flow    FlowKey
	PktID   uint64
	PathLen int
	Digest  uint64
	// set caches the packet's query-set selection (0: not yet computed,
	// -1: unassigned mass, i: set i-1). The selection is a pure function
	// of PktID, so EncodeHopBatch computes it at the first hop and every
	// later hop — and the Recording Module — reuses it. The cache is
	// engine-specific: reuse a PacketDigest only with the engine that
	// filled it (the zero value always recomputes).
	set int16
	// layers caches the coding-layer selection of up to two path queries
	// (value = layer+1; 0 = not yet computed) — the same pure-function
	// memoization as set, maintained by EncodeHopBatch.
	layers [2]uint8
}

// setIndexOf resolves (and caches) a packet's query-set index.
func (e *Engine) setIndexOf(p *PacketDigest) int {
	if p.set == 0 {
		if si := e.SetIndex(p.PktID); si >= 0 {
			p.set = int16(si + 1)
		} else {
			p.set = -1
		}
	}
	if p.set < 0 {
		return -1
	}
	return int(p.set) - 1
}

// opKind is the direct-dispatch tag of one compiled encode/record op.
type opKind uint8

const (
	opPath opKind = iota
	opLatency
	opUtil
	opFreq
	opCount
)

// encodeOp is one query's slot in a compiled set: where its slice lives in
// the digest and a devirtualized handle to the query itself. Exactly one
// of the typed pointers is non-nil, per kind.
type encodeOp struct {
	kind  opKind
	shift uint
	mask  uint64
	slot  int   // the query's index in a flow's recorded state (Engine.slots)
	q     Query // the original query, for Extracted
	path  *PathQuery
	lat   *LatencyQuery
	util  *UtilQuery
	freq  *FreqQuery
	cnt   *CountQuery
	// morrisBase is CountQuery's growth base, hoisted out of the loop.
	morrisBase float64
	// morrisThr[c] is the coin threshold for one Morris increment from
	// code c (^0 = always fires), precomputed at compile time for the
	// op-major pass; nil when the counter is too wide to table.
	morrisThr []uint64
	// resG points at the latency/freq query's hash family so reservoir
	// decisions skip the per-hop 48-byte Global copy.
	resG *hash.Global
	// Path-query constants, hoisted so the per-hop loop unpacks and
	// repacks instance words without touching the query's config.
	pathEnc      *coding.Encoder
	pathN        int
	pathBits     uint
	pathWordMask uint64
	// pathIdx is this path op's slot in PacketDigest's layer cache
	// (-1: beyond the cache, recompute per hop).
	pathIdx int8
}

// encodeProgram is the compiled form of one QuerySet.
type encodeProgram struct {
	ops []encodeOp
}

// compileProgram lowers one QuerySet. The query universe is closed (the
// five core kinds), matching the Recording Module's dispatch; an unknown
// Query implementation is a compile-time error rather than a silent
// fallback to the slow path.
func compileProgram(set QuerySet, slots map[Query]int) (encodeProgram, error) {
	prog := encodeProgram{ops: make([]encodeOp, len(set.Queries))}
	nPath := 0
	for i, q := range set.Queries {
		op := encodeOp{
			shift: uint(set.Offsets[i]),
			mask:  digestMask(q.Bits()),
			slot:  slots[q],
			q:     q,
		}
		switch qq := q.(type) {
		case *PathQuery:
			op.kind, op.path = opPath, qq
			op.pathEnc = qq.enc
			op.pathN = qq.instances()
			op.pathBits = uint(qq.cfg.Bits)
			op.pathWordMask = digestMask(qq.cfg.Bits)
			if op.pathIdx = int8(nPath); nPath >= 2 {
				op.pathIdx = -1
			}
			nPath++
		case *LatencyQuery:
			op.kind, op.lat = opLatency, qq
			op.resG = &qq.g
		case *UtilQuery:
			op.kind, op.util = opUtil, qq
		case *FreqQuery:
			op.kind, op.freq = opFreq, qq
			op.resG = &qq.g
		case *CountQuery:
			op.kind, op.cnt = opCount, qq
			op.morrisBase = approx.MorrisBase(qq.eps)
			if qq.bits <= morrisTableMaxBits {
				max := uint64(1)<<uint(qq.bits) - 1
				op.morrisThr = make([]uint64, max)
				for c := uint64(0); c < max; c++ {
					thr, always := approx.MorrisIncrementThreshold(op.morrisBase, c)
					if always {
						thr = ^uint64(0)
					}
					op.morrisThr[c] = thr
				}
			}
		default:
			return encodeProgram{}, fmt.Errorf("core: query %q has unsupported type %T", q.Name(), q)
		}
		prog.ops[i] = op
	}
	return prog, nil
}

// SetIndex returns the index of the query set packet pktID serves, or -1
// when its selection point falls in unassigned probability mass.
func (e *Engine) SetIndex(pktID uint64) int {
	u := e.g.QueryPoint(pktID)
	for i, c := range e.cum {
		if u < c {
			return i
		}
	}
	return -1
}

// EncodeHopValues is the compiled switch-side entry point: it applies hop
// `hop`'s Encoding Modules to the digest using the precomputed program —
// the zero-allocation equivalent of EncodeHop with a closure.
func (e *Engine) EncodeHopValues(pktID uint64, hop int, digest uint64, v *HopValues) uint64 {
	si := e.SetIndex(pktID)
	if si < 0 {
		return digest
	}
	return e.progs[si].encodeHop(pktID, hop, digest, v, nil)
}

// EncodeHopBatch applies hop `hop`'s Encoding Modules to every packet of a
// batch in place: pkts[i].Digest is rewritten using vals[i]. len(vals)
// must be at least len(pkts). This is the shape a shard worker or a
// line-rate simulation drives: batches of soaMinBatch packets or more run
// the op-major column passes of EncodeHopBatchSoA (see soa.go), smaller
// ones the packet-major loop — both bit-identical and 0 B/op at steady
// state.
func (e *Engine) EncodeHopBatch(hop int, pkts []PacketDigest, vals []HopValues) {
	if len(pkts) == 0 {
		return
	}
	_ = vals[len(pkts)-1] // bounds hint
	if len(pkts) < soaMinBatch {
		e.encodeHopBatchScalar(hop, pkts, vals)
		return
	}
	e.EncodeHopBatchSoA(hop, pkts, vals)
}

// encodeHopBatchScalar is the packet-major reference loop: the routing
// target for small batches and the oracle the SoA parity tests and
// FuzzEncodeBatchParity compare against.
func (e *Engine) encodeHopBatchScalar(hop int, pkts []PacketDigest, vals []HopValues) {
	for i := range pkts {
		pkt := &pkts[i]
		si := e.setIndexOf(pkt)
		if si < 0 {
			continue
		}
		pkt.Digest = e.progs[si].encodeHop(pkt.PktID, hop, pkt.Digest, &vals[i], pkt)
	}
}

func (p *encodeProgram) encodeHop(pktID uint64, hop int, digest uint64, v *HopValues, pkt *PacketDigest) uint64 {
	for i := range p.ops {
		op := &p.ops[i]
		slice := digest >> op.shift & op.mask
		switch op.kind {
		case opPath:
			var layer int
			var act bool
			if pkt != nil && op.pathIdx >= 0 {
				if c := pkt.layers[op.pathIdx]; c != 0 {
					layer = int(c) - 1
				} else {
					layer = op.pathEnc.LayerOf(pktID)
					pkt.layers[op.pathIdx] = uint8(layer + 1)
				}
				act = op.pathEnc.ActsInLayer(pktID, hop, layer)
			} else {
				layer, act = op.pathEnc.ActsOn(pktID, hop)
			}
			if !act {
				break
			}
			slice = applyPathWords(op.pathEnc, pktID, layer, slice,
				op.pathN, op.pathBits, op.pathWordMask, v.SwitchID)
		case opLatency:
			if op.resG.ReservoirWritesP(pktID, hop) {
				slice = op.lat.comp.Encode(float64(v.LatencyNs))
			}
		case opUtil:
			if code := op.util.comp.EncodeRandomized(float64(v.Util), op.util.g,
				pktID+uint64(hop)<<48); code > slice {
				slice = code
			}
		case opFreq:
			if op.resG.ReservoirWritesP(pktID, hop) {
				slice = v.FreqValue
			}
		case opCount:
			if v.CountFired != 0 {
				slice = approx.MorrisNextCode(op.morrisBase, op.cnt.bits, slice,
					op.cnt.g, pktID, uint64(hop))
			}
		}
		slice &= op.mask
		digest = digest&^(op.mask<<op.shift) | slice<<op.shift
	}
	return digest
}

// ExtractInto is the zero-allocation form of Extract: it appends the
// packet's per-query slices to buf (typically buf[:0] of a reused buffer)
// and returns the extended slice.
func (e *Engine) ExtractInto(pktID uint64, digest uint64, buf []Extracted) []Extracted {
	si := e.SetIndex(pktID)
	if si < 0 {
		return buf
	}
	return e.extractOps(si, digest, buf)
}

// ExtractPacketInto is ExtractInto for a pipeline packet, reusing (and
// filling) its cached query-set selection.
func (e *Engine) ExtractPacketInto(pkt *PacketDigest, buf []Extracted) []Extracted {
	si := e.setIndexOf(pkt)
	if si < 0 {
		return buf
	}
	return e.extractOps(si, pkt.Digest, buf)
}

func (e *Engine) extractOps(si int, digest uint64, buf []Extracted) []Extracted {
	ops := e.progs[si].ops
	for i := range ops {
		buf = append(buf, Extracted{
			Query: ops[i].q,
			Bits:  digest >> ops[i].shift & ops[i].mask,
		})
	}
	return buf
}

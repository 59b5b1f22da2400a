package core

import (
	"fmt"

	"repro/internal/coding"
	"repro/internal/hash"
)

// This file is the compiled form of the execution plan: each QuerySet is
// lowered at Compile time into a flat sequence of encodeOps carrying
// precomputed shifts, masks, and direct query-kind dispatch, so the
// per-packet hot path runs with no interface calls, no closures, and no
// allocations. The same ops drive switch-side encoding (the column passes
// of soa.go behind EncodeHops / EncodeHopBatch / EncodeHopValues), sink-side extraction
// (ExtractInto), and the Recording Module's batched ingest.

// HopValues carries everything a switch observes at one hop, one field per
// query kind; the compiled encoder reads only the fields its plan needs.
type HopValues struct {
	// SwitchID feeds PathQuery (the hop's block value).
	SwitchID uint64
	// LatencyNs feeds LatencyQuery (the hop's observed latency).
	LatencyNs uint64
	// Util feeds UtilQuery, pre-scaled to integer register units via
	// UtilQuery.EncodeValue.
	Util uint64
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
	// resG points at the latency query's hash family so reservoir
	// decisions skip the per-hop 40-byte Global copy.
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
// three core kinds), matching the Recording Module's dispatch; an unknown
// Query implementation is a compile-time error.
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

// EncodeHopValues is EncodeHopBatch for one packet that is not part of a
// batch (a simulator's per-dequeue hook): the same column passes over
// one-element columns on the caller's stack, 0 allocs.
func (e *Engine) EncodeHopValues(pktID uint64, hop int, digest uint64, v *HopValues) uint64 {
	pkt := [1]PacketDigest{{PktID: pktID, Digest: digest}}
	val := [1]HopValues{*v}
	e.EncodeHopBatch(hop, pkt[:], val[:])
	return pkt[0].Digest
}

// Extracted is one query's digest slice recovered at the sink.
type Extracted struct {
	Query Query
	Bits  uint64
}

// ExtractInto splits a sink-captured digest into per-query slices: it
// appends them to buf (typically buf[:0] of a reused buffer, so nothing is
// allocated) and returns the extended slice; a packet in unassigned
// probability mass appends nothing.
func (e *Engine) ExtractInto(pktID uint64, digest uint64, buf []Extracted) []Extracted {
	si := e.SetIndex(pktID)
	if si < 0 {
		return buf
	}
	ops := e.progs[si].ops
	for i := range ops {
		buf = append(buf, Extracted{
			Query: ops[i].q,
			Bits:  digest >> ops[i].shift & ops[i].mask,
		})
	}
	return buf
}

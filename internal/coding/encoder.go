package coding

import (
	"fmt"

	"repro/internal/hash"
)

// Mode selects how block values become digest bits.
type Mode int

const (
	// ModeRaw writes/xors the block bits directly; values wider than the
	// budget are fragmented (§4.2, fragmentation).
	ModeRaw Mode = iota
	// ModeHashed writes/xors h(value, pkt) truncated to the budget;
	// decoding infers values from a known universe (§4.2, hashing).
	ModeHashed
)

func (m Mode) String() string {
	switch m {
	case ModeRaw:
		return "raw"
	case ModeHashed:
		return "hashed"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config fully describes one static per-flow aggregation instance. The
// same Config must be shared by every encoder on the path and by the
// decoder — in a deployment it is distributed by the Query Engine.
type Config struct {
	// Bits is the per-packet digest budget b for one hash instance.
	Bits int
	// Mode selects raw (fragmented) or hashed encoding.
	Mode Mode
	// ValueBits is the width q of each block value (raw mode only); the
	// scheme fragments values into ⌈q/b⌉ pieces when q > Bits.
	ValueBits int
	// Layering distributes packets over Baseline/XOR layers.
	Layering Layering
	// Instances is the number of independent hash repetitions carried on
	// each packet (hashed mode; "2×(b=8)" in Fig 10 uses 2). Zero means 1.
	Instances int
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Bits < 1 || c.Bits > 64 {
		return fmt.Errorf("coding: digest bits %d out of [1,64]", c.Bits)
	}
	if err := c.Layering.Validate(); err != nil {
		return err
	}
	switch c.Mode {
	case ModeRaw:
		if c.ValueBits < 1 || c.ValueBits > 64 {
			return fmt.Errorf("coding: value bits %d out of [1,64]", c.ValueBits)
		}
	case ModeHashed:
		if c.Instances < 0 {
			return fmt.Errorf("coding: negative instance count")
		}
	default:
		return fmt.Errorf("coding: unknown mode %v", c.Mode)
	}
	return nil
}

func (c Config) instances() int {
	if c.Mode == ModeHashed && c.Instances > 1 {
		return c.Instances
	}
	return 1
}

// Fragments returns the number of fragments F = ⌈q/b⌉ (1 in hashed mode).
func (c Config) Fragments() int {
	if c.Mode != ModeRaw || c.ValueBits <= c.Bits {
		return 1
	}
	return (c.ValueBits + c.Bits - 1) / c.Bits
}

// TotalBits is the full per-packet overhead: Bits × instances.
func (c Config) TotalBits() int { return c.Bits * c.instances() }

// fragment extracts fragment f (0-based) of a raw value: bits
// [f·b, min((f+1)·b, q)).
func (c Config) fragment(value uint64, f int) uint64 {
	lo := uint(f * c.Bits)
	width := uint(c.Bits)
	if lo+width > uint(c.ValueBits) {
		width = uint(c.ValueBits) - lo
	}
	return (value >> lo) & ((1 << width) - 1)
}

// Digest is what one packet carries for this query: one word per hash
// instance, each Config.Bits wide. The zero Digest is the PINT Source's
// initial all-zeros bitstring.
type Digest struct {
	Words []uint64
}

// NewDigest returns the initial digest for a packet.
func (c Config) NewDigest() Digest {
	return Digest{Words: make([]uint64, c.instances())}
}

// Encoder is the switch-side Encoding Module for static per-flow
// aggregation. It is stateless (switches cannot keep per-flow state); every
// decision derives from the global hash family and the packet ID.
type Encoder struct {
	cfg Config
	g   hash.Global
	// insts are the value-hash families for the independent repetitions;
	// insts[0] is g itself.
	insts []hash.Global
	// layerThresh[i] is the precomputed act threshold of XOR layer i+1
	// (hash.Threshold of Layering.Probs[i]), hoisted out of acts.
	layerThresh []uint64
}

// NewEncoder builds an encoder from a validated config and the shared
// global hash family.
func NewEncoder(cfg Config, g hash.Global) (*Encoder, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &Encoder{cfg: cfg, g: g}
	e.insts = make([]hash.Global, cfg.instances())
	for i := range e.insts {
		e.insts[i] = g.Instance(i)
	}
	e.layerThresh = make([]uint64, len(cfg.Layering.Probs))
	for i, p := range cfg.Layering.Probs {
		e.layerThresh[i] = hash.Threshold(p)
	}
	return e, nil
}

// Config returns the encoder's configuration.
func (e *Encoder) Config() Config { return e.cfg }

// layerOf returns the packet's layer (0 = Baseline) — identical at every
// hop and at the decoder.
func (e *Encoder) layerOf(pktID uint64) int {
	return e.cfg.Layering.Select(e.g.LayerPoint(pktID))
}

// acts reports whether hop (1-based) modifies packet pktID, and in which
// layer. Baseline hops "act" when they win the running reservoir so far —
// the final writer is the last acting hop.
func (e *Encoder) acts(pktID uint64, hop, layer int) bool {
	if layer == 0 {
		return e.g.ReservoirWritesP(pktID, hop)
	}
	return e.g.ActBelow(pktID, hop, e.layerThresh[layer-1])
}

// payload computes what hop contributes to instance i of the digest.
func (e *Encoder) payload(pktID uint64, inst int, value uint64) uint64 {
	if e.cfg.Mode == ModeHashed {
		return e.insts[inst].ValueDigest(value, pktID, e.cfg.Bits)
	}
	f := e.g.Fragment(pktID, e.cfg.Fragments())
	return e.cfg.fragment(value, f)
}

// EncodeHop simulates hop number `hop` (1-based) processing the packet:
// given the digest as received, it returns the digest to forward. `value`
// is the hop's block M_hop (e.g. its switch ID). This is the function a
// P4 pipeline implements in four stages (§5).
func (e *Encoder) EncodeHop(pktID uint64, hop int, d Digest, value uint64) Digest {
	layer := e.layerOf(pktID)
	if !e.acts(pktID, hop, layer) {
		return d
	}
	out := Digest{Words: append([]uint64(nil), d.Words...)}
	for i := range out.Words {
		p := e.payload(pktID, i, value)
		if layer == 0 {
			out.Words[i] = p // overwrite: reservoir write
		} else {
			out.Words[i] ^= p // xor layer
		}
	}
	return out
}

// LayerOf returns the packet's layer selection (0 = Baseline). It is a
// pure function of the packet ID, so batch pipelines cache it per packet
// instead of rehashing at every hop.
func (e *Encoder) LayerOf(pktID uint64) int { return e.layerOf(pktID) }

// EncodePath runs the packet through the whole path values[0..k-1]
// (values[i] is hop i+1's block) and returns the final digest the sink
// extracts. Convenience for simulations that do not model queuing.
func (e *Encoder) EncodePath(pktID uint64, values []uint64) Digest {
	d := e.cfg.NewDigest()
	for i, v := range values {
		d = e.EncodeHop(pktID, i+1, d, v)
	}
	return d
}

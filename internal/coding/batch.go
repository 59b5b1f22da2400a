package coding

import "repro/internal/hash"

// Batch accessors: the loop-invariant constants the op-major encode path
// hoists out of its per-packet columns. Each is the exact integer form of
// a decision acts()/payload() makes per packet, pinned by TestActConst
// and the core parity suite.

// ActConst returns the integer act-decision constant for (hop, layer):
// the packet acts exactly when g(pkt, hop) < thr, or unconditionally when
// always. Layer 0 is the Baseline reservoir (hops <= 1 always write);
// XOR layers compare against the layer's precomputed threshold.
func (e *Encoder) ActConst(hop, layer int) (thr uint64, always bool) {
	if layer == 0 {
		if hop <= 1 {
			return 0, true
		}
		return hash.ReservoirThreshold(hop), false
	}
	t := e.layerThresh[layer-1]
	if t == ^uint64(0) {
		return 0, true
	}
	return t, false
}

// ActGlobal exposes the encoder's global hash family so batch callers
// can evaluate act-decision columns (hash.Global.ActHashColumn) against
// ActConst thresholds — the same family acts() consults per packet.
func (e *Encoder) ActGlobal() *hash.Global { return &e.g }

// InstanceGlobal returns the value-hash family of hash instance i
// (0 <= i < Config().TotalBits()/Config().Bits) — the family payload()
// consults for that instance in hashed mode.
func (e *Encoder) InstanceGlobal(i int) *hash.Global { return &e.insts[i] }

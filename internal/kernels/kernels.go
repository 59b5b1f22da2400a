// Package kernels holds the columnar primitives behind the op-major
// encode hot path: batch evaluations of the splitmix64-style global hash
// family over flat []uint64 columns.
//
// The package sits *below* internal/hash in the dependency order (hash's
// column helpers call into it), so the mixing constants are duplicated
// here; an equivalence test asserts every kernel agrees bit-for-bit with
// the scalar reference in internal/hash.
//
// Each kernel is one scalar loop over its columns with the loop-invariant
// half of the hash hoisted out of it.
package kernels

// Mixing constants of the splitmix64 family — must match internal/hash
// (asserted by TestKernelConstantsMatchHash).
const (
	golden = 0x9e3779b97f4a7c15
	mixA   = 0xbf58476d1ce4e5b9
	mixB   = 0x94d049bb133111eb
)

// mix64 is the splitmix64 finalizer (identical to hash.Mix64).
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= mixA
	x ^= x >> 27
	x *= mixB
	x ^= x >> 31
	return x
}

// HashPktHop fills dst[i] = Hash2(seed; pkt[i], hop): the act-decision
// hash g(pkt, hop) with the hop argument loop-invariant — the shape of
// every reservoir/act column in the encode hot path. dst and pkt must
// have equal length.
func HashPktHop(dst, pkt []uint64, seed, hop uint64) {
	if len(dst) != len(pkt) {
		panic("kernels: HashPktHop column length mismatch")
	}
	x, hb := seed^golden, hop*mixA+2
	for i, p := range pkt {
		dst[i] = mix64(mix64(x^(p*golden+1)) ^ hb)
	}
}

// Hash2Cols fills dst[i] = Hash2(seed; a[i], b[i]): the value-hash shape
// h(value, pkt) of payload columns. dst, a, and b must have equal length.
func Hash2Cols(dst, a, b []uint64, seed uint64) {
	if len(dst) != len(a) || len(dst) != len(b) {
		panic("kernels: Hash2Cols column length mismatch")
	}
	x := seed ^ golden
	for i := range dst {
		dst[i] = mix64(mix64(x^(a[i]*golden+1)) ^ (b[i]*mixA + 2))
	}
}

//go:build amd64 && amd64.v3 && !purego

package kernels

//go:noescape
func hashPktHopAVX2(dst, pkt *uint64, n uint64, x, hb uint64)

//go:noescape
func hashFixedAAVX2(dst, b *uint64, n uint64, h1 uint64)

//go:noescape
func hash2ColsAVX2(dst, a, b *uint64, n uint64, x uint64)

func hashPktHop(dst, pkt []uint64, x, hb uint64) {
	n := len(dst) &^ (blockLanes - 1)
	if n > 0 {
		hashPktHopAVX2(&dst[0], &pkt[0], uint64(n), x, hb)
	}
	hashPktHopScalar(dst[n:], pkt[n:], x, hb)
}

func hashFixedA(dst, b []uint64, h1 uint64) {
	n := len(dst) &^ (blockLanes - 1)
	if n > 0 {
		hashFixedAAVX2(&dst[0], &b[0], uint64(n), h1)
	}
	hashFixedAScalar(dst[n:], b[n:], h1)
}

func hash2Cols(dst, a, b []uint64, x uint64) {
	n := len(dst) &^ (blockLanes - 1)
	if n > 0 {
		hash2ColsAVX2(&dst[0], &a[0], &b[0], uint64(n), x)
	}
	hash2ColsScalar(dst[n:], a[n:], b[n:], x)
}

//go:build !amd64 || !amd64.v3 || purego

package kernels

func hashPktHop(dst, pkt []uint64, x, hb uint64) { hashPktHopScalar(dst, pkt, x, hb) }

func hashFixedA(dst, b []uint64, h1 uint64) { hashFixedAScalar(dst, b, h1) }

func hash2Cols(dst, a, b []uint64, x uint64) { hash2ColsScalar(dst, a, b, x) }

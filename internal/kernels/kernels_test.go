package kernels_test

import (
	"encoding/binary"
	"testing"

	"repro/internal/hash"
	"repro/internal/kernels"
)

// xorshift-style deterministic generator for test columns; independent of
// the hash family under test.
type testRNG uint64

func (r *testRNG) next() uint64 {
	x := uint64(*r)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*r = testRNG(x)
	return x
}

// TestKernelConstantsMatchHash pins every kernel, and so the mixing
// constants this package duplicates, to the scalar reference in
// internal/hash, for every column length from 0 to 67.
func TestKernelConstantsMatchHash(t *testing.T) {
	rng := testRNG(0x9E3779B97F4A7C15)
	seeds := []hash.Seed{0, 1, hash.Seed(rng.next()), hash.Seed(rng.next())}
	for _, seed := range seeds {
		for n := 0; n <= 67; n++ {
			a := make([]uint64, n)
			b := make([]uint64, n)
			for i := range a {
				a[i] = rng.next()
				b[i] = rng.next()
			}
			dst := make([]uint64, n)

			hop := rng.next()
			kernels.HashPktHop(dst, a, uint64(seed), hop)
			for i := range dst {
				if want := seed.Hash2(a[i], hop); dst[i] != want {
					t.Fatalf("HashPktHop(seed=%#x, n=%d)[%d] = %#x, want %#x",
						uint64(seed), n, i, dst[i], want)
				}
			}

			kernels.Hash2Cols(dst, a, b, uint64(seed))
			for i := range dst {
				if want := seed.Hash2(a[i], b[i]); dst[i] != want {
					t.Fatalf("Hash2Cols(seed=%#x, n=%d)[%d] = %#x, want %#x",
						uint64(seed), n, i, dst[i], want)
				}
			}
		}
	}
}

// TestKernelLengthMismatchPanics pins the column-length contract.
func TestKernelLengthMismatchPanics(t *testing.T) {
	cases := []struct {
		name string
		call func()
	}{
		{"HashPktHop", func() { kernels.HashPktHop(make([]uint64, 2), make([]uint64, 3), 1, 2) }},
		{"Hash2Cols/a", func() { kernels.Hash2Cols(make([]uint64, 2), make([]uint64, 3), make([]uint64, 2), 1) }},
		{"Hash2Cols/b", func() { kernels.Hash2Cols(make([]uint64, 2), make([]uint64, 2), make([]uint64, 3), 1) }},
	}
	for _, tc := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: length mismatch did not panic", tc.name)
				}
			}()
			tc.call()
		}()
	}
}

// FuzzHashKernels differentially fuzzes the column kernels against the
// scalar hash reference.
func FuzzHashKernels(f *testing.F) {
	f.Add(uint64(0), uint64(1), []byte{})
	f.Add(uint64(0xF16), uint64(5), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(^uint64(0), ^uint64(0), make([]byte, 8*9))
	f.Fuzz(func(t *testing.T, seed, hop uint64, raw []byte) {
		n := len(raw) / 8
		if n > 1024 {
			n = 1024
		}
		a := make([]uint64, n)
		b := make([]uint64, n)
		for i := range a {
			a[i] = binary.LittleEndian.Uint64(raw[8*i:])
			b[i] = a[i]*0x9E37 + seed ^ hop
		}
		dst := make([]uint64, n)
		s := hash.Seed(seed)

		kernels.HashPktHop(dst, a, seed, hop)
		for i := range dst {
			if want := s.Hash2(a[i], hop); dst[i] != want {
				t.Fatalf("HashPktHop[%d] = %#x, want %#x", i, dst[i], want)
			}
		}
		kernels.Hash2Cols(dst, a, b, seed)
		for i := range dst {
			if want := s.Hash2(a[i], b[i]); dst[i] != want {
				t.Fatalf("Hash2Cols[%d] = %#x, want %#x", i, dst[i], want)
			}
		}
	})
}

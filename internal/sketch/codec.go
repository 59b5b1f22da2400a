package sketch

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/hash"
	"repro/internal/stateread"
)

// Exact state serialization for the fleet-resize hand-off path. Each
// sketch can append its complete internal state — including its RNG
// position — to a byte slice and be rebuilt from those bytes such that
// every future operation produces output identical to the original. The
// encodings are uvarint-based and length-checked: a decoder consumes the
// entire input or fails, so a truncated or padded blob is an error, never
// a silently different sketch.

const sketchCodecVersion = 1

func appendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

func appendRNG(dst []byte, rng *hash.RNG) []byte {
	s := rng.State()
	for _, w := range s {
		dst = appendUvarint(dst, w)
	}
	return dst
}

func readRNG(r *stateread.Reader) *hash.RNG {
	var s [4]uint64
	for i := range s {
		s[i] = r.Uvarint()
	}
	if r.Err != nil {
		return nil
	}
	return hash.RestoreRNG(s)
}

// AppendState appends the sketch's complete state (accuracy parameter,
// stream length, RNG position, every compactor level) to dst.
func (s *KLL) AppendState(dst []byte) []byte {
	dst = append(dst, sketchCodecVersion)
	dst = appendUvarint(dst, uint64(s.k))
	dst = appendUvarint(dst, s.n)
	dst = appendRNG(dst, s.rng)
	dst = appendUvarint(dst, uint64(len(s.compactors)))
	for _, level := range s.compactors {
		dst = appendUvarint(dst, uint64(len(level)))
		for _, v := range level {
			dst = appendUvarint(dst, math.Float64bits(v))
		}
	}
	return dst
}

// RestoreKLL rebuilds a sketch from AppendState bytes. The restored
// sketch's future Adds, compactions, and quantile answers are identical
// to the original's.
func RestoreKLL(data []byte) (*KLL, error) {
	r := stateread.New("sketch: state", data)
	if v := r.Uvarint(); r.Err == nil && v != sketchCodecVersion {
		return nil, fmt.Errorf("sketch: KLL state version %d (have %d)", v, sketchCodecVersion)
	}
	k := int(r.Uvarint())
	n := r.Uvarint()
	rng := readRNG(r)
	levels := r.Uvarint()
	if r.Err != nil {
		return nil, r.Err
	}
	if k < 8 {
		return nil, fmt.Errorf("sketch: KLL state k=%d too small", k)
	}
	if levels < 1 || levels > 64 {
		return nil, fmt.Errorf("sketch: KLL state has %d levels", levels)
	}
	s := &KLL{k: k, c: 2.0 / 3.0, n: n, rng: rng}
	s.compactors = make([][]float64, levels)
	for h := range s.compactors {
		cnt := r.Uvarint()
		if r.Err != nil {
			return nil, r.Err
		}
		if cnt > uint64(r.Len()) { // each item is >= 1 byte
			return nil, fmt.Errorf("sketch: KLL level %d claims %d items", h, cnt)
		}
		level := make([]float64, cnt)
		for i := range level {
			level[i] = math.Float64frombits(r.Uvarint())
		}
		s.compactors[h] = level
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return s, nil
}

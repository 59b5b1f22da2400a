// Package stateread is the one strict reader behind every uvarint-based
// state blob of the hand-off path: the decoder state (internal/coding), the
// sketch states (internal/sketch) and the flow-state envelope that carries
// them (internal/core). It refuses what the matching AppendState could not
// have written — a truncated or non-minimally encoded varint, a length
// running past the blob, bytes left over — so every valid blob has exactly
// one spelling and a corrupted one is an error, never a silently different
// state. It is a leaf (internal/wire imports internal/core, so core cannot
// take its reader from there).
package stateread

import (
	"encoding/binary"
	"fmt"
)

// Reader walks one blob front to back, latching the first failure: after
// it every read returns zero, so a decoder checks Err where it needs a
// value to be real instead of after every field.
type Reader struct {
	// Err is the first failure, prefixed with the name New was given.
	Err  error
	what string
	data []byte
	size int
}

// New returns a Reader over data. what opens every error the Reader
// produces ("coding: decoder state", "core: flow state", …).
func New(what string, data []byte) *Reader {
	return &Reader{what: what, data: data, size: len(data)}
}

// Failf latches a failure the caller detected in what it read.
func (r *Reader) Failf(format string, args ...any) {
	if r.Err == nil {
		r.Err = fmt.Errorf("%s: %s", r.what, fmt.Sprintf(format, args...))
	}
}

// Len returns the number of bytes not yet read.
func (r *Reader) Len() int { return len(r.data) }

// Uvarint reads one minimally encoded uvarint.
func (r *Reader) Uvarint() uint64 {
	if r.Err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data)
	if n <= 0 {
		r.Failf("truncated varint at byte %d", r.size-len(r.data))
		return 0
	}
	if n > 1 && r.data[n-1] == 0 {
		r.Failf("varint %d at byte %d is not minimally encoded", v, r.size-len(r.data))
		return 0
	}
	r.data = r.data[n:]
	return v
}

// Bytes reads the next n bytes, aliasing the blob.
func (r *Reader) Bytes(n uint64) []byte {
	if r.Err != nil {
		return nil
	}
	if n > uint64(len(r.data)) {
		r.Failf("wants %d bytes at byte %d, %d left", n, r.size-len(r.data), len(r.data))
		return nil
	}
	b := r.data[:n]
	r.data = r.data[n:]
	return b
}

// Done returns the latched failure, or an error if bytes are left over.
func (r *Reader) Done() error {
	if r.Err == nil && len(r.data) != 0 {
		r.Failf("%d trailing bytes", len(r.data))
	}
	return r.Err
}

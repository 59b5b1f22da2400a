package stateread

import (
	"encoding/binary"
	"strings"
	"testing"
)

func TestReaderWalksWhatAppendWrote(t *testing.T) {
	blob := binary.AppendUvarint(nil, 300)
	blob = append(blob, 3, 'a', 'b', 'c')
	r := New("test: blob", blob)
	if v := r.Uvarint(); v != 300 {
		t.Fatalf("Uvarint = %d, want 300", v)
	}
	if b := r.Bytes(r.Uvarint()); string(b) != "abc" {
		t.Fatalf("Bytes = %q, want abc", b)
	}
	if r.Len() != 0 || r.Done() != nil {
		t.Fatalf("fully read blob: %d left, Done = %v", r.Len(), r.Done())
	}
}

// TestReaderRefuses: each malformation latches an error that opens with
// the caller's prefix and names the byte, and every later read is zero.
func TestReaderRefuses(t *testing.T) {
	cases := []struct {
		name string
		blob []byte
		read func(r *Reader)
		want string
	}{
		{"truncated varint", []byte{1, 0x80}, func(r *Reader) { r.Uvarint(); r.Uvarint() }, "truncated varint at byte 1"},
		{"overflowing varint", []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}, func(r *Reader) { r.Uvarint() }, "truncated varint at byte 0"},
		{"non-minimal zero", []byte{0x80, 0x00}, func(r *Reader) { r.Uvarint() }, "varint 0 at byte 0 is not minimally encoded"},
		{"length past the end", []byte{9, 1, 2}, func(r *Reader) { r.Bytes(r.Uvarint()) }, "wants 9 bytes at byte 1, 2 left"},
		{"left-over bytes", []byte{1, 2}, func(r *Reader) { r.Uvarint() }, "1 trailing bytes"},
		{"caller's own check", []byte{7}, func(r *Reader) { r.Failf("flag %d", r.Uvarint()) }, "flag 7"},
	}
	for _, tc := range cases {
		r := New("test: blob", tc.blob)
		tc.read(r)
		err := r.Done()
		if err == nil || err.Error() != "test: blob: "+tc.want {
			t.Errorf("%s: Done = %v, want %q", tc.name, err, "test: blob: "+tc.want)
			continue
		}
		if r.Uvarint() != 0 || r.Bytes(1) != nil {
			t.Errorf("%s: reads after the failure are not zero", tc.name)
		}
		r.Failf("a later failure")
		if got := r.Done(); got != err || !strings.HasPrefix(got.Error(), "test: blob: ") {
			t.Errorf("%s: first error not sticky: %v", tc.name, got)
		}
	}
}

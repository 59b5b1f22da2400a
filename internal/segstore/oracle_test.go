package segstore

import (
	"encoding/binary"

	"repro/internal/wire"
)

// appendBlock is the block encoding as first written, kept as the
// reference the in-place encoder (beginBlock/finishBlock) is compared
// against: build the payload kind | ts | body in a buffer of its own, then
// frame a copy of it. The fuzzers re-encode through it, so the format
// they pin is this one.
func appendBlock(dst []byte, kind uint8, ts uint64, body []byte) ([]byte, error) {
	payload := make([]byte, 0, blockHeadLen+len(body))
	payload = append(payload, kind)
	payload = binary.LittleEndian.AppendUint64(payload, ts)
	payload = append(payload, body...)
	return wire.AppendFrame(dst, payload)
}

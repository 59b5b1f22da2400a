package wire

import (
	"encoding/binary"
	"fmt"

	"repro/internal/core"
)

// Fleet-resize hand-off payloads. During a resize, the collector that is
// losing a flow drains the flow's complete recording state (its image:
// decoders, latency counts, series — see core.Recording.AppendFlowState)
// and ships it to the flow's new home inside ordinary CRC-framed messages
// (AppendFrame), on an ordinary handshaked session at the *new* epoch. A
// hand-off payload is distinguished from a digest payload by its magic —
// 'PH' instead of 'PD' — so a collector session sniffs the first two
// payload bytes and dispatches; everything else about framing, checksums,
// and strict canonical varints is shared with the digest path.
//
// Layout (after the frame header):
//
//	magic 'P','H' | version (1) | count uvarint |
//	  count × { flow uvarint | stateLen uvarint | state bytes }
//
// The state bytes are opaque to this layer (core owns that codec).

// HandoffVersion is the hand-off payload format version.
const HandoffVersion = 1

var handoffMagic = [2]byte{'P', 'H'}

// NudgeReroute is the single byte a collector writes back on a live
// exporter session when the cluster epoch moves past the session's. The
// server→exporter direction is otherwise unused after the handshake ack,
// so the byte is an unambiguous signal: "a newer fleet map exists — flush,
// close cleanly, fetch the map, and re-handshake at the new epoch."
// Receiving it is the recoverable form of AckEpochMismatch: the exporter
// keeps every unsent packet and re-routes it under the new partitioning.
const NudgeReroute byte = 0x52 // 'R'

// FlowState is one flow's serialized recording state in a hand-off
// payload.
type FlowState struct {
	Flow  core.FlowKey
	State []byte
}

// IsHandoffPayload reports whether a frame payload is a hand-off batch
// (magic 'PH') rather than a digest batch (magic 'PD').
func IsHandoffPayload(data []byte) bool {
	return len(data) >= 2 && data[0] == handoffMagic[0] && data[1] == handoffMagic[1]
}

// AppendMarshalHandoff appends the encoded hand-off payload for batch to
// dst and returns the extended slice.
func AppendMarshalHandoff(dst []byte, batch []FlowState) []byte {
	size := 3 + uvarintLen(uint64(len(batch)))
	for i := range batch {
		size += uvarintLen(uint64(batch[i].Flow))
		size += uvarintLen(uint64(len(batch[i].State)))
		size += len(batch[i].State)
	}
	if cap(dst)-len(dst) < size {
		grown := make([]byte, len(dst), len(dst)+size)
		copy(grown, dst)
		dst = grown
	}
	dst = append(dst, handoffMagic[0], handoffMagic[1], HandoffVersion)
	dst = binary.AppendUvarint(dst, uint64(len(batch)))
	for i := range batch {
		dst = binary.AppendUvarint(dst, uint64(batch[i].Flow))
		dst = binary.AppendUvarint(dst, uint64(len(batch[i].State)))
		dst = append(dst, batch[i].State...)
	}
	return dst
}

// AppendUnmarshalHandoff decodes a hand-off payload, appending the flow
// states to dst. The decode is strict: bad magic, wrong version,
// non-canonical varints, counts that exceed the bytes present, and
// trailing bytes are all errors. The returned State slices alias data.
func AppendUnmarshalHandoff(dst []FlowState, data []byte) ([]FlowState, error) {
	if len(data) < 3 {
		return dst, fmt.Errorf("wire: %d-byte hand-off shorter than the 3-byte header", len(data))
	}
	if data[0] != handoffMagic[0] || data[1] != handoffMagic[1] {
		return dst, fmt.Errorf("wire: bad hand-off magic %#02x%02x", data[0], data[1])
	}
	if data[2] != HandoffVersion {
		return dst, fmt.Errorf("wire: unsupported hand-off version %d (have %d)", data[2], HandoffVersion)
	}
	rest := data[3:]
	count, n, err := uvarint(rest)
	if err != nil {
		return dst, fmt.Errorf("wire: hand-off count: %w", err)
	}
	rest = rest[n:]
	// Each entry needs at least two varint bytes.
	if count > uint64(len(rest)/2)+1 {
		return dst, fmt.Errorf("wire: hand-off count %d exceeds the %d remaining bytes", count, len(rest))
	}
	for i := uint64(0); i < count; i++ {
		flow, n, err := uvarint(rest)
		if err != nil {
			return dst, fmt.Errorf("wire: hand-off flow %d: %w", i, err)
		}
		rest = rest[n:]
		stateLen, n, err := uvarint(rest)
		if err != nil {
			return dst, fmt.Errorf("wire: hand-off flow %d state length: %w", i, err)
		}
		rest = rest[n:]
		if stateLen > uint64(len(rest)) {
			return dst, fmt.Errorf("wire: hand-off flow %d claims %d state bytes, %d left", i, stateLen, len(rest))
		}
		dst = append(dst, FlowState{Flow: core.FlowKey(flow), State: rest[:stateLen]})
		rest = rest[stateLen:]
	}
	if len(rest) != 0 {
		return dst, fmt.Errorf("wire: %d trailing bytes after the last hand-off entry", len(rest))
	}
	return dst, nil
}

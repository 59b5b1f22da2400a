package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/core"
)

// This file is the stream layer of the wire format: how marshaled digest
// batches travel over a byte stream (a TCP connection from an exporting
// switch to the collector daemon) rather than sitting in one buffer.
//
// # Frame layout
//
// A frame wraps one payload (normally one AppendMarshal'd digest batch):
//
//	length uint32 LE  payload length in bytes, 1..maxPayload
//	crc    uint32 LE  CRC-32C (Castagnoli) of the payload
//	payload [length]byte
//
// The fixed-width header lets a reader issue exact-size reads, and the
// checksum turns any stream corruption into a connection-level error
// before a single corrupt digest reaches the sink. Decoding is strict and
// bounded: a length of zero, a length above the reader's payload cap, or
// a checksum mismatch is an error, and nothing larger than the cap is
// ever allocated, so a hostile header cannot balloon collector memory.
//
// # Session handshake
//
// A connection opens with one Hello record from the exporter:
//
//	magic    [4]byte  'P' 'I' 'N' 'T'
//	version  byte     3
//	exporter uint64 LE  exporter (switch) ID
//	planHash uint64 LE  Engine.PlanHash() of the exporter's compiled plan
//	epoch    uint64 LE  cluster partitioning epoch (0 for standalone)
//	nameLen  byte     0..MaxExporterName
//	name     [nameLen]byte  printable ASCII label
//	tenantLen byte    0..MaxTenantName (0: the default tenant)
//	tenant   [tenantLen]byte  printable ASCII QoS tenant
//
// and the collector answers with a single ack byte (AckOK or a reject
// code). The plan hash is the implicit-coordination guard of §4.1 made
// explicit on the wire: digests are meaningless under a different
// execution plan, so a mismatched exporter is refused at session setup
// instead of silently polluting every query it touches. The epoch plays
// the same role for a federated fleet's flow partitioning: when the
// fleet membership changes, the operator bumps the epoch everywhere, and
// an exporter still routing flows under the old partitioning map is
// refused instead of splitting a flow's digests across two collectors.

// FrameHeaderLen is the fixed frame header size: length + crc.
const FrameHeaderLen = 8

// DefaultMaxFramePayload bounds frame payloads unless the reader/writer
// chooses its own cap. A packet measures 10.1 B on the stream with hash
// IDs, 3.0 B with sequential ones and 14.1 B in the format's worst case
// (the package comment's table), so 1 MiB holds 70k-350k packets — far
// beyond any sane batch.
const DefaultMaxFramePayload = 1 << 20

// crcTable is the Castagnoli table shared by all frame writers/readers.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// AppendFrame appends one frame wrapping payload to dst and returns the
// extended slice. The payload must be non-empty and at most
// DefaultMaxFramePayload bytes (writers and readers share the default cap
// unless both ends agree on another).
func AppendFrame(dst, payload []byte) ([]byte, error) {
	var header [FrameHeaderLen]byte
	out := append(append(dst, header[:]...), payload...)
	if err := SealFrame(out[len(dst):]); err != nil {
		return dst, err
	}
	return out, nil
}

// AppendMarshalFrame appends one frame whose payload is the marshaled
// batch — header, payload, and checksum built in dst in a single pass,
// with no intermediate payload buffer or copy (the allocation AppendFrame
// over a separate AppendMarshal buffer cannot avoid). It reserves the
// 8-byte header, marshals the batch in place after it, then backfills the
// length and the CRC-32C of the payload bytes where they already sit.
// On error dst is returned nil and unsent, like AppendMarshal.
func AppendMarshalFrame(dst []byte, batch []core.PacketDigest) ([]byte, error) {
	start := len(dst)
	var header [FrameHeaderLen]byte
	out, err := AppendMarshal(append(dst, header[:]...), batch)
	if err != nil {
		return nil, err
	}
	if err := SealFrame(out[start:]); err != nil {
		return nil, err
	}
	return out, nil
}

// SealFrame turns frame — FrameHeaderLen reserved bytes followed by a
// payload already in place — into a valid frame by backfilling the length
// and the CRC-32C of the payload where it sits. It is AppendFrame for a
// caller that builds its payload directly behind the header it reserved,
// under the same payload bounds.
func SealFrame(frame []byte) error {
	payload := frame[FrameHeaderLen:]
	if len(payload) == 0 {
		return fmt.Errorf("wire: empty frame payload")
	}
	if len(payload) > DefaultMaxFramePayload {
		return fmt.Errorf("wire: frame payload %d bytes above cap %d",
			len(payload), DefaultMaxFramePayload)
	}
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(payload, crcTable))
	return nil
}

// DecodeFrame decodes the first frame of data, returning its payload
// (aliasing data) and the bytes after the frame. ErrShortFrame means data
// holds a valid prefix of a frame and more bytes are needed; any other
// error is fatal for the stream.
func DecodeFrame(data []byte, maxPayload int) (payload, rest []byte, err error) {
	if maxPayload <= 0 {
		maxPayload = DefaultMaxFramePayload
	}
	if len(data) < FrameHeaderLen {
		return nil, data, ErrShortFrame
	}
	n := binary.LittleEndian.Uint32(data)
	sum := binary.LittleEndian.Uint32(data[4:])
	if n == 0 {
		return nil, data, fmt.Errorf("wire: zero-length frame")
	}
	if uint64(n) > uint64(maxPayload) {
		return nil, data, fmt.Errorf("wire: frame payload %d bytes above cap %d", n, maxPayload)
	}
	if uint64(len(data)-FrameHeaderLen) < uint64(n) {
		return nil, data, ErrShortFrame
	}
	payload = data[FrameHeaderLen : FrameHeaderLen+int(n)]
	if got := crc32.Checksum(payload, crcTable); got != sum {
		return nil, data, fmt.Errorf("wire: frame checksum %#08x, want %#08x", got, sum)
	}
	return payload, data[FrameHeaderLen+int(n):], nil
}

// ErrShortFrame reports that a buffer ends before the frame does: a
// stream reader should read more bytes, a bounded decoder should treat it
// as truncation.
var ErrShortFrame = fmt.Errorf("wire: truncated frame")

// FrameReader reads a stream of frames. The payload returned by Next is
// valid until the following Next call (the buffer is reused), which is
// exactly the lifetime the collector's decode-then-ingest loop needs.
type FrameReader struct {
	r      *bufio.Reader
	header [FrameHeaderLen]byte
	buf    []byte
	max    int
}

// NewFrameReader wraps r. maxPayload <= 0 means DefaultMaxFramePayload.
func NewFrameReader(r io.Reader, maxPayload int) *FrameReader {
	if maxPayload <= 0 {
		maxPayload = DefaultMaxFramePayload
	}
	return &FrameReader{r: bufio.NewReader(r), max: maxPayload}
}

// Reset points the reader at a new stream, keeping its buffers — one
// reader can walk any number of streams (the segment log's window reads:
// one per segment) for a single payload buffer.
func (fr *FrameReader) Reset(r io.Reader) { fr.r.Reset(r) }

// Next reads one frame and returns its payload. io.EOF means the stream
// ended cleanly at a frame boundary; io.ErrUnexpectedEOF means it ended
// mid-frame; checksum and bound violations are their own errors. After
// any error the reader is spent.
func (fr *FrameReader) Next() ([]byte, error) {
	if _, err := io.ReadFull(fr.r, fr.header[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("wire: stream ended inside a frame header: %w", io.ErrUnexpectedEOF)
		}
		return nil, err
	}
	n := binary.LittleEndian.Uint32(fr.header[:])
	sum := binary.LittleEndian.Uint32(fr.header[4:])
	if n == 0 {
		return nil, fmt.Errorf("wire: zero-length frame")
	}
	if uint64(n) > uint64(fr.max) {
		return nil, fmt.Errorf("wire: frame payload %d bytes above cap %d", n, fr.max)
	}
	if cap(fr.buf) < int(n) {
		fr.buf = make([]byte, n)
	}
	payload := fr.buf[:n]
	if _, err := io.ReadFull(fr.r, payload); err != nil {
		// Keep the real cause (deadline, reset, …) unwrappable — the
		// collector's shutdown path distinguishes deadline unblocking
		// from genuine stream corruption. Only a bare EOF becomes
		// unexpected-EOF: the stream ended mid-frame.
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("wire: reading a %d-byte frame payload: %w", n, err)
	}
	if got := crc32.Checksum(payload, crcTable); got != sum {
		return nil, fmt.Errorf("wire: frame checksum %#08x, want %#08x", got, sum)
	}
	return payload, nil
}

// HandshakeVersion is the session-handshake version byte. Version 2
// added the cluster-epoch field, version 3 the tenant label; every other
// version is refused (every exporter and collector in a deployment ship
// together).
const HandshakeVersion = 3

// MaxExporterName bounds the Hello name field.
const MaxExporterName = 64

// MaxTenantName bounds the Hello tenant field.
const MaxTenantName = 64

// helloFixedLen is the byte length of a Hello before the variable name:
// magic (4) + version (1) + exporter (8) + planHash (8) + epoch (8) +
// nameLen (1). The name, a tenant length byte and the tenant follow.
const helloFixedLen = 30

var helloMagic = [4]byte{'P', 'I', 'N', 'T'}

// Hello is the session handshake an exporter sends when its connection
// opens.
type Hello struct {
	// Exporter identifies the sending switch/agent.
	Exporter uint64
	// PlanHash is core.Engine.PlanHash() of the exporter's compiled plan;
	// the collector refuses sessions whose hash differs from its own.
	PlanHash uint64
	// Epoch is the cluster partitioning epoch the exporter routes flows
	// under (0 for a standalone collector). A federated collector refuses
	// sessions whose epoch differs from its own, so an exporter holding a
	// stale fleet map cannot split a flow's digests across two homes.
	Epoch uint64
	// Name is an optional printable-ASCII label (metrics, logs).
	Name string
	// Tenant is the QoS tenant this session's digests are accounted and
	// admitted under. Empty means the default tenant.
	Tenant string
}

func validHelloLabel(field, name string, cap int) error {
	if len(name) > cap {
		return fmt.Errorf("wire: %s %d bytes above cap %d", field, len(name), cap)
	}
	for i := 0; i < len(name); i++ {
		if name[i] < 0x20 || name[i] > 0x7e {
			return fmt.Errorf("wire: %s byte %d (%#02x) outside printable ASCII", field, i, name[i])
		}
	}
	return nil
}

func validExporterName(name string) error {
	return validHelloLabel("exporter name", name, MaxExporterName)
}

func validTenantName(name string) error {
	return validHelloLabel("tenant name", name, MaxTenantName)
}

// AppendHello appends the handshake encoding of h to dst: the fixed
// fields, the name, then the tenant label behind its length byte (0 for
// the default tenant). DecodeHello of those bytes re-encodes to them.
func AppendHello(dst []byte, h Hello) ([]byte, error) {
	if err := validExporterName(h.Name); err != nil {
		return dst, err
	}
	if err := validTenantName(h.Tenant); err != nil {
		return dst, err
	}
	dst = append(dst, helloMagic[:]...)
	dst = append(dst, HandshakeVersion)
	dst = binary.LittleEndian.AppendUint64(dst, h.Exporter)
	dst = binary.LittleEndian.AppendUint64(dst, h.PlanHash)
	dst = binary.LittleEndian.AppendUint64(dst, h.Epoch)
	dst = append(dst, byte(len(h.Name)))
	dst = append(dst, h.Name...)
	dst = append(dst, byte(len(h.Tenant)))
	dst = append(dst, h.Tenant...)
	return dst, nil
}

// DecodeHello decodes a Hello from the front of data and returns the
// bytes consumed. ErrShortFrame means data is a valid prefix and more
// bytes are needed; other errors are fatal.
func DecodeHello(data []byte) (Hello, int, error) {
	var h Hello
	if len(data) < helloFixedLen {
		return h, 0, ErrShortFrame
	}
	if [4]byte(data[:4]) != helloMagic {
		return h, 0, fmt.Errorf("wire: bad handshake magic %q", data[:4])
	}
	if version := data[4]; version != HandshakeVersion {
		return h, 0, fmt.Errorf("wire: unsupported handshake version %d (have %d)", version, HandshakeVersion)
	}
	h.Exporter = binary.LittleEndian.Uint64(data[5:])
	h.PlanHash = binary.LittleEndian.Uint64(data[13:])
	h.Epoch = binary.LittleEndian.Uint64(data[21:])
	nameLen := int(data[29])
	if nameLen > MaxExporterName {
		return Hello{}, 0, fmt.Errorf("wire: exporter name %d bytes above cap %d", nameLen, MaxExporterName)
	}
	n := helloFixedLen + nameLen
	if len(data) < n+1 {
		return Hello{}, 0, ErrShortFrame
	}
	h.Name = string(data[helloFixedLen:n])
	if err := validExporterName(h.Name); err != nil {
		return Hello{}, 0, err
	}
	tenantLen := int(data[n])
	if tenantLen > MaxTenantName {
		return Hello{}, 0, fmt.Errorf("wire: tenant name %d bytes above cap %d", tenantLen, MaxTenantName)
	}
	if len(data) < n+1+tenantLen {
		return Hello{}, 0, ErrShortFrame
	}
	h.Tenant = string(data[n+1 : n+1+tenantLen])
	if err := validTenantName(h.Tenant); err != nil {
		return Hello{}, 0, err
	}
	return h, n + 1 + tenantLen, nil
}

// ReadHello reads one Hello from a stream. Each length byte is validated
// (by decoding the prefix read so far) before the bytes it promises are
// waited for, so garbage — wrong magic, bad version, an oversized label —
// fails here rather than stalling the stream.
func ReadHello(r io.Reader) (Hello, error) {
	buf := make([]byte, 0, helloFixedLen+MaxExporterName+1+MaxTenantName)
	read := func(n int, what string) error {
		tail := len(buf)
		buf = buf[:tail+n]
		if _, err := io.ReadFull(r, buf[tail:]); err != nil {
			return fmt.Errorf("wire: reading handshake%s: %w", what, err)
		}
		if _, _, err := DecodeHello(buf); err != nil && err != ErrShortFrame {
			return err
		}
		return nil
	}
	if err := read(helloFixedLen, ""); err != nil {
		return Hello{}, err
	}
	if err := read(int(buf[helloFixedLen-1])+1, " name"); err != nil {
		return Hello{}, err
	}
	if err := read(int(buf[len(buf)-1]), " tenant"); err != nil {
		return Hello{}, err
	}
	h, _, err := DecodeHello(buf)
	return h, err
}

// Session ack codes: the single byte the collector answers a Hello with.
const (
	// AckOK accepts the session; frames follow.
	AckOK byte = 0
	// AckPlanMismatch rejects a Hello whose plan hash differs from the
	// collector's engine.
	AckPlanMismatch byte = 2
	// AckRejected rejects a session for any other reason (shutdown in
	// progress, exporter limit).
	AckRejected byte = 3
	// AckEpochMismatch rejects a Hello whose cluster epoch differs from
	// the collector's — the exporter is partitioning flows under a stale
	// (or future) fleet map and must reload its configuration.
	AckEpochMismatch byte = 4
)

// ErrEpochMismatch is the sentinel inside an AckEpochMismatch refusal.
// It is a *recoverable* signal, not a fatal one: the fleet has moved to a
// new partitioning epoch, so the exporter should fetch the current fleet
// map, re-partition its in-flight buffers, and re-handshake at the new
// epoch (collector.Connect with a roster fetch does this automatically).
var ErrEpochMismatch = fmt.Errorf("wire: cluster-epoch mismatch")

// AckError maps a non-OK ack code to a descriptive error. An
// AckEpochMismatch error wraps ErrEpochMismatch so callers can
// errors.Is-detect the recoverable case.
func AckError(code byte) error {
	switch code {
	case AckOK:
		return nil
	case AckPlanMismatch:
		return fmt.Errorf("wire: collector rejected session: execution-plan hash mismatch")
	case AckRejected:
		return fmt.Errorf("wire: collector rejected session")
	case AckEpochMismatch:
		return fmt.Errorf("wire: collector rejected session: %w (stale fleet partitioning — fetch the new fleet map and re-handshake)", ErrEpochMismatch)
	default:
		return fmt.Errorf("wire: collector answered unknown ack code %d", code)
	}
}

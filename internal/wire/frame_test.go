package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/core"
)

func TestFrameRoundtrip(t *testing.T) {
	payloads := [][]byte{
		{0x01},
		[]byte("hello frames"),
		bytes.Repeat([]byte{0xAB}, 4096),
	}
	var stream []byte
	for _, p := range payloads {
		var err error
		stream, err = AppendFrame(stream, p)
		if err != nil {
			t.Fatal(err)
		}
	}

	// Slice decoding walks the concatenated frames.
	rest := stream
	for i, want := range payloads {
		payload, r, err := DecodeFrame(rest, 0)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(payload, want) {
			t.Fatalf("frame %d: payload %x, want %x", i, payload, want)
		}
		rest = r
	}
	if len(rest) != 0 {
		t.Fatalf("%d bytes after the last frame", len(rest))
	}

	// Stream decoding agrees.
	fr := NewFrameReader(bytes.NewReader(stream), 0)
	for i, want := range payloads {
		payload, err := fr.Next()
		if err != nil {
			t.Fatalf("stream frame %d: %v", i, err)
		}
		if !bytes.Equal(payload, want) {
			t.Fatalf("stream frame %d: payload mismatch", i)
		}
	}
	if _, err := fr.Next(); err != io.EOF {
		t.Fatalf("want io.EOF at the clean stream end, got %v", err)
	}
}

func TestFrameErrors(t *testing.T) {
	good, err := AppendFrame(nil, []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}

	corrupt := append([]byte(nil), good...)
	corrupt[len(corrupt)-1] ^= 0xFF
	zero := binary.LittleEndian.AppendUint32(nil, 0)
	zero = binary.LittleEndian.AppendUint32(zero, 0)
	huge := binary.LittleEndian.AppendUint32(nil, 1<<30)
	huge = binary.LittleEndian.AppendUint32(huge, 0)

	cases := []struct {
		name  string
		data  []byte
		max   int
		want  string
		short bool
	}{
		{name: "short header", data: good[:FrameHeaderLen-1], short: true},
		{name: "short payload", data: good[:len(good)-1], short: true},
		{name: "checksum", data: corrupt, want: "checksum"},
		{name: "zero length", data: zero, want: "zero-length"},
		{name: "above cap", data: huge, want: "above cap"},
		{name: "tight cap", data: good, max: 3, want: "above cap"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := DecodeFrame(tc.data, tc.max)
			if tc.short {
				if err != ErrShortFrame {
					t.Fatalf("want ErrShortFrame, got %v", err)
				}
			} else if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want %q error, got %v", tc.want, err)
			}

			// The stream reader rejects the same inputs (truncation shows
			// up as unexpected-EOF wrapping).
			reader := NewFrameReader(bytes.NewReader(tc.data), tc.max)
			if _, err := reader.Next(); err == nil {
				t.Fatal("FrameReader accepted a bad frame")
			}
		})
	}
}

func TestAppendFrameRejectsBadPayloads(t *testing.T) {
	if _, err := AppendFrame(nil, nil); err == nil {
		t.Fatal("empty payload accepted")
	}
	if _, err := AppendFrame(nil, make([]byte, DefaultMaxFramePayload+1)); err == nil {
		t.Fatal("oversized payload accepted")
	}
}

func TestFrameReaderReusesBuffer(t *testing.T) {
	var stream []byte
	for i := 0; i < 64; i++ {
		var err error
		stream, err = AppendFrame(stream, bytes.Repeat([]byte{byte(i)}, 512))
		if err != nil {
			t.Fatal(err)
		}
	}
	fr := NewFrameReader(bytes.NewReader(stream), 0)
	if _, err := fr.Next(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(32, func() {
		if _, err := fr.Next(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("steady-state Next allocates %.1f times per frame, want 0", allocs)
	}
}

func TestHelloRoundtrip(t *testing.T) {
	cases := []Hello{
		{},
		{Exporter: 7, PlanHash: 0xDEADBEEF, Name: "tor-3-2"},
		{Exporter: 9, PlanHash: 0xDEADBEEF, Epoch: 42, Name: "fleet-member"},
		{Exporter: ^uint64(0), PlanHash: ^uint64(0), Epoch: ^uint64(0), Name: strings.Repeat("x", MaxExporterName)},
		{Exporter: 4, PlanHash: 0xBEEF, Name: "tor-1-1", Tenant: "team-a"},
		{Exporter: 5, Epoch: 7, Tenant: strings.Repeat("t", MaxTenantName)},
	}
	for _, h := range cases {
		data, err := AppendHello(nil, h)
		if err != nil {
			t.Fatal(err)
		}
		got, n, err := DecodeHello(append(data, 0xEE)) // trailing byte belongs to the next layer
		if err != nil {
			t.Fatal(err)
		}
		if n != len(data) {
			t.Fatalf("consumed %d bytes, want %d", n, len(data))
		}
		if got != h {
			t.Fatalf("decoded %+v, want %+v", got, h)
		}
		stream, err := ReadHello(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if stream != h {
			t.Fatalf("stream-decoded %+v, want %+v", stream, h)
		}
	}
}

// TestHelloVersioning pins the one Hello layout: version 3, the tenant
// label behind its own length byte after the name, a zero length for the
// default tenant — and the refusal of every other version.
func TestHelloVersioning(t *testing.T) {
	plain, err := AppendHello(nil, Hello{Exporter: 1, Name: "sw"})
	if err != nil {
		t.Fatal(err)
	}
	if plain[4] != HandshakeVersion || len(plain) != helloFixedLen+3 || plain[len(plain)-1] != 0 {
		t.Fatalf("tenant-less Hello % x: want version %d and a zero tenant length after the name", plain, HandshakeVersion)
	}
	tenant, err := AppendHello(nil, Hello{Exporter: 1, Name: "sw", Tenant: "team-a"})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tenant[:helloFixedLen+2], plain[:helloFixedLen+2]) {
		t.Fatal("the tenant label changed the bytes before it")
	}
	if got := string(tenant[helloFixedLen+3:]); tenant[helloFixedLen+2] != 6 || got != "team-a" {
		t.Fatalf("tenant tail %q behind length %d, want %q behind 6", got, tenant[helloFixedLen+2], "team-a")
	}
	// Every proper prefix of a Hello is ErrShortFrame — the tenant tail
	// must look truncated, never silently default-tenant.
	for _, hello := range [][]byte{plain, tenant} {
		for i := 0; i < len(hello); i++ {
			if _, _, err := DecodeHello(hello[:i]); err != ErrShortFrame {
				t.Fatalf("prefix %d/%d: want ErrShortFrame, got %v", i, len(hello), err)
			}
		}
	}
	// Versions 1 and 2 are refused by number, on both read paths.
	for _, v := range []byte{1, 2} {
		old := append([]byte(nil), plain...)
		old[4] = v
		want := fmt.Sprintf("unsupported handshake version %d", v)
		if _, _, err := DecodeHello(old); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("version %d: want %q, got %v", v, want, err)
		}
		if _, err := ReadHello(bytes.NewReader(old)); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("version %d from a stream: want %q, got %v", v, want, err)
		}
	}
	badTenant := append([]byte(nil), tenant...)
	copy(badTenant[helloFixedLen+3:], "team\x07a")
	if _, _, err := DecodeHello(badTenant); err == nil || !strings.Contains(err.Error(), "printable") {
		t.Fatalf("unprintable tenant: want rejection, got %v", err)
	}
	longTenant := append([]byte(nil), plain...)
	longTenant[len(longTenant)-1] = MaxTenantName + 1
	if _, err := ReadHello(bytes.NewReader(longTenant)); err == nil || !strings.Contains(err.Error(), "above cap") {
		t.Fatalf("oversized tenant length from a stream: want a cap error before any wait, got %v", err)
	}
	if _, err := AppendHello(nil, Hello{Tenant: strings.Repeat("y", MaxTenantName+1)}); err == nil {
		t.Fatal("oversized tenant accepted on encode")
	}
	if _, err := AppendHello(nil, Hello{Tenant: "bad\ttenant"}); err == nil {
		t.Fatal("unprintable tenant accepted on encode")
	}
}

func TestHelloErrors(t *testing.T) {
	good, err := AppendHello(nil, Hello{Exporter: 1, Name: "sw"})
	if err != nil {
		t.Fatal(err)
	}
	badMagic := append([]byte(nil), good...)
	badMagic[0] = 'X'
	badVersion := append([]byte(nil), good...)
	badVersion[4] = 99
	longName := append([]byte(nil), good...)
	longName[helloFixedLen-1] = MaxExporterName + 1
	unprintable := append([]byte(nil), good...)
	unprintable[helloFixedLen] = 0x07

	for _, tc := range []struct {
		name string
		data []byte
		want string
	}{
		{"magic", badMagic, "magic"},
		{"version", badVersion, "version"},
		{"name cap", longName, "above cap"},
		{"unprintable name", unprintable, "printable"},
	} {
		if _, _, err := DecodeHello(tc.data); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: want %q error, got %v", tc.name, tc.want, err)
		}
	}
	if _, _, err := DecodeHello(good[:10]); err != ErrShortFrame {
		t.Fatalf("truncated hello: want ErrShortFrame, got %v", err)
	}
	if _, err := AppendHello(nil, Hello{Name: strings.Repeat("y", MaxExporterName+1)}); err == nil {
		t.Fatal("oversized name accepted on encode")
	}
	if err := AckError(AckOK); err != nil {
		t.Fatalf("AckOK maps to %v", err)
	}
	for _, code := range []byte{AckPlanMismatch, AckRejected, AckEpochMismatch, 77} {
		if err := AckError(code); err == nil {
			t.Fatalf("ack code %d maps to nil error", code)
		}
	}
}

// TestFramedBatchEndToEnd drives a digest batch through the full stream
// stack: AppendMarshal → frame → FrameReader → AppendUnmarshalFlows.
func TestFramedBatchEndToEnd(t *testing.T) {
	batch := sampleBatch(300)
	payload, err := AppendMarshal(nil, batch)
	if err != nil {
		t.Fatal(err)
	}
	framed, err := AppendFrame(nil, payload)
	if err != nil {
		t.Fatal(err)
	}
	fr := NewFrameReader(bytes.NewReader(framed), 0)
	got, err := fr.Next()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := AppendUnmarshalFlows(nil, got, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded) != len(batch) {
		t.Fatalf("decoded %d packets, want %d", len(decoded), len(batch))
	}
	for i := range batch {
		if decoded[i] != (core.PacketDigest{Flow: batch[i].Flow, PktID: batch[i].PktID,
			PathLen: batch[i].PathLen, Digest: batch[i].Digest}) {
			t.Fatalf("packet %d: %+v != %+v", i, decoded[i], batch[i])
		}
	}
}

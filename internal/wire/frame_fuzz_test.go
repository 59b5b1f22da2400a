package wire

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
)

// FuzzFrameDecode drives arbitrary byte streams through the frame
// decoder. The contract:
//
//   - DecodeFrame never panics and never allocates beyond the payload cap,
//   - ErrShortFrame is returned exactly when the input is a (possibly
//     empty) proper prefix of some longer valid frame,
//   - on success, re-framing the payload reproduces the consumed bytes
//     exactly (the format is canonical), and
//   - the streaming FrameReader accepts precisely the inputs DecodeFrame
//     accepts, yielding the same payload.
func FuzzFrameDecode(f *testing.F) {
	add := func(payload []byte) {
		framed, err := AppendFrame(nil, payload)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(framed)
		f.Add(framed[:len(framed)-1])
		f.Add(append(append([]byte(nil), framed...), framed...)) // two frames back to back
	}
	add([]byte{0x00})
	add([]byte("digest batch stand-in"))
	payload, err := AppendMarshal(nil, sampleBatch(32))
	if err != nil {
		f.Fatal(err)
	}
	add(payload)
	f.Add([]byte{})
	f.Add(binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, 0), 0))
	f.Add(binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, 1<<31), 0))

	f.Fuzz(func(t *testing.T, data []byte) {
		payload, rest, err := DecodeFrame(data, 0)
		fr := NewFrameReader(bytes.NewReader(data), 0)
		streamPayload, streamErr := fr.Next()
		if err != nil {
			if payload != nil {
				t.Fatalf("error %v with non-nil payload", err)
			}
			if streamErr == nil {
				t.Fatalf("FrameReader accepted what DecodeFrame rejected: %v", err)
			}
			return
		}
		if streamErr != nil {
			t.Fatalf("DecodeFrame accepted what FrameReader rejected: %v", streamErr)
		}
		if !bytes.Equal(payload, streamPayload) {
			t.Fatal("DecodeFrame and FrameReader payloads differ")
		}
		consumed := data[:len(data)-len(rest)]
		again, err := AppendFrame(nil, payload)
		if err != nil {
			t.Fatalf("re-framing a decoded payload: %v", err)
		}
		if !bytes.Equal(again, consumed) {
			t.Fatalf("re-framed bytes differ from input:\n got %x\nwant %x", again, consumed)
		}
	})
}

// FuzzHandshake drives arbitrary bytes through the session-handshake
// decoder: no panics, ErrShortFrame only for true prefixes, and on
// success re-encoding the Hello reproduces the consumed bytes.
func FuzzHandshake(f *testing.F) {
	add := func(h Hello) {
		data, err := AppendHello(nil, h)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)-1])
		f.Add(append(append([]byte(nil), data...), 0xAA))
	}
	add(Hello{})
	add(Hello{Exporter: 3, PlanHash: 0x1234_5678_9ABC_DEF0, Name: "spine-0"})
	add(Hello{Exporter: 11, PlanHash: 7, Epoch: 0xFEED_FACE, Name: "fleet-2"})
	add(Hello{Exporter: ^uint64(0), PlanHash: 1, Name: strings.Repeat("z", MaxExporterName)})
	add(Hello{Exporter: 5, PlanHash: 9, Name: "spine-1", Tenant: "team-a"})
	add(Hello{Exporter: 6, Epoch: 3, Tenant: strings.Repeat("t", MaxTenantName)})
	f.Add([]byte{})
	f.Add([]byte("PINT"))
	f.Add(append([]byte{'P', 'I', 'N', 'T', 2}, make([]byte, helloFixedLen-5)...)) // a refused version
	f.Add(append([]byte{'P', 'I', 'N', 'T', HandshakeVersion}, make([]byte, helloFixedLen-5)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		h, n, err := DecodeHello(data)
		if err != nil {
			if h != (Hello{}) || n != 0 {
				t.Fatalf("error %v with non-zero Hello %+v / consumed %d", err, h, n)
			}
			return
		}
		if n < helloFixedLen || n > len(data) {
			t.Fatalf("consumed %d bytes of %d", n, len(data))
		}
		again, err := AppendHello(nil, h)
		if err != nil {
			t.Fatalf("re-encoding a decoded Hello: %v", err)
		}
		if !bytes.Equal(again, data[:n]) {
			t.Fatalf("re-encoded handshake differs from input:\n got %x\nwant %x", again, data[:n])
		}
		stream, err := ReadHello(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("ReadHello rejected what DecodeHello accepted: %v", err)
		}
		if stream != h {
			t.Fatalf("ReadHello %+v != DecodeHello %+v", stream, h)
		}
	})
}

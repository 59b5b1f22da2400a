package collector

import (
	"fmt"
	"net"
	"time"

	"repro/internal/core"
	"repro/internal/wire"
)

// Exporter is the switch side of a collector session: it dials the
// daemon, performs the wire.Hello handshake, and streams digest batches
// as checksummed frames. It is the transmit path cmd/pintload, pintbench
// and any embedded switch agent share.
//
// An Exporter is not safe for concurrent use; give each sending
// goroutine its own (each simulated switch owns one connection).
//
// By default the session runs with TCP_NODELAY set (every frame goes
// straight to the wire — lowest per-report latency, one syscall and
// often one small segment per frame). SetCoalesce trades that latency
// away for throughput by batching frames into fewer, larger writes.
type Exporter struct {
	conn    net.Conn
	scratch []byte // marshal + frame scratch, reused across Send calls
	packets uint64
	bytes   uint64
	// coalesce > 0 buffers marshaled frames in pending until at least
	// that many bytes accumulate; 0 writes every frame immediately.
	coalesce int
	pending  []byte
}

// HelloFor builds the session handshake for an exporter compiled under
// eng's execution plan.
func HelloFor(eng *core.Engine, exporterID uint64, name string) wire.Hello {
	return wire.Hello{Exporter: exporterID, PlanHash: eng.PlanHash(), Name: name}
}

// handshakeTimeout bounds both ends of the handshake: how long a server
// gives a new connection to present its Hello (shedding dead or
// non-protocol connections), and the exporter-side connect and handshake,
// where dialing something that is not a collector (the HTTP port, say)
// must error, not hang waiting for an ack that will never come.
const handshakeTimeout = 10 * time.Second

// dial connects to a collector at addr and performs the handshake. It is
// the per-session step under Connect and SendHandoff.
func dial(addr string, hello wire.Hello) (_ *Exporter, err error) {
	conn, err := net.DialTimeout("tcp", addr, handshakeTimeout)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			conn.Close()
		}
	}()
	// Go's net.TCPConn disables Nagle by default, but the exporter's
	// latency story depends on it, so set it explicitly rather than
	// inheriting a default that a custom dialer or future runtime could
	// change. Exporters want either immediate per-frame writes (NODELAY)
	// or application-level coalescing via SetCoalesce — never Nagle's
	// ack-gated middle ground, which would stall telemetry behind the
	// collector's read cadence.
	if tc, ok := conn.(*net.TCPConn); ok {
		if err := tc.SetNoDelay(true); err != nil {
			return nil, fmt.Errorf("collector: setting TCP_NODELAY: %w", err)
		}
	}
	buf, err := wire.AppendHello(nil, hello)
	if err != nil {
		return nil, err
	}
	conn.SetDeadline(time.Now().Add(handshakeTimeout))
	if _, err := conn.Write(buf); err != nil {
		return nil, fmt.Errorf("collector: sending handshake: %w", err)
	}
	var ack [1]byte
	if _, err := conn.Read(ack[:]); err != nil {
		return nil, fmt.Errorf("collector: reading handshake ack: %w", err)
	}
	if err := wire.AckError(ack[0]); err != nil {
		return nil, err
	}
	conn.SetDeadline(time.Time{})
	return &Exporter{conn: conn, scratch: buf[:0]}, nil
}

// SetCoalesce sets the write-coalescing threshold in bytes. With n > 0,
// Send buffers marshaled frames until at least n bytes are pending, then
// writes them in one syscall; Flush (and Close) drain the remainder.
// With n <= 0 (the default) every frame is written immediately.
//
// The trade-off: coalescing cuts syscalls and small TCP segments —
// throughput for high-rate exporters feeding many small frames — but a
// buffered frame is invisible to the collector until the threshold
// fills or Flush runs, so per-report latency rises by up to one
// coalescing window. Pick immediate writes for interactive or sparse
// telemetry, coalescing for bulk replay and load generation. A few kB
// (wire MTU-to-64kB) is the useful range; the frame that crosses the
// threshold is never split.
func (e *Exporter) SetCoalesce(n int) {
	if n < 0 {
		n = 0
	}
	e.coalesce = n
}

// Send marshals one digest batch and writes it as a single frame — or,
// under SetCoalesce, stages it until the coalescing threshold fills.
// Empty batches are a no-op. When the collector's sink falls behind
// (a shard's pending slab is full), the write blocks — TCP flow control carrying the sink's
// backpressure to the switch.
func (e *Exporter) Send(batch []core.PacketDigest) error {
	if len(batch) == 0 {
		return nil
	}
	// Header, payload, and CRC are built in the scratch buffer in one
	// pass — no separate marshal buffer, no header+payload re-copy.
	frame, err := wire.AppendMarshalFrame(e.scratch[:0], batch)
	if err != nil {
		return err
	}
	e.scratch = frame[:0]
	e.packets += uint64(len(batch))
	e.bytes += uint64(len(frame))
	if e.coalesce > 0 {
		e.pending = append(e.pending, frame...)
		if len(e.pending) < e.coalesce {
			return nil
		}
		return e.Flush()
	}
	if _, err := e.conn.Write(frame); err != nil {
		return fmt.Errorf("collector: sending frame: %w", err)
	}
	return nil
}

// Flush writes any frames staged by coalescing. A no-op when nothing is
// pending (so it is always safe to call, coalescing or not).
func (e *Exporter) Flush() error {
	if len(e.pending) == 0 {
		return nil
	}
	if _, err := e.conn.Write(e.pending); err != nil {
		return fmt.Errorf("collector: sending coalesced frames: %w", err)
	}
	e.pending = e.pending[:0]
	return nil
}

// Packets returns the packets sent so far.
func (e *Exporter) Packets() uint64 { return e.packets }

// Bytes returns the wire bytes sent so far (frame headers included).
func (e *Exporter) Bytes() uint64 { return e.bytes }

// Close drains any coalesced frames and ends the session; the collector
// sees a clean EOF at a frame boundary.
func (e *Exporter) Close() error {
	err := e.Flush()
	if cerr := e.conn.Close(); err == nil {
		err = cerr
	}
	return err
}

package collector

import (
	"fmt"
	"io"
	"net"
	"time"

	"repro/internal/core"
	"repro/internal/wire"
)

// Fleet-resize hand-off: the collector-side drain/import path. During a
// resize the coordinator (internal/federation) asks each member that is
// losing flows to ExportFlows them — an atomic per-flow drain+evict under
// the owning shard's lock — and ships the states to each flow's new
// home with SendHandoff, an ordinary handshaked session at the new epoch
// whose frames carry hand-off payloads instead of digest batches. The
// receiving session (handleConn) installs every state in its sink with
// core.Recording.RestoreFlowState, which copies the flow's image into a
// block of the owning shard's arena, so post-resize answers are
// byte-identical to a fleet that ran at the new membership from the start.
//
// Ordering is the coordinator's job: a destination must import a moving
// flow's state before it ingests any fresh digest for that flow
// (RestoreFlowState refuses a flow already tracked precisely to make a
// split detectable), so the new fleet map is published to exporters only
// after every hand-off session has closed.

// handoffFrameBudget caps one hand-off frame's payload bytes, comfortably
// under the default frame limit while amortizing framing over many small
// flow states.
const handoffFrameBudget = 512 << 10

// ExportFlows drains the listed flows out of this collector: for each
// flow that is tracked here, its complete recording state is written as
// its image (core.Recording.AppendFlowState) and the flow is
// evicted, atomically with respect to ingest on the owning shard (under
// its lock). Flows not tracked here are skipped — the caller plans moves
// from a membership-wide flow list. A durable collector refuses: its
// segment log would resurrect the exported flows on replay (resize of a
// durable member needs a log marker — see ROADMAP).
func (s *Server) ExportFlows(flows []core.FlowKey) ([]wire.FlowState, error) {
	if s.cfg.Durable != nil {
		return nil, fmt.Errorf("collector: hand-off out of a durable collector is not supported (log replay would resurrect the moved flows)")
	}
	// Every state is encoded straight into one arena and sliced from it: a
	// chunk at a time, so the arena never has to be copied to grow — a
	// fresh chunk (a KiB per flow still to go, within bounds) starts when
	// the current one may not hold the next state (twice the largest so
	// far), and the states already sliced keep the old one alive. Should a
	// state outgrow its chunk anyway, append moves it — with the chunk's
	// prefix — into a larger array, which is then the chunk: correct, just
	// one copy dearer.
	out := make([]wire.FlowState, 0, len(flows))
	var arena []byte
	largest := 0
	for i, flow := range flows {
		if cap(arena)-len(arena) < 2*largest || arena == nil {
			arena = make([]byte, 0, max(4*largest, min(exportChunk, (len(flows)-i)<<10)))
		}
		at := len(arena)
		s.ingestGate.RLock()
		err := s.cfg.Sink.WithFlow(flow, func(rec *core.Recording) error {
			if !rec.HasFlow(flow) {
				return nil
			}
			var err error
			if arena, err = rec.AppendFlowState(arena, flow); err != nil {
				return err
			}
			rec.Evict(flow)
			return nil
		})
		s.ingestGate.RUnlock()
		if err != nil {
			return out, fmt.Errorf("collector: exporting flow %d: %w", flow, err)
		}
		if state := arena[at:len(arena):len(arena)]; len(state) > 0 {
			out = append(out, wire.FlowState{Flow: flow, State: state})
			largest = max(largest, len(state))
		}
	}
	return out, nil
}

// exportChunk bounds ExportFlows' arena chunks: a few hundred flow states
// of the size the testbench plan produces.
const exportChunk = 256 << 10

// HandoffFlows returns how many flows this collector has imported over
// the hand-off path since it started.
func (s *Server) HandoffFlows() uint64 { return s.handoffFlows.Load() }

// ingestHandoffFrame folds one hand-off frame's flow states into the sink,
// one at a time in frame order, each under its owning shard's lock, and
// returns how many flows were imported. A refused state (another format or
// plan, duplicate flow, corrupt state) stops the frame there: the states
// before it stay imported and are counted in the returned number, the
// refused one and every later one are not, and the error tears the session
// down — a partially-imported resize must be loud, not silent. A frame
// refused as a whole (durable member, malformed payload) imports nothing.
func (s *Server) ingestHandoffFrame(payload []byte) (int, error) {
	if s.cfg.Durable != nil {
		return 0, fmt.Errorf("collector: hand-off into a durable collector is not supported (imported state would not survive log replay)")
	}
	states, err := wire.AppendUnmarshalHandoff(nil, payload)
	if err != nil {
		return 0, err
	}
	for i, fs := range states {
		fs := fs
		s.ingestGate.RLock()
		err := s.cfg.Sink.WithFlow(fs.Flow, func(rec *core.Recording) error {
			return rec.RestoreFlowState(fs.Flow, fs.State)
		})
		s.ingestGate.RUnlock()
		if err != nil {
			return i, fmt.Errorf("collector: importing flow %d: %w", fs.Flow, err)
		}
	}
	return len(states), nil
}

// SendHandoff ships drained flow states to a collector at addr over an
// ordinary handshaked session (hello must carry the destination's plan
// hash and — critically — the *new* cluster epoch), batching states into
// CRC-framed hand-off payloads. It returns the number of flows shipped.
// The destination acknowledges by closing: after the last frame the
// session half-closes, and SendHandoff returns only once the destination
// has closed its end, which it does after folding every frame it read. So
// when SendHandoff returns, the destination's HandoffFlows already counts
// every state it imported. A refused state also ends the session; it shows
// there, not here, unless frames were still being sent.
func SendHandoff(addr string, hello wire.Hello, states []wire.FlowState) (int, error) {
	if len(states) == 0 {
		return 0, nil
	}
	ex, err := dial(addr, hello)
	if err != nil {
		return 0, err
	}
	// Each batch — a run of states up to the frame budget — is marshaled
	// behind the frame header it reserves, sealed in place and written from
	// there; the one buffer serves every frame of the session.
	frame := make([]byte, wire.FrameHeaderLen)
	send := func(batch []wire.FlowState) error {
		frame = wire.AppendMarshalHandoff(frame[:wire.FrameHeaderLen], batch)
		if err := wire.SealFrame(frame); err != nil {
			return err
		}
		_, err := ex.conn.Write(frame)
		return err
	}
	sent, bytesInBatch := 0, 0
	for i, fs := range states {
		if bytesInBatch > 0 && bytesInBatch+len(fs.State) > handoffFrameBudget {
			if err := send(states[sent:i]); err != nil {
				ex.Close()
				return sent, err
			}
			sent, bytesInBatch = i, 0
		}
		bytesInBatch += len(fs.State) + 16
	}
	if err := send(states[sent:]); err != nil {
		ex.Close()
		return sent, err
	}
	// Half-close so the destination reads EOF after the last frame, then
	// wait for its close: the import is done once the session is.
	err = ex.conn.(*net.TCPConn).CloseWrite()
	if err == nil {
		ex.conn.SetReadDeadline(time.Now().Add(handoffAckTimeout))
		if _, err = io.Copy(io.Discard, ex.conn); err != nil {
			err = fmt.Errorf("collector: hand-off: waiting for the destination to close: %w", err)
		}
	}
	if cerr := ex.conn.Close(); err == nil {
		err = cerr
	}
	return len(states), err
}

// handoffAckTimeout bounds how long SendHandoff waits for the destination
// to close the session after the last frame.
const handoffAckTimeout = 30 * time.Second

package collector

import (
	"net"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/wire"
)

// This file tracks per-connection ingest state. Each exporter session
// owns a pipeline.Stage and decodes frames straight into it (the fused
// decode-and-shard pass), so the only cross-connection coupling left is
// the sink's per-shard locks — and these counters, which let /stats show
// where each connection's time and bytes went.

// ConnStats is one exporter session's ingest counters, served under
// "conns" in /stats. Counters are cumulative over the session's life;
// the entry disappears when the session ends (its totals remain in the
// server-wide counters).
type ConnStats struct {
	Exporter uint64 `json:"exporter"`
	Name     string `json:"name"`
	// Tenant is the session's resolved QoS tenant (the Hello's tenant
	// label, or admit.DefaultTenant when the exporter sent none).
	Tenant string `json:"tenant"`
	Remote string `json:"remote"`
	// Frames counts checksummed frames decoded; Batches counts staged
	// hand-offs to the sink (one per frame that carried packets).
	Frames  uint64 `json:"frames"`
	Batches uint64 `json:"batches"`
	Packets uint64 `json:"packets"`
	Bytes   uint64 `json:"bytes"`
	// Shed counts packets the QoS layer sampled away from this session;
	// Packets-Shed is what reached the sink.
	Shed uint64 `json:"shed"`
	// StallNs is cumulative time IngestStage waited for a busy shard
	// whose pending slab was full (time spent recording is not counted).
	// A connection whose StallNs grows much faster than its peers' is
	// feeding the hot shard; TCP backpressure is reaching its exporter.
	StallNs uint64 `json:"stall_ns"`
	// StagedDepth is the number of packets currently decoded but not yet
	// handed to the sink (a point-in-time read of the session's stage).
	StagedDepth int64 `json:"staged_depth"`
}

// session is the live counter block behind one ConnStats entry, written
// by the connection handler and read by /stats at any time.
type session struct {
	exporter uint64
	name     string
	tenant   string
	remote   string
	// conn and epoch support live re-routing on fleet resize: when the
	// server's epoch moves past the session's, SetEpoch writes a single
	// wire.NudgeReroute byte on conn (the server→exporter direction is
	// unused after the handshake ack) so the exporter flushes, closes
	// cleanly, and re-handshakes at the new epoch. nudged makes the write
	// one-shot.
	conn    net.Conn
	epoch   uint64
	nudged  atomic.Bool
	frames  atomic.Uint64
	batches atomic.Uint64
	packets atomic.Uint64
	bytes   atomic.Uint64
	shed    atomic.Uint64
	stallNs atomic.Uint64
	staged  atomic.Int64
}

func (c *session) stats() ConnStats {
	return ConnStats{
		Exporter:    c.exporter,
		Name:        c.name,
		Tenant:      c.tenant,
		Remote:      c.remote,
		Frames:      c.frames.Load(),
		Batches:     c.batches.Load(),
		Packets:     c.packets.Load(),
		Bytes:       c.bytes.Load(),
		Shed:        c.shed.Load(),
		StallNs:     c.stallNs.Load(),
		StagedDepth: c.staged.Load(),
	}
}

// sessionSet is the registry of live sessions.
type sessionSet struct {
	mu   sync.Mutex
	live map[*session]struct{}
}

func (ss *sessionSet) add(c *session) {
	ss.mu.Lock()
	if ss.live == nil {
		ss.live = map[*session]struct{}{}
	}
	ss.live[c] = struct{}{}
	ss.mu.Unlock()
}

func (ss *sessionSet) remove(c *session) {
	ss.mu.Lock()
	delete(ss.live, c)
	ss.mu.Unlock()
}

// nudgeStale writes the reroute nudge on every live session whose epoch
// differs from the new cluster epoch. Write errors are ignored: a session
// that is already tearing down will notice the epoch change when it next
// dials anyway.
func (ss *sessionSet) nudgeStale(epoch uint64) {
	ss.mu.Lock()
	var stale []*session
	for c := range ss.live {
		if c.epoch != epoch && c.conn != nil && c.nudged.CompareAndSwap(false, true) {
			stale = append(stale, c)
		}
	}
	ss.mu.Unlock()
	for _, c := range stale {
		c.conn.Write([]byte{wire.NudgeReroute})
	}
}

func (ss *sessionSet) snapshot() []ConnStats {
	ss.mu.Lock()
	out := make([]ConnStats, 0, len(ss.live))
	for c := range ss.live {
		out = append(out, c.stats())
	}
	ss.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Exporter != out[j].Exporter {
			return out[i].Exporter < out[j].Exporter
		}
		return out[i].Remote < out[j].Remote
	})
	return out
}

// ConnStats returns a point-in-time view of every live session's ingest
// counters, sorted by exporter ID (ties broken by remote address). Safe
// from any goroutine at any time.
func (s *Server) ConnStats() []ConnStats {
	return s.sess.snapshot()
}

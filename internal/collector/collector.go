// Package collector is the networked face of the reproduction's
// Recording Module: a TCP daemon that accepts many concurrent exporter
// connections — simulated switches, or cmd/pintload — each streaming
// length-prefixed, checksummed frames of internal/wire digest batches
// into one pipeline.Sink.
//
// The deployment model follows the paper (§2, §5): switches emit tiny
// per-packet digests; a central collector ingests every stream and
// answers queries. This package adds the parts the in-process pipeline
// could not express:
//
//   - a session handshake (wire.Hello) carrying the exporter's ID and its
//     engine's PlanHash, so a switch compiled under a different execution
//     plan is refused at connect time instead of silently corrupting
//     every flow it touches;
//   - per-connection decode isolation: a corrupt or oversized frame
//     (checksum mismatch, bound violation, malformed batch) tears down
//     only that connection, after ingesting nothing from the bad frame —
//     the sink never sees a byte that did not checksum;
//   - parallel ingest: every session decodes frames straight into a
//     private pipeline.Stage (wire's fused decode-and-shard pass) and
//     lands them under the sink's per-shard locks, so connections ingest
//     concurrently — the only serialization is between connections
//     feeding the same shard at the same instant;
//   - backpressure: a session whose chunk finds its shard busy and the
//     shard's bounded pending slab full waits for the shard; that reader
//     stops draining its socket and TCP flow control pushes the pressure
//     back to exactly the exporters feeding the hot shard;
//   - graceful drain: Shutdown stops accepting, gives in-flight sessions
//     a grace period to finish, then barriers the sink so every ingested
//     packet is recorded before the process exits.
//
// Snapshot queries are served over HTTP by Handler (see http.go): the
// same Sink.Snapshot()/Merged path the in-process harness uses, so a
// loopback deployment answers bit-identically to a direct sink. The
// handler closes its snapshot however the request ends, handing the
// shards back the flows it held, so a query costs ingest only while it is
// being answered.
package collector

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admit"
	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/wire"
)

// config is the Server's resolved configuration — the form the
// functional options (see options.go) populate and New validates.
type config struct {
	// Engine is the compiled execution plan the collector expects every
	// exporter to share; its PlanHash gates the session handshake.
	Engine *core.Engine
	// Sink receives every decoded digest batch. Each connection ingests
	// concurrently through its own pipeline.Stage; Shutdown barriers the
	// sink; the caller still owns Close.
	Sink *pipeline.Sink
	// Queries lists the engine's queries for the HTTP snapshot endpoints.
	Queries []core.Query
	// Epoch is the cluster partitioning epoch this collector belongs to
	// (0 for a standalone daemon). Sessions whose Hello carries a
	// different epoch are refused with wire.AckEpochMismatch: an exporter
	// routing flows under a stale fleet map must not ingest here, or a
	// repartitioned flow's digests would split across two homes.
	Epoch uint64
	// Durable, when non-nil, attaches the collector's durable tier (built
	// with OpenDurableSink). Sink may be left nil — it defaults to
	// Durable.Sink — and /snapshot gains the ?since=/?until= historical
	// window parameters. The server owns the checkpoint cadence; the
	// caller still owns DurableSink.Close after Shutdown.
	Durable *DurableSink
	// CheckpointEvery is the background checkpoint+fsync interval when
	// Durable is set (default 1s; < 0 disables the background cadence —
	// checkpoints then happen only at Shutdown or by explicit call).
	CheckpointEvery time.Duration
	// Logf, when non-nil, receives one line per session event (open,
	// close, error). Nil means silent.
	Logf func(format string, args ...any)
	// TenantPolicy configures the multi-tenant QoS layer (see
	// WithTenantPolicy). The zero policy disables it.
	TenantPolicy admit.Policy
}

// Stats is a point-in-time view of the server's counters. Packets
// counts every decoded (offered) packet; Shed counts those the QoS
// layer sampled away, so Packets-Shed is what reached the sink.
type Stats struct {
	Sessions   uint64 `json:"sessions"`
	Active     int64  `json:"active"`
	Rejected   uint64 `json:"rejected"`
	Frames     uint64 `json:"frames"`
	Packets    uint64 `json:"packets"`
	Bytes      uint64 `json:"bytes"`
	Shed       uint64 `json:"shed"`
	ConnErrors uint64 `json:"conn_errors"`
}

// Accumulate folds another server's counters into s — the query
// frontend's rule for presenting fleet-wide totals.
func (s *Stats) Accumulate(o Stats) {
	s.Sessions += o.Sessions
	s.Active += o.Active
	s.Rejected += o.Rejected
	s.Frames += o.Frames
	s.Packets += o.Packets
	s.Bytes += o.Bytes
	s.Shed += o.Shed
	s.ConnErrors += o.ConnErrors
}

// Server is the collector daemon. Create with New, run with Serve, stop
// with Shutdown.
type Server struct {
	cfg      config
	planHash uint64
	// admitter is the QoS front (nil when no tenant policy is
	// configured — the admit-everything fast path).
	admitter *admit.Admitter

	mu      sync.Mutex
	ln      net.Listener
	conns   map[net.Conn]struct{}
	closing bool
	wg      sync.WaitGroup
	// drained closes once the first Shutdown caller has flushed and
	// barriered the sink; later callers wait on it so every Shutdown
	// return means "the sink is queryable".
	drained chan struct{}
	// stopCkpt stops the background checkpoint goroutine (nil when the
	// collector has no durable tier); ckptDone is how Shutdown waits for it
	// to have returned, so no checkpoint runs once Shutdown has.
	stopCkpt     chan struct{}
	stopCkptOnce sync.Once
	ckptDone     sync.WaitGroup

	// sess tracks live sessions for the /stats per-connection section.
	sess sessionSet

	// epoch is the live cluster partitioning epoch. It starts at
	// cfg.Epoch and moves via SetEpoch during a fleet resize; the
	// handshake checks it, so sessions dialed after a resize must carry
	// the new epoch while live sessions get the reroute nudge instead.
	epoch atomic.Uint64

	sessions   atomic.Uint64
	active     atomic.Int64
	rejected   atomic.Uint64
	frames     atomic.Uint64
	packets    atomic.Uint64
	bytes      atomic.Uint64
	shed       atomic.Uint64
	connErrors atomic.Uint64
	// handoffFlows counts flows imported over the hand-off path during a
	// fleet resize (exposed via HandoffFlows, not /stats — the stats
	// schema is versioned).
	handoffFlows atomic.Uint64
}

// New builds a Server for engine from functional options (options.go),
// validating the resolved configuration: the engine must be non-nil, a
// sink must come from WithSink or WithDurable (and may not contradict the
// durable tier's own), and the tenant policy must validate — so a
// misconfiguration errors at construction instead of panicking somewhere
// inside Serve.
func New(engine *core.Engine, opts ...Option) (*Server, error) {
	cfg := config{Engine: engine}
	for _, opt := range opts {
		if opt != nil {
			opt(&cfg)
		}
	}
	if cfg.Engine == nil {
		return nil, fmt.Errorf("collector: nil engine")
	}
	if cfg.Durable != nil {
		if cfg.Sink == nil {
			cfg.Sink = cfg.Durable.Sink
		} else if cfg.Sink != cfg.Durable.Sink {
			return nil, fmt.Errorf("collector: Sink differs from Durable.Sink")
		}
		if cfg.CheckpointEvery == 0 {
			cfg.CheckpointEvery = time.Second
		}
	}
	if cfg.Sink == nil {
		return nil, fmt.Errorf("collector: nil sink")
	}
	admitter, err := admit.NewAdmitter(cfg.TenantPolicy)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:      cfg,
		planHash: cfg.Engine.PlanHash(),
		admitter: admitter,
		conns:    map[net.Conn]struct{}{},
		drained:  make(chan struct{}),
	}
	if cfg.Durable != nil && cfg.CheckpointEvery > 0 {
		// The cadence goroutine itself starts lazily in Serve: a Server
		// that is constructed but never served must not leak a ticker
		// that keeps checkpointing a DurableSink the caller closed.
		s.stopCkpt = make(chan struct{})
	}
	s.epoch.Store(cfg.Epoch)
	return s, nil
}

// Epoch returns the live cluster partitioning epoch.
func (s *Server) Epoch() uint64 { return s.epoch.Load() }

// SetEpoch moves the collector to a new cluster epoch, as the first step
// of a fleet resize. New handshakes must carry the new epoch
// (AckEpochMismatch otherwise — the recoverable "fetch the new fleet map
// and re-dial" signal); every live session still on an older epoch gets
// a single wire.NudgeReroute byte so its exporter flushes, closes
// cleanly, and re-routes. Safe from any goroutine.
func (s *Server) SetEpoch(epoch uint64) {
	if s.epoch.Swap(epoch) != epoch {
		s.sess.nudgeStale(epoch)
	}
}

// PlanHash returns the hash the server demands in every Hello.
func (s *Server) PlanHash() uint64 { return s.planHash }

// Stats returns the server's counters.
func (s *Server) Stats() Stats {
	return Stats{
		Sessions:   s.sessions.Load(),
		Active:     s.active.Load(),
		Rejected:   s.rejected.Load(),
		Frames:     s.frames.Load(),
		Packets:    s.packets.Load(),
		Bytes:      s.bytes.Load(),
		Shed:       s.shed.Load(),
		ConnErrors: s.connErrors.Load(),
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Serve accepts exporter sessions on ln until Shutdown or a listener
// error. Shutdown makes Serve return nil whether it arrives during Serve
// or before it — a Serve that loses the race to Shutdown closes ln and
// returns nil at once, the counterpart of net/http's ErrServerClosed —
// so a daemon that signals a drain while still starting up exits clean.
// One Serve per Server.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		ln.Close()
		return nil
	}
	if s.ln != nil {
		s.mu.Unlock()
		ln.Close()
		return fmt.Errorf("collector: Serve called twice")
	}
	s.ln = ln
	if s.stopCkpt != nil {
		// First (and only — Serve-twice errors above) Serve owns starting
		// the background checkpoint cadence; Shutdown stops and joins it.
		s.ckptDone.Add(1)
		go s.runCheckpoints(s.cfg.CheckpointEvery)
	}
	s.mu.Unlock()

	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.isClosing() {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closing {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handleConn(conn)
	}
}

func (s *Server) isClosing() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closing
}

func (s *Server) dropConn(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	conn.Close()
	s.wg.Done()
}

// handleConn runs one exporter session: handshake, ack, then a frame →
// decode → ingest loop until EOF, error, or shutdown.
func (s *Server) handleConn(conn net.Conn) {
	defer s.dropConn(conn)

	conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
	hello, err := wire.ReadHello(conn)
	if err != nil {
		s.rejected.Add(1)
		s.logf("collector: %s: handshake: %v", conn.RemoteAddr(), err)
		return
	}
	ack := wire.AckOK
	switch {
	case s.isClosing():
		ack = wire.AckRejected
	case hello.PlanHash != s.planHash:
		ack = wire.AckPlanMismatch
	case hello.Epoch != s.epoch.Load():
		ack = wire.AckEpochMismatch
	}
	if _, err := conn.Write([]byte{ack}); err != nil {
		// The session was not refused — the transport died under the
		// ack write. Count it as a connection error, not a rejection.
		s.connErrors.Add(1)
		s.logf("collector: %s: exporter %d (%s): writing ack: %v",
			conn.RemoteAddr(), hello.Exporter, hello.Name, err)
		return
	}
	if ack != wire.AckOK {
		s.rejected.Add(1)
		s.logf("collector: %s: exporter %d (%s) refused: ack=%d",
			conn.RemoteAddr(), hello.Exporter, hello.Name, ack)
		return
	}
	conn.SetReadDeadline(time.Time{})
	s.sessions.Add(1)
	s.active.Add(1)
	defer s.active.Add(-1)
	s.logf("collector: %s: exporter %d (%s) session open", conn.RemoteAddr(), hello.Exporter, hello.Name)

	// Resolve the session's tenant meter (nil without a tenant policy —
	// the admit-everything fast path). Meters outlive sessions, so the
	// tenant's accounting survives reconnects.
	tenant := s.admitter.Tenant(hello.Tenant)
	tenant.AddSession(1)
	defer tenant.AddSession(-1)
	tenantName := hello.Tenant
	if tenantName == "" {
		tenantName = admit.DefaultTenant
	}

	sess := &session{exporter: hello.Exporter, name: hello.Name,
		tenant: tenantName, remote: conn.RemoteAddr().String(),
		conn: conn, epoch: hello.Epoch}
	s.sess.add(sess)
	defer s.sess.remove(sess)
	// A SetEpoch that ran between the ack above and this registration
	// found no session to nudge; catch up (the nudge is one-shot per
	// session, so one already delivered is not repeated).
	s.sess.nudgeStale(s.epoch.Load())

	// The per-connection pipeline: this goroutine decodes each frame
	// straight into its private stage (computing flow→shard routing
	// during unmarshal) and lands the staged chunks under the sink's
	// per-shard locks. No cross-connection mutex — sessions feeding
	// disjoint shards never contend at all.
	fr := wire.NewFrameReader(conn, wire.DefaultMaxFramePayload)
	st := s.cfg.Sink.NewStage()
	bufs := st.Buffers()
	for {
		payload, err := fr.Next()
		if err != nil {
			switch {
			case err == io.EOF:
				s.logf("collector: exporter %d (%s) closed cleanly", hello.Exporter, hello.Name)
			case s.isClosing() && isDeadlineErr(err):
				s.logf("collector: exporter %d (%s) drained at shutdown", hello.Exporter, hello.Name)
			default:
				s.connErrors.Add(1)
				s.logf("collector: exporter %d (%s) dropped: %v", hello.Exporter, hello.Name, err)
			}
			return
		}
		// Hand-off frames (fleet resize: a departing home shipping a
		// flow's drained state) share the framing but not the decode
		// path — they fold whole recording states into the sink instead
		// of staging digests.
		if wire.IsHandoffPayload(payload) {
			imported, err := s.ingestHandoffFrame(payload)
			// A refused frame keeps the states it imported before the
			// refusal; they count like any other.
			s.handoffFlows.Add(uint64(imported))
			if err != nil {
				s.connErrors.Add(1)
				s.logf("collector: exporter %d (%s) hand-off refused: %v", hello.Exporter, hello.Name, err)
				return
			}
			s.frames.Add(1)
			s.bytes.Add(uint64(wire.FrameHeaderLen + len(payload)))
			sess.frames.Add(1)
			sess.bytes.Add(uint64(wire.FrameHeaderLen + len(payload)))
			continue
		}
		// Decode before touching the sink: a malformed batch inside a
		// valid frame still poisons nothing — a failed fused decode may
		// leave a prefix staged, and Reset discards it before teardown.
		n, err := wire.AppendUnmarshalSharded(bufs, payload)
		if err != nil {
			st.Reset()
			s.connErrors.Add(1)
			s.logf("collector: exporter %d (%s) dropped: %v", hello.Exporter, hello.Name, err)
			return
		}
		s.frames.Add(1)
		s.bytes.Add(uint64(wire.FrameHeaderLen + len(payload)))
		s.packets.Add(uint64(n))
		sess.frames.Add(1)
		sess.bytes.Add(uint64(wire.FrameHeaderLen + len(payload)))
		sess.packets.Add(uint64(n))
		if n == 0 {
			continue
		}
		// QoS admission: one decision per frame, applied packet-by-packet
		// to the staged buffers in place. The decision is a pure function
		// of (policy, tenant, clock), and Keep of (seed, flow, pktID) —
		// identical runs shed identical packets.
		kept := n
		if tenant != nil {
			if d := tenant.Decide(n); !d.Admit() {
				kept = shedStaged(bufs, tenant, d)
				dropped := uint64(n - kept)
				sess.shed.Add(dropped)
				s.shed.Add(dropped)
			}
			tenant.Account(kept, n)
			if kept == 0 {
				// Everything shed: the buffers are already empty, skip the
				// sink hand-off entirely.
				sess.batches.Add(1)
				continue
			}
		}
		sess.staged.Store(int64(kept))
		waited := s.cfg.Sink.IngestStage(st)
		sess.stallNs.Add(uint64(waited))
		sess.staged.Store(0)
		sess.batches.Add(1)
		if s.admitter != nil {
			// Feed the wait on full slabs back to the capacity controller: a
			// long one means the sink is behind and admission should back
			// off. Time spent recording (other sessions' chunks too) is the
			// sink working, and does not count.
			s.admitter.ReportStall(waited >= stallThreshold)
		}
	}
}

// stallThreshold is the wait on a full shard slab above which a frame's
// ingest counts as a stall for the AIMD capacity controller: a shard held
// that long while its slab filled is behind.
const stallThreshold = time.Millisecond

// shedStaged filters every staged per-shard buffer in place through the
// tenant's seeded per-packet test, returning how many packets survived.
// Stage.Buffers returns the stage's own slices, so the filtered buffers
// are exactly what the subsequent IngestStage lands.
func shedStaged(bufs [][]core.PacketDigest, t *admit.Tenant, d admit.Decision) int {
	kept := 0
	for i := range bufs {
		buf := bufs[i][:0]
		for _, pd := range bufs[i] {
			if t.Keep(d, uint64(pd.Flow), pd.PktID) {
				buf = append(buf, pd)
			}
		}
		bufs[i] = buf
		kept += len(buf)
	}
	return kept
}

func isDeadlineErr(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout() || errors.Is(err, os.ErrDeadlineExceeded) ||
		errors.Is(err, net.ErrClosed)
}

// Shutdown drains the server: it stops accepting sessions, waits for the
// open ones to finish (exporters closing their connections) until ctx
// expires, force-closes whatever remains, and finally barriers the sink
// so every ingested packet is recorded. The sink is
// left open — the caller queries it and owns its Close. Shutdown is
// idempotent; concurrent calls share the drain.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.stopCkpt != nil {
		s.stopCkptOnce.Do(func() { close(s.stopCkpt) })
	}
	s.mu.Lock()
	already := s.closing
	s.closing = true
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		// Grace expired: unblock every reader. Sessions mid-frame lose
		// that frame; everything already decoded is in the sink.
		for _, c := range conns {
			c.SetReadDeadline(time.Now())
		}
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			for _, c := range conns {
				c.Close()
			}
			<-done
		}
		err = ctx.Err()
	}
	if already {
		// Another caller owns the final flush; wait for it (or our own
		// deadline) so returning still means the sink is queryable.
		select {
		case <-s.drained:
		case <-ctx.Done():
			if err == nil {
				err = ctx.Err()
			}
		}
		return err
	}
	// The cadence goroutine was told to stop on entry; wait it out (a round
	// in flight finishes on its own), so none can start after Shutdown
	// returns and the caller closes the durable sink.
	s.ckptDone.Wait()
	s.cfg.Sink.Barrier()
	if s.cfg.Durable != nil {
		// End the log with a verifiable round covering everything the
		// drain ingested, fsynced — a SIGKILL arriving after Shutdown
		// loses nothing.
		if cerr := s.cfg.Durable.Checkpoint(); cerr != nil && err == nil {
			err = cerr
		}
	}
	close(s.drained)
	return err
}

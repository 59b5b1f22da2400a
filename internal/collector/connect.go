package collector

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/wire"
)

// Connect is the one way to open exporter sessions: a standalone
// collector and a fleet share it, mirroring the server side's
// collector.New(engine, WithSink(...)) pattern. Where the sessions go is
// described once, by a FleetRoster — WithAddrs is the one-member roster
// of a collector outside any fleet, WithFleetMap takes a fleet's map:
//
//	fe, err := collector.Connect(tb.Engine, 7, "tor-7",
//	        collector.WithFleetMap(fm),          // addrs + routing + epoch from the map
//	        collector.WithRosterFetch(fetch),    // live re-routing across resizes
//	        collector.WithTenant("team-a"),
//	        collector.WithCoalesce(16<<10))
//
// With WithRosterFetch set, the session survives fleet resizes: a
// collector that moves to a new epoch nudges the session
// (wire.NudgeReroute) or refuses the next dial (wire.ErrEpochMismatch —
// the recoverable ack); either way the exporter flushes what it sent,
// closes cleanly (so nothing in flight is lost), polls the fetch until a
// newer fleet map appears, re-handshakes at the new epoch, and
// re-partitions its unsent routing buffers under the new map.

// FleetRoster is the collector-tier view of a fleet configuration: an
// epoch, the members' ingest addresses, and the flow→member routing.
// internal/federation's FleetMap implements it; the indirection keeps the
// dependency arrow pointing federation→collector.
type FleetRoster interface {
	// FleetEpoch is the partitioning epoch every session handshake must
	// carry.
	FleetEpoch() uint64
	// IngestAddrs lists the members' exporter-session TCP addresses, in
	// routing order.
	IngestAddrs() []string
	// FlowHome maps a flow to its home member (an index into
	// IngestAddrs).
	FlowHome(core.FlowKey) int
}

// Standalone is the roster of one collector outside any fleet, named by
// its ingest address: every flow is at home there, and the epoch is 0
// (what a pintd started without -epoch accepts).
type Standalone string

func (a Standalone) FleetEpoch() uint64        { return 0 }
func (a Standalone) IngestAddrs() []string     { return []string{string(a)} }
func (a Standalone) FlowHome(core.FlowKey) int { return 0 }

// dialConfig is the resolved form of Connect's options.
type dialConfig struct {
	roster   FleetRoster
	fetch    func() (FleetRoster, error)
	tenant   string
	coalesce int
	batch    int
}

// DialOption configures Connect.
type DialOption func(*dialConfig)

// WithAddrs points the session at one standalone collector (epoch 0).
// A fleet is described by its map: see WithFleetMap.
func WithAddrs(addr string) DialOption {
	return func(c *dialConfig) { c.roster = Standalone(addr) }
}

// WithTenant labels the session with a QoS tenant (wire.Hello.Tenant).
func WithTenant(tenant string) DialOption {
	return func(c *dialConfig) { c.tenant = tenant }
}

// WithCoalesce sets the per-session write-coalescing threshold in bytes
// (see Exporter.SetCoalesce for the latency/throughput trade-off).
func WithCoalesce(bytes int) DialOption {
	return func(c *dialConfig) { c.coalesce = bytes }
}

// WithFrameBatch sets the per-member frame size in packets (default
// 256).
func WithFrameBatch(n int) DialOption {
	return func(c *dialConfig) { c.batch = n }
}

// WithFleetMap takes addresses, routing, and epoch from a fleet map
// (federation.FleetMap implements FleetRoster).
func WithFleetMap(roster FleetRoster) DialOption {
	return func(c *dialConfig) { c.roster = roster }
}

// WithRosterFetch enables live re-routing: fetch is polled for the
// current fleet map whenever the session learns its epoch went stale
// (reroute nudge on a live session, or wire.ErrEpochMismatch on a dial).
// Typically the fetch GETs the pintgate frontend's /fleetmap endpoint.
func WithRosterFetch(fetch func() (FleetRoster, error)) DialOption {
	return func(c *dialConfig) { c.fetch = fetch }
}

// Connect opens exporter sessions to a collector fleet (or a single
// collector) and returns the routing exporter. See the file comment for
// the option surface; engine supplies the plan hash the handshake pins.
// Any member refusing the handshake fails the whole dial — a fleet where
// some members reject the epoch would silently drop those members'
// flows — except that with WithRosterFetch a stale epoch on first
// contact (the fleet resized between the caller obtaining its map and
// this dial) is recovered exactly like a live session would.
func Connect(engine *core.Engine, exporterID uint64, name string, opts ...DialOption) (*FleetExporter, error) {
	if engine == nil {
		return nil, fmt.Errorf("collector: nil engine")
	}
	cfg := dialConfig{batch: 256}
	for _, o := range opts {
		if o != nil {
			o(&cfg)
		}
	}
	if cfg.roster == nil {
		return nil, fmt.Errorf("collector: Connect needs a collector to dial (WithAddrs or WithFleetMap)")
	}
	if cfg.batch < 1 {
		cfg.batch = 256
	}
	f := &FleetExporter{
		roster:   cfg.roster,
		batch:    cfg.batch,
		hello:    HelloFor(engine, exporterID, name),
		coalesce: cfg.coalesce,
		fetch:    cfg.fetch,
		patience: rerouteDeadline,
	}
	f.hello.Tenant = cfg.tenant
	if err := f.redial(time.Now().Add(f.patience)); err != nil {
		return nil, err
	}
	f.bufs = f.newBufs()
	return f, nil
}

// rerouteDeadline bounds how long a rerouting exporter polls the roster
// fetch for a newer fleet map before giving up. Resizes publish the new
// map only after state migration completes, so the poll spans the whole
// hand-off.
const rerouteDeadline = 60 * time.Second

// redial opens the sessions of f.roster. With a roster fetch, an epoch
// refusal (this exporter raced a resize) fetches a newer map and tries
// again until the deadline.
func (f *FleetExporter) redial(deadline time.Time) error {
	for {
		err := f.dialAll()
		if err == nil {
			return nil
		}
		if f.fetch == nil || !errors.Is(err, wire.ErrEpochMismatch) || !time.Now().Before(deadline) {
			return err
		}
		if perr := f.pollRoster(deadline); perr != nil {
			return fmt.Errorf("%w (and fetching a newer fleet map failed: %v)", err, perr)
		}
	}
}

// dialAll opens one session per member of f.roster at its epoch,
// replacing f.exps. Any refusal closes what was opened and fails the
// dial.
func (f *FleetExporter) dialAll() error {
	addrs := f.roster.IngestAddrs()
	if len(addrs) == 0 {
		return fmt.Errorf("collector: fleet map (epoch %d) has no members", f.roster.FleetEpoch())
	}
	hello := f.hello
	hello.Epoch = f.roster.FleetEpoch()
	f.exps = make([]*Exporter, len(addrs))
	gen := f.gen.Add(1)
	for i, addr := range addrs {
		ex, err := dial(addr, hello)
		if err != nil {
			f.closeSessions()
			return fmt.Errorf("collector: fleet member %d (%s): %w", i, addr, err)
		}
		f.exps[i] = ex
		ex.SetCoalesce(f.coalesce)
		if f.fetch != nil {
			go f.watch(ex, gen)
		}
	}
	return nil
}

// watch blocks reading the member session for the reroute nudge. The
// server→exporter direction carries nothing after the handshake ack, so
// any byte is a signal (and only wire.NudgeReroute is defined); a read
// error just means the session ended. The nudge records the generation
// the session belongs to — never moving it backwards — so a late nudge
// from a session rehome already replaced is inert.
func (f *FleetExporter) watch(ex *Exporter, gen uint64) {
	buf := make([]byte, 1)
	for {
		n, err := ex.conn.Read(buf)
		if n > 0 {
			if buf[0] == wire.NudgeReroute {
				for {
					cur := f.nudgedGen.Load()
					if gen <= cur || f.nudgedGen.CompareAndSwap(cur, gen) {
						break
					}
				}
			}
			return
		}
		if err != nil {
			return
		}
	}
}

// RerouteRequested reports whether a collector has signalled that the
// exporter's epoch went stale (the next Send, or an explicit Poke, will
// re-route): a nudge from the *current* session generation is pending.
func (f *FleetExporter) RerouteRequested() bool {
	g := f.gen.Load()
	return g != 0 && f.nudgedGen.Load() == g
}

// Poke services a pending reroute without sending anything: if a nudge
// arrived, the exporter flushes, closes, fetches the new fleet map, and
// re-handshakes — exactly what the next Send would do. Harnesses that
// pause between sends call this so a mid-stream resize can finish while
// they wait (the resize coordinator waits for stale sessions to close).
func (f *FleetExporter) Poke() error {
	if f.err == nil && f.fetch != nil && f.RerouteRequested() {
		f.err = f.rehome()
	}
	return f.err
}

// rehome is the live re-routing path: flush and cleanly close every
// session (a clean close means the collector ingested every byte sent —
// zero loss), poll the roster fetch until a map with a *newer* epoch
// appears (the coordinator publishes it only after state hand-off
// completes), re-handshake everywhere at the new epoch, and only then
// re-partition the unsent routing buffers under the new map. Until that
// last step the unsent packets stay in f.bufs, so a failure on the way
// strands nothing silently: Poke records it in f.err, every later call
// returns it, and Close reports the packets still held.
//
// The pending nudge is consumed implicitly: dialAll bumps the session
// generation, which invalidates every nudge recorded against the
// sessions closed here.
func (f *FleetExporter) rehome() error {
	// Close cleanly: each session's coalescing buffer is flushed before
	// the FIN, so everything already handed to a session is ingested.
	if err := f.closeSessions(); err != nil {
		return fmt.Errorf("collector: reroute: closing stale sessions: %w", err)
	}
	deadline := time.Now().Add(f.patience)
	if err := f.pollRoster(deadline); err != nil {
		return err
	}
	if err := f.redial(deadline); err != nil {
		return err
	}
	// Re-partition: conservation, not loss — every unsent packet is
	// re-routed to its (possibly new) home under the new map.
	unsent := f.bufs
	f.bufs = f.newBufs()
	for _, buf := range unsent {
		for i := range buf {
			n := f.roster.FlowHome(buf[i].Flow)
			if n < 0 || n >= len(f.exps) {
				f.bufs = unsent
				return fmt.Errorf("collector: reroute sent flow %v to member %d of %d", buf[i].Flow, n, len(f.exps))
			}
			f.bufs[n] = append(f.bufs[n], buf[i])
		}
	}
	return nil
}

// pollRoster fetches the fleet map until its epoch differs from the one
// the exporter holds, then installs it.
func (f *FleetExporter) pollRoster(deadline time.Time) error {
	for {
		roster, err := f.fetch()
		if err == nil && roster != nil && roster.FleetEpoch() != f.roster.FleetEpoch() {
			f.roster = roster
			return nil
		}
		if !time.Now().Before(deadline) {
			if err != nil {
				return fmt.Errorf("collector: reroute: fleet map fetch: %w", err)
			}
			return fmt.Errorf("collector: reroute: no newer fleet map appeared within %v", f.patience)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// newBufs allocates one empty routing buffer per live session.
func (f *FleetExporter) newBufs() [][]core.PacketDigest {
	bufs := make([][]core.PacketDigest, len(f.exps))
	for i := range bufs {
		bufs[i] = make([]core.PacketDigest, 0, f.batch)
	}
	return bufs
}

// closeSessions ends every member session (flushing their coalescing
// buffers) without touching the routing buffers, and folds the closed
// sessions' counters into the exporter's totals so Packets and Bytes
// span session generations.
func (f *FleetExporter) closeSessions() error {
	var err error
	for _, ex := range f.exps {
		if ex == nil { // a dialAll that failed part-way
			continue
		}
		if cerr := ex.Close(); err == nil {
			err = cerr
		}
		f.closedPackets += ex.Packets()
		f.closedBytes += ex.Bytes()
	}
	f.exps = nil
	return err
}

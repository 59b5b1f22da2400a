package federation

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/collector"
	"repro/internal/pipeline"
)

// Member is one fleet node: a collector daemon, its sharded sink, and
// its two loopback listeners (exporter TCP + query HTTP).
type Member struct {
	Name string
	Sink *pipeline.Sink
	Srv  *collector.Server

	tcpLn    net.Listener
	httpLn   net.Listener
	httpSrv  *http.Server
	serveErr chan error
	stopped  bool
}

// TCPAddr returns the member's exporter-session address.
func (m *Member) TCPAddr() string { return m.tcpLn.Addr().String() }

// HTTPURL returns the member's query endpoint base URL.
func (m *Member) HTTPURL() string { return "http://" + m.httpLn.Addr().String() }

// Fleet is an in-process federated deployment over one Testbench plan:
// n collector daemons on loopback listeners, every member compiled under
// the same engine and seeded with the same recording base, so the fleet
// as a whole answers byte-identically to one collector that ingested the
// same flows. It is the test and pintbench harness; production runs the
// same shape as n cmd/pintd processes plus cmd/pintgate.
type Fleet struct {
	TB *collector.Testbench
	// Epoch is the published map's epoch (CurrentMap); publish moves the
	// two together.
	Epoch   uint64
	Members []*Member

	shards int
	// mu guards curMap: exporter goroutines read it through RosterFetch
	// while Resize swaps in the next epoch's map.
	mu     sync.RWMutex
	curMap *FleetMap
}

// fleetConfig is the resolved form of NewFleet's options.
type fleetConfig struct {
	size   int
	shards int
	epoch  uint64
}

// FleetOption configures NewFleet.
type FleetOption func(*fleetConfig)

// WithSize sets the initial fleet size in members (default 1).
func WithSize(n int) FleetOption {
	return func(c *fleetConfig) { c.size = n }
}

// WithShards sets each member's sink shard count (default 1).
func WithShards(n int) FleetOption {
	return func(c *fleetConfig) { c.shards = n }
}

// WithFleetEpoch sets the starting cluster epoch (default 1). Resize
// advances it by one per resize.
func WithFleetEpoch(epoch uint64) FleetOption {
	return func(c *fleetConfig) { c.epoch = epoch }
}

// NewFleet stands up an in-process fleet over tb's plan — the options
// entry point mirroring collector.New and collector.Connect:
//
//	f, err := federation.NewFleet(tb,
//	        federation.WithSize(4),
//	        federation.WithShards(2),
//	        federation.WithFleetEpoch(7))
//
// Every member gets an ephemeral loopback TCP listener (exporter
// sessions) and an HTTP listener (queries) served through the hardened
// server, all fenced to the starting epoch.
func NewFleet(tb *collector.Testbench, opts ...FleetOption) (*Fleet, error) {
	cfg := fleetConfig{size: 1, shards: 1, epoch: 1}
	for _, o := range opts {
		if o != nil {
			o(&cfg)
		}
	}
	if cfg.size < 1 {
		return nil, fmt.Errorf("federation: fleet size %d below 1", cfg.size)
	}
	f := &Fleet{TB: tb, shards: cfg.shards}
	for i := 0; i < cfg.size; i++ {
		m, err := startMember(tb, fmt.Sprintf("node-%d", i), cfg.shards, cfg.epoch)
		if err != nil {
			f.Shutdown(context.Background())
			return nil, err
		}
		f.Members = append(f.Members, m)
	}
	fm, err := fleetMapOf(cfg.epoch, f.Members)
	if err != nil {
		f.Shutdown(context.Background())
		return nil, err
	}
	f.publish(fm)
	return f, nil
}

// fleetMapOf describes the given members at epoch. The map partitions
// over the stable member names, not the ephemeral listener addresses:
// the flow→home map must be a pure function of the fleet configuration
// (so goldens, replays, and every exporter agree), and a member keeps
// its flows across a restart that changes its port.
func fleetMapOf(epoch uint64, members []*Member) (*FleetMap, error) {
	entries := make([]FleetMember, len(members))
	for i, m := range members {
		entries[i] = FleetMember{Name: m.Name, Ingest: m.TCPAddr(), Query: m.HTTPURL()}
	}
	return NewFleetMap(epoch, entries)
}

// publish makes fm — the description of f.Members — the fleet's current
// map, the one RosterFetch serves.
func (f *Fleet) publish(fm *FleetMap) {
	f.Epoch = fm.Epoch
	f.mu.Lock()
	f.curMap = fm
	f.mu.Unlock()
}

// CurrentMap returns the fleet's published map — epoch, membership, and
// addresses. During a Resize the previous map stays published until the
// state hand-off completes, so exporters re-routing on the epoch fence
// block until the new partitioning is actually safe to send under.
func (f *Fleet) CurrentMap() *FleetMap {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.curMap
}

// RosterFetch returns the fetch closure exporters pass to
// collector.WithRosterFetch — the in-process stand-in for GETting the
// frontend's /fleetmap endpoint.
func (f *Fleet) RosterFetch() func() (collector.FleetRoster, error) {
	return func() (collector.FleetRoster, error) { return f.CurrentMap(), nil }
}

func startMember(tb *collector.Testbench, name string, shards int, epoch uint64) (*Member, error) {
	sink, err := pipeline.NewSink(tb.Engine, pipeline.Config{Shards: shards, Base: tb.Base})
	if err != nil {
		return nil, err
	}
	srv, err := collector.New(tb.Engine,
		collector.WithSink(sink),
		collector.WithQueries(tb.Queries()...),
		collector.WithEpoch(epoch),
	)
	if err != nil {
		sink.Close()
		return nil, err
	}
	tcpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sink.Close()
		return nil, err
	}
	httpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tcpLn.Close()
		sink.Close()
		return nil, err
	}
	m := &Member{
		Name:     name,
		Sink:     sink,
		Srv:      srv,
		tcpLn:    tcpLn,
		httpLn:   httpLn,
		httpSrv:  srv.HTTPServer(nil),
		serveErr: make(chan error, 1),
	}
	go func() { m.serveErr <- srv.Serve(tcpLn) }()
	go m.httpSrv.Serve(httpLn)
	return m, nil
}

// HTTPURLs lists every member's query base URL in member order — the
// list the query frontend fans out over.
func (f *Fleet) HTTPURLs() []string {
	out := make([]string, len(f.Members))
	for i, m := range f.Members {
		out[i] = m.HTTPURL()
	}
	return out
}

// WaitIngested blocks until the fleet's members have collectively
// ingested want packets with no active sessions — at which point every
// ingested packet is dispatched (collectors flush at session end) and
// visible to snapshots — or until the deadline.
func (f *Fleet) WaitIngested(want uint64, deadline time.Duration) error {
	t0 := time.Now()
	for {
		var packets uint64
		var active int64
		for _, m := range f.Members {
			st := m.Srv.Stats()
			packets += st.Packets
			active += st.Active
		}
		if packets == want && active == 0 {
			return nil
		}
		if packets > want {
			return fmt.Errorf("federation: fleet ingested %d packets, want %d", packets, want)
		}
		if time.Since(t0) > deadline {
			return fmt.Errorf("federation: fleet ingested %d/%d packets (%d active) at deadline", packets, want, active)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// StopMember drains one member and closes its listeners — the "kill one
// node" half of the partial-result contract. The member's HTTP endpoint
// goes dark (connection refused), which is how the frontend learns.
func (f *Fleet) StopMember(ctx context.Context, i int) error {
	m := f.Members[i]
	if m.stopped {
		return nil
	}
	m.stopped = true
	err := m.Srv.Shutdown(ctx)
	m.httpSrv.Close()
	<-m.serveErr
	m.Sink.Close()
	return err
}

// Shutdown drains every member (exporter sessions get ctx's grace), then
// closes HTTP servers and sinks. Safe on a partially started fleet and
// after StopMember.
func (f *Fleet) Shutdown(ctx context.Context) error {
	var first error
	for _, m := range f.Members {
		if m.stopped {
			continue
		}
		if err := m.Srv.Shutdown(ctx); err != nil && first == nil {
			first = err
		}
	}
	for _, m := range f.Members {
		if m.stopped {
			continue
		}
		m.stopped = true
		m.httpSrv.Close()
		<-m.serveErr
		if err := m.Sink.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

package collector_test

import (
	"context"
	"fmt"
	"log"
	"net"

	"repro/internal/admit"
	"repro/internal/collector"
	"repro/internal/core"
	"repro/internal/hash"
	"repro/internal/pipeline"
)

// ExampleConnect runs the whole loop: compile a plan, encode a flow's
// digests switch-side, stream them over a real TCP session whose handshake
// names a tenant to a collector with a QoS policy, and read the versioned
// stats and the decoded path back.
func ExampleConnect() {
	universe := []uint64{11, 22, 33, 44, 55, 66, 77, 88}
	cfg, err := core.DefaultPathConfig(4, 2, 5)
	if err != nil {
		log.Fatal(err)
	}
	q, err := core.NewPathQuery("path", cfg, 1.0, 7, universe)
	if err != nil {
		log.Fatal(err)
	}
	engine, err := core.Compile([]core.Query{q}, 8, 7)
	if err != nil {
		log.Fatal(err)
	}

	// Switch side: 400 packets of one flow walk a 5-hop path.
	path := []uint64{11, 33, 55, 77, 88}
	flow := core.FlowKeyOf(7, "example-flow")
	rng := hash.NewRNG(9)
	pkts := make([]core.PacketDigest, 400)
	vals := make([]core.HopValues, len(pkts))
	for i := range pkts {
		pkts[i] = core.PacketDigest{Flow: flow, PktID: rng.Uint64(), PathLen: len(path)}
	}
	for hop := 1; hop <= len(path); hop++ {
		for i := range vals {
			vals[i].SwitchID = path[hop-1]
		}
		engine.EncodeHopBatch(hop, pkts, vals)
	}

	// Collector side: a sharded sink behind the daemon, with a QoS policy
	// giving every tenant a roomy quota.
	sink, err := pipeline.NewSink(engine, pipeline.Config{Shards: 2, Base: 9})
	if err != nil {
		log.Fatal(err)
	}
	defer sink.Close()
	policy, err := admit.ParsePolicy("*=1e9")
	if err != nil {
		log.Fatal(err)
	}
	srv, err := collector.New(engine,
		collector.WithSink(sink),
		collector.WithQueries(q),
		collector.WithTenantPolicy(policy),
	)
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	// Exporter side: the session handshake names the tenant.
	ex, err := collector.Connect(engine, 1, "example-switch",
		collector.WithAddrs(ln.Addr().String()), collector.WithTenant("team-a"))
	if err != nil {
		log.Fatal(err)
	}
	if err := ex.Send(pkts); err != nil {
		log.Fatal(err)
	}
	if err := ex.Close(); err != nil {
		log.Fatal(err)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		log.Fatal(err)
	}
	if err := <-serveErr; err != nil {
		log.Fatal(err)
	}

	st := srv.StatsV1()
	fmt.Println("schema:", st.Schema)
	for _, ts := range st.Tenants {
		fmt.Printf("tenant %s: offered %d admitted %d shed %d\n",
			ts.Tenant, ts.Offered, ts.Admitted, ts.Shed)
	}
	rec, err := sink.Snapshot().Merged()
	if err != nil {
		log.Fatal(err)
	}
	ids, done := rec.Path(q, flow)
	fmt.Println("path decoded:", done, ids)
	// Output:
	// schema: pint.stats.v1
	// tenant team-a: offered 400 admitted 400 shed 0
	// path decoded: true [11 33 55 77 88]
}

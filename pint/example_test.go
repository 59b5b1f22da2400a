package pint_test

import (
	"context"
	"fmt"
	"log"
	"net"

	"repro/pint"
)

// ExampleNewCollector runs the full public-API loop: compile a plan,
// encode a flow's digests switch-side, stream them over a real TCP
// session to a collector built with functional options — including a
// multi-tenant QoS policy — and read the versioned stats back.
func ExampleNewCollector() {
	universe := []uint64{11, 22, 33, 44, 55, 66, 77, 88}
	cfg, err := pint.DefaultPathConfig(4, 2, 5)
	if err != nil {
		log.Fatal(err)
	}
	q, err := pint.NewPathQuery("path", cfg, 1.0, 7, universe)
	if err != nil {
		log.Fatal(err)
	}
	engine, err := pint.Compile([]pint.Query{q}, 8, 7)
	if err != nil {
		log.Fatal(err)
	}

	// Switch side: 400 packets of one flow walk a 5-hop path.
	path := []uint64{11, 33, 55, 77, 88}
	flow := pint.FlowKeyOf(7, "example-flow")
	rng := pint.NewRNG(9)
	pkts := make([]pint.PacketDigest, 400)
	vals := make([]pint.HopValues, len(pkts))
	for i := range pkts {
		pkts[i] = pint.PacketDigest{Flow: flow, PktID: rng.Uint64(), PathLen: len(path)}
	}
	for hop := 1; hop <= len(path); hop++ {
		for i := range vals {
			vals[i].SwitchID = path[hop-1]
		}
		engine.EncodeHopBatch(hop, pkts, vals)
	}

	// Collector side: a sharded sink wrapped in the daemon, with a QoS
	// policy giving every tenant a roomy quota.
	sink, err := pint.NewShardedSink(engine, pint.ShardConfig{Shards: 2, Base: 9})
	if err != nil {
		log.Fatal(err)
	}
	defer sink.Close()
	policy, err := pint.ParseTenantPolicy("*=1e9")
	if err != nil {
		log.Fatal(err)
	}
	srv, err := pint.NewCollector(engine,
		pint.WithSink(sink),
		pint.WithQueries(q),
		pint.WithTenantPolicy(policy),
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
	ex, err := pint.Connect(engine, 1, "example-switch",
		pint.WithAddrs(ln.Addr().String()), pint.WithTenant("team-a"))
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

// ExampleNewFrontend stands up a two-member collector fleet, describes
// it with an epoch-versioned FleetMap, connects an exporter through the
// options API (each flow routed to its rendezvous home), and builds the
// merging query frontend from the same map — the document every
// component of a federated deployment agrees on.
func ExampleNewFrontend() {
	universe := []uint64{11, 22, 33, 44, 55, 66, 77, 88}
	cfg, err := pint.DefaultPathConfig(4, 2, 5)
	if err != nil {
		log.Fatal(err)
	}
	q, err := pint.NewPathQuery("path", cfg, 1.0, 7, universe)
	if err != nil {
		log.Fatal(err)
	}
	engine, err := pint.Compile([]pint.Query{q}, 8, 7)
	if err != nil {
		log.Fatal(err)
	}

	// Two fleet members: sink + collector + TCP ingest listener each.
	type member struct {
		sink *pint.ShardedSink
		srv  *pint.Collector
		ln   net.Listener
		err  chan error
	}
	names := []string{"node-a", "node-b"}
	members := make([]member, len(names))
	fleetMembers := make([]pint.FleetMember, len(names))
	for i := range members {
		sink, err := pint.NewShardedSink(engine, pint.ShardConfig{Shards: 2, Base: 9})
		if err != nil {
			log.Fatal(err)
		}
		defer sink.Close()
		srv, err := pint.NewCollector(engine, pint.WithSink(sink), pint.WithQueries(q), pint.WithEpoch(5))
		if err != nil {
			log.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		serveErr := make(chan error, 1)
		go func() { serveErr <- srv.Serve(ln) }()
		members[i] = member{sink, srv, ln, serveErr}
		fleetMembers[i] = pint.FleetMember{
			Name:   names[i],
			Ingest: ln.Addr().String(),
			Query:  "http://" + ln.Addr().String(), // query side unused here
		}
	}
	fm, err := pint.NewFleetMap(5, fleetMembers)
	if err != nil {
		log.Fatal(err)
	}

	// Exporter side: Connect derives addresses, routing, and the session
	// epoch from the map; each flow's digests land on one home member.
	flows := []pint.FlowKey{pint.FlowKeyOf(7, "flow-a"), pint.FlowKeyOf(7, "flow-b")}
	fx, err := pint.Connect(engine, 1, "example-switch", pint.WithFleetMap(fm))
	if err != nil {
		log.Fatal(err)
	}
	path := []uint64{22, 44, 66, 88, 11}
	rng := pint.NewRNG(9)
	const perFlow = 200
	for _, flow := range flows {
		pkts := make([]pint.PacketDigest, perFlow)
		vals := make([]pint.HopValues, len(pkts))
		for i := range pkts {
			pkts[i] = pint.PacketDigest{Flow: flow, PktID: rng.Uint64(), PathLen: len(path)}
		}
		for hop := 1; hop <= len(path); hop++ {
			for i := range vals {
				vals[i].SwitchID = path[hop-1]
			}
			engine.EncodeHopBatch(hop, pkts, vals)
		}
		if err := fx.Send(pkts); err != nil {
			log.Fatal(err)
		}
	}
	if err := fx.Close(); err != nil {
		log.Fatal(err)
	}
	for i := range members {
		if err := members[i].srv.Shutdown(context.Background()); err != nil {
			log.Fatal(err)
		}
		if err := <-members[i].err; err != nil {
			log.Fatal(err)
		}
	}

	// The frontend is built from the same map; it serves it back on
	// GET /fleetmap for exporters (and pintload -gate) to fetch.
	fe, err := pint.NewFrontend(pint.WithFrontendFleetMap(fm))
	if err != nil {
		log.Fatal(err)
	}
	served := fe.CurrentFleetMap()
	fmt.Printf("fleet map: epoch %d, %d members\n", served.Epoch, len(served.Members))
	for i, flow := range flows {
		fmt.Printf("flow-%c homed on %s\n", 'a'+i, fm.HomeName(flow))
	}
	var total uint64
	for i := range members {
		total += members[i].srv.Stats().Packets
	}
	fmt.Println("fleet ingested:", total)
	// Output:
	// fleet map: epoch 5, 2 members
	// flow-a homed on node-b
	// flow-b homed on node-a
	// fleet ingested: 400
}

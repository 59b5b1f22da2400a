// Command pintgate is the federated collector fleet's query frontend: it
// fans /snapshot, /stats, and /healthz out to every fleet member
// (cmd/pintd daemons), folds the per-member answers into the same
// fixed-order JSON a single daemon emits, and degrades explicitly when a
// member is down — the response carries an X-Pint-Partial header plus a
// per-node error list naming exactly which members are missing.
//
// Usage:
//
//	pintgate -fleetmap fleet.json                        front the fleet the map describes
//	pintgate -fleetmap fleet.json -http 127.0.0.1:9700   explicit listen address
//	pintgate -fleetmap fleet.json -timeout 5s            how long a member may stay silent
//
// The fleet map is the one description of the deployment — the epoch and,
// per member, a stable name, the exporter ingest address and the query
// URL:
//
//	{"epoch": 7, "members": [
//	  {"name": "pintd-a", "ingest": "127.0.0.1:9777", "query": "http://127.0.0.1:9778"},
//	  {"name": "pintd-b", "ingest": "127.0.0.1:9877", "query": "http://127.0.0.1:9878"}]}
//
// The gate fans queries out to the members' query URLs, serves the map on
// GET /fleetmap (exporters — cmd/pintload -gate — fetch it for addresses,
// routing and epoch, and again to follow a live resize), accepts the next
// epoch's map on POST /fleetmap from a resize coordinator, and excludes
// any member answering from a different epoch ("epoch_stale" in the error
// list) instead of merging across two partitionings.
//
// The fleet members hold disjoint flow sets (exporters route each flow to
// the home the map derives from the member names; see the README's
// federated-deployment section), so the /snapshot merge is a k-way merge
// by flow key — byte-identical to one collector that ingested everything.
// The merge streams: the gate reads each member's body one flow element
// at a time and writes the winning element's bytes on as it got them, so
// it holds one pending element per member per request, not the fleet's
// answer. A member that is down, refusing or stale when the query starts
// is named in the partial result; one that fails after the response has
// begun (dies, truncates, sends a malformed or out-of-order element, goes
// silent) makes the gate abort the response — the client sees a transport
// error and retries, never a complete-looking answer with a hole in it.
// -timeout bounds a member's silence (before its headers, or between two
// reads of its body), not the time a slow client takes to read.
// On SIGTERM/SIGINT the gate stops serving and exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/collector"
	"repro/internal/federation"
)

func main() {
	httpAddr := flag.String("http", "127.0.0.1:9700", "HTTP address for the merged /healthz, /stats, /snapshot")
	mapFile := flag.String("fleetmap", "", "JSON fleet map file (epoch + members): the fleet to front, served on /fleetmap")
	timeout := flag.Duration("timeout", 10*time.Second, "how long a fleet member may go without answering a fan-out request (headers, or more of its body)")
	grace := flag.Duration("grace", 5*time.Second, "drain grace period on SIGTERM/SIGINT")
	flag.Parse()

	log.SetFlags(0)
	if *mapFile == "" {
		log.Fatalf("pintgate: -fleetmap is required (a JSON fleet map: epoch + members)")
	}
	raw, err := os.ReadFile(*mapFile)
	if err != nil {
		log.Fatalf("pintgate: %v", err)
	}
	fm, err := federation.ParseFleetMap(raw)
	if err != nil {
		log.Fatalf("pintgate: %s: %v", *mapFile, err)
	}
	fe, err := federation.NewFrontend(federation.WithFleetMap(fm), federation.WithTimeout(*timeout))
	if err != nil {
		log.Fatalf("pintgate: %v", err)
	}

	ln, err := net.Listen("tcp", *httpAddr)
	if err != nil {
		log.Fatalf("pintgate: %v", err)
	}
	srv := collector.HardenedHTTPServer(fe.Handler())
	// The handler must be in place before the gate announces itself: a
	// supervisor takes the "serving on" line as license to signal, and a
	// SIGTERM landing in the gap would kill the process instead of
	// draining it.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	fmt.Printf("pintgate: serving on %s, fronting %d nodes (epoch %d)\n", ln.Addr(), len(fm.Members), fm.Epoch)
	for i, m := range fm.Members {
		fmt.Printf("pintgate: node %d: %s %s\n", i, m.Name, m.Query)
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case sig := <-sigs:
		fmt.Printf("pintgate: %v: draining (grace %v)\n", sig, *grace)
	case err := <-serveErr:
		log.Fatalf("pintgate: serve: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		srv.Close()
	}
	if err := <-serveErr; err != nil && err != http.ErrServerClosed {
		log.Fatalf("pintgate: serve: %v", err)
	}
	fmt.Println("pintgate: drained")
}

// Command pintload is the collector's load generator: it simulates N
// switches, each encoding its flows' digests through the engine's batch
// encoder (Engine.EncodeHopBatch over every hop of a deterministic
// fat-tree path) and streaming them as checksummed frames over its own
// real TCP connection(s) to a running pintd — or to a whole fleet.
//
// Usage:
//
//	pintload -addr 127.0.0.1:9777                      default deployment (4×8×1000)
//	pintload -addr :9777 -exporters 16 -flows 64       16 switches, 64 flows each
//	pintload -addr :9777 -pkts 5000 -batch 512         5000 pkts/flow, 512/frame
//	pintload -addr :9777 -seed 3 -k 7                  must match pintd's -seed/-k
//	pintload -gate http://127.0.0.1:9700               a fleet: fetch its map from
//	                                                   pintgate's /fleetmap, route by it,
//	                                                   and re-home live on resize
//	pintload -addr :9777 -duration 10s                 steady state: replay at full rate
//	                                                   for 10s, report per-connection and
//	                                                   aggregate Mpkt/s
//	pintload -addr :9777 -duration 10s -coalesce 16384 coalesce frames into >=16kB writes
//	pintload -addr :9777 -tenant team-a                label every session with a QoS tenant
//
// -addr names one standalone pintd (no -epoch on the daemon). A fleet is
// described only by its fleet map, which -gate fetches: every simulated
// switch opens one session per member at the map's epoch and routes each
// flow to the home the map derives from the member names — so all of a
// flow's digests land on one node and per-flow decode state never
// splits, and every exporter and the gate agree on the homes because
// they hold the same document.
//
// It reports wall clock, pkts/s, and wire bytes/pkt when every exporter
// has finished. The plan seed and hop count must match the daemons' —
// the session handshake refuses mismatched exporters.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"
	"time"

	"repro/internal/collector"
	"repro/internal/federation"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:9777", "exporter-session address of one standalone pintd")
	gate := flag.String("gate", "", "pintgate base URL: fetch the fleet map from its /fleetmap and follow live resizes (overrides -addr)")
	exporters := flag.Int("exporters", 4, "simulated switches (one TCP connection each, per fleet member)")
	flows := flag.Int("flows", 8, "flows per exporter")
	pkts := flag.Int("pkts", 1000, "packets per flow")
	batch := flag.Int("batch", 256, "packets per frame")
	seed := flag.Uint64("seed", 1, "testbench plan seed (must match pintd)")
	k := flag.Int("k", 5, "flow hop count (must match pintd)")
	duration := flag.Duration("duration", 0, "steady-state mode: replay the pre-encoded deployment at full rate for this long (0 = one-shot)")
	coalesce := flag.Int("coalesce", 0, "write-coalescing threshold in bytes per session (0 = TCP_NODELAY immediate writes)")
	tenant := flag.String("tenant", "", "QoS tenant label carried in every session handshake ('' = default tenant)")
	flag.Parse()

	log.SetFlags(0)
	tb, err := collector.NewTestbench(*seed, *k)
	if err != nil {
		log.Fatalf("pintload: %v", err)
	}
	tb.Tenant = *tenant
	var roster collector.FleetRoster = collector.Standalone(*addr)
	if *gate != "" {
		// Gate mode: the fleet map is the source of truth — addresses,
		// routing, and epoch come from it, and the fetch stays installed
		// so every session follows a mid-run resize.
		tb.Fetch = fleetMapFetch(*gate, fetchTimeout)
		if roster, err = tb.Fetch(); err != nil {
			log.Fatalf("pintload: fetching fleet map: %v", err)
		}
	}
	fmt.Printf("pintload: %d exporters x %d flows x %d packets -> %s (plan 0x%016x, epoch %d)\n",
		*exporters, *flows, *pkts, strings.Join(roster.IngestAddrs(), " + "), tb.Engine.PlanHash(), roster.FleetEpoch())
	if *duration > 0 {
		runSteadyState(tb, roster, *exporters, *flows, *pkts, *batch, *coalesce, *duration)
		return
	}
	start := time.Now()
	packets, bytes, err := tb.StreamDeployment(roster, *exporters, *flows, *pkts, *batch)
	if err != nil {
		log.Fatalf("pintload: %v", err)
	}
	elapsed := time.Since(start)
	fmt.Printf("pintload: sent %d packets (%d wire bytes) in %v\n", packets, bytes, elapsed.Round(time.Millisecond))
	fmt.Printf("pintload: %.0f pkts/s, %.2f bytes/pkt on the wire\n",
		float64(packets)/elapsed.Seconds(), float64(bytes)/float64(packets))
}

func runSteadyState(tb *collector.Testbench, roster collector.FleetRoster,
	exporters, flows, pkts, batch, coalesce int, duration time.Duration) {
	fmt.Printf("pintload: steady state for %v (coalesce %d bytes)\n", duration, coalesce)
	loads, err := tb.StreamSteadyState(roster, exporters, flows, pkts, batch, coalesce, duration)
	if err != nil {
		log.Fatalf("pintload: %v", err)
	}
	var packets, bytes uint64
	var longest time.Duration
	for _, l := range loads {
		fmt.Printf("pintload:   conn %-3d %12d pkts  %14d bytes  %8.3f Mpkt/s\n",
			l.Exporter, l.Packets, l.Bytes, l.Mpkts())
		packets += l.Packets
		bytes += l.Bytes
		if l.Elapsed > longest {
			longest = l.Elapsed
		}
	}
	fmt.Printf("pintload: aggregate %d packets (%d wire bytes) in %v\n",
		packets, bytes, longest.Round(time.Millisecond))
	fmt.Printf("pintload: %.3f Mpkt/s aggregate, %.2f bytes/pkt on the wire\n",
		float64(packets)/longest.Seconds()/1e6, float64(bytes)/float64(packets))
}

// fetchTimeout bounds one /fleetmap GET. A rerouting session polls the
// fetch until collector's reroute deadline (60s) and checks that deadline
// only between fetches, so a gate that accepts and never answers must
// cost one short attempt, not the whole wait.
const fetchTimeout = 5 * time.Second

// fleetMapFetch returns a roster fetch that GETs the gate's /fleetmap —
// the closure the exporter sessions poll when a resize fences them out —
// giving each attempt at most timeout.
func fleetMapFetch(gate string, timeout time.Duration) func() (collector.FleetRoster, error) {
	base := strings.TrimRight(gate, "/")
	if !strings.HasPrefix(base, "http://") && !strings.HasPrefix(base, "https://") {
		base = "http://" + base
	}
	client := &http.Client{Timeout: timeout}
	return func() (collector.FleetRoster, error) {
		resp, err := client.Get(base + "/fleetmap")
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("%s /fleetmap: %s", base, resp.Status)
		}
		return federation.ParseFleetMap(body)
	}
}

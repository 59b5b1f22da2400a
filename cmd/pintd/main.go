// Command pintd is the PINT collector daemon: it listens for exporter
// sessions (simulated switches, cmd/pintload) streaming framed
// internal/wire digest batches over TCP, ingests them into a sharded
// recording sink, and serves snapshot queries and counters over
// HTTP/JSON.
//
// Usage:
//
//	pintd                                    listen on 127.0.0.1:9777 (HTTP :9778)
//	pintd -listen :9777 -http :9778          explicit addresses
//	pintd -shards 8 -seed 3                  8 sink shards, seed-3 testbench plan
//	pintd -grace 10s                         SIGTERM drain grace period
//	pintd -pprof                             mount /debug/pprof/ on the HTTP address
//	pintd -data-dir /var/lib/pint            durable segment log with crash recovery
//	pintd -quotas 'hog=50000,*=1e6'          per-tenant admission quotas (packets/s)
//	pintd -capacity 5e5                      adaptive (AIMD) admission from sink stall feedback
//
// The daemon compiles the canonical testbench plan (collector.NewTestbench)
// from -seed and -k; exporters must be compiled identically — the session
// handshake's plan hash enforces it. On SIGTERM/SIGINT the daemon stops
// accepting, gives open sessions -grace to finish, barriers the sink so
// every ingested packet is recorded, prints final stats, and
// exits 0.
//
// With -data-dir the daemon runs the durable tier (internal/segstore):
// every ingested batch is appended to a crash-safe segment log as it is
// recorded, fsynced at each checkpoint, and on startup the daemon replays
// the log — recovering from torn tails a SIGKILL left behind — before
// accepting connections, so a restarted collector answers exactly like
// one that never died.
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

	"repro/internal/admit"
	"repro/internal/collector"
	"repro/internal/pipeline"
	"repro/internal/segstore"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:9777", "TCP address for exporter sessions")
	httpAddr := flag.String("http", "127.0.0.1:9778", "HTTP address for /healthz, /stats, /snapshot ('' disables)")
	shards := flag.Int("shards", 1, "sink shard count (answers are bit-identical for any value)")
	seed := flag.Uint64("seed", 1, "testbench plan seed (exporters must match)")
	k := flag.Int("k", 5, "testbench flow hop count (exporters must match)")
	epoch := flag.Uint64("epoch", 0, "cluster partitioning epoch (fleet members and exporters must match; 0 = standalone)")
	pprofOn := flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/ on the HTTP address")
	dataDir := flag.String("data-dir", "", "segment-log directory for durable storage ('' disables)")
	ckptEvery := flag.Duration("checkpoint", time.Second, "durable checkpoint+fsync cadence (requires -data-dir)")
	segBytes := flag.Int64("seg-bytes", 0, "segment rotation size in bytes (0 = 4 MiB default)")
	retain := flag.Int("retain", 0, "sealed segments to keep; older ones are deleted (0 = keep all)")
	grace := flag.Duration("grace", 5*time.Second, "drain grace period on SIGTERM/SIGINT")
	quotas := flag.String("quotas", "", "per-tenant admission quotas: name=rate[/burst[/minsample]],... ('*' = default; '' disables QoS)")
	capacity := flag.Float64("capacity", 0, "initial AIMD capacity estimate in packets/s for adaptive admission (0 disables)")
	qosSeed := flag.Uint64("qos-seed", 1, "seed for the QoS shedding hash (runs sharing a seed shed identical packets)")
	verbose := flag.Bool("v", false, "log per-session events")
	flag.Parse()

	log.SetFlags(0)
	tb, err := collector.NewTestbench(*seed, *k)
	if err != nil {
		log.Fatalf("pintd: %v", err)
	}
	pcfg := pipeline.Config{Shards: *shards}
	var sink *pipeline.Sink
	var durable *collector.DurableSink
	if *dataDir != "" {
		durable, err = collector.OpenDurableSink(tb.Engine, tb.Queries(), pcfg, collector.DurableOptions{
			DataDir: *dataDir,
			Options: segstore.Options{SegmentBytes: *segBytes, MaxSegments: *retain},
		})
		if err != nil {
			log.Fatalf("pintd: %v", err)
		}
		rep := durable.Recovery
		fmt.Printf("pintd: recovered: %d segments, %d blocks, %d packets replayed", rep.Segments, rep.Blocks, durable.Replayed)
		if rep.TornBytes > 0 {
			fmt.Printf(" (%d bytes torn tail cut from %s)", rep.TornBytes, rep.TornSegment)
		}
		fmt.Println()
		sink = durable.Sink
	} else {
		sink, err = pipeline.NewSink(tb.Engine, pcfg)
		if err != nil {
			log.Fatalf("pintd: %v", err)
		}
	}
	policy, err := admit.ParsePolicy(*quotas)
	if err != nil {
		log.Fatalf("pintd: %v", err)
	}
	policy.Capacity.Initial = *capacity
	policy.Seed = *qosSeed
	opts := []collector.Option{
		collector.WithSink(sink),
		collector.WithQueries(tb.Queries()...),
		collector.WithEpoch(*epoch),
		collector.WithDurable(durable),
		collector.WithCheckpointEvery(*ckptEvery),
		collector.WithTenantPolicy(policy),
	}
	if *verbose {
		opts = append(opts, collector.WithLogf(log.Printf))
	}
	srv, err := collector.New(tb.Engine, opts...)
	if err != nil {
		log.Fatalf("pintd: %v", err)
	}

	// The handler must be in place before the daemon announces itself:
	// supervisors (and the kill-recover smoke) take the "listening on"
	// line as license to signal, and a SIGTERM landing in the gap would
	// kill the process instead of draining it.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("pintd: %v", err)
	}
	_, perShard := sink.Stats()
	fmt.Printf("pintd: listening on %s (plan 0x%016x, shards %d, k %d, epoch %d)\n",
		ln.Addr(), srv.PlanHash(), len(perShard), tb.K, *epoch)

	var httpSrv *http.Server
	if *httpAddr != "" {
		hln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			log.Fatalf("pintd: http: %v", err)
		}
		fmt.Printf("pintd: http on %s\n", hln.Addr())
		handler := http.Handler(nil)
		if *pprofOn {
			fmt.Printf("pintd: pprof on http://%s/debug/pprof/\n", hln.Addr())
			handler = collector.WithProfiling(srv.Handler())
		}
		httpSrv = srv.HTTPServer(handler)
		go func() {
			if err := httpSrv.Serve(hln); err != nil && err != http.ErrServerClosed {
				log.Fatalf("pintd: http: %v", err)
			}
		}()
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case sig := <-sigs:
		fmt.Printf("pintd: %v: draining (grace %v)\n", sig, *grace)
	case err := <-serveErr:
		log.Fatalf("pintd: serve: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Printf("pintd: grace expired, open sessions force-closed (%v)\n", err)
	}
	if err := <-serveErr; err != nil {
		log.Fatalf("pintd: serve: %v", err)
	}
	if httpSrv != nil {
		httpSrv.Close()
	}
	st := srv.Stats()
	if durable != nil {
		if err := durable.Close(); err != nil {
			log.Fatalf("pintd: durable: %v", err)
		}
	} else if err := sink.Close(); err != nil {
		log.Fatalf("pintd: sink: %v", err)
	}
	// Close has recorded every shard's slab, so the shards can be counted
	// in place.
	flows := sink.TrackedFlows()
	fmt.Printf("pintd: drained: %d packets in %d frames from %d sessions (%d conn errors), %d flows tracked\n",
		st.Packets, st.Frames, st.Sessions, st.ConnErrors, flows)
}

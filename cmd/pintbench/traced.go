package main

import (
	"context"
	"fmt"
	"time"
)

// runTraced is the separate, shorter run that yields the per-layer
// metrics: the layer suite over the workload's inputs, then the workload
// itself twice at a fraction of its length — once with tracing off, once
// with spans around every send, query and resize — so the difference
// between the two is the tracing overhead, and the untraced pass supplies
// the counters /stats serves and the CPU figures the ledger reconciles
// against.
func runTraced(ctx context.Context, e *env, name string, p params) (*result, error) {
	r := newResult(name)
	busy0, steal0, err := hostCPU()
	if err != nil {
		return r, err
	}
	// The end-to-end passes go first, while this process is still small:
	// the layer suite leaves a heap behind whose collection would compete
	// with the daemon for the host's two cores.
	short := p
	short.MinReps, short.SetupReps, short.FullQueries = 1, 1, 0
	short.SampleFlows = max(1, p.SampleFlows/8)
	plain, traced := *e, *e
	plain.tr = nil
	plain.seconds, traced.seconds = e.seconds*p.TraceShare, e.seconds*p.TraceShare
	passes := map[string]*result{}
	for _, pass := range []struct {
		label string
		env   *env
	}{{"untraced", &plain}, {"traced", &traced}} {
		res, err := runWorkload(ctx, pass.env, name, short)
		if res != nil {
			r.attempted += res.attempted
			r.failed += res.failed
			r.failures = append(r.failures, res.failures...)
		}
		if err != nil {
			return r, fmt.Errorf("%s end-to-end pass: %w", pass.label, err)
		}
		passes[pass.label] = res
		e.logf("  %s pass: %.4g Mpkt/s", pass.label, res.values["ingest_mpps"])
	}
	base := passes["untraced"].values
	for _, k := range []string{"collector.stall_ns_per_pkt", "pipeline.stalls_per_kbatch", "pipeline.shard_skew"} {
		r.set(k, base[k])
	}
	r.set("bench.trace_overhead_share", 1-passes["traced"].values["ingest_mpps"]/base["ingest_mpps"])
	r.set("bench.build_s", e.buildS)
	if err := runLayers(ctx, e, r, p); err != nil {
		return r, err
	}

	// How late the generator runs with nothing to send to: the floor
	// under every ingest_late figure.
	period := framePeriod(p)
	var late []float64
	late, err = pace(ctx, wallClock{}, time.Now(), int(time.Second/period), period, func(int) error { return nil })
	if err != nil {
		return r, err
	}
	r.setTail("bench.gen_late_p95_ms", late, 95)

	reconcile(r, name, p, base)
	busy1, steal1, err := hostCPU()
	if err != nil {
		return r, err
	}
	r.set("bench.host_steal_share", float64(steal1-steal0)/float64(max(1, busy1-busy0+steal1-steal0)))
	return r, nil
}

// reconcile is the ledger's closing row: the layers a packet crosses on
// this workload, summed per packet, against the CPU the two processes
// actually spent per packet. The remainder is runtime, scheduler, GC,
// kernel socket work on the receive side, and — on the two query
// workloads — the read path, which is not a per-packet cost.
func reconcile(r *result, name string, p params, e2e map[string]float64) {
	v := r.values
	layers := v["wire.marshal_frame_ns_per_pkt"] + v["collector.socket_ns_per_pkt"] +
		v["wire.frame_read_ns_per_pkt"] + v["wire.unmarshal_sharded_ns_per_pkt"] +
		v["admit.decide_ns_per_frame"]/float64(p.FrameBatch) + v["pipeline.ingest_stage_ns_per_pkt"]
	switch name {
	case "encode-stream":
		// Every flow is encoded in the timed window and recorded cold.
		layers += v["core.encode_ns_per_pkt"] + v["core.record_cold_ns_per_pkt"]
	case "durable-query":
		layers += v["core.record_ns_per_pkt"] + v["segstore.persist_ns_per_pkt"]
	default:
		layers += v["core.record_ns_per_pkt"]
	}
	cpu := e2e["collector_cpu_ns_per_pkt"] + e2e["exporter_cpu_ns_per_pkt"]
	r.set("reconcile.layers_ns_per_pkt", layers)
	r.set("reconcile.cpu_ns_per_pkt", cpu)
	r.set("reconcile.unexplained_share", (cpu-layers)/cpu)
}

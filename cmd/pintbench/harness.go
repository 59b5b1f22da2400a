package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"sort"
	"strconv"
	"time"

	"repro/internal/collector"
	"repro/internal/core"
)

// env is what every workload run shares.
type env struct {
	spec    *spec
	pintd   string // built cmd/pintd binary
	workDir string // scratch inside the checkout, removed on every exit path
	seed    uint64
	seconds float64
	scale   string
	// tr is nil on the untraced run; every span call is then a nil check.
	tr *tracer
	// flipOracle corrupts one digest bit in the serial reference, to show
	// that the output checks can fail.
	flipOracle bool
	buildS     float64
	logw       io.Writer
	http       *http.Client
}

func (e *env) logf(format string, args ...any) {
	fmt.Fprintf(e.logw, format+"\n", args...)
}

// result collects one workload run: the operation ledger behind
// fail_share, every measured value by metric name, and the sample counts
// behind the percentiles.
type result struct {
	workload  string
	attempted int64
	failed    int64
	failures  []string
	values    map[string]float64
	notes     []string
}

func newResult(workload string) *result {
	return &result{workload: workload, values: map[string]float64{}}
}

func (r *result) ops(n int64) { r.attempted += n }

// fail counts n failed operations and keeps the first few reasons.
func (r *result) fail(n int64, format string, args ...any) {
	r.failed += n
	if len(r.failures) < 16 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *result) set(name string, v float64) { r.values[name] = v }

// setTail stores the want-th percentile of v under the ≥10-beyond rule
// and notes which percentile the samples actually supported.
func (r *result) setTail(name string, v []float64, want float64) {
	val, used, ok := tail(v, want)
	if !ok {
		// Too few samples for any tail: fall back to the maximum so the
		// metric is still a measurement, and say so.
		val, used = slices.Max(v), 100
		r.notes = append(r.notes, fmt.Sprintf("%s: only %d samples, reporting their maximum", name, len(v)))
	}
	r.set(name, val)
	r.notes = append(r.notes, fmtSamples(name, len(v), used))
}

func (r *result) setMedian(name string, v []float64) {
	r.set(name, median(v))
	r.notes = append(r.notes, fmt.Sprintf("%s: median of %d samples", name, len(v)))
}

func (r *result) failShare() float64 {
	if r.attempted == 0 {
		return 1
	}
	return float64(r.failed) / float64(r.attempted)
}

// get issues one GET and returns status, headers and the whole body.
func (e *env) get(ctx context.Context, url string) (int, http.Header, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, nil, err
	}
	resp, err := e.http.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, body, err
}

// stats fetches and decodes a daemon's /stats document.
func (e *env) stats(ctx context.Context, base string) (collector.StatsV1, error) {
	var doc collector.StatsV1
	status, _, body, err := e.get(ctx, base+"/stats")
	if err != nil {
		return doc, err
	}
	if status != http.StatusOK {
		return doc, fmt.Errorf("/stats: status %d", status)
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return doc, fmt.Errorf("/stats: %w", err)
	}
	if doc.Schema != collector.StatsSchemaV1 {
		return doc, fmt.Errorf("/stats: schema %q, want %q", doc.Schema, collector.StatsSchemaV1)
	}
	return doc, nil
}

// waitStats polls /stats every millisecond until done accepts a document.
func (e *env) waitStats(ctx context.Context, base string, done func(collector.StatsV1) (bool, error)) (collector.StatsV1, error) {
	for {
		doc, err := e.stats(ctx, base)
		if err != nil {
			return doc, err
		}
		ok, err := done(doc)
		if err != nil || ok {
			return doc, err
		}
		select {
		case <-ctx.Done():
			return doc, fmt.Errorf("waiting on /stats (server packets %d, sink packets %d, active %d): %w",
				doc.Server.Packets, doc.Sink.Packets, doc.Server.Active, ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}

// settled is a daemon's state once a timed window is over: every packet
// sent is in the sink and no session is open.
type settled struct {
	final collector.StatsV1
	// stallNs is conns[].stall_ns per packet, read before the sessions
	// closed (per-connection counters vanish with their session).
	stallNs float64
}

// settle ends a timed window: it waits until the server has decoded
// every packet sent, reads the per-connection counters, closes the
// sessions, and waits until the sink holds everything and no session is
// active (a session's end flushes the sink, so the sink counter is then
// exact). The window's clock stops when settle returns.
func (e *env) settle(ctx context.Context, base string, sent uint64, closeSessions func() error) (settled, error) {
	var st settled
	live, err := e.waitStats(ctx, base, func(doc collector.StatsV1) (bool, error) {
		return doc.Server.Packets >= sent, nil
	})
	if err != nil {
		return st, err
	}
	var stallNs uint64
	for _, c := range live.Conns {
		stallNs += c.StallNs
	}
	st.stallNs = float64(stallNs) / float64(sent)
	if err := closeSessions(); err != nil {
		return st, err
	}
	st.final, err = e.waitStats(ctx, base, func(doc collector.StatsV1) (bool, error) {
		if doc.Sink.Packets > sent {
			return false, fmt.Errorf("sink holds %d packets, only %d were sent", doc.Sink.Packets, sent)
		}
		return doc.Server.Active == 0 && doc.Sink.Packets+doc.Server.Shed == sent, nil
	})
	return st, err
}

// stallsPerKBatch is the sink's blocked dispatches per thousand.
func (st settled) stallsPerKBatch() float64 {
	return 1000 * float64(st.final.Sink.Stalls) / float64(max(1, st.final.Sink.Batches))
}

// checkConservation counts packets that were sent but are not in the
// sink, and sessions that ended on an error.
func (st settled) checkConservation(r *result, sent uint64) {
	if lost := sent - st.final.Sink.Packets; lost > 0 {
		r.fail(int64(lost), "%d of %d packets sent were not recorded (shed %d)", lost, sent, st.final.Server.Shed)
	}
	if st.final.Server.ConnErrors > 0 {
		r.fail(int64(sent), "%d sessions ended on a connection error", st.final.Server.ConnErrors)
	}
}

// flowSlot inverts Testbench.FlowKeyFor: the exporter and flow index a
// key was made from.
func flowSlot(flow core.FlowKey) (exp uint64, f int) {
	return uint64(flow) >> 32, int(uint64(flow)&0xffffffff) - 1
}

// framePeriod is the open-loop spacing of frames at the workload's pace.
func framePeriod(p params) time.Duration {
	return time.Duration(float64(p.FrameBatch) / (p.PaceKpps * 1e3) * float64(time.Second))
}

// feedPaced gives the reference what a paced session sent for its sample
// flows: frame i carried flow i mod len(flows), so a flow went out once
// per sweep that reached it, after `before` whole sweeps of preload.
func (o *oracle) feedPaced(flows [][]core.PacketDigest, frames, before int) error {
	for _, flow := range o.flows {
		_, f := flowSlot(flow)
		times := before + frames/len(flows)
		if f < frames%len(flows) {
			times++
		}
		for s := 0; s < times; s++ {
			if err := o.feed(flows[f]); err != nil {
				return err
			}
		}
	}
	return nil
}

// oracle is the serial reference: one core.Recording fed, in order, the
// digests the workload sent for its sample flows. Per-flow state depends
// only on the flow's own stream, so feeding just the sample flows gives
// the answers a collector holding every flow must give for them.
type oracle struct {
	tb    *collector.Testbench
	rec   *core.Recording
	flows []core.FlowKey
	// flip, once set, corrupts one bit of the next digest fed.
	flip bool
	buf  []core.PacketDigest
}

func newOracle(tb *collector.Testbench, flows []core.FlowKey, flip bool) (*oracle, error) {
	rec, err := core.NewRecordingSeeded(tb.Engine, 0, tb.Base)
	if err != nil {
		return nil, err
	}
	return &oracle{tb: tb, rec: rec, flows: flows, flip: flip}, nil
}

// feed records batch (all one flow's digests) into the reference.
func (o *oracle) feed(batch []core.PacketDigest) error {
	// RecordBatch caches the query-set choice on the packet; work on a
	// copy so the reference never touches what the exporter sends.
	o.buf = append(o.buf[:0], batch...)
	if o.flip && len(o.buf) > 0 {
		o.buf[0].Digest ^= 1
		o.flip = false
	}
	return o.rec.RecordBatch(o.buf)
}

// body is the exact /snapshot?flow= response a collector must give.
func (o *oracle) body(flow core.FlowKey) []byte {
	// Answers may advance sketch RNG state; answer from a clone so the
	// reference can be asked twice.
	return snapshotBody(collector.Answers(o.rec.Clone(), o.tb.Queries(), []core.FlowKey{flow}))
}

// snapshotBody renders answers exactly as collector.WriteJSON does.
func snapshotBody(answers []collector.FlowAnswers) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	enc.Encode(map[string]any{"flows": answers})
	return buf.Bytes()
}

// flowURL is the one-flow snapshot query.
func flowURL(base string, flow core.FlowKey) string {
	return fmt.Sprintf("%s/snapshot?flow=%d", base, uint64(flow))
}

// checkAgainst issues one /snapshot?flow= per sample flow against base,
// compares each body byte for byte with the reference, and returns the
// query latencies in milliseconds. Every query is one attempted
// operation; a mismatch names the flow.
func (e *env) checkAgainst(ctx context.Context, r *result, o *oracle, base, what string) []float64 {
	var lat []float64
	for _, flow := range o.flows {
		r.ops(1)
		t0 := time.Now()
		status, hdr, body, err := e.get(ctx, flowURL(base, flow))
		lat = append(lat, ms(float64(time.Since(t0))))
		switch {
		case err != nil:
			r.fail(1, "%s: flow %d: %v", what, uint64(flow), err)
		case status != http.StatusOK:
			r.fail(1, "%s: flow %d: status %d", what, uint64(flow), status)
		case hdr.Get(collector.PartialHeader) != "":
			r.fail(1, "%s: flow %d: partial answer", what, uint64(flow))
		case !bytes.Equal(body, o.body(flow)):
			r.fail(1, "%s: flow %d: answer differs from the serial reference", what, uint64(flow))
		}
	}
	return lat
}

// meter reads the collector tier's two cumulative clocks: CPU time, and
// bytes allocated (runtime.MemStats.TotalAlloc). Allocation is a count:
// it does not move when a neighbour takes the CPU away, which on a shared
// host makes it the steadier witness of the same work.
type meter func() (cpu time.Duration, alloc uint64, err error)

// daemonMeter reads a child's clocks: scheduler run time from /proc, and
// the MemStats the daemon's own pprof endpoint (pintd -pprof) prints.
func (e *env) daemonMeter(ctx context.Context, d *daemon) meter {
	return func() (time.Duration, uint64, error) {
		cpu, err := d.cpuNow()
		if err != nil {
			return 0, 0, err
		}
		status, _, body, err := e.get(ctx, d.httpBase+"/debug/pprof/heap?debug=1")
		if err != nil || status != http.StatusOK {
			return 0, 0, fmt.Errorf("GET /debug/pprof/heap: status %d: %v", status, err)
		}
		const key = "\n# TotalAlloc = "
		_, rest, ok := bytes.Cut(body, []byte(key))
		if !ok {
			return 0, 0, fmt.Errorf("/debug/pprof/heap prints no TotalAlloc")
		}
		line, _, _ := bytes.Cut(rest, []byte("\n"))
		alloc, err := strconv.ParseUint(string(bytes.TrimSpace(line)), 10, 64)
		return cpu, alloc, err
	}
}

// tailCost is what the quiescent end-state queries cost: wall latencies
// per query, and the collector tier's CPU and allocation per query.
type tailCost struct {
	pointMs, fullMs           []float64
	pointCPUMs, fullCPUMs     float64
	pointAllocMB, fullAllocMB float64
}

// queryTail runs the end-state queries once ingest is over: one point
// query per sample flow, each checked against the reference, then fulls
// full snapshots.
func (e *env) queryTail(ctx context.Context, r *result, o *oracle, base string, wantFlows, fulls int, read meter) (tailCost, error) {
	var c tailCost
	cpu0, alloc0, err := read()
	if err != nil {
		return c, err
	}
	c.pointMs = e.checkAgainst(ctx, r, o, base, "point query at the end state")
	cpu1, alloc1, err := read()
	if err != nil {
		return c, err
	}
	for i := 0; i < fulls; i++ {
		c.fullMs = append(c.fullMs, e.fullSnapshot(ctx, r, base, wantFlows, "full snapshot at the end state"))
	}
	cpu2, alloc2, err := read()
	if err != nil {
		return c, err
	}
	nPoint, nFull := float64(max(1, len(o.flows))), float64(max(1, fulls))
	c.pointCPUMs, c.fullCPUMs = ms(float64(cpu1-cpu0))/nPoint, ms(float64(cpu2-cpu1))/nFull
	c.pointAllocMB, c.fullAllocMB = float64(alloc1-alloc0)/(1<<20)/nPoint, float64(alloc2-alloc1)/(1<<20)/nFull
	return c, nil
}

// setTailCost stores a tailCost's per-query costs under their metric names.
func (r *result) setTailCost(c tailCost) {
	r.set("query_point_cpu_ms", c.pointCPUMs)
	r.set("query_full_cpu_ms", c.fullCPUMs)
	r.set("query_point_alloc_mb", c.pointAllocMB)
	r.set("query_full_alloc_mb", c.fullAllocMB)
}

// fullSnapshot issues one full /snapshot, checks status, completeness and
// the flow count, and returns its latency in milliseconds.
func (e *env) fullSnapshot(ctx context.Context, r *result, base string, wantFlows int, what string) float64 {
	r.ops(1)
	t0 := time.Now()
	status, hdr, body, err := e.get(ctx, base+"/snapshot")
	lat := ms(float64(time.Since(t0)))
	switch {
	case err != nil:
		r.fail(1, "%s: %v", what, err)
	case status != http.StatusOK:
		r.fail(1, "%s: status %d", what, status)
	case hdr.Get(collector.PartialHeader) != "":
		r.fail(1, "%s: partial answer", what)
	default:
		if got := countFlows(body); got != wantFlows {
			r.fail(1, "%s: %d flows in the answer, want %d", what, got, wantFlows)
		}
	}
	return lat
}

// countFlows counts the flow entries of a snapshot body without building
// the whole answer tree.
func countFlows(body []byte) int {
	return bytes.Count(body, []byte(`"flow": `))
}

// sampleFlows picks n flows spread evenly over sessions × flows; the
// choice depends on the sizes only, so every seed checks the same slots.
func sampleFlows(tb *collector.Testbench, sessions, flows, n int) []core.FlowKey {
	if total := sessions * flows; n > total {
		n = total
	}
	seen := map[core.FlowKey]bool{}
	out := make([]core.FlowKey, 0, n)
	for i := 0; len(out) < n; i++ {
		slot := i * (sessions * flows) / n
		key := tb.FlowKeyFor(uint64(slot%sessions)+1, (slot/sessions)%flows)
		if !seen[key] {
			seen[key] = true
			out = append(out, key)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// scratchDir makes a fresh directory under the run's work directory.
func (e *env) scratchDir(prefix string) (string, error) {
	return os.MkdirTemp(e.workDir, prefix)
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// These tests spawn no subprocess: tier-1 must stay deterministic, and
// the child-daemon workloads are exercised by running the benchmark.

func TestSupportedPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		used float64
	}{
		{0, 95, 0},
		{10, 95, 0},          // nothing has 10 samples beyond it
		{11, 95, 100.0 / 11}, // only the lowest sample does
		{32, 95, 100 * 22.0 / 32},
		{195, 95, 100 * 185.0 / 195},
		{200, 95, 95}, // exactly 10 beyond p95
		{1000, 99, 99},
		{1000, 99.9, 99}, // p99.9 of 1000 has one sample beyond: capped
		{100000, 99.9, 99.9},
	}
	for _, c := range cases {
		if got := supportedPercentile(c.n, c.want); math.Abs(got-c.used) > 1e-9 {
			t.Errorf("supportedPercentile(%d, %v) = %v, want %v", c.n, c.want, got, c.used)
		}
	}
}

func TestTailHasTenSamplesBeyond(t *testing.T) {
	for _, n := range []int{11, 32, 120, 195, 200, 1000} {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(n - i) // descending, so tail must sort
		}
		val, used, ok := tail(v, 95)
		if !ok {
			t.Fatalf("n=%d: no percentile supported", n)
		}
		beyond := 0
		for _, x := range v {
			if x > val {
				beyond++
			}
		}
		if beyond < minBeyond {
			t.Errorf("n=%d: p%v = %v has only %d samples beyond it", n, used, val, beyond)
		}
		if used > 95 {
			t.Errorf("n=%d: used p%v above the p95 asked for", n, used)
		}
	}
	if _, _, ok := tail(make([]float64, 10), 95); ok {
		t.Error("10 samples cannot support any tail percentile")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

// fakeClock only moves when something sleeps on it or a fake operation
// spends time on it.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time { return c.now }

func (c *fakeClock) Sleep(_ context.Context, d time.Duration) {
	if d > 0 {
		c.now = c.now.Add(d)
	}
}

func TestScheduleTimesFromDueTime(t *testing.T) {
	const msec = time.Millisecond
	ops := queryCycles(3*time.Second, 1500*msec, 750*msec, 50*msec, 15)
	if len(ops) != 2*(1+15) {
		t.Fatalf("two cycles fit in 3 s: got %d operations", len(ops))
	}
	if ops[0].kind != opFull || ops[16].kind != opWindow {
		t.Errorf("heavy queries must alternate full, window: got %v, %v", ops[0].kind, ops[16].kind)
	}
	// The heavy-query gap: the first point query of a cycle is due a full
	// gap after the heavy one, the rest at the spacing.
	if ops[1].due != 750*msec || ops[2].due != 800*msec || ops[17].due != 1500*msec+750*msec {
		t.Errorf("point queries due at %v, %v, %v", ops[1].due, ops[2].due, ops[17].due)
	}

	clk := &fakeClock{now: time.Unix(1000, 0)}
	start := clk.now
	// The first heavy query overruns its gap by 100 ms; everything else
	// takes 10 ms.
	service := func(o op) time.Duration {
		if o.kind == opFull {
			return 850 * msec
		}
		return 10 * msec
	}
	out := runSchedule(context.Background(), clk, start, ops, func(o op) bool {
		clk.now = clk.now.Add(service(o))
		return true
	})
	if len(out) != len(ops) {
		t.Fatalf("ran %d of %d operations", len(out), len(ops))
	}
	if out[0].late != 0 || out[0].latency != 850*msec {
		t.Errorf("heavy query: late %v latency %v", out[0].late, out[0].latency)
	}
	// Point query 0 was due at 750 ms but the client was busy until 850:
	// it starts 100 ms late and its latency, from the due time, is 110 ms.
	if out[1].late != 100*msec || out[1].latency != 110*msec {
		t.Errorf("first point query: late %v latency %v, want 100ms, 110ms", out[1].late, out[1].latency)
	}
	// The backlog drains at 10 ms per query against 50 ms spacing: the
	// next is due at 800, starts at 860.
	if out[2].late != 60*msec || out[2].latency != 70*msec {
		t.Errorf("second point query: late %v latency %v, want 60ms, 70ms", out[2].late, out[2].latency)
	}
	// By the fourth the client has caught up and waits for the due time.
	if out[4].late != 0 || out[4].latency != 10*msec {
		t.Errorf("fourth point query: late %v latency %v, want 0, 10ms", out[4].late, out[4].latency)
	}
	if got := collect(out, opPoint); len(got) != 30 || got[0] != 110 {
		t.Errorf("collect(point) = %d samples, first %v ms", len(got), got[0])
	}
}

func TestResizeCyclesOrder(t *testing.T) {
	ops := resizeCycles(5*time.Second, 2500*time.Millisecond, 50*time.Millisecond, 15)
	if len(ops) != 2*(15+2) {
		t.Fatalf("two cycles: got %d operations", len(ops))
	}
	if ops[14].kind != opPoint || ops[15].kind != opFull || ops[16].kind != opResize {
		t.Errorf("a cycle ends point, full, resize: got %v %v %v", ops[14].kind, ops[15].kind, ops[16].kind)
	}
	for i := 1; i < len(ops); i++ {
		if ops[i].due < ops[i-1].due {
			t.Errorf("operation %d is due before its predecessor", i)
		}
	}
}

func TestPaceReportsLateness(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	start := clk.now
	// Frame 2 blocks for 25 ms (back-pressure); frames are due 10 ms apart.
	late, err := pace(context.Background(), clk, start, 6, 10*time.Millisecond, func(i int) error {
		if i == 2 {
			clk.now = clk.now.Add(25 * time.Millisecond)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 0, 0, 15, 5, 0} // frame 3 due at 30 leaves at 45, frame 4 due at 40 leaves at 45
	if len(late) != len(want) {
		t.Fatalf("paced %d of %d frames", len(late), len(want))
	}
	for i := range want {
		if math.Abs(late[i]-want[i]) > 1e-9 {
			t.Errorf("frame %d left %v ms late, want %v", i, late[i], want[i])
		}
	}
}

func TestNameValidation(t *testing.T) {
	for _, ok := range []string{"setup_s", "core.encode_ns_per_pkt", "ingest-saturate", "9lives", "a", strings.Repeat("x", 64)} {
		if !validName(ok) {
			t.Errorf("validName(%q) = false", ok)
		}
	}
	for _, bad := range []string{"", "_x", ".x", "-x", "a b", "a/b", "p95%", "naïve", strings.Repeat("x", 65)} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}
	for _, ok := range []string{"ms", "s", "1/s", "count", "ns/pkt", "%", "Mpkt/s"} {
		if !validUnit(ok) {
			t.Errorf("validUnit(%q) = false", ok)
		}
	}
	for _, bad := range []string{"", "a b", "µs", strings.Repeat("u", 17)} {
		if validUnit(bad) {
			t.Errorf("validUnit(%q) = true", bad)
		}
	}
}

func rootSpec(t *testing.T) (*spec, []byte) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	sp, err := parseSpec(raw, workloadsJSON)
	if err != nil {
		t.Fatal(err)
	}
	return sp, raw
}

func TestSpecRejectsBadDeclarations(t *testing.T) {
	_, raw := rootSpec(t)
	mutate := func(fn func(*benchmarkFile)) []byte {
		var b benchmarkFile
		if err := json.Unmarshal(raw, &b); err != nil {
			t.Fatal(err)
		}
		fn(&b)
		out, _ := json.Marshal(b)
		return out
	}
	cases := map[string][]byte{
		"duplicate name":    mutate(func(b *benchmarkFile) { b.PerLayer[0].Name = b.EndToEnd[1].Name }),
		"illegal name":      mutate(func(b *benchmarkFile) { b.EndToEnd[1].Name = "ingest mpps" }),
		"bound above 0.25":  mutate(func(b *benchmarkFile) { b.EndToEnd[1].Bound = 0.3 }),
		"no setup_s":        mutate(func(b *benchmarkFile) { b.EndToEnd[0].Name = "startup_s" }),
		"bad direction":     mutate(func(b *benchmarkFile) { b.EndToEnd[1].Better = "faster" }),
		"unknown workload":  mutate(func(b *benchmarkFile) { b.Workloads[0].Name = "ingest-other" }),
		"layer without row": mutate(func(b *benchmarkFile) { b.PerLayer[0].Name = "core.unlisted" }),
	}
	for what, bad := range cases {
		if _, err := parseSpec(bad, workloadsJSON); err == nil {
			t.Errorf("%s: accepted", what)
		}
	}
}

func TestBenchmarkFileMeetsTheContract(t *testing.T) {
	sp, raw := rootSpec(t)
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, the contract allows 64 KiB", len(raw))
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", k)
		}
		delete(keys, k)
	}
	for k := range keys {
		t.Errorf("BENCHMARK.json has the extra key %q", k)
	}
	b := sp.bench
	if n := len(b.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range b.Workloads {
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters (has %d)", w.Name, len(w.Why))
		}
	}
	if n := len(b.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(b.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d", b.RunSeconds)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "cmd/pintbench" {
		t.Errorf("paths %v", b.Paths)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "frame", Parent: -1, StartNs: 0, EndNs: 100},
		{Name: "read", Parent: 0, StartNs: 10, EndNs: 30},
		{Name: "decode", Parent: 0, StartNs: 25, EndNs: 60},  // overlaps read by 5
		{Name: "record", Parent: 0, StartNs: 90, EndNs: 120}, // runs past its parent
		{Name: "frame", Parent: -1, StartNs: 200, EndNs: 250},
	}
	got := spanTotals(spans)
	// Children cover [10,60] and [90,100] of the first frame: 60 of 100.
	if f := got["frame"]; f.Count != 2 || f.WallNs != 150 || f.SelfNs != 40+50 {
		t.Errorf("frame totals %+v, want count 2, wall 150, self 90", f)
	}
	if d := got["decode"]; d.SelfNs != 35 || d.WallNs != 35 {
		t.Errorf("decode totals %+v", d)
	}
	var tr *tracer
	if h := tr.begin("x", 1, -1); h != -1 {
		t.Errorf("nil tracer handed out span %d", h)
	}
	tr.end(-1)
	if d := tr.timed("x", 1, -1, func() {}); d < 0 {
		t.Errorf("nil tracer timed %v", d)
	}
}

func TestOracleFlipChangesTheAnswer(t *testing.T) {
	sp, _ := rootSpec(t)
	p, err := sp.sizes("fleet-resize", "smoke")
	if err != nil {
		t.Fatal(err)
	}
	e := &env{spec: sp, seed: 3, logw: io.Discard}
	in, err := newLayerInputs(e, p)
	if err != nil {
		t.Fatal(err)
	}
	flows := sampleFlows(in.tb, 1, len(in.flows), 4)
	bodies := map[bool][]byte{}
	for _, flip := range []bool{false, true} {
		o, err := newOracle(in.tb, flows, flip)
		if err != nil {
			t.Fatal(err)
		}
		_, f := flowSlot(flows[0])
		if err := o.feed(in.flows[f]); err != nil {
			t.Fatal(err)
		}
		bodies[flip] = o.body(flows[0])
		if !bytes.Equal(o.body(flows[0]), bodies[flip]) {
			t.Error("the reference does not answer the same twice")
		}
	}
	if bytes.Equal(bodies[false], bodies[true]) {
		t.Error("one flipped digest bit left the reference answer unchanged")
	}
}

// TestSmokeFleetResize runs the in-process workload at smoke scale and
// demands that every metric BENCHMARK.json and workloads.json declare for
// it is printed exactly once with a finite value, and that the closing
// line carries exactly the driver's metrics.
func TestSmokeFleetResize(t *testing.T) {
	sp, _ := rootSpec(t)
	const name = "fleet-resize"
	p, err := sp.sizes(name, "smoke")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	e := &env{spec: sp, seed: 5, seconds: 1.7, scale: "smoke", logw: io.Discard,
		http: &http.Client{Timeout: 10 * time.Second}}
	r, err := runFleet(ctx, e, name, p)
	if err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 {
		t.Fatalf("%d of %d operations failed: %v", r.failed, r.attempted, r.failures)
	}
	var buf bytes.Buffer
	line := printResult(&buf, sp, r, false)
	if r.failed != 0 {
		t.Fatalf("printing found unmeasured metrics: %v", r.failures)
	}
	want := map[string]bool{}
	for _, m := range sp.bench.EndToEnd {
		want[m.Name] = true
	}
	for _, d := range sp.detailFor(name) {
		want[d.Name] = true
	}
	seen := map[string]int{}
	for _, l := range strings.Split(buf.String(), "\n") {
		f := strings.Fields(l)
		if len(f) >= 4 && (f[1] == "gated" || f[1] == "scoped") {
			seen[f[2]]++
			var v float64
			if err := json.Unmarshal([]byte(f[3]), &v); err != nil || !finite(v) {
				t.Errorf("metric %s printed as %q", f[2], f[3])
			}
		}
	}
	for m := range want {
		if seen[m] != 1 {
			t.Errorf("metric %s printed %d times, want once", m, seen[m])
		}
	}
	for m := range seen {
		if !want[m] {
			t.Errorf("metric %s is printed but not declared for %s", m, name)
		}
	}
	var out emitted
	if err := json.Unmarshal(line, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
		t.Errorf("closing line: %s", line)
	}
	if len(out.Metrics) != len(sp.bench.EndToEnd) {
		t.Errorf("closing line has %d metrics, the driver expects %d", len(out.Metrics), len(sp.bench.EndToEnd))
	}
	for _, m := range sp.bench.EndToEnd {
		mv, ok := out.Metrics[m.Name]
		// CPU clocks tick in milliseconds: at smoke scale a figure may
		// honestly read 0, which the full-scale sizes rule out.
		if !ok || mv.Unit != m.Unit || !finite(mv.Value) || mv.Value < 0 {
			t.Errorf("closing line metric %s = %+v", m.Name, mv)
		}
	}
	if v := r.values["resize_ms"]; v <= 0 {
		t.Errorf("resize_ms = %v", v)
	}
}

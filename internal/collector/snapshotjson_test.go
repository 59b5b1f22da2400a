package collector

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/pipeline"
)

// boundaryFloats are the values where encoding/json's float spelling
// changes form, or refuses: the 'f'/'e' switch at 1e-6 and 1e21 and the
// floats either side of each, zero of both signs, subnormals, the extremes,
// and the non-finite three.
var boundaryFloats = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1),
	0, math.Copysign(0, -1),
	1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), -1e-6,
	1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)), -1e21,
	5e-324, -5e-324, 2.2250738585072014e-308, math.MaxFloat64, -math.MaxFloat64,
	1e-7, 1.5e-10, 1e20, 123456789.25, 0.1, -3,
}

// fuzzReader turns fuzz bytes into a FlowAnswers: big-endian integers,
// length-prefixed strings, floats either picked from boundaryFloats or
// taken from raw bits, and slices that are nil, empty or 1-32 long. An
// exhausted input reads as zeros.
type fuzzReader struct{ b []byte }

func (r *fuzzReader) byte() byte {
	if len(r.b) == 0 {
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

func (r *fuzzReader) u64() uint64 {
	var v uint64
	for range 8 {
		v = v<<8 | uint64(r.byte())
	}
	return v
}

func (r *fuzzReader) str() string {
	n := min(int(r.byte()%32), len(r.b))
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

func (r *fuzzReader) float() float64 {
	if sel := int(r.byte()); sel < len(boundaryFloats) {
		return boundaryFloats[sel]
	}
	return math.Float64frombits(r.u64())
}

// length reads a slice shape: -1 nil, else the length.
func (r *fuzzReader) length() int {
	switch r.byte() % 3 {
	case 0:
		return -1
	case 1:
		return 0
	}
	return 1 + int(r.byte()%32)
}

func fuzzSlice[T any](r *fuzzReader, elem func() T) []T {
	n := r.length()
	if n < 0 {
		return nil
	}
	s := make([]T, n)
	for i := range s {
		s[i] = elem()
	}
	return s
}

func (r *fuzzReader) flow() *FlowAnswers {
	fa := &FlowAnswers{Flow: r.u64(), Tracked: r.byte()&1 == 1}
	fa.Answers = fuzzSlice(r, func() QueryAnswer {
		a := QueryAnswer{Query: r.str(), Kind: r.str()}
		a.Path = fuzzSlice(r, r.u64)
		a.Done = r.byte()&1 == 1
		a.Inconsistencies = int(int64(r.u64()))
		a.Hops = fuzzSlice(r, func() HopAnswer {
			return HopAnswer{Hop: int(int64(r.u64())), Samples: int(int64(r.u64())), P50: r.float(), P99: r.float()}
		})
		a.Series = fuzzSlice(r, r.float)
		return a
	})
	return fa
}

// fuzzSeed writes fa in fuzzReader's format (floats as raw bits), so the
// seed corpus is the boundary answers themselves.
func fuzzSeed(fa *FlowAnswers) []byte {
	var b []byte
	u64 := func(v uint64) { b = binary.BigEndian.AppendUint64(b, v) }
	flag := func(v bool) {
		if v {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	str := func(s string) { b = append(append(b, byte(len(s))), s...) }
	float := func(f float64) { b = append(b, 0xFF); u64(math.Float64bits(f)) }
	length := func(isNil bool, n int) bool {
		switch {
		case isNil:
			b = append(b, 0)
		case n == 0:
			b = append(b, 1)
		default:
			b = append(b, 2, byte(n-1))
		}
		return n > 0
	}
	u64(fa.Flow)
	flag(fa.Tracked)
	length(fa.Answers == nil, len(fa.Answers))
	for _, a := range fa.Answers {
		str(a.Query)
		str(a.Kind)
		length(a.Path == nil, len(a.Path))
		for _, id := range a.Path {
			u64(id)
		}
		flag(a.Done)
		u64(uint64(a.Inconsistencies))
		length(a.Hops == nil, len(a.Hops))
		for _, h := range a.Hops {
			u64(uint64(h.Hop))
			u64(uint64(h.Samples))
			float(h.P50)
			float(h.P99)
		}
		length(a.Series == nil, len(a.Series))
		for _, v := range a.Series {
			float(v)
		}
	}
	return b
}

// boundaryFlows are answers at every edge of the encoding that the
// appender spells by hand: strings encoding/json escapes, floats at its
// format switches, negative and zero counters, nil and empty slices at
// every level. None holds a non-finite float.
func boundaryFlows() []FlowAnswers {
	var finite []float64
	for _, f := range boundaryFloats {
		if !math.IsNaN(f) && !math.IsInf(f, 0) {
			finite = append(finite, f)
		}
	}
	var hops []HopAnswer
	for i := 0; i+1 < len(finite); i += 2 {
		hops = append(hops, HopAnswer{Hop: i - 3, Samples: -i, P50: finite[i], P99: finite[i+1]})
	}
	// One name per reason to escape, so that no name is escaped only
	// because of some other byte in it.
	var named []QueryAnswer
	for _, name := range []string{"a<b", "a>b", "a&b", `a"b`, `a\b`, "a\x00b", "a\x1fb", "a\tb", "a\nb",
		"a\u2028b", "a\u2029b", "a\xffb", "a\xe2\x80b", "héllo", "☃", "a\x7fb", "a b/c", ""} {
		named = append(named, QueryAnswer{Query: name, Kind: name})
	}
	return []FlowAnswers{
		{Flow: 0, Answers: nil},
		{Flow: math.MaxUint64, Tracked: true, Answers: []QueryAnswer{
			{Query: "path", Kind: "static", Path: []uint64{0, math.MaxUint64}, Inconsistencies: -7},
			{Query: "empty", Kind: "lists", Path: []uint64{}, Hops: []HopAnswer{}, Series: []float64{}},
			{Query: "lat", Kind: "dynamic", Done: true, Inconsistencies: math.MinInt32, Hops: hops},
			{Query: "util", Kind: "per-packet", Series: finite},
		}},
		{Flow: 42, Answers: named},
		{Flow: 43, Answers: []QueryAnswer{{}}},
	}
}

// FuzzSnapshotElement: the hand-written element appender against the
// reflective encoder it replaced, on answers no daemon produces — arbitrary
// bytes as names, floats from raw bits, any counter. It must write
// json.MarshalIndent's bytes exactly, and refuse exactly when MarshalIndent
// errors (a non-finite float anywhere in the element).
func FuzzSnapshotElement(f *testing.F) {
	for _, fa := range boundaryFlows() {
		f.Add(fuzzSeed(&fa))
	}
	for _, v := range boundaryFloats[:3] {
		f.Add(fuzzSeed(&FlowAnswers{Flow: 1, Answers: []QueryAnswer{{Query: "util", Kind: "per-packet", Series: []float64{1, v}}}}))
		f.Add(fuzzSeed(&FlowAnswers{Flow: 2, Answers: []QueryAnswer{{Query: "lat", Kind: "dynamic", Hops: []HopAnswer{{Hop: 1, P50: 2, P99: v}}}}}))
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzReader{b: data}
		fa := r.flow()
		want, wantErr := json.MarshalIndent(fa, snapshotElemIndent, "  ")
		got, err := appendFlowJSON([]byte("prefix"), fa)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("appendFlowJSON error %v, encoding/json error %v, for %#v", err, wantErr, fa)
		}
		if err != nil {
			return
		}
		if !bytes.HasPrefix(got, []byte("prefix")) || !bytes.Equal(got[len("prefix"):], want) {
			t.Fatalf("appendFlowJSON differs from json.MarshalIndent for %#v:\n got: %q\nwant: %q", fa, got, want)
		}
	})
}

// discardResponse is a ResponseWriter that keeps nothing, so what a test
// measures is the writer's own allocation and not a recorder's growing
// body.
type discardResponse struct{ h http.Header }

func (d *discardResponse) Header() http.Header         { return d.h }
func (d *discardResponse) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardResponse) WriteHeader(int)             {}

// recordedAnswers ingests n testbench flows of different lengths into one
// shard and returns the server, the flow keys and their answers.
func recordedAnswers(t *testing.T, n int) (*Server, []core.FlowKey, []FlowAnswers) {
	t.Helper()
	srv, sink := newQuietServer(t)
	tb, err := NewTestbench(7, 5)
	if err != nil {
		t.Fatal(err)
	}
	var pkts []core.PacketDigest
	vals := make([]core.HopValues, 400)
	for f := 0; f < n; f++ {
		pkts = tb.FlowBatch(1, f, 8+(f*37)%390, pkts, vals)
		sink.Ingest(pkts)
	}
	sink.Barrier()
	snap := sink.Snapshot()
	defer snap.Close()
	merged, err := snap.Merged()
	if err != nil {
		t.Fatal(err)
	}
	flows := merged.Flows()
	return srv, flows, Answers(merged, srv.cfg.Queries, flows)
}

// TestWriteSnapshotAllocsFlatInFlows pins the streaming writer's cost to
// the call, not the flow: once its buffer is warm, writing 64 flows'
// answers allocates exactly the objects writing the first one does (the
// response's framing), whichever flow's element is the longest.
func TestWriteSnapshotAllocsFlatInFlows(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime drops pooled buffers at random")
	}
	_, _, answers := recordedAnswers(t, 64)
	if len(answers) != 64 {
		t.Fatalf("%d flows recorded, want 64", len(answers))
	}
	w := &discardResponse{h: http.Header{}}
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(50, func() {
			WriteSnapshot(w, func(yield func(*FlowAnswers) bool) {
				for i := range answers[:n] {
					if !yield(&answers[i]) {
						return
					}
				}
			})
		})
	}
	one, all := allocs(1), allocs(64)
	t.Logf("WriteSnapshot: %.0f objects for 1 flow, %.0f for 64", one, all)
	if all != one {
		t.Errorf("WriteSnapshot allocates %.0f objects over 64 flows but %.0f over 1: something is allocated per flow", all, one)
	}
}

// pointQueryBudget bounds the bytes one GET /snapshot?flow=F allocates
// through the handler, request and recorder included: 8,698 B measured on
// linux/amd64, Go 1.24, about 4 KB of it the recorder's body growing, and
// the budget is that plus 10 %. While each request evaluated into a
// FlowAnswers of its own, growing its answers, path and hops, it measured
// ~9.5 KB; with the reflective encoder, a fresh buffer per request and
// another to indent into, ~14.1 KB.
const pointQueryBudget = 9568

// TestPointSnapshotByteBudget pins what a one-flow query costs the
// daemon's heap end to end through Server.Handler(): parsing, the
// flow-scoped snapshot, evaluation and the body, on one P as
// testing.AllocsPerRun measures.
func TestPointSnapshotByteBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime drops pooled buffers at random")
	}
	srv, flows, answers := recordedAnswers(t, 16)
	flow := flows[len(flows)/2]
	h := srv.Handler()
	path := fmt.Sprintf("/snapshot?flow=%d", uint64(flow))
	serve := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec
	}
	want := httptest.NewRecorder()
	WriteJSON(want, map[string]any{"flows": answers[len(flows)/2 : len(flows)/2+1]})
	if got := serve(); got.Code != http.StatusOK || got.Body.String() != want.Body.String() {
		t.Fatalf("point query: status %d, body\n%s\nwant\n%s", got.Code, got.Body.String(), want.Body.String())
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for range 5 {
		serve()
	}
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		serve()
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("GET %s: %d B allocated per request (budget %d)", path, per, pointQueryBudget)
	if per > pointQueryBudget {
		t.Errorf("GET %s allocates %d B per request, over the %d B budget", path, per, pointQueryBudget)
	}
}

// fullQueryBudget bounds the bytes one warm GET /snapshot allocates
// through the handler at any flow count: ~6.3 KB measured on linux/amd64,
// Go 1.24. While each query leased a fresh run (16 B a flow) and listed
// the flows (8 B more), it measured ~58 KB at 2,048 flows and ~212 KB at
// 8,192.
const fullQueryBudget = 16 << 10

// TestFullSnapshotBytesFlatInFlows pins a warm full query's heap cost to
// the request, not the flow: through Server.Handler() on two shards, once
// a query has left each shard a spare run, the next allocates the same
// bytes over 2,048 flows as over 8,192 (within 1 KB), and no more than
// fullQueryBudget. The response body is discarded, so a recorder's growing
// buffer is not what is measured; what it would hold is checked once,
// against the answers of a merged snapshot's sorted flow list.
func TestFullSnapshotBytesFlatInFlows(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime drops pooled buffers at random")
	}
	tb, err := NewTestbench(7, 5)
	if err != nil {
		t.Fatal(err)
	}
	sink, err := pipeline.NewSink(tb.Engine, pipeline.Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sink.Close() })
	srv, err := New(tb.Engine, WithSink(sink), WithQueries(tb.Queries()...))
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	w := &discardResponse{h: http.Header{}}
	var pkts []core.PacketDigest
	vals := make([]core.HopValues, 4)
	recorded := 0
	perQuery := func(n int) uint64 {
		for ; recorded < n; recorded++ {
			pkts = tb.FlowBatch(1, recorded, 4, pkts, vals)
			sink.Ingest(pkts)
		}
		sink.Barrier()
		if got := sink.TrackedFlows(); got != n {
			t.Fatalf("%d flows tracked, want %d", got, n)
		}
		serve := func() { h.ServeHTTP(w, httptest.NewRequest("GET", "/snapshot", nil)) }
		for range 3 {
			serve()
		}
		const runs = 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			serve()
		}
		runtime.ReadMemStats(&after)
		per := (after.TotalAlloc - before.TotalAlloc) / runs
		t.Logf("GET /snapshot over %d flows: %d B allocated per request (budget %d)", n, per, fullQueryBudget)
		return per
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	small := perQuery(2048)
	snap := sink.Snapshot()
	merged, err := snap.Merged()
	if err != nil {
		t.Fatal(err)
	}
	want := httptest.NewRecorder()
	WriteJSON(want, map[string]any{"flows": Answers(merged, srv.cfg.Queries, merged.Flows())})
	snap.Close()
	got := httptest.NewRecorder()
	h.ServeHTTP(got, httptest.NewRequest("GET", "/snapshot", nil))
	if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Fatalf("GET /snapshot over two shards differs from the answers of its sorted flows (%d bytes, want %d)", got.Body.Len(), want.Body.Len())
	}
	large := perQuery(8192)
	if large > fullQueryBudget {
		t.Errorf("a warm full query over 8,192 flows allocates %d B, over the %d B budget", large, fullQueryBudget)
	}
	if large > small+1<<10 || small > large+1<<10 {
		t.Errorf("a warm full query allocates %d B over 2,048 flows but %d B over 8,192: something is allocated per flow", small, large)
	}
}

// TestColdFullSnapshotBytesPerFlow pins what the first full query costs a
// daemon that has answered only point queries: no shard has a spare run
// large enough, so each leases a fresh one of 4 B a flow (its blocks'
// offsets), and nothing else the query allocates grows with the flows.
// Through Server.Handler() on two shards, over 2,048 and 8,192 flows, the
// first GET /snapshot allocates at most a warm one's bytes plus 4 B a flow,
// an eighth of that for the size class a run rounds up to, and 1 KiB:
// measured on linux/amd64, Go 1.24, 8,960 B over 2,048 flows and 34,816 B
// over 8,192 (shards of ~4,150 and ~4,040 flows take 18,432 and 16,384 B).
// While a run kept each flow's key beside its offset, the first query cost
// 16 B a flow more than a warm one.
func TestColdFullSnapshotBytesPerFlow(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime drops pooled buffers at random")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, n := range []int{2048, 8192} {
		tb, err := NewTestbench(7, 5)
		if err != nil {
			t.Fatal(err)
		}
		sink, err := pipeline.NewSink(tb.Engine, pipeline.Config{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := New(tb.Engine, WithSink(sink), WithQueries(tb.Queries()...))
		if err != nil {
			t.Fatal(err)
		}
		var pkts []core.PacketDigest
		vals := make([]core.HopValues, 4)
		for f := range n {
			pkts = tb.FlowBatch(1, f, 4, pkts, vals)
			sink.Ingest(pkts)
		}
		sink.Barrier()
		h, w := srv.Handler(), &discardResponse{h: http.Header{}}
		serve := func(path string) uint64 {
			req := httptest.NewRequest("GET", path, nil)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			h.ServeHTTP(w, req)
			runtime.ReadMemStats(&after)
			return after.TotalAlloc - before.TotalAlloc
		}
		for i := range 32 {
			serve(fmt.Sprintf("/snapshot?flow=%d", uint64(tb.FlowKeyFor(1, i*n/32))))
		}
		cold := serve("/snapshot")
		for range 3 {
			serve("/snapshot")
		}
		const runs = 10
		var warm uint64
		for range runs {
			warm += serve("/snapshot")
		}
		warm /= runs
		budget := warm + 4*uint64(n)*9/8 + 1<<10
		t.Logf("the first GET /snapshot over %d flows allocates %d B, a warm one %d B (budget %d)", n, cold, warm, budget)
		if cold > budget {
			t.Errorf("the first GET /snapshot over %d flows allocates %d B, over a warm one's %d B + 4.5 B a flow + 1 KiB", n, cold, warm)
		}
		sink.Close()
	}
}

// statsBudget bounds the bytes one GET /stats allocates through the
// handler on an idle one-shard daemon, the response written to a
// discarding writer: 328 B measured on linux/amd64, Go 1.24 (256 B on
// 386), and the budget is that plus a fifth. While every call made an
// encoder of its own, whose indent buffer regrew each time, and encoded
// straight into the response, it measured 1,344 B.
const statsBudget = 400

// TestStatsByteBudget pins what a /stats poll costs the daemon's heap:
// pintbench's settle loop polls it every millisecond inside every timed
// window, so it is paid on each workload's clock.
func TestStatsByteBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime drops pooled buffers at random")
	}
	srv, _ := newQuietServer(t)
	h, req := srv.Handler(), httptest.NewRequest("GET", "/stats", nil)
	want := httptest.NewRecorder()
	h.ServeHTTP(want, req)
	body := httptest.NewRecorder()
	WriteJSON(body, srv.StatsV1())
	if want.Code != http.StatusOK || want.Body.String() != body.Body.String() {
		t.Fatalf("GET /stats: status %d, body\n%s\nwant\n%s", want.Code, want.Body.String(), body.Body.String())
	}
	w := &discardResponse{h: http.Header{}}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for range 5 {
		h.ServeHTTP(w, req)
	}
	const runs = 500
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		h.ServeHTTP(w, req)
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("GET /stats: %d B allocated per request (budget %d)", per, statsBudget)
	if per > statsBudget {
		t.Errorf("GET /stats allocates %d B per request, over the %d B budget", per, statsBudget)
	}
}

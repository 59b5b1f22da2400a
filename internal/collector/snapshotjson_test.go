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
// through the handler, request and recorder included: ~9.4 KB measured on
// linux/amd64, Go 1.24, about 4 KB of it the recorder's body growing. The
// reflective encoder this replaced, with a fresh buffer per request and
// another to indent into, measured ~14.1 KB.
const pointQueryBudget = 12 << 10

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

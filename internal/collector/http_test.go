package collector

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/pipeline"
)

// newQuietServer builds a collector over a 1-shard sink with no listener
// — enough to exercise the HTTP surface.
func newQuietServer(t *testing.T) (*Server, *pipeline.Sink) {
	t.Helper()
	tb, err := NewTestbench(7, 5)
	if err != nil {
		t.Fatal(err)
	}
	sink, err := pipeline.NewSink(tb.Engine, pipeline.Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sink.Close() })
	srv, err := New(tb.Engine, WithSink(sink), WithQueries(tb.Queries()...))
	if err != nil {
		t.Fatal(err)
	}
	return srv, sink
}

// TestHandlerErrorPaths pins the HTTP error contract: wrong method is
// 405, unknown route is 404, a malformed flow filter is 400 — and none of
// them hang or panic.
func TestHandlerErrorPaths(t *testing.T) {
	srv, _ := newQuietServer(t)
	h := srv.Handler()

	cases := []struct {
		name   string
		method string
		path   string
		status int
		body   string
	}{
		{"post snapshot", "POST", "/snapshot", http.StatusMethodNotAllowed, ""},
		{"put stats", "PUT", "/stats", http.StatusMethodNotAllowed, ""},
		{"delete healthz", "DELETE", "/healthz", http.StatusMethodNotAllowed, ""},
		{"unknown route", "GET", "/nope", http.StatusNotFound, ""},
		{"bad flow filter", "GET", "/snapshot?flow=banana", http.StatusBadRequest, "bad flow"},
		{"healthy snapshot", "GET", "/snapshot", http.StatusOK, `"flows"`},
		{"healthy stats", "GET", "/stats", http.StatusOK, `"sink"`},
		{"healthy healthz", "GET", "/healthz", http.StatusOK, `"ok": true`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.path, nil))
			if rec.Code != tc.status {
				t.Fatalf("%s %s: status %d, want %d (body %q)", tc.method, tc.path, rec.Code, tc.status, rec.Body.String())
			}
			if tc.body != "" && !strings.Contains(rec.Body.String(), tc.body) {
				t.Fatalf("%s %s: body lacks %q:\n%s", tc.method, tc.path, tc.body, rec.Body.String())
			}
		})
	}
}

// TestFlowFilterIsDecimal: a ?flow= key is a decimal uint64, as the body's
// "flow" member spells it, so the answer names the flow the client asked
// for. A leading zero is still decimal (010 is flow 10, not octal 8), and
// a hex, octal or binary prefix, an underscore, a sign or an overflow is
// the client's 400 — never some other flow's answer.
func TestFlowFilterIsDecimal(t *testing.T) {
	srv, flows, answers := recordedAnswers(t, 4)
	h := srv.Handler()
	tracked := httptest.NewRecorder()
	WriteJSON(tracked, map[string]any{"flows": answers[1:2]})
	for _, tc := range []struct {
		raw    string
		status int
		body   string // the whole body, or a fragment of it
	}{
		{fmt.Sprint(uint64(flows[1])), http.StatusOK, tracked.Body.String()},
		{"0" + fmt.Sprint(uint64(flows[1])), http.StatusOK, tracked.Body.String()},
		{"10", http.StatusOK, `"flow": 10,`},
		{"010", http.StatusOK, `"flow": 10,`},
		{"0010", http.StatusOK, `"flow": 10,`},
		{"0x10", http.StatusBadRequest, "bad flow"},
		{"0X10", http.StatusBadRequest, "bad flow"},
		{"0o17", http.StatusBadRequest, "bad flow"},
		{"0b101", http.StatusBadRequest, "bad flow"},
		{"1_0", http.StatusBadRequest, "bad flow"},
		{"+10", http.StatusBadRequest, "bad flow"},
		{"-1", http.StatusBadRequest, "bad flow"},
		{"18446744073709551616", http.StatusBadRequest, "bad flow"},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/snapshot?flow="+url.QueryEscape(tc.raw), nil))
		if rec.Code != tc.status || !strings.Contains(rec.Body.String(), tc.body) {
			t.Errorf("?flow=%s: status %d, body\n%s\nwant %d with\n%s", tc.raw, rec.Code, rec.Body.String(), tc.status, tc.body)
		}
	}
}

// TestSnapshotDuringDrainReturns503 pins the drain contract: once
// Shutdown has begun, /snapshot answers 503 with a Retry-After instead of
// hanging or racing the teardown. /healthz and /stats stay readable (an
// operator watching a drain still needs them).
func TestSnapshotDuringDrainReturns503(t *testing.T) {
	srv, _ := newQuietServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/snapshot", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("snapshot during drain: status %d, want 503 (body %q)", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("503 lacks a Retry-After header")
	}
	for _, path := range []string{"/healthz", "/stats"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s during drain: status %d, want 200", path, rec.Code)
		}
	}
}

// TestHTTPServerHardening pins the production guards on the daemon's HTTP
// server: header-read and idle timeouts, a header cap, and a bounded
// request body.
func TestHTTPServerHardening(t *testing.T) {
	srv, _ := newQuietServer(t)
	hs := srv.HTTPServer(nil)
	if hs.ReadHeaderTimeout <= 0 {
		t.Error("ReadHeaderTimeout unset: a half-open connect pins a goroutine forever")
	}
	if hs.IdleTimeout <= 0 {
		t.Error("IdleTimeout unset: silent keep-alives are never shed")
	}
	if hs.MaxHeaderBytes <= 0 || hs.MaxHeaderBytes > 1<<20 {
		t.Errorf("MaxHeaderBytes %d out of a sane bound", hs.MaxHeaderBytes)
	}
	if hs.Handler == nil {
		t.Fatal("HTTPServer without a handler")
	}
	// The handler is wrapped in MaxBytesHandler: a body above the cap
	// must fail the read inside the handler rather than buffer forever.
	// Exercise it through a route that reads the body via the wrapper.
	probe := HardenedHTTPServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		buf := make([]byte, 4096)
		for {
			if _, err := r.Body.Read(buf); err != nil {
				if _, ok := err.(*http.MaxBytesError); ok {
					http.Error(w, err.Error(), http.StatusRequestEntityTooLarge)
					return
				}
				w.WriteHeader(http.StatusOK)
				return
			}
		}
	}))
	rec := httptest.NewRecorder()
	body := strings.NewReader(strings.Repeat("x", MaxRequestBody+1))
	probe.Handler.ServeHTTP(rec, httptest.NewRequest("POST", "/", body))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", rec.Code)
	}
}

// TestWithProfiling smoke-tests the opt-in pprof surface end to end: a
// real HTTP listener (the profile handler needs a flushable writer, not a
// recorder), a 1-second CPU profile that must come back 200 with a
// non-empty body, and the collector's own routes still served underneath.
// The plain Handler must NOT expose /debug/pprof/ — it is opt-in.
func TestWithProfiling(t *testing.T) {
	srv, _ := newQuietServer(t)
	ts := httptest.NewServer(WithProfiling(srv.Handler()))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/debug/pprof/profile?seconds=1")
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 64)
	n, _ := resp.Body.Read(body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof profile: status %d, want 200 (body %q)", resp.StatusCode, body[:n])
	}
	if n == 0 {
		t.Fatal("pprof profile: empty body")
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz under WithProfiling: status %d, want 200", resp.StatusCode)
	}

	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("plain Handler serves /debug/pprof/ (status %d): profiling must be opt-in", rec.Code)
	}
}

// TestEpochMismatchRefused pins the cluster-epoch gate: an exporter
// carrying a different epoch is refused at the handshake with a
// descriptive error, and nothing is ingested.
func TestEpochMismatchRefused(t *testing.T) {
	tb, err := NewTestbench(7, 5)
	if err != nil {
		t.Fatal(err)
	}
	sink, err := pipeline.NewSink(tb.Engine, pipeline.Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	srv, err := New(tb.Engine, WithSink(sink), WithQueries(tb.Queries()...), WithEpoch(3))
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer shutdownServer(t, srv)

	stale := HelloFor(tb.Engine, 1, "stale-map")
	stale.Epoch = 2
	if _, err := dial(ln.Addr().String(), stale); err == nil || !strings.Contains(err.Error(), "epoch") {
		t.Fatalf("stale epoch dial: want an epoch-mismatch error, got %v", err)
	}

	fresh := HelloFor(tb.Engine, 1, "fresh-map")
	fresh.Epoch = 3
	ex, err := dial(ln.Addr().String(), fresh)
	if err != nil {
		t.Fatalf("matching epoch refused: %v", err)
	}
	ex.Close()

	// The server counts a refusal after it has written the reject byte, so
	// the exporter can know of it first: wait for the count, briefly.
	for deadline := time.Now().Add(2 * time.Second); srv.Stats().Rejected != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("rejected sessions %d, want 1", srv.Stats().Rejected)
		}
	}
}

// TestWriteSnapshotMatchesWholeDocumentEncoder pins the streaming
// /snapshot writer to the bytes of the encoder it replaced — one
// json.Encoder pass over map{"flows": …} — for an empty list, one flow,
// many flows of every answer shape, including strings the encoder
// HTML-escapes, and the boundary answers FuzzSnapshotElement seeds with
// (escapes, float format switches, negative counters, nil and empty
// lists); and the degraded-fleet framing (SnapshotWriter with an error
// list) to one pass over map{"errors": …, "flows": …}. A non-finite answer
// cuts the body short after the elements before it, with no closing
// bracket: a client can never take it for a whole document.
func TestWriteSnapshotMatchesWholeDocumentEncoder(t *testing.T) {
	many := []FlowAnswers{
		{Flow: 1, Tracked: true, Answers: []QueryAnswer{
			{Query: "path", Kind: "static", Path: []uint64{7, 8, 9}, Done: true, Inconsistencies: 2},
			{Query: "lat<&>", Kind: "dynamic", Hops: []HopAnswer{{Hop: 1, Samples: 3, P50: 1.5, P99: 1e21}, {Hop: 4, Samples: 1}}},
			{Query: "util", Kind: "per-packet", Series: []float64{0.25, 3, 1e-9}},
		}},
		{Flow: 1 << 63, Answers: []QueryAnswer{}},
		{Flow: 3, Tracked: true, Answers: []QueryAnswer{{Query: "util", Kind: "per-packet", Series: []float64{}}}},
	}
	type nodeErr struct {
		Node  string `json:"node"`
		Error string `json:"error"`
		Kind  string `json:"kind,omitempty"`
	}
	errs := []nodeErr{{Node: "http://a", Error: "status 503 <draining>"}, {Node: "http://b", Error: "x", Kind: "epoch_stale"}}
	for name, flows := range map[string][]FlowAnswers{
		"empty": {}, "one": many[:1], "many": many, "boundary": boundaryFlows(),
	} {
		seq := func(yield func(*FlowAnswers) bool) {
			for i := range flows {
				if !yield(&flows[i]) {
					return
				}
			}
		}
		want := httptest.NewRecorder()
		WriteJSON(want, map[string]any{"flows": flows})
		got := httptest.NewRecorder()
		WriteSnapshot(got, seq)
		if got.Body.String() != want.Body.String() {
			t.Errorf("%s: streamed body differs from the whole-document encoding:\n got: %q\nwant: %q", name, got.Body.String(), want.Body.String())
		}
		if ct := got.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q", name, ct)
		}

		want = httptest.NewRecorder()
		WriteJSON(want, map[string]any{"errors": errs, "flows": flows})
		got = httptest.NewRecorder()
		sw := NewSnapshotWriter(got, errs)
		for i := range flows {
			elem, err := json.MarshalIndent(&flows[i], snapshotElemIndent, "  ")
			if err != nil {
				t.Fatal(err)
			}
			if err := sw.Element(elem); err != nil {
				t.Fatal(err)
			}
		}
		if err := sw.Close(); err != nil {
			t.Fatal(err)
		}
		if got.Body.String() != want.Body.String() {
			t.Errorf("%s: degraded framing differs from the whole-document encoding:\n got: %q\nwant: %q", name, got.Body.String(), want.Body.String())
		}
	}

	good := many[:1]
	whole := httptest.NewRecorder()
	WriteJSON(whole, map[string]any{"flows": good})
	prefix, _, _ := strings.Cut(whole.Body.String(), "\n  ]\n}\n")
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		cutShort := append(append([]FlowAnswers{}, good...),
			FlowAnswers{Flow: 9, Answers: []QueryAnswer{{Query: "util", Kind: "per-packet", Series: []float64{1, bad}}}},
			FlowAnswers{Flow: 10, Answers: []QueryAnswer{}})
		got := httptest.NewRecorder()
		WriteSnapshot(got, func(yield func(*FlowAnswers) bool) {
			for i := range cutShort {
				if !yield(&cutShort[i]) {
					return
				}
			}
		})
		if got.Body.String() != prefix {
			t.Errorf("%v answer: body %q, want it cut short after the good element: %q", bad, got.Body.String(), prefix)
		}
	}
}

// TestEachFlowMatchesAnswers: the streaming evaluator reuses one
// FlowAnswers — and its path, hop and answer slices — across flows, so
// every element must come out exactly as the collecting evaluator's fresh
// one, including an untracked flow's empty answer between two full ones
// (nothing of the previous flow may show through the reused slices).
func TestEachFlowMatchesAnswers(t *testing.T) {
	tb, err := NewTestbench(19, 5)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := core.NewRecording(tb.Engine)
	if err != nil {
		t.Fatal(err)
	}
	var pkts []core.PacketDigest
	vals := make([]core.HopValues, 120)
	for f := 0; f < 4; f++ {
		pkts = tb.FlowBatch(1, f, 30*(f+1), pkts, vals)
		if err := rec.RecordBatch(pkts); err != nil {
			t.Fatal(err)
		}
	}
	flows := []core.FlowKey{tb.FlowKeyFor(1, 3), 0xDEAD, tb.FlowKeyFor(1, 0), tb.FlowKeyFor(1, 2), 0xBEEF, tb.FlowKeyFor(1, 1)}
	want := Answers(rec, tb.Queries(), flows)
	i := 0
	for fa := range EachFlow(rec, tb.Queries(), flows) {
		got, err := json.Marshal(fa)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := json.Marshal(want[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, ref) {
			t.Errorf("flow %d (#%d): streamed answer differs:\n got: %s\nwant: %s", flows[i], i, got, ref)
		}
		i++
	}
	if i != len(flows) {
		t.Fatalf("EachFlow yielded %d flows, want %d", i, len(flows))
	}
	// The reuse is the point: a warm evaluator allocates nothing per flow.
	allocs := testing.AllocsPerRun(20, func() {
		for range EachFlow(rec, tb.Queries(), flows) {
		}
	})
	if allocs > 8 {
		t.Errorf("EachFlow over %d flows: %.0f allocations, want a handful per pass (not per flow)", len(flows), allocs)
	}
}

package federation

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/collector"
)

// This file drives the frontend's streaming /snapshot merge against stub
// members serving canned bodies, so every way a member can fail — before
// the response is committed and after — is pinned without a live fleet.

// cannedFlow is a flow answer of the shape a collector emits; note marks
// which member it came from so a test can tell two answers for one flow
// apart.
func cannedFlow(flow uint64, tracked bool, note string) collector.FlowAnswers {
	fa := collector.FlowAnswers{Flow: flow, Tracked: tracked, Answers: []collector.QueryAnswer{}}
	if tracked {
		fa.Answers = []collector.QueryAnswer{
			{Query: "path", Kind: "static per-flow", Path: []uint64{flow, 2, 3}, Done: true},
			{Query: "lat " + note, Kind: "dynamic per-flow", Hops: []collector.HopAnswer{{Hop: 1, Samples: 7, P50: 1.5, P99: 2.5}}},
		}
	}
	return fa
}

// cannedBody renders flows exactly as a collector's /snapshot does.
func cannedBody(flows ...collector.FlowAnswers) []byte {
	rec := httptest.NewRecorder()
	collector.WriteSnapshot(rec, func(yield func(*collector.FlowAnswers) bool) {
		for i := range flows {
			if !yield(&flows[i]) {
				return
			}
		}
	})
	return rec.Body.Bytes()
}

// ascendingBody is a collector body of n tracked flows with keys first,
// first+step, ….
func ascendingBody(n int, first, step uint64) []byte {
	flows := make([]collector.FlowAnswers, n)
	for i := range flows {
		flows[i] = cannedFlow(first+uint64(i)*step, true, "m")
	}
	return cannedBody(flows...)
}

// serveBody is a stub member answering every request with body.
func serveBody(body []byte) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) { w.Write(body) }
}

// stubGate starts one stub member per handler and a frontend over them,
// itself served over loopback so that an aborted response is seen the way
// a real client sees it.
func stubGate(t *testing.T, opts []FrontendOption, members ...http.HandlerFunc) (*Frontend, string) {
	t.Helper()
	fms := make([]FleetMember, len(members))
	for i, h := range members {
		srv := httptest.NewServer(h)
		t.Cleanup(srv.Close)
		fms[i] = FleetMember{Name: fmt.Sprintf("stub-%d", i), Ingest: fmt.Sprintf("stub-%d:1", i), Query: srv.URL}
	}
	fm, err := NewFleetMap(1, fms)
	if err != nil {
		t.Fatal(err)
	}
	fe, err := NewFrontend(append([]FrontendOption{WithFleetMap(fm)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	gate := httptest.NewServer(fe.Handler())
	t.Cleanup(gate.Close)
	return fe, gate.URL
}

// fetchAll GETs url and reads the whole body; err is whatever went wrong
// on the way, at any point.
func fetchAll(url string) (*http.Response, []byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp, body, err
}

// degraded decodes a partial answer and re-encodes it through WriteJSON —
// the document the pre-streaming frontend built — for byte comparison.
func degraded(t *testing.T, body []byte) (errs []NodeError, reencoded []byte) {
	t.Helper()
	var doc struct {
		Errors []NodeError             `json:"errors"`
		Flows  []collector.FlowAnswers `json:"flows"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("partial answer is not JSON: %v\n%s", err, body)
	}
	rec := httptest.NewRecorder()
	collector.WriteJSON(rec, map[string]any{"errors": doc.Errors, "flows": doc.Flows})
	return doc.Errors, rec.Body.Bytes()
}

// TestSnapshotMidBodyFailureAborts: a member that fails after the
// frontend has committed its response — its first element was fine — must
// cost the client the response (a transport error), never produce a
// complete-looking 200 with that member's flows missing.
func TestSnapshotMidBodyFailureAborts(t *testing.T) {
	good := ascendingBody(40, 1, 2) // odd keys
	other := ascendingBody(40, 2, 2)
	first := bytes.Index(other, []byte("\n    },")) + len("\n    },") // the end of other's first element
	cases := map[string]http.HandlerFunc{
		"dies": func(w http.ResponseWriter, r *http.Request) {
			w.Write(other[:len(other)/2])
			w.(http.Flusher).Flush()
			panic(http.ErrAbortHandler)
		},
		"truncates": serveBody(other[:len(other)/2]),
		"unclosed":  serveBody(bytes.TrimSuffix(other, []byte("\n  ]\n}\n"))),
		"trailing":  serveBody(append(other[:len(other):len(other)], "{}"...)),
		"malformed": serveBody(append(append(other[:first:first], "\n    {\"flow\": 4, \"answers\": [tru]}"...), other[first:]...)),
		"no flow key": serveBody(append(append(other[:first:first],
			"\n    {\"tracked\": true, \"answers\": []},"...), other[first:]...)),
		"out of order": serveBody(cannedBody(cannedFlow(2, true, "m"), cannedFlow(8, true, "m"), cannedFlow(6, true, "m"))),
		"repeated key": serveBody(cannedBody(cannedFlow(2, true, "m"), cannedFlow(2, true, "m"))),
		"over the cap": func(w http.ResponseWriter, r *http.Request) {
			big := ascendingBody(1000, 2, 2) // ~0.5 MB against the 256 KB cap set below
			w.Write(big[:first])
			w.(http.Flusher).Flush() // chunked: no Content-Length to refuse up front
			w.Write(big[first:])
		},
		"goes silent": func(w http.ResponseWriter, r *http.Request) {
			w.Write(other[:first])
			w.(http.Flusher).Flush()
			select {
			case <-r.Context().Done():
			case <-time.After(10 * time.Second):
			}
		},
	}
	for name, bad := range cases {
		t.Run(name, func(t *testing.T) {
			fe, url := stubGate(t, []FrontendOption{WithTimeout(200 * time.Millisecond)}, serveBody(good), bad)
			fe.bodyCap = 256 << 10 // the healthy bodies are ~50 KB
			resp, body, err := fetchAll(url + "/snapshot")
			if err == nil {
				t.Fatalf("status %d, %d-byte body read to a clean end; want a transport error\n%.300s",
					resp.StatusCode, len(body), body)
			}
		})
	}
	// The same members, healthy: the merge completes (the harness itself
	// is not what aborts).
	_, url := stubGate(t, nil, serveBody(good), serveBody(other))
	resp, body, err := fetchAll(url + "/snapshot")
	if err != nil || resp.StatusCode != http.StatusOK || !bytes.Equal(body, ascendingBody(80, 1, 1)) {
		t.Fatalf("healthy stub fleet: err %v, body %.200s", err, body)
	}
}

// TestSnapshotExplicitOutOfStepAborts: on a ?flow= query the members
// answer the same flows in the same order; one that answers another flow,
// or fewer, breaks the lock-step and aborts the response.
func TestSnapshotExplicitOutOfStepAborts(t *testing.T) {
	home := cannedBody(cannedFlow(5, true, "home"), cannedFlow(9, false, ""))
	for name, other := range map[string][]byte{
		"different flow": cannedBody(cannedFlow(5, false, ""), cannedFlow(8, false, "")),
		"shorter":        cannedBody(cannedFlow(5, false, "")),
		"longer":         cannedBody(cannedFlow(5, false, ""), cannedFlow(9, false, ""), cannedFlow(9, false, "")),
	} {
		t.Run(name, func(t *testing.T) {
			_, url := stubGate(t, nil, serveBody(other), serveBody(home))
			if resp, body, err := fetchAll(url + "/snapshot?flow=5&flow=9"); err == nil {
				t.Fatalf("status %d, body read to a clean end; want a transport error\n%s", resp.StatusCode, body)
			}
		})
	}
	// In step, the tracked answer wins wherever it sits.
	_, url := stubGate(t, nil, serveBody(cannedBody(cannedFlow(5, false, ""), cannedFlow(9, false, ""))), serveBody(home))
	_, body, err := fetchAll(url + "/snapshot?flow=5&flow=9")
	if err != nil || !bytes.Equal(body, home) {
		t.Fatalf("in-step explicit merge: err %v\n got: %s\nwant: %s", err, body, home)
	}
}

// TestSnapshotDuplicateFlowLowestMemberWins: a flow two members both
// list (a partitioning violation) appears once, with the lowest-indexed
// member's answer, and the rest of the merge is unaffected.
func TestSnapshotDuplicateFlowLowestMemberWins(t *testing.T) {
	m0 := cannedBody(cannedFlow(3, true, "zero"), cannedFlow(7, true, "zero"))
	m1 := cannedBody(cannedFlow(1, true, "one"), cannedFlow(7, true, "one"), cannedFlow(9, true, "one"))
	m2 := cannedBody(cannedFlow(7, true, "two"))
	_, url := stubGate(t, nil, serveBody(m0), serveBody(m1), serveBody(m2))
	resp, body, err := fetchAll(url + "/snapshot")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("err %v", err)
	}
	want := cannedBody(cannedFlow(1, true, "one"), cannedFlow(3, true, "zero"), cannedFlow(7, true, "zero"), cannedFlow(9, true, "one"))
	if !bytes.Equal(body, want) {
		t.Fatalf("merged body:\n got: %s\nwant: %s", body, want)
	}
	if resp.Header.Get(PartialHeader) != "" {
		t.Fatalf("healthy merge marked partial")
	}
}

// TestSnapshotDegradedDocumentBytes: a member that fails before the
// response is committed is named in a partial answer whose bytes are
// exactly WriteJSON of {"errors": …, "flows": …} — the document the
// frontend built when it still decoded and re-encoded every answer — for
// every shape of the flow list: some, none ([]), and nobody left to ask
// ([] for a full query, null for an explicit one).
func TestSnapshotDegradedDocumentBytes(t *testing.T) {
	refuse := func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "collector: on fire\nsecond line", http.StatusInternalServerError)
	}
	stale := func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(collector.EpochHeader, "99")
		w.Write(cannedBody())
	}
	notJSON := serveBody([]byte("<html>proxy error</html>"))
	empty := serveBody(cannedBody())
	flows := serveBody(ascendingBody(5, 10, 3))
	for _, tc := range []struct {
		name    string
		query   string
		members []http.HandlerFunc
		partial string
		errors  []string // a fragment of each expected error, in member order
		flows   string   // the "flows" member's opening
	}{
		{"survivor flows", "", []http.HandlerFunc{refuse, flows}, "1", []string{"status 500 Internal Server Error: collector: on fire"}, `"flows": [` + "\n"},
		{"survivors empty", "", []http.HandlerFunc{empty, stale, empty}, "1", []string{"member is at fleet epoch 99, frontend map is at 1"}, `"flows": []`},
		{"bad first bytes", "", []http.HandlerFunc{flows, notJSON}, "1", []string{"bad snapshot body: flows[0]: invalid character '<'"}, `"flows": [` + "\n"},
		{"all down, full", "", []http.HandlerFunc{refuse, stale}, "2", []string{"status 500", "epoch 99"}, `"flows": []`},
		{"all down, explicit", "?flow=5", []http.HandlerFunc{stale, refuse, notJSON}, "3", []string{"epoch 99", "status 500", "bad snapshot body"}, `"flows": null`},
		{"explicit survivor", "?flow=12", []http.HandlerFunc{refuse, serveBody(cannedBody(cannedFlow(12, true, "m")))}, "1", []string{"status 500"}, `"flows": [` + "\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, url := stubGate(t, nil, tc.members...)
			resp, body, err := fetchAll(url + "/snapshot" + tc.query)
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("err %v, response %+v", err, resp)
			}
			if got := resp.Header.Get(PartialHeader); got != tc.partial {
				t.Errorf("%s = %q, want %q", PartialHeader, got, tc.partial)
			}
			errs, want := degraded(t, body)
			if !bytes.Equal(body, want) {
				t.Errorf("partial answer is not WriteJSON of its own structure:\n got: %s\nwant: %s", body, want)
			}
			if len(errs) != len(tc.errors) {
				t.Fatalf("errors %+v, want %d of them", errs, len(tc.errors))
			}
			for i, frag := range tc.errors {
				if !strings.Contains(errs[i].Error, frag) || !strings.HasPrefix(errs[i].Node, "http://127.0.0.1:") {
					t.Errorf("errors[%d] = %+v, want it to mention %q", i, errs[i], frag)
				}
				if strings.Contains(errs[i].Error, "second line") {
					t.Errorf("errors[%d] carries more than the member's first line: %q", i, errs[i].Error)
				}
			}
			if !bytes.Contains(body, []byte(tc.flows)) {
				t.Errorf("flow list does not open with %q:\n%s", tc.flows, body)
			}
		})
	}
}

// TestFanOutErrorBodyBounded: a member's error body is read for its first
// line only — a few KiB of it at most, however much the member sends.
func TestFanOutErrorBodyBounded(t *testing.T) {
	var sent atomic.Int64
	flood := func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusBadGateway)
		chunk := bytes.Repeat([]byte("x"), 64<<10)
		for sent.Load() < 64<<20 {
			if _, err := w.Write(chunk); err != nil {
				return // the frontend hung up, as it should
			}
			sent.Add(int64(len(chunk)))
		}
	}
	_, url := stubGate(t, nil, flood, serveBody(cannedBody()))
	_, body, err := fetchAll(url + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	errs, _ := degraded(t, body)
	if len(errs) != 1 || errs[0].Status != http.StatusBadGateway {
		t.Fatalf("errors %+v", errs)
	}
	if n := len(errs[0].Error); n > 5<<10 {
		t.Fatalf("error message is %d bytes: the error body was not bounded", n)
	}
	if sent.Load() >= 64<<20 {
		t.Fatalf("the member got to send its whole %d-byte error body", sent.Load())
	}
}

// TestFanOutFollowsCaller: the member requests run under the incoming
// request's context, so a caller that gives up takes them with it instead
// of leaving every member to finish a snapshot nobody will read.
func TestFanOutFollowsCaller(t *testing.T) {
	const members = 3
	arrived, released := make(chan struct{}, members), make(chan struct{}, members)
	hang := func(w http.ResponseWriter, r *http.Request) {
		arrived <- struct{}{}
		select {
		case <-r.Context().Done():
			released <- struct{}{}
		case <-time.After(10 * time.Second):
		}
	}
	_, url := stubGate(t, nil, hang, hang, hang)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/snapshot", nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()
	for i := 0; i < members; i++ {
		<-arrived
	}
	cancel()
	if err := <-done; err == nil {
		t.Fatal("the cancelled gate request completed")
	}
	for i := 0; i < members; i++ {
		select {
		case <-released:
		case <-time.After(5 * time.Second):
			t.Fatalf("member request %d still running 5s after the caller went away", i)
		}
	}
}

// slowWriter is a client that takes its time over every write.
type slowWriter struct {
	http.ResponseWriter
	pause  time.Duration
	pauses int
}

func (w *slowWriter) Write(p []byte) (int, error) {
	if w.pauses > 0 {
		w.pauses--
		time.Sleep(w.pause)
	}
	return w.ResponseWriter.Write(p)
}

// TestTimeoutBoundsTheMemberNotTheClient: the frontend's timeout is how
// long a member may stay silent. A client slow enough that the whole
// exchange outlasts the timeout several times over still gets its answer;
// a member that never sends its headers is reported, after the timeout and
// not before, as not answering.
func TestTimeoutBoundsTheMemberNotTheClient(t *testing.T) {
	const timeout = 60 * time.Millisecond
	a, b := ascendingBody(30, 1, 2), ascendingBody(30, 2, 2)
	fe, _ := stubGate(t, []FrontendOption{WithTimeout(timeout)}, serveBody(a), serveBody(b))
	rec := httptest.NewRecorder()
	start := time.Now()
	fe.Handler().ServeHTTP(&slowWriter{ResponseWriter: rec, pause: timeout, pauses: 6}, httptest.NewRequest("GET", "/snapshot", nil))
	if took := time.Since(start); took < 5*timeout {
		t.Fatalf("the slow client was not slow (%v)", took)
	}
	if rec.Code != http.StatusOK || rec.Header().Get(PartialHeader) != "" || !bytes.Equal(rec.Body.Bytes(), ascendingBody(60, 1, 1)) {
		t.Fatalf("slow client: status %d, partial %q, body %.200s", rec.Code, rec.Header().Get(PartialHeader), rec.Body.Bytes())
	}

	mute := func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-time.After(10 * time.Second):
		}
	}
	fe, _ = stubGate(t, []FrontendOption{WithTimeout(timeout)}, serveBody(a), mute)
	rec = httptest.NewRecorder()
	start = time.Now()
	fe.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/snapshot", nil))
	if took := time.Since(start); took < timeout || took > 5*time.Second {
		t.Fatalf("mute member: answered after %v, timeout %v", took, timeout)
	}
	errs, _ := degraded(t, rec.Body.Bytes())
	if len(errs) != 1 || !strings.Contains(errs[0].Error, "did not answer within") {
		t.Fatalf("mute member: errors %+v", errs)
	}
}

// discard is a client that drops the response body.
type discard struct {
	header http.Header
	status int
	n      int
}

func (d *discard) Header() http.Header         { return d.header }
func (d *discard) WriteHeader(status int)      { d.status = status }
func (d *discard) Write(p []byte) (int, error) { d.n += len(p); return len(p), nil }

// TestSnapshotAllocationShape is the streaming merge's memory contract as
// a count: what the frontend allocates to answer a full /snapshot is a
// fixed overhead — the fan-out's requests and one element-sized buffer per
// member, ~26 KB here — that does not grow with the number of flows merged.
// (Buffering and decoding every member's body cost about five times the
// body: ~10 MB for the 4096-flow case below.) The stub members run in this
// process, so their serving a canned body is inside the count, which is why
// the budget is not tighter.
func TestSnapshotAllocationShape(t *testing.T) {
	const budget = 128 << 10
	for _, flows := range []int{64, 4096} {
		half := flows / 2
		a, b := ascendingBody(half, 1, 2), ascendingBody(half, 2, 2)
		fe, _ := stubGate(t, nil, serveBody(a), serveBody(b))
		h := fe.Handler()
		query := func() *discard {
			d := &discard{header: http.Header{}}
			h.ServeHTTP(d, httptest.NewRequest("GET", "/snapshot", nil))
			return d
		}
		if d := query(); d.n != len(ascendingBody(flows, 1, 1)) { // also warms the connections
			t.Fatalf("%d flows: merged body is %d bytes, want %d", flows, d.n, len(ascendingBody(flows, 1, 1)))
		}
		const runs = 4
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			query()
		}
		runtime.ReadMemStats(&after)
		per := (after.TotalAlloc - before.TotalAlloc) / runs
		t.Logf("%d flows, %d-byte body: %d bytes allocated per query", flows, len(a)+len(b), per)
		if per > budget {
			t.Errorf("%d flows (%d-byte body): %d bytes allocated per query, budget %d", flows, len(a)+len(b), per, budget)
		}
	}
}

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
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/collector"
	"repro/internal/core"
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

// stubFlows returns the first n flow keys whose home, in a fleet of the
// stub members stubGate names for a fleet of size, is member.
func stubFlows(size, member, n int) []uint64 {
	names := make([]string, size)
	for i := range names {
		names[i] = fmt.Sprintf("stub-%d", i)
	}
	p, err := NewPartitioner(names)
	if err != nil {
		panic(err)
	}
	var out []uint64
	for flow := uint64(1); len(out) < n; flow++ {
		if p.Home(core.FlowKey(flow)) == member {
			out = append(out, flow)
		}
	}
	return out
}

// flowQuery is the ?flow= query for flows, in order.
func flowQuery(flows ...uint64) string {
	q := ""
	for _, f := range flows {
		q += fmt.Sprintf("&flow=%d", f)
	}
	return "?" + q[1:]
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

// TestSnapshotExplicitOutOfStepAborts: on a ?flow= query each home
// member is asked for its own flows, in request order, and its answer is
// held to that list element by element: a member that answers another
// flow, or fewer or more flows than it was asked for, aborts the response.
func TestSnapshotExplicitOutOfStepAborts(t *testing.T) {
	a, b := stubFlows(2, 0, 2), stubFlows(2, 1, 1)[0]
	query := flowQuery(a[0], b, a[1])
	other := serveBody(cannedBody(cannedFlow(b, true, "one")))
	for name, home := range map[string][]byte{
		"different flow": cannedBody(cannedFlow(a[0], true, "zero"), cannedFlow(a[1]+1, false, "")),
		"shorter":        cannedBody(cannedFlow(a[0], true, "zero")),
		"longer":         cannedBody(cannedFlow(a[0], true, "zero"), cannedFlow(a[1], true, "zero"), cannedFlow(a[1], true, "zero")),
	} {
		t.Run(name, func(t *testing.T) {
			_, url := stubGate(t, nil, serveBody(home), other)
			if resp, body, err := fetchAll(url + "/snapshot" + query); err == nil {
				t.Fatalf("status %d, body read to a clean end; want a transport error\n%s", resp.StatusCode, body)
			}
		})
	}
	// Answering what it was asked, each member's elements land in request
	// order.
	_, url := stubGate(t, nil, serveBody(cannedBody(cannedFlow(a[0], true, "zero"), cannedFlow(a[1], false, ""))), other)
	want := cannedBody(cannedFlow(a[0], true, "zero"), cannedFlow(b, true, "one"), cannedFlow(a[1], false, ""))
	if _, body, err := fetchAll(url + "/snapshot" + query); err != nil || !bytes.Equal(body, want) {
		t.Fatalf("explicit merge: err %v\n got: %s\nwant: %s", err, body, want)
	}
}

// echoMember is a stub collector answering a ?flow= query with a tracked
// answer for each flow asked, in order, and counting the requests it gets
// and their queries.
type echoMember struct {
	name    string // the note on its answers
	mu      sync.Mutex
	queries []string
}

func (m *echoMember) serve(w http.ResponseWriter, r *http.Request) {
	m.mu.Lock()
	m.queries = append(m.queries, r.URL.RawQuery)
	m.mu.Unlock()
	flows, err := collector.ParseFlowFilter(r.URL.Query())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	answers := make([]collector.FlowAnswers, len(flows))
	for i, f := range flows {
		answers[i] = cannedFlow(uint64(f), true, m.name)
	}
	w.Write(cannedBody(answers...))
}

// dead is a stub member whose connection drops before it answers.
func dead(w http.ResponseWriter, r *http.Request) { panic(http.ErrAbortHandler) }

// TestSnapshotPointQueryAsksOnlyHomes: a ?flow= list spanning two of four
// members' flows, one flow repeated, reaches exactly those two members,
// once each, each asked for its own flows in request order with the
// repeat kept and the window bounds passed through; the answer lists every
// flow asked for, in request order. A dead member that is no flow's home
// costs the answer nothing; a dead home leaves its flows' answers out and
// is named, alone, in a partial answer.
func TestSnapshotPointQueryAsksOnlyHomes(t *testing.T) {
	one, three := stubFlows(4, 1, 2), stubFlows(4, 3, 1)[0]
	order := []uint64{one[0], three, one[1], one[0]}
	query := flowQuery(order...) + "&since=5&until=2026-10-17T00%3A00%3A00Z"
	members := make([]*echoMember, 4)
	handlers := make([]http.HandlerFunc, 4)
	for i := range members {
		members[i] = &echoMember{name: fmt.Sprint(i)}
		handlers[i] = members[i].serve
	}
	fe, url := stubGate(t, nil, handlers...)
	resp, body, err := fetchAll(url + "/snapshot" + query)
	if err != nil || resp.StatusCode != http.StatusOK || resp.Header.Get(PartialHeader) != "" {
		t.Fatalf("err %v, response %+v", err, resp)
	}
	answers := make([]collector.FlowAnswers, len(order))
	for i, f := range order {
		answers[i] = cannedFlow(f, true, fmt.Sprint(fe.CurrentFleetMap().FlowHome(core.FlowKey(f))))
	}
	if want := cannedBody(answers...); !bytes.Equal(body, want) {
		t.Fatalf("answer:\n got: %s\nwant: %s", body, want)
	}
	window := "&since=5&until=2026-10-17T00%3A00%3A00Z"
	wantQueries := [][]string{
		nil,
		{fmt.Sprintf("flow=%d&flow=%d&flow=%d", one[0], one[1], one[0]) + window},
		nil,
		{fmt.Sprintf("flow=%d", three) + window},
	}
	for i, m := range members {
		if !slices.Equal(m.queries, wantQueries[i]) {
			t.Errorf("member %d was asked %q, want %q", i, m.queries, wantQueries[i])
		}
	}

	// Member 2 dead, but home to none of the flows: the answer is
	// complete, byte for byte the healthy one.
	handlers[2] = dead
	_, url = stubGate(t, nil, handlers...)
	healthy := body
	resp, body, err = fetchAll(url + "/snapshot" + query)
	if err != nil || resp.StatusCode != http.StatusOK || resp.Header.Get(PartialHeader) != "" {
		t.Fatalf("dead non-home member: err %v, response %+v", err, resp)
	}
	if !bytes.Equal(body, healthy) {
		t.Fatalf("dead non-home member changed the answer:\n got: %s\nwant: %s", body, healthy)
	}

	// Member 1 dead, home to three of the four: they are left out, and
	// the answer names member 1 alone.
	handlers[1], handlers[2] = dead, members[2].serve
	fe, url = stubGate(t, nil, handlers...)
	resp, body, err = fetchAll(url + "/snapshot" + query)
	if err != nil || resp.StatusCode != http.StatusOK || resp.Header.Get(PartialHeader) != "1" {
		t.Fatalf("dead home: err %v, response %+v", err, resp)
	}
	errs, reencoded := degraded(t, body)
	if len(errs) != 1 || errs[0].Node != fe.CurrentFleetMap().Members[1].Query {
		t.Fatalf("dead home: errors %+v, want member 1 alone", errs)
	}
	if !bytes.Equal(body, reencoded) {
		t.Fatalf("dead home: partial answer is not WriteJSON of its own structure:\n got: %s\nwant: %s", body, reencoded)
	}
	var doc struct {
		Flows []collector.FlowAnswers `json:"flows"`
	}
	json.Unmarshal(body, &doc)
	if len(doc.Flows) != 1 || doc.Flows[0].Flow != three {
		t.Fatalf("dead home: flows %+v, want flow %d's answer alone", doc.Flows, three)
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
// ([] for a full query, null for an explicit one). An explicit query asks
// only its flows' homes, so only a failed home is named.
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
	// Flows homed on stub members 0 and 2 of three, and on member 1 of two.
	at0, at2, at1 := stubFlows(3, 0, 1)[0], stubFlows(3, 2, 1)[0], stubFlows(2, 1, 1)[0]
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
		{"all down, explicit", flowQuery(at2, at0), []http.HandlerFunc{stale, refuse, notJSON}, "2", []string{"epoch 99", "bad snapshot body"}, `"flows": null`},
		{"explicit survivor", flowQuery(at1, stubFlows(2, 0, 1)[0]), []http.HandlerFunc{refuse, serveBody(cannedBody(cannedFlow(at1, true, "m")))}, "1", []string{"status 500"}, `"flows": [` + "\n"},
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
// fixed overhead — the fan-out's requests, and per member a stream whose
// buffer comes from a pool, ~20 KB here (~26 KB while a json.Decoder read
// each member) — that does not grow with the number of flows merged.
// (Buffering and decoding every member's body cost about five times the
// body: ~10 MB for the 4096-flow case below.) The stub members run in this
// process, so their serving a canned body is inside the count, and under
// -race, whose runtime empties pools at random, the count reads up to
// ~27 KB: hence the margin.
func TestSnapshotAllocationShape(t *testing.T) {
	const budget = 32 << 10
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

// TestWarmMergeAllocsFlatInElements: a warm merge allocates nothing per
// element. Splicing two members' bodies — a full query's k-way merge, and
// an explicit query's splice in request order — costs the same number of
// heap objects at 64 flows as at 4,096: the streams and the writer. The
// streams read into buffers handed to them, as a warm gate's come from the
// pool (which the race runtime empties at random, so it stays out of the
// count).
func TestWarmMergeAllocsFlatInElements(t *testing.T) {
	var allocs [2][2]float64
	for size, flows := range []int{64, 4096} {
		a, b := ascendingBody(flows/2, 1, 2), ascendingBody(flows/2, 2, 2)
		asked := make([]core.FlowKey, flows)
		homes := make([]int, flows)
		for i := range asked {
			asked[i], homes[i] = core.FlowKey(i+1), i%2
		}
		w := &discard{header: http.Header{}}
		bufs := [][]byte{make([]byte, 0, minRead), make([]byte, 0, minRead)}
		for kind := range allocs[size] {
			merge := func() {
				streams := []*flowStream{
					{body: io.NopCloser(bytes.NewReader(a)), pooled: &bufs[0], buf: bufs[0]},
					{body: io.NopCloser(bytes.NewReader(b)), pooled: &bufs[1], buf: bufs[1]},
				}
				for _, s := range streams {
					if err := s.next(); err != nil {
						t.Fatal(err)
					}
				}
				sw := collector.NewSnapshotWriter(w, nil)
				var err error
				if kind == 0 {
					err = spliceByKey(sw, streams)
				} else {
					err = spliceByHome(sw, asked, homes, streams)
				}
				if err != nil || sw.Close() != nil {
					t.Fatalf("%d flows: %v", flows, err)
				}
				for _, s := range streams {
					s.body.Close()
				}
			}
			w.n = 0
			merge()
			if want := len(ascendingBody(flows, 1, 1)); w.n != want {
				t.Fatalf("%d flows: merged body is %d bytes, want %d", flows, w.n, want)
			}
			allocs[size][kind] = testing.AllocsPerRun(20, merge)
		}
	}
	t.Logf("heap objects per merge of 64 and 4,096 flows: by key %v and %v, by home %v and %v",
		allocs[0][0], allocs[1][0], allocs[0][1], allocs[1][1])
	for kind, name := range []string{"by key", "by home"} {
		if allocs[0][kind] != allocs[1][kind] {
			t.Errorf("merge %s: %v objects over 64 flows, %v over 4,096", name, allocs[0][kind], allocs[1][kind])
		}
	}
}

// TestPointQueryCostFlatInFleetSize: a ?flow= query asks only the flow's
// home member, so what the gate allocates to answer it does not grow with
// the fleet: ~15 KB here at 2 members and at 4, where asking every member
// cost 28.6 KB and 50.0 KB.
func TestPointQueryCostFlatInFleetSize(t *testing.T) {
	if testing.Short() {
		t.Skip("measures allocation over many requests")
	}
	var per [2]uint64
	for i, size := range []int{2, 4} {
		handlers := make([]http.HandlerFunc, size)
		for m := range handlers {
			handlers[m] = (&echoMember{name: "m"}).serve
		}
		fe, _ := stubGate(t, nil, handlers...)
		h := fe.Handler()
		path := fmt.Sprintf("/snapshot?flow=%d", stubFlows(size, size-1, 1)[0])
		query := func() *discard {
			d := &discard{header: http.Header{}}
			h.ServeHTTP(d, httptest.NewRequest("GET", path, nil))
			return d
		}
		for range 5 {
			if d := query(); d.n == 0 || d.header.Get(PartialHeader) != "" {
				t.Fatalf("%d members: %d-byte answer, partial %q", size, d.n, d.header.Get(PartialHeader))
			}
		}
		const runs = 100
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			query()
		}
		runtime.ReadMemStats(&after)
		per[i] = (after.TotalAlloc - before.TotalAlloc) / runs
		t.Logf("%d members: %d bytes allocated per point query", size, per[i])
	}
	if per[1] > per[0]+2<<10 {
		t.Errorf("a point query costs %d bytes with 2 members, %d with 4: it grows with the fleet", per[0], per[1])
	}
}

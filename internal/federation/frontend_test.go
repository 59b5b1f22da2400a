package federation

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/collector"
	"repro/internal/core"
	"repro/internal/pipeline"
)

// get runs one request through the frontend handler.
func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec
}

// envelope renders answers exactly the way a single daemon's /snapshot
// does — the byte-identity reference.
func envelope(t *testing.T, answers []collector.FlowAnswers) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	collector.WriteJSON(rec, map[string]any{"flows": answers})
	return rec.Body.Bytes()
}

// inProcessAnswers replays the deployment into one in-process sink and
// answers the listed flows (nil: all, sorted) — the single-collector
// reference for any flow filter.
func inProcessAnswers(t *testing.T, tb *collector.Testbench, shards, nExporters, flowsPer, pktsPer int,
	flows []core.FlowKey) []collector.FlowAnswers {
	t.Helper()
	sink, err := pipeline.NewSink(tb.Engine, pipeline.Config{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	var pkts []core.PacketDigest
	vals := make([]core.HopValues, pktsPer)
	for e := 0; e < nExporters; e++ {
		for f := 0; f < flowsPer; f++ {
			pkts = tb.FlowBatch(uint64(e)+1, f, pktsPer, pkts, vals)
			sink.Ingest(pkts)
		}
	}
	sink.Barrier()
	merged, err := sink.Snapshot().Merged()
	if err != nil {
		t.Fatal(err)
	}
	if flows == nil {
		flows = merged.Flows()
	}
	return collector.Answers(merged, tb.Queries(), flows)
}

// TestFrontendSnapshotByteIdentical is the tentpole contract at the HTTP
// level: the frontend's merged /snapshot body — full and flow-filtered —
// is byte-identical to what a single collector serving the whole
// deployment would emit.
func TestFrontendSnapshotByteIdentical(t *testing.T) {
	const (
		nExporters = 2
		flowsPer   = 3
		pktsPer    = 150
		shards     = 2
	)
	fleet, tb := streamFleet(t, 23, 3, shards, nExporters, flowsPer, pktsPer)
	fe, err := NewFrontend(WithFleetMap(fleet.CurrentMap()))
	if err != nil {
		t.Fatal(err)
	}
	h := fe.Handler()

	rec := get(t, h, "/snapshot")
	if rec.Code != http.StatusOK {
		t.Fatalf("snapshot status %d: %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get(PartialHeader) != "" {
		t.Fatalf("healthy fleet answered with %s=%s", PartialHeader, rec.Header().Get(PartialHeader))
	}
	want := envelope(t, inProcessAnswers(t, tb, shards, nExporters, flowsPer, pktsPer, nil))
	if !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("merged snapshot body diverges from single-collector body:\ngate: %.400s\nwant: %.400s",
			rec.Body.Bytes(), want)
	}

	// Flow-filtered: one tracked flow (whichever member owns it) plus one
	// unknown flow, in request order.
	tracked := tb.FlowKeyFor(1, 0)
	unknown := core.FlowKey(0xDEAD)
	path := fmt.Sprintf("/snapshot?flow=%d&flow=%d", uint64(tracked), uint64(unknown))
	rec = get(t, h, path)
	if rec.Code != http.StatusOK {
		t.Fatalf("filtered snapshot status %d: %s", rec.Code, rec.Body.String())
	}
	want = envelope(t, inProcessAnswers(t, tb, shards, nExporters, flowsPer, pktsPer,
		[]core.FlowKey{tracked, unknown}))
	if !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("filtered snapshot body diverges:\ngate: %.400s\nwant: %.400s", rec.Body.Bytes(), want)
	}

	// A malformed filter is the client's fault: the gate parses it as a
	// member does and answers a member's 400, byte for byte — exactly what
	// a single collector would do — rather than faking a fleet outage.
	rec = get(t, h, "/snapshot?flow=banana")
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad filter: status %d, want 400 (%s)", rec.Code, rec.Body.String())
	}
	if rec.Header().Get(PartialHeader) != "" {
		t.Fatalf("client error misreported as a degraded fleet: %s", rec.Body.String())
	}
	if member := memberBody400(t, fleet, "/snapshot?flow=banana"); rec.Body.String() != member {
		t.Fatalf("gate's 400 body %q, a member's %q", rec.Body.String(), member)
	}
}

// memberBody400 GETs path from the fleet's first member, which must
// refuse it with 400, and returns the refusal's body.
func memberBody400(t *testing.T, fleet *Fleet, path string) string {
	t.Helper()
	resp, body, err := fetchAll(fleet.HTTPURLs()[0] + path)
	if err != nil || resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("member GET %s: err %v, response %+v", path, err, resp)
	}
	return string(body)
}

// TestFrontendFlowFilterIsDecimal: the gate parses ?flow= itself, with
// the members' own parser, before it routes each flow to its home. A key
// with a hex, octal or binary prefix, an underscore or a sign is refused
// with a member's 400, byte for byte and without asking any member — not
// a degraded fleet, and never some other flow's answer — while a leading
// zero is still the decimal key, tracked or not.
func TestFrontendFlowFilterIsDecimal(t *testing.T) {
	const (
		nExporters = 2
		flowsPer   = 2
		pktsPer    = 100
		shards     = 1
	)
	fleet, tb := streamFleet(t, 29, 2, shards, nExporters, flowsPer, pktsPer)
	fe, err := NewFrontend(WithFleetMap(fleet.CurrentMap()))
	if err != nil {
		t.Fatal(err)
	}
	h := fe.Handler()
	tracked := tb.FlowKeyFor(2, 1)
	want := string(envelope(t, inProcessAnswers(t, tb, shards, nExporters, flowsPer, pktsPer, []core.FlowKey{tracked})))
	untracked := string(envelope(t, inProcessAnswers(t, tb, shards, nExporters, flowsPer, pktsPer, []core.FlowKey{10})))
	for _, tc := range []struct {
		raw    string
		status int
		body   string
	}{
		{fmt.Sprint(uint64(tracked)), http.StatusOK, want},
		{"0" + fmt.Sprint(uint64(tracked)), http.StatusOK, want},
		{"010", http.StatusOK, untracked},
		{"0x10", http.StatusBadRequest, "bad flow"},
		{"0o12", http.StatusBadRequest, "bad flow"},
		{"0b1010", http.StatusBadRequest, "bad flow"},
		{"1_0", http.StatusBadRequest, "bad flow"},
		{"+10", http.StatusBadRequest, "bad flow"},
	} {
		rec := get(t, h, "/snapshot?flow="+url.QueryEscape(tc.raw))
		if rec.Code != tc.status {
			t.Errorf("?flow=%s: status %d, want %d (%s)", tc.raw, rec.Code, tc.status, rec.Body.String())
			continue
		}
		if p := rec.Header().Get(PartialHeader); p != "" {
			t.Errorf("?flow=%s: answered as a degraded fleet (%s=%s): %s", tc.raw, PartialHeader, p, rec.Body.String())
		}
		if tc.status == http.StatusOK && rec.Body.String() != tc.body {
			t.Errorf("?flow=%s: body\n%s\nwant\n%s", tc.raw, rec.Body.String(), tc.body)
		}
		if tc.status != http.StatusOK && !strings.Contains(rec.Body.String(), tc.body) {
			t.Errorf("?flow=%s: refusal lost the member's message: %s", tc.raw, rec.Body.String())
		}
		if path := "/snapshot?flow=" + url.QueryEscape(tc.raw); tc.status != http.StatusOK && rec.Body.String() != memberBody400(t, fleet, path) {
			t.Errorf("?flow=%s: the gate's refusal %q is not a member's", tc.raw, rec.Body.String())
		}
	}
}

// TestFrontendPartialResult is the degradation contract at fleets {2, 4}
// × sink shards {1, 4}: a healthy fleet's /snapshot is byte-identical to
// one collector's and its /stats accounts for every packet; killing one
// member then yields a partial /snapshot naming the dead node while the
// survivors' flows still merge, and /healthz flips to not-ok naming it.
func TestFrontendPartialResult(t *testing.T) {
	const (
		nExporters = 2
		flowsPer   = 4
		pktsPer    = 100
		dead       = 1
	)
	for _, fleetN := range []int{2, 4} {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("fleet=%d/shards=%d", fleetN, shards), func(t *testing.T) {
				fleet, tb := streamFleet(t, 31, fleetN, shards, nExporters, flowsPer, pktsPer)
				fe, err := NewFrontend(WithFleetMap(fleet.CurrentMap()))
				if err != nil {
					t.Fatal(err)
				}
				h := fe.Handler()
				testFrontendHealthy(t, h, tb, shards, nExporters, flowsPer, pktsPer)
				testFrontendPartial(t, h, fleet, deploymentFlows(tb, nExporters, flowsPer), dead)
			})
		}
	}
}

// testFrontendHealthy requires the gate of a healthy fleet to answer
// /snapshot byte for byte like one collector that ingested the whole
// deployment, unmarked, and its /stats total to count every packet.
func testFrontendHealthy(t *testing.T, h http.Handler, tb *collector.Testbench, shards, nExporters, flowsPer, pktsPer int) {
	t.Helper()
	rec := get(t, h, "/snapshot")
	if rec.Code != http.StatusOK || rec.Header().Get(PartialHeader) != "" {
		t.Fatalf("healthy snapshot: status %d, %s=%q", rec.Code, PartialHeader, rec.Header().Get(PartialHeader))
	}
	if want := envelope(t, inProcessAnswers(t, tb, shards, nExporters, flowsPer, pktsPer, nil)); !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("merged snapshot body diverges from single-collector body:\ngate: %.400s\nwant: %.400s", rec.Body.Bytes(), want)
	}
	var stats struct {
		Total struct {
			Server collector.Stats `json:"server"`
		} `json:"total"`
	}
	if err := json.Unmarshal(get(t, h, "/stats").Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if want := uint64(nExporters * flowsPer * pktsPer); stats.Total.Server.Packets != want {
		t.Fatalf("gate total %d packets, want %d", stats.Total.Server.Packets, want)
	}
}

// testFrontendPartial stops member dead and requires the gate to answer
// partial, name the dead node, and merge exactly the flows of all that
// homed elsewhere.
func testFrontendPartial(t *testing.T, h http.Handler, fleet *Fleet, all []core.FlowKey, dead int) {
	t.Helper()
	deadURL := fleet.HTTPURLs()[dead]
	if err := fleet.StopMember(context.Background(), dead); err != nil {
		t.Fatal(err)
	}

	rec := get(t, h, "/snapshot")
	if rec.Code != http.StatusOK {
		t.Fatalf("partial snapshot status %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get(PartialHeader); got != "1" {
		t.Fatalf("%s = %q, want 1", PartialHeader, got)
	}
	var partial struct {
		Errors []NodeError             `json:"errors"`
		Flows  []collector.FlowAnswers `json:"flows"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &partial); err != nil {
		t.Fatal(err)
	}
	if len(partial.Errors) != 1 || partial.Errors[0].Node != deadURL || partial.Errors[0].Error == "" {
		t.Fatalf("error list does not name the dead node: %+v", partial.Errors)
	}

	// The surviving members' flows all merge: exactly the flows whose
	// home is not the dead member, in sorted order.
	var want []uint64
	for _, flow := range all {
		if fleet.CurrentMap().FlowHome(flow) != dead {
			want = append(want, uint64(flow))
		}
	}
	slices.Sort(want)
	var got []uint64
	for _, fa := range partial.Flows {
		got = append(got, fa.Flow)
	}
	if len(want) == 0 || !slices.Equal(got, want) {
		t.Fatalf("survivor merge has flows %v, want %v", got, want)
	}

	// Health names the dead node and flips the fleet verdict.
	rec = get(t, h, "/healthz")
	body := rec.Body.String()
	if !strings.Contains(body, `"ok": false`) || !strings.Contains(body, deadURL) {
		t.Fatalf("healthz does not surface the dead node:\n%s", body)
	}

	// Stats still sum the survivors and carry the per-node error.
	rec = get(t, h, "/stats")
	if rec.Header().Get(PartialHeader) != "1" {
		t.Fatalf("stats not marked partial")
	}
	var stats struct {
		Nodes []nodeStats `json:"nodes"`
		Total struct {
			Server collector.Stats `json:"server"`
		} `json:"total"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Total.Server.Packets == 0 {
		t.Fatal("survivor stats sum to zero packets")
	}
	if stats.Nodes[dead].Error == "" {
		t.Fatalf("dead node's stats entry carries no error: %+v", stats.Nodes[dead])
	}
}

// TestFrontendFleetWideDrainPropagates503 pins the unanimous-status
// rule: when every member is draining (each answering 503), the gate
// answers the members' 503 with the single collector's Retry-After hint
// — a fleet-wide drain is not a degraded merge.
func TestFrontendFleetWideDrainPropagates503(t *testing.T) {
	fleet, _ := streamFleet(t, 51, 2, 1, 1, 2, 50)
	for _, m := range fleet.Members {
		if err := m.Srv.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	fe, err := NewFrontend(WithFleetMap(fleet.CurrentMap()))
	if err != nil {
		t.Fatal(err)
	}
	rec := get(t, fe.Handler(), "/snapshot")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("fleet-wide drain: status %d, want 503 (%s)", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("propagated 503 lost the Retry-After hint")
	}
	if rec.Header().Get(PartialHeader) != "" {
		t.Fatal("fleet-wide drain misreported as a degraded merge")
	}
}

// TestFrontendStatsAggregation pins the fleet totals: the frontend's
// /stats total equals the sum of what each member reports.
func TestFrontendStatsAggregation(t *testing.T) {
	const (
		nExporters = 2
		flowsPer   = 2
		pktsPer    = 80
	)
	fleet, _ := streamFleet(t, 41, 2, 1, nExporters, flowsPer, pktsPer)
	fe, err := NewFrontend(WithFleetMap(fleet.CurrentMap()))
	if err != nil {
		t.Fatal(err)
	}
	// WaitIngested counts dispatched packets, and a worker may still hold a
	// batch in its queue: Queued is a live channel length, so both reads
	// below must come after every member's queue has drained.
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		queued := 0
		for _, m := range fleet.Members {
			total, _ := m.Sink.Stats()
			queued += total.Queued
		}
		if queued == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d batches still queued after 30 s", queued)
		}
	}
	rec := get(t, fe.Handler(), "/stats")
	if rec.Code != http.StatusOK {
		t.Fatalf("stats status %d", rec.Code)
	}
	var stats struct {
		Total struct {
			Server collector.Stats     `json:"server"`
			Sink   pipeline.ShardStats `json:"sink"`
		} `json:"total"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	var wantServer collector.Stats
	var wantSink pipeline.ShardStats
	for _, m := range fleet.Members {
		wantServer.Accumulate(m.Srv.Stats())
		total, _ := m.Sink.Stats()
		wantSink.Accumulate(total)
	}
	if stats.Total.Server != wantServer {
		t.Fatalf("server totals %+v, want %+v", stats.Total.Server, wantServer)
	}
	if stats.Total.Sink != wantSink {
		t.Fatalf("sink totals %+v, want %+v", stats.Total.Sink, wantSink)
	}

	rec = get(t, fe.Handler(), "/healthz")
	if !strings.Contains(rec.Body.String(), `"ok": true`) {
		t.Fatalf("healthy fleet reports unhealthy:\n%s", rec.Body.String())
	}
}

package federation

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/collector"
)

// TestFrontendFleetMapEndpoints: a map-built frontend serves its map on
// GET /fleetmap, accepts a newer one on POST, and refuses regressions.
func TestFrontendFleetMapEndpoints(t *testing.T) {
	fleet, _ := streamFleet(t, 31, 2, 1, 1, 2, 40)
	fm := fleet.CurrentMap()
	fe, err := NewFrontend(WithFleetMap(fm))
	if err != nil {
		t.Fatal(err)
	}
	h := fe.Handler()

	rec := get(t, h, "/fleetmap")
	if rec.Code != 200 {
		t.Fatalf("GET /fleetmap: %d %s", rec.Code, rec.Body)
	}
	served, err := ParseFleetMap(rec.Body.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if served.Epoch != fm.Epoch || len(served.Members) != len(fm.Members) {
		t.Fatalf("served map %+v, want %+v", served, fm)
	}

	// POST a newer map: it replaces the roster.
	next := mapForNames(t, fm.Epoch+1, "other-0", "other-1", "other-2")
	body, _ := json.Marshal(next)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/fleetmap", strings.NewReader(string(body))))
	if rec.Code != 200 {
		t.Fatalf("POST /fleetmap: %d %s", rec.Code, rec.Body)
	}
	if got := fe.CurrentFleetMap().Epoch; got != fm.Epoch+1 {
		t.Fatalf("frontend map epoch %d after POST, want %d", got, fm.Epoch+1)
	}

	// An epoch regression is refused with 409 and leaves the map alone.
	stale, _ := json.Marshal(fm)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/fleetmap", strings.NewReader(string(stale))))
	if rec.Code != 409 {
		t.Fatalf("stale POST /fleetmap: %d, want 409", rec.Code)
	}
	if got := fe.CurrentFleetMap().Epoch; got != fm.Epoch+1 {
		t.Fatalf("stale POST moved the map to epoch %d", got)
	}

	// Garbage is a 400-family error, not a replacement.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/fleetmap", strings.NewReader("{")))
	if rec.Code < 400 || rec.Code >= 500 {
		t.Fatalf("garbage POST /fleetmap: %d", rec.Code)
	}
}

// TestFrontendRequiresFleetMap: the map is the frontend's only
// description of the fleet, so there is no frontend without one.
func TestFrontendRequiresFleetMap(t *testing.T) {
	if _, err := NewFrontend(); err == nil {
		t.Fatal("NewFrontend accepted no fleet map")
	}
}

// TestFrontendEpochStaleExcluded: a member whose epoch moved past the
// frontend's map answers with a different X-Pint-Epoch; the frontend
// must exclude its body from the merge and name it in the errors list
// with the epoch_stale kind instead of silently merging mixed epochs.
func TestFrontendEpochStaleExcluded(t *testing.T) {
	const (
		nExporters = 2
		flowsPer   = 3
		pktsPer    = 60
		shards     = 2
	)
	fleet, _ := streamFleet(t, 37, 2, shards, nExporters, flowsPer, pktsPer)
	fe, err := NewFrontend(WithFleetMap(fleet.CurrentMap()))
	if err != nil {
		t.Fatal(err)
	}
	h := fe.Handler()

	// Healthy fleet first: no errors, not partial.
	rec := get(t, h, "/snapshot")
	if rec.Code != 200 || rec.Header().Get(PartialHeader) != "" {
		t.Fatalf("healthy /snapshot: code %d, partial %q", rec.Code, rec.Header().Get(PartialHeader))
	}

	// Advance one member's epoch past the frontend's map.
	fleet.Members[0].Srv.SetEpoch(fleet.CurrentMap().Epoch + 1)
	rec = get(t, h, "/snapshot")
	if rec.Code != 200 {
		t.Fatalf("degraded /snapshot: %d %s", rec.Code, rec.Body)
	}
	if rec.Header().Get(PartialHeader) == "" {
		t.Fatal("stale member did not mark the response partial")
	}
	var resp struct {
		Errors []NodeError `json:"errors"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Errors) != 1 {
		t.Fatalf("errors = %+v, want exactly the stale member", resp.Errors)
	}
	if resp.Errors[0].Kind != NodeErrorEpochStale {
		t.Fatalf("error kind %q, want %q", resp.Errors[0].Kind, NodeErrorEpochStale)
	}

	// The surviving member's flows still answer: the body is the healthy
	// member's merge, not empty.
	var snap struct {
		Flows []collector.FlowAnswers `json:"flows"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Flows) == 0 {
		t.Fatal("degraded snapshot lost the healthy member's flows")
	}
	if len(snap.Flows) >= nExporters*flowsPer {
		t.Fatalf("degraded snapshot has all %d flows — stale member was merged anyway", len(snap.Flows))
	}
}

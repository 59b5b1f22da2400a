package collector

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/admit"
	"repro/internal/pipeline"
)

// TestTenantOverloadLoopback is the end-to-end QoS contract over real
// TCP sessions: a hog tenant far over its quota is shed (visibly, in
// both the server counters and its /stats tenant entry) while a victim
// session on the roomy default tenant — its Hello names no tenant, so
// also proving a tenant-less session lands in the default tenant — loses
// nothing and answers byte-identically to the same stream against a
// collector with no quota policy at all.
func TestTenantOverloadLoopback(t *testing.T) {
	tb := mustTestbench(t, 23)
	policy, err := admit.ParsePolicy("hog=100/100,*=1e9")
	if err != nil {
		t.Fatal(err)
	}
	policy.Seed = tb.Seed
	// AIMD headroom far above the offered load: the controller runs (so
	// /stats grows a capacity section) without granting < 1.
	policy.Capacity.Initial = 1e8
	sink, srv := newServedSink(t, tb, 2, WithTenantPolicy(policy))
	refSink, ref := newServedSink(t, tb, 2)

	const (
		hogFlows = 4
		hogPkts  = 2000
		vicFlows = 3
		vicPkts  = 400
	)
	hogHello := HelloFor(tb.Engine, 1, "hog-1")
	hogHello.Tenant = "hog"
	exH, err := dial(srv.Addr().String(), hogHello)
	if err != nil {
		t.Fatal(err)
	}
	for f := 0; f < hogFlows; f++ {
		if err := exH.Send(tb.FlowBatch(1, f, hogPkts, nil, nil)); err != nil {
			t.Fatal(err)
		}
	}
	if err := exH.Close(); err != nil {
		t.Fatal(err)
	}
	// The victim's Hello carries an empty tenant, to both the quota'd
	// server and the policy-free reference.
	for _, s := range []*Server{srv, ref} {
		exV, err := dial(s.Addr().String(), HelloFor(tb.Engine, 2, "victim"))
		if err != nil {
			t.Fatal(err)
		}
		for f := 0; f < vicFlows; f++ {
			if err := exV.Send(tb.FlowBatch(2, f, vicPkts, nil, nil)); err != nil {
				t.Fatal(err)
			}
		}
		if err := exV.Close(); err != nil {
			t.Fatal(err)
		}
	}
	waitForPackets(t, srv, hogFlows*hogPkts+vicFlows*vicPkts)
	waitForPackets(t, ref, vicFlows*vicPkts)
	for _, p := range []struct {
		srv  *Server
		sink *pipeline.Sink
	}{{srv, sink}, {ref, refSink}} {
		p.srv.ingestGate.Lock()
		p.sink.Barrier()
		p.srv.ingestGate.Unlock()
	}

	// The hog was shed hard: its quota admits ~100 burst + 100/s, and it
	// offered 8000 packets in a few seconds at most.
	stats := srv.StatsV1()
	if stats.Schema != StatsSchemaV1 {
		t.Fatalf("stats schema = %q, want %q", stats.Schema, StatsSchemaV1)
	}
	byName := map[string]admit.TenantStats{}
	for _, ts := range stats.Tenants {
		byName[ts.Tenant] = ts
	}
	hog, ok := byName["hog"]
	if !ok {
		t.Fatalf("no hog tenant in stats: %+v", stats.Tenants)
	}
	if hog.Offered != hogFlows*hogPkts {
		t.Fatalf("hog offered = %d, want %d", hog.Offered, hogFlows*hogPkts)
	}
	if hog.Shed == 0 || hog.Admitted+hog.Shed != hog.Offered {
		t.Fatalf("hog shed %d of %d (admitted %d): want shed > 0 and shed+admitted == offered",
			hog.Shed, hog.Offered, hog.Admitted)
	}
	if hog.CountScale <= 1 {
		t.Fatalf("hog count scale = %v, want > 1", hog.CountScale)
	}
	if got := srv.Stats().Shed; got != hog.Shed {
		t.Fatalf("server shed = %d, tenant shed = %d", got, hog.Shed)
	}
	// The tenant-less victim session landed in the default tenant and
	// lost nothing.
	vic, ok := byName[admit.DefaultTenant]
	if !ok {
		t.Fatalf("no %q tenant in stats: %+v", admit.DefaultTenant, stats.Tenants)
	}
	if vic.Offered != vicFlows*vicPkts || vic.Shed != 0 {
		t.Fatalf("victim offered %d shed %d, want %d shed 0", vic.Offered, vic.Shed, vicFlows*vicPkts)
	}

	// The raw /stats JSON is the versioned shape with a tenants section.
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/stats", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /stats: %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{`"schema": "pint.stats.v1"`, `"tenants"`, `"tenant": "hog"`, `"capacity"`} {
		if !strings.Contains(body, want) {
			t.Fatalf("/stats lacks %s: %s", want, body)
		}
	}

	// Victim conservation, end to end: every victim flow answers
	// byte-identically on the quota'd server and the policy-free one.
	for f := 0; f < vicFlows; f++ {
		flow := uint64(tb.FlowKeyFor(2, f))
		var got [2][]byte
		for i, s := range []*Server{srv, ref} {
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/snapshot?flow="+jsonNumber(flow), nil))
			if rec.Code != 200 {
				t.Fatalf("GET /snapshot flow %d: %d", flow, rec.Code)
			}
			got[i] = rec.Body.Bytes()
		}
		if !bytes.Equal(got[0], got[1]) {
			t.Fatalf("victim flow %d answers differ under quota policy:\nquota: %s\nref:   %s",
				flow, got[0], got[1])
		}
	}

	// The JSON wire form of the tenant entries round-trips through the
	// accumulator the federation frontend uses.
	var reparsed StatsV1
	if err := json.Unmarshal([]byte(body), &reparsed); err != nil {
		t.Fatal(err)
	}
	total := StatsV1{Schema: StatsSchemaV1}
	total.Accumulate(reparsed)
	total.Accumulate(reparsed)
	for _, ts := range total.Tenants {
		if ts.Tenant == "hog" && ts.Offered != 2*hog.Offered {
			t.Fatalf("accumulated hog offered = %d, want %d", ts.Offered, 2*hog.Offered)
		}
	}

	shutdownServer(t, srv)
	shutdownServer(t, ref)
}

package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"repro/internal/collector"
	"repro/internal/federation"
	"repro/internal/hash"
)

func init() {
	Register(federatedScaleScenario())
}

// federatedScaleOut is one trial's conformance record: the federated
// deployment (fleet of N daemons behind the partitioner and the pintgate
// frontend) against the single in-process sink, plus the degraded-mode
// probe. Every comparison field is a pure function of the testbench
// shape, so the scenario's output is golden-stable at any parallelism.
type federatedScaleOut struct {
	fleet        int
	shards       int
	packets      uint64
	bytesPerPkt  float64
	mergeIdent   bool // Recording.Merge fold == in-process answers
	gateIdent    bool // frontend /snapshot body == single-collector body
	statsOK      bool // frontend totals account for every packet
	partialOK    bool // dead member: partial header + named node + survivors merged
	survivorFlow int  // flows still answered with one member down
}

var (
	federatedFleetAxis = []int{1, 2, 4}
	federatedShardAxis = []int{1, 4}
)

func federatedScaleScenario() Scenario {
	const (
		nExporters = 3
		flowsPer   = 4
		frameBatch = 64
	)
	return define(Scenario{
		Name:     "federated-scale",
		Figure:   "new",
		Desc:     "hash-partitioned collector fleet + merging frontend answers bit-identically to one in-process sink, and degrades explicitly when a member dies",
		Topology: "fat tree (K=8) switch universe, loopback TCP fleet + HTTP gate",
		Workload: "3 exporters x 4 flows routed to consistent-hash homes across fleets {1,2,4}",
		Queries:  "path 2×(b=4) + latency 8b in 16 bits",
		Stack:    "engine→wire frames→TCP→collector fleet→sharded sinks→Recording.Merge / pintgate merge",
	}, func(s Scale) ([]trial[federatedScaleOut], error) {
		pktsPer := 50 * s.Trials
		if pktsPer > 500 {
			pktsPer = 500
		}
		seed := uint64(hash.Seed(s.Seed).Derive(0xFEDE7A))
		var trials []trial[federatedScaleOut]
		for _, fleetN := range federatedFleetAxis {
			for _, shards := range federatedShardAxis {
				trials = append(trials, trial[federatedScaleOut]{
					Name: fmt.Sprintf("fleet-%d-shards-%d", fleetN, shards),
					Run: func() (federatedScaleOut, error) {
						return runFederatedScaleTrial(seed, fleetN, shards, nExporters, flowsPer, pktsPer, frameBatch)
					},
				})
			}
		}
		return trials, nil
	}, func(s Scale, outs []federatedScaleOut) ([]Table, error) {
		t := Table{
			Title: fmt.Sprintf(
				"Federated conformance: fleet TCP+gate vs in-process, %d exporters x %d flows",
				nExporters, flowsPer),
			Columns: []string{"fleet", "sink shards", "packets", "bytes/pkt",
				"merge identical", "gate identical", "stats exact", "partial on death", "survivor flows"},
		}
		for _, o := range outs {
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", o.fleet),
				fmt.Sprintf("%d", o.shards),
				fmt.Sprintf("%d", o.packets),
				F(o.bytesPerPkt),
				yesNo(o.mergeIdent),
				yesNo(o.gateIdent),
				yesNo(o.statsOK),
				yesNo(o.partialOK),
				fmt.Sprintf("%d/%d", o.survivorFlow, nExporters*flowsPer),
			})
		}
		return []Table{t}, nil
	})
}

// singleCollectorBody renders answers exactly as one daemon's /snapshot
// endpoint would (collector.WriteJSON's encoder shape) — the reference
// the frontend's merged body must match byte for byte.
func singleCollectorBody(answers []collector.FlowAnswers) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(map[string]any{"flows": answers}); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// runFederatedScaleTrial runs one (fleet size, shard count) cell: the
// identical deployment through a loopback-TCP collector fleet (flows
// routed to consistent-hash homes, epoch-fenced sessions, queried through
// a real pintgate frontend on its own socket) and through the in-process
// sink, demanding byte-identical answers on both federated query paths —
// then kills one member and demands an explicit partial result. Any
// mismatch is a trial error: the registry fails loudly rather than
// tabulating a broken fleet.
func runFederatedScaleTrial(seed uint64, fleetN, shards, nExporters, flowsPer, pktsPer, frameBatch int) (federatedScaleOut, error) {
	out := federatedScaleOut{fleet: fleetN, shards: shards}
	tb, err := collector.NewTestbench(seed, 5)
	if err != nil {
		return out, err
	}
	epoch := seed ^ uint64(fleetN)<<8 ^ uint64(shards)
	fleet, err := federation.NewFleet(tb,
		federation.WithSize(fleetN), federation.WithShards(shards), federation.WithFleetEpoch(epoch))
	if err != nil {
		return out, err
	}
	defer fleet.Shutdown(context.Background())

	sent, wireBytes, err := fleet.Stream(nExporters, flowsPer, pktsPer, frameBatch)
	if err != nil {
		return out, err
	}
	if err := fleet.WaitIngested(sent, 30*time.Second); err != nil {
		return out, err
	}
	out.packets = sent
	if sent > 0 {
		out.bytesPerPkt = float64(wireBytes) / float64(sent)
	}

	// Reference: the identical deployment into one in-process sink.
	local, err := tb.RunInProcess(shards, nExporters, flowsPer, pktsPer)
	if err != nil {
		return out, err
	}

	// Path 1: fold member snapshots with core.Recording.Merge.
	fleetAnswers, err := fleet.MergedAnswers(nil)
	if err != nil {
		return out, err
	}
	if out.mergeIdent, err = sameAnswers(fleetAnswers, local.Answers); err != nil {
		return out, err
	}
	if !out.mergeIdent {
		return out, fmt.Errorf("scenario: Recording.Merge fold diverges from in-process at fleet %d, shards %d", fleetN, shards)
	}

	// Path 2: the HTTP frontend on a real loopback socket.
	fe, err := federation.NewFrontend(federation.WithFleetMap(fleet.CurrentMap()))
	if err != nil {
		return out, err
	}
	gateLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return out, err
	}
	gateSrv := collector.HardenedHTTPServer(fe.Handler())
	go gateSrv.Serve(gateLn)
	defer gateSrv.Close()
	gateURL := "http://" + gateLn.Addr().String()

	body, partial, err := getBody(gateURL + "/snapshot")
	if err != nil {
		return out, err
	}
	if partial {
		return out, fmt.Errorf("scenario: healthy fleet answered partial")
	}
	wantBody, err := singleCollectorBody(local.Answers)
	if err != nil {
		return out, err
	}
	out.gateIdent = bytes.Equal(body, wantBody)
	if !out.gateIdent {
		return out, fmt.Errorf("scenario: gate /snapshot diverges from single-collector body at fleet %d, shards %d", fleetN, shards)
	}

	// The gate's totals account for exactly the streamed packets.
	statsBody, _, err := getBody(gateURL + "/stats")
	if err != nil {
		return out, err
	}
	var stats struct {
		Total struct {
			Server collector.Stats `json:"server"`
		} `json:"total"`
	}
	if err := json.Unmarshal(statsBody, &stats); err != nil {
		return out, err
	}
	out.statsOK = stats.Total.Server.Packets == sent
	if !out.statsOK {
		return out, fmt.Errorf("scenario: gate total %d packets, want %d", stats.Total.Server.Packets, sent)
	}

	// Degraded mode: kill the last member; the gate must answer partial,
	// name the dead node, and still merge every survivor-owned flow.
	// (With a fleet of one there is nothing to survive — skip.)
	if fleetN == 1 {
		out.partialOK = true
		out.survivorFlow = 0
		return out, nil
	}
	dead := fleetN - 1
	deadURL := fleet.HTTPURLs()[dead]
	if err := fleet.StopMember(context.Background(), dead); err != nil {
		return out, err
	}
	body, partial, err = getBody(gateURL + "/snapshot")
	if err != nil {
		return out, err
	}
	var degraded struct {
		Errors []federation.NodeError  `json:"errors"`
		Flows  []collector.FlowAnswers `json:"flows"`
	}
	if err := json.Unmarshal(body, &degraded); err != nil {
		return out, err
	}
	namesDead := len(degraded.Errors) == 1 && degraded.Errors[0].Node == deadURL
	wantSurvivors := 0
	for _, flow := range tb.Flows(nExporters, flowsPer) {
		if fleet.CurrentMap().FlowHome(flow) != dead {
			wantSurvivors++
		}
	}
	out.survivorFlow = len(degraded.Flows)
	out.partialOK = partial && namesDead && out.survivorFlow == wantSurvivors
	if !out.partialOK {
		return out, fmt.Errorf("scenario: degraded fleet %d: partial=%v namesDead=%v survivors=%d want %d",
			fleetN, partial, namesDead, out.survivorFlow, wantSurvivors)
	}
	return out, nil
}

// getBody GETs a URL and returns the body plus whether the response was
// marked partial.
func getBody(url string) ([]byte, bool, error) {
	client := &http.Client{Timeout: 15 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, false, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, false, fmt.Errorf("scenario: %s: %s", url, resp.Status)
	}
	return body, resp.Header.Get(federation.PartialHeader) != "", nil
}

package federation

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/collector"
)

// Frontend is the fleet's single query endpoint: it fans /snapshot,
// /stats, and /healthz out to every member, folds the per-member answers
// into the same fixed-order JSON a single collector emits, and degrades
// explicitly when a member is down — the response carries the
// PartialHeader plus a per-node error list naming exactly which members
// are missing from the merge, instead of failing the whole query or
// silently presenting a subset as the truth.
//
// The /snapshot merge is the HTTP twin of Fleet.MergedAnswers: members
// hold disjoint flows (the partitioner's invariant) and list them in
// sorted key order, so folding is a k-way merge by flow key — the wire
// image of core.Recording.Merge's pure adoption — and the merged body is
// byte-identical to the single-collector body whenever the fleet is
// healthy.
type Frontend struct {
	// Client issues the fan-out requests (default: a fresh client with
	// Timeout as its overall bound).
	Client *http.Client
	// Timeout bounds each fan-out request (default 10s).
	Timeout time.Duration

	// mu guards fleetMap against a POST /fleetmap racing the fan-out
	// handlers.
	mu       sync.RWMutex
	fleetMap *FleetMap
}

// frontendConfig is the resolved form of NewFrontend's options.
type frontendConfig struct {
	fm      *FleetMap
	timeout time.Duration
	client  *http.Client
}

// FrontendOption configures NewFrontend.
type FrontendOption func(*frontendConfig)

// WithFleetMap gives the frontend the fleet's epoch-versioned map
// (required): the fan-out goes to the map's members, GET /fleetmap
// serves it, and a member whose response carries a different epoch
// (mid-resize) lands in the response's error list as "epoch_stale"
// instead of being merged.
func WithFleetMap(m *FleetMap) FrontendOption {
	return func(c *frontendConfig) { c.fm = m }
}

// WithTimeout bounds each fan-out request (default 10s).
func WithTimeout(d time.Duration) FrontendOption {
	return func(c *frontendConfig) { c.timeout = d }
}

// WithClient supplies the HTTP client for fan-out requests, overriding
// the default (a fresh client bounded by the timeout).
func WithClient(client *http.Client) FrontendOption {
	return func(c *frontendConfig) { c.client = client }
}

// PartialHeader marks a response merged from a degraded fleet: its value
// is the number of members that failed, and the body's "errors" list
// names them. Absent on a healthy merge.
const PartialHeader = "X-Pint-Partial"

// maxNodeResponse caps one member's fan-out response body (64 MiB —
// far beyond any sane snapshot; a member exceeding it is reported with
// an explicit over-cap error rather than a truncated-JSON parse error).
const maxNodeResponse = collector.MaxRequestBody * 64

// NewFrontend builds a frontend — the options entry point mirroring
// collector.New and collector.Connect:
//
//	fe, err := federation.NewFrontend(
//	        federation.WithFleetMap(fm),
//	        federation.WithTimeout(5*time.Second))
//
// The fleet map (WithFleetMap) is required: it is the frontend's only
// description of the fleet.
func NewFrontend(opts ...FrontendOption) (*Frontend, error) {
	var cfg frontendConfig
	for _, o := range opts {
		if o != nil {
			o(&cfg)
		}
	}
	g := &Frontend{Client: cfg.client, Timeout: cfg.timeout}
	if err := g.SetFleetMap(cfg.fm); err != nil {
		return nil, err
	}
	return g, nil
}

// SetFleetMap installs a newer fleet map: the members the fan-out goes
// to, the epoch used for staleness detection, and the document GET
// /fleetmap serves all move together. The epoch must not regress.
func (g *Frontend) SetFleetMap(m *FleetMap) error {
	if m == nil {
		return fmt.Errorf("federation: frontend needs a fleet map (WithFleetMap)")
	}
	if err := m.Validate(); err != nil {
		return err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.fleetMap != nil && m.Epoch < g.fleetMap.Epoch {
		return fmt.Errorf("federation: fleet map epoch regressed (%d, currently %d)", m.Epoch, g.fleetMap.Epoch)
	}
	g.fleetMap = m
	return nil
}

// CurrentFleetMap returns the map the frontend is serving.
func (g *Frontend) CurrentFleetMap() *FleetMap {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.fleetMap
}

// NodeError is one fleet member's failure in a fan-out, as reported in
// the response body's "errors" list. Status carries the member's HTTP
// status when the failure was an HTTP-level refusal (0 for transport
// errors and unparseable bodies). Kind classifies non-HTTP failures the
// caller may want to react to ("epoch_stale": the member answered from a
// different fleet epoch than the frontend's map — a resize is in flight
// — and its answer was excluded from the merge rather than silently
// mixed across partitionings).
type NodeError struct {
	Node   string `json:"node"`
	Error  string `json:"error"`
	Status int    `json:"status,omitempty"`
	Kind   string `json:"kind,omitempty"`
}

// NodeErrorEpochStale is the NodeError.Kind for a member that answered
// from a different fleet epoch than the frontend's map.
const NodeErrorEpochStale = "epoch_stale"

// fetch GETs path (plus rawQuery) from every node concurrently and
// returns the node list used plus the bodies, position-aligned with it;
// failures (transport errors, non-200 statuses, and epoch-stale answers)
// land in the error list instead.
func (g *Frontend) fetch(path, rawQuery string) (nodes []string, bodies [][]byte, errs []NodeError) {
	client := g.Client
	if client == nil {
		timeout := g.Timeout
		if timeout <= 0 {
			timeout = 10 * time.Second
		}
		client = &http.Client{Timeout: timeout}
	}
	fm := g.CurrentFleetMap()
	nodes, wantEpoch := fm.QueryURLs(), strconv.FormatUint(fm.Epoch, 10)
	bodies = make([][]byte, len(nodes))
	nodeErrs := make([]*NodeError, len(nodes))
	var wg sync.WaitGroup
	for i, node := range nodes {
		wg.Add(1)
		go func(i int, node string) {
			defer wg.Done()
			url := node + path
			if rawQuery != "" {
				url += "?" + rawQuery
			}
			resp, err := client.Get(url)
			if err != nil {
				nodeErrs[i] = &NodeError{Node: node, Error: err.Error()}
				return
			}
			defer resp.Body.Close()
			// Read one byte past the cap so truncation is detected and
			// named, instead of handing a cut-off document to the JSON
			// decoder and misreporting the node as corrupt.
			body, err := io.ReadAll(io.LimitReader(resp.Body, maxNodeResponse+1))
			if err != nil {
				nodeErrs[i] = &NodeError{Node: node, Error: err.Error()}
				return
			}
			if len(body) > maxNodeResponse {
				nodeErrs[i] = &NodeError{
					Node:  node,
					Error: fmt.Sprintf("response exceeds the %d-byte fan-out cap", maxNodeResponse),
				}
				return
			}
			if resp.StatusCode != http.StatusOK {
				nodeErrs[i] = &NodeError{
					Node:   node,
					Error:  fmt.Sprintf("status %s: %s", resp.Status, firstLine(body)),
					Status: resp.StatusCode,
				}
				return
			}
			// A member mid-resize answers from a different partitioning;
			// merging it with the rest would mix two fleet maps in one
			// document. Exclude it and say so. (Members predating the
			// epoch header send none — nothing to check.)
			if raw := resp.Header.Get(collector.EpochHeader); raw != "" && raw != wantEpoch {
				nodeErrs[i] = &NodeError{
					Node:  node,
					Error: fmt.Sprintf("member is at fleet epoch %s, frontend map is at %s (resize in flight)", raw, wantEpoch),
					Kind:  NodeErrorEpochStale,
				}
				return
			}
			bodies[i] = body
		}(i, node)
	}
	wg.Wait()
	for _, ne := range nodeErrs {
		if ne != nil {
			errs = append(errs, *ne)
		}
	}
	return nodes, bodies, errs
}

// unanimousStatus reports the HTTP status every member answered with,
// when every member failed at the HTTP level with the same status — the
// shape of a client error (bad ?flow=) or a fleet-wide drain, which must
// propagate as that status rather than masquerade as a fleet outage.
func unanimousStatus(nNodes int, errs []NodeError) (int, bool) {
	if len(errs) != nNodes || nNodes == 0 {
		return 0, false
	}
	status := errs[0].Status
	if status == 0 {
		return 0, false
	}
	for _, e := range errs[1:] {
		if e.Status != status {
			return 0, false
		}
	}
	return status, true
}

func firstLine(b []byte) string {
	for i, c := range b {
		if c == '\n' {
			return string(b[:i])
		}
	}
	return string(b)
}

// markPartial stamps the degraded-fleet signal on a response.
func markPartial(w http.ResponseWriter, errs []NodeError) {
	if len(errs) > 0 {
		w.Header().Set(PartialHeader, fmt.Sprintf("%d", len(errs)))
	}
}

// Handler serves the merged observability surface:
//
//	GET /healthz         fleet-wide health: ok iff every member is ok
//	GET /stats           per-node counters plus fleet totals
//	GET /snapshot        all members' flows, merged in flow-key order
//	GET /snapshot?flow=N the home member's answer for one flow
//
// Serve it through collector.HardenedHTTPServer (cmd/pintgate does).
func (g *Frontend) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", g.serveHealthz)
	mux.HandleFunc("GET /stats", g.serveStats)
	mux.HandleFunc("GET /snapshot", g.serveSnapshot)
	mux.HandleFunc("GET /fleetmap", g.serveFleetMapGet)
	mux.HandleFunc("POST /fleetmap", g.serveFleetMapPost)
	return mux
}

// serveFleetMapGet publishes the current fleet map — the document
// exporters (collector.WithRosterFetch) and operators fetch to learn the
// fleet's epoch, membership, and addresses.
func (g *Frontend) serveFleetMapGet(w http.ResponseWriter, r *http.Request) {
	collector.WriteJSON(w, g.CurrentFleetMap())
}

// serveFleetMapPost accepts the next epoch's map from a resize
// coordinator; the frontend's member list and staleness epoch follow it
// atomically.
func (g *Frontend) serveFleetMapPost(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, collector.MaxRequestBody))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	fm, err := ParseFleetMap(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if err := g.SetFleetMap(fm); err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	collector.WriteJSON(w, map[string]any{"ok": true, "epoch": fm.Epoch})
}

// nodeHealth is one member's /healthz as the frontend re-presents it.
type nodeHealth struct {
	Node     string `json:"node"`
	OK       bool   `json:"ok"`
	PlanHash string `json:"plan_hash,omitempty"`
	Error    string `json:"error,omitempty"`
}

func (g *Frontend) serveHealthz(w http.ResponseWriter, r *http.Request) {
	roster, bodies, errs := g.fetch("/healthz", "")
	down := map[string]string{}
	for _, e := range errs {
		down[e.Node] = e.Error
	}
	nodes := make([]nodeHealth, len(roster))
	ok := true
	planHashes := map[string]bool{}
	for i, node := range roster {
		nodes[i] = nodeHealth{Node: node}
		if msg, dead := down[node]; dead {
			nodes[i].Error = msg
			ok = false
			continue
		}
		var h struct {
			OK       bool   `json:"ok"`
			PlanHash string `json:"plan_hash"`
		}
		if err := json.Unmarshal(bodies[i], &h); err != nil {
			nodes[i].Error = fmt.Sprintf("bad health body: %v", err)
			errs = append(errs, NodeError{Node: node, Error: nodes[i].Error})
			ok = false
			continue
		}
		nodes[i].OK = h.OK
		nodes[i].PlanHash = h.PlanHash
		if !h.OK {
			ok = false
		}
		planHashes[h.PlanHash] = true
	}
	// A fleet whose members disagree on the execution plan cannot answer
	// coherently even when every member is individually healthy.
	if len(planHashes) > 1 {
		ok = false
	}
	markPartial(w, errs)
	collector.WriteJSON(w, map[string]any{
		"ok":             ok,
		"plan_divergent": len(planHashes) > 1,
		"nodes":          nodes,
	})
}

// nodeStats is one member's /stats as the frontend re-presents it.
type nodeStats struct {
	Node  string             `json:"node"`
	Stats *collector.StatsV1 `json:"stats,omitempty"`
	Error string             `json:"error,omitempty"`
}

func (g *Frontend) serveStats(w http.ResponseWriter, r *http.Request) {
	roster, bodies, errs := g.fetch("/stats", "")
	down := map[string]string{}
	for _, e := range errs {
		down[e.Node] = e.Error
	}
	nodes := make([]nodeStats, len(roster))
	// The fleet total is the same versioned document one daemon serves:
	// counter sections sum, tenant sections merge by name (re-deriving
	// each error envelope), point-in-time sections stay per-member.
	total := collector.StatsV1{Schema: collector.StatsSchemaV1}
	for i, node := range roster {
		nodes[i] = nodeStats{Node: node}
		if msg, dead := down[node]; dead {
			nodes[i].Error = msg
			continue
		}
		var st collector.StatsV1
		if err := json.Unmarshal(bodies[i], &st); err != nil {
			nodes[i].Error = fmt.Sprintf("bad stats body: %v", err)
			errs = append(errs, NodeError{Node: node, Error: nodes[i].Error})
			continue
		}
		if st.Schema != collector.StatsSchemaV1 {
			nodes[i].Error = fmt.Sprintf("unknown stats schema %q", st.Schema)
			errs = append(errs, NodeError{Node: node, Error: nodes[i].Error})
			continue
		}
		nodes[i].Stats = &st
		total.Accumulate(st)
	}
	markPartial(w, errs)
	collector.WriteJSON(w, map[string]any{
		"nodes": nodes,
		"total": total,
	})
}

func (g *Frontend) serveSnapshot(w http.ResponseWriter, r *http.Request) {
	roster, bodies, errs := g.fetch("/snapshot", r.URL.RawQuery)
	// Every member refusing with one status is that status, not a
	// degraded fleet: a bad ?flow= is the client's 400 and a fleet-wide
	// drain is the members' 503 — exactly what a single collector would
	// answer. Mixed failures fall through to the partial-result merge.
	if status, ok := unanimousStatus(len(roster), errs); ok {
		// A fleet-wide drain keeps the single collector's retry hint.
		if status == http.StatusServiceUnavailable {
			w.Header().Set("Retry-After", "1")
		}
		http.Error(w, errs[0].Error, status)
		return
	}
	explicit := len(r.URL.Query()["flow"]) > 0
	perNode := make([][]collector.FlowAnswers, 0, len(roster))
	for i, node := range roster {
		if bodies[i] == nil {
			continue
		}
		var snap struct {
			Flows []collector.FlowAnswers `json:"flows"`
		}
		if err := json.Unmarshal(bodies[i], &snap); err != nil {
			errs = append(errs, NodeError{Node: node, Error: fmt.Sprintf("bad snapshot body: %v", err)})
			continue
		}
		perNode = append(perNode, snap.Flows)
	}
	var merged []collector.FlowAnswers
	if explicit {
		merged = mergeExplicit(perNode)
	} else {
		merged = mergeDisjoint(perNode)
	}
	markPartial(w, errs)
	if len(errs) > 0 {
		collector.WriteJSON(w, map[string]any{"errors": errs, "flows": merged})
		return
	}
	// Healthy path: the body is byte-identical to a single collector's,
	// written by the same streaming writer.
	collector.WriteSnapshot(w, merged)
}

// mergeDisjoint k-way-merges per-node flow lists by ascending flow key.
// Each node lists only the flows it tracks (disjoint under the
// partitioner) in sorted order, so this reproduces exactly the flow order
// a single collector's merged Recording would list. A flow appearing on
// two nodes (a partitioning violation — some exporter routed under a
// different map) keeps the first node's answer deterministically.
func mergeDisjoint(perNode [][]collector.FlowAnswers) []collector.FlowAnswers {
	total := 0
	for _, fl := range perNode {
		total += len(fl)
	}
	merged := make([]collector.FlowAnswers, 0, total)
	idx := make([]int, len(perNode))
	for {
		best := -1
		for n, fl := range perNode {
			if idx[n] >= len(fl) {
				continue
			}
			if best == -1 || fl[idx[n]].Flow < perNode[best][idx[best]].Flow {
				best = n
			}
		}
		if best == -1 {
			return merged
		}
		fa := perNode[best][idx[best]]
		idx[best]++
		if len(merged) > 0 && merged[len(merged)-1].Flow == fa.Flow {
			continue
		}
		merged = append(merged, fa)
	}
}

// mergeExplicit folds answers for an explicit ?flow= list: every node
// answers every requested flow (non-home nodes with empty state), so per
// flow the home node's answer — the one marked tracked — wins; if no node
// tracks the flow, all answers are identically empty and the first is
// kept. Request order is preserved, matching the single-collector body.
func mergeExplicit(perNode [][]collector.FlowAnswers) []collector.FlowAnswers {
	if len(perNode) == 0 {
		return nil
	}
	n := len(perNode[0])
	merged := make([]collector.FlowAnswers, 0, n)
	for i := 0; i < n; i++ {
		pick := perNode[0][i]
		for _, fl := range perNode[1:] {
			if i < len(fl) && fl[i].Tracked && !pick.Tracked {
				pick = fl[i]
			}
		}
		merged = append(merged, pick)
	}
	return merged
}

// SortNodeErrors orders an error list by node for stable presentation.
func SortNodeErrors(errs []NodeError) {
	sort.Slice(errs, func(i, j int) bool { return errs[i].Node < errs[j].Node })
}

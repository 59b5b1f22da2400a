package federation

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"repro/internal/collector"
	"repro/internal/core"
)

// Frontend is the fleet's single query endpoint: it fans /snapshot,
// /stats, and /healthz out to every member — a ?flow= query only to the
// listed flows' home members — folds the per-member answers into the same
// fixed-order JSON a single collector emits, and degrades explicitly when
// a member is down — the response carries the PartialHeader plus a
// per-node error list naming exactly which members are missing from the
// merge, instead of failing the whole query or silently presenting a
// subset as the truth.
//
// The /snapshot merge is the HTTP twin of folding the members' snapshots
// with core.Recording.Merge: members
// hold disjoint flows (the partitioner's invariant) and list them in
// sorted key order, so folding is a k-way merge by flow key — the wire
// image of core.Recording.Merge's pure adoption. It is a streaming merge:
// the frontend scans each member's body one flows[] element at a time,
// picking out only the element's flow key, and writes the winning
// element's bytes to the client as it got them, so what it holds per
// request is one buffered element per member, whatever the fleet tracks —
// and the merged body is byte-identical to the single-collector body
// whenever the fleet is healthy. The price of not buffering is paid by a
// member that fails after the response has begun: see serveSnapshot.
type Frontend struct {
	// client issues the fan-out requests; timeout is how long a member may
	// stay silent — before its response headers, or between two reads of
	// its body — before it counts as not answering.
	client  *http.Client
	timeout time.Duration
	silent  error // why a member silent for timeout was given up on
	// bodyCap caps one member's response body (maxNodeResponse).
	bodyCap int64

	// mu guards fleetMap against a POST /fleetmap racing the fan-out
	// handlers.
	mu       sync.RWMutex
	fleetMap *FleetMap
}

// frontendConfig is the resolved form of NewFrontend's options.
type frontendConfig struct {
	fm      *FleetMap
	timeout time.Duration
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

// WithTimeout bounds how long a member may go without answering a
// fan-out request (default 10s): the wait for its response headers and
// each wait for more of its body. Time the frontend spends writing to its
// own client does not count — a slow reader downstream is not a silent
// member.
func WithTimeout(d time.Duration) FrontendOption {
	return func(c *frontendConfig) { c.timeout = d }
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
	if cfg.timeout <= 0 {
		cfg.timeout = 10 * time.Second
	}
	g := &Frontend{
		client:  &http.Client{},
		timeout: cfg.timeout,
		silent:  fmt.Errorf("member did not answer within %v", cfg.timeout),
		bodyCap: maxNodeResponse,
	}
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

	member int // the node's index in the fleet map the fan-out used
}

// NodeErrorEpochStale is the NodeError.Kind for a member that answered
// from a different fleet epoch than the frontend's map.
const NodeErrorEpochStale = "epoch_stale"

// memberQuery is one request of a fan-out: the member's index in the
// fleet map, and the raw query it is sent.
type memberQuery struct {
	member int
	query  string
}

// everyMember asks every member of fm the same query.
func everyMember(fm *FleetMap, rawQuery string) []memberQuery {
	asks := make([]memberQuery, len(fm.Members))
	for i := range asks {
		asks[i] = memberQuery{i, rawQuery}
	}
	return asks
}

// fanOut GETs path from the members asks lists, each with its own query,
// concurrently, under ctx — the incoming request's, so a caller that goes
// away takes its member requests with it. A member that fails in a way
// visible at header time (transport error, non-200 status, epoch-stale
// answer) lands in the error list; every other member's body is handed to
// use, on the member's own goroutine, with the member's index in fm. use
// owns the body — it closes it or keeps it — and an error from it puts the
// member in the error list too. Errors are listed in the order of asks.
func (g *Frontend) fanOut(ctx context.Context, fm *FleetMap, path string, asks []memberQuery, use func(member int, body io.ReadCloser) error) []NodeError {
	wantEpoch := strconv.FormatUint(fm.Epoch, 10)
	nodeErrs := make([]*NodeError, len(asks))
	var wg sync.WaitGroup
	for i, ask := range asks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			node := fm.Members[ask.member].Query
			url := node + path
			if ask.query != "" {
				url += "?" + ask.query
			}
			body, ne := g.get(ctx, url, wantEpoch)
			if ne == nil {
				if err := use(ask.member, body); err != nil {
					ne = &NodeError{Error: err.Error()}
				}
			}
			if ne != nil {
				ne.Node, ne.member = node, ask.member
				nodeErrs[i] = ne
			}
		}()
	}
	wg.Wait()
	var errs []NodeError
	for _, ne := range nodeErrs {
		if ne != nil {
			errs = append(errs, *ne)
		}
	}
	return errs
}

// get issues one member request and classifies the response at header
// time. The returned body reads under the frontend's silence bound and
// releases the request when closed.
func (g *Frontend) get(ctx context.Context, url, wantEpoch string) (io.ReadCloser, *NodeError) {
	ctx, cancel := context.WithCancelCause(ctx)
	body := &nodeBody{ctx: ctx, cancel: cancel, timeout: g.timeout, cap: g.bodyCap}
	body.watch = time.AfterFunc(g.timeout, func() { cancel(g.silent) })
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		body.Close()
		return nil, &NodeError{Error: err.Error()}
	}
	resp, err := g.client.Do(req)
	body.watch.Stop()
	if err != nil {
		err = body.explain(err)
		body.Close()
		return nil, &NodeError{Error: err.Error()}
	}
	body.body = resp.Body
	var ne *NodeError
	switch epoch := resp.Header.Get(collector.EpochHeader); {
	case resp.StatusCode != http.StatusOK:
		// The member's own words, bounded: an error body is one line.
		msg, _ := io.ReadAll(io.LimitReader(body, 4<<10))
		ne = &NodeError{Error: fmt.Sprintf("status %s: %s", resp.Status, firstLine(msg)), Status: resp.StatusCode}
	case resp.ContentLength > g.bodyCap:
		ne = &NodeError{Error: overCap(g.bodyCap).Error()}
	case epoch != "" && epoch != wantEpoch:
		// A member mid-resize answers from a different partitioning;
		// merging it with the rest would mix two fleet maps in one
		// document. Exclude it and say so. (Members predating the epoch
		// header send none — nothing to check.)
		ne = &NodeError{
			Error: fmt.Sprintf("member is at fleet epoch %s, frontend map is at %s (resize in flight)", epoch, wantEpoch),
			Kind:  NodeErrorEpochStale,
		}
	}
	if ne != nil {
		body.Close()
		return nil, ne
	}
	return body, nil
}

// nodeBody is one member's response body. Each Read runs under a watchdog
// that cancels the member's request when the member stays silent for the
// frontend's timeout; between Reads — while the frontend is busy writing to
// its own client — no clock runs. A body longer than the fan-out cap fails
// the Read that crosses it, by name, instead of ending early like a
// truncated one. Close releases the request.
type nodeBody struct {
	body      io.ReadCloser // the response's; nil until the headers are in
	ctx       context.Context
	cancel    context.CancelCauseFunc
	watch     *time.Timer
	timeout   time.Duration
	read, cap int64 // body bytes read, and the most there may be
}

func overCap(cap int64) error {
	return fmt.Errorf("response exceeds the %d-byte fan-out cap", cap)
}

func (b *nodeBody) Read(p []byte) (int, error) {
	b.watch.Reset(b.timeout)
	n, err := b.body.Read(p)
	b.watch.Stop()
	if b.read += int64(n); b.read > b.cap {
		return n, overCap(b.cap)
	}
	if err != nil && err != io.EOF {
		err = b.explain(err)
	}
	return n, err
}

// explain replaces the transport's "context canceled" with why the
// request's context ended — the watchdog's verdict, or the caller's.
func (b *nodeBody) explain(err error) error {
	if cause := context.Cause(b.ctx); cause != nil {
		return cause
	}
	return err
}

func (b *nodeBody) Close() error {
	b.watch.Stop()
	b.cancel(nil)
	if b.body == nil {
		return nil
	}
	return b.body.Close()
}

// unanimousStatus reports the HTTP status every member asked answered
// with, when each failed at the HTTP level with the same status — the
// shape of a client error (a bad ?since=) or a fleet-wide drain, which
// must propagate as that status rather than masquerade as a fleet outage.
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
//	GET /snapshot?flow=N the home member's answer for one flow (repeatable)
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
	fm := g.CurrentFleetMap()
	nodes := make([]nodeHealth, len(fm.Members))
	errs := g.fanOut(r.Context(), fm, "/healthz", everyMember(fm, ""), func(i int, body io.ReadCloser) error {
		defer body.Close()
		if err := json.NewDecoder(body).Decode(&nodes[i]); err != nil {
			return fmt.Errorf("bad health body: %v", err)
		}
		return nil
	})
	for _, e := range errs {
		nodes[e.member] = nodeHealth{Error: e.Error}
	}
	ok := true
	planHashes := map[string]bool{}
	for i := range nodes {
		nodes[i].Node = fm.Members[i].Query
		ok = ok && nodes[i].OK
		if nodes[i].Error == "" {
			planHashes[nodes[i].PlanHash] = true
		}
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
	fm := g.CurrentFleetMap()
	stats := make([]collector.StatsV1, len(fm.Members))
	errs := g.fanOut(r.Context(), fm, "/stats", everyMember(fm, ""), func(i int, body io.ReadCloser) error {
		defer body.Close()
		if err := json.NewDecoder(body).Decode(&stats[i]); err != nil {
			return fmt.Errorf("bad stats body: %v", err)
		}
		if stats[i].Schema != collector.StatsSchemaV1 {
			return fmt.Errorf("unknown stats schema %q", stats[i].Schema)
		}
		return nil
	})
	nodes := make([]nodeStats, len(fm.Members))
	for i := range nodes {
		nodes[i] = nodeStats{Node: fm.Members[i].Query, Stats: &stats[i]}
	}
	for _, e := range errs {
		nodes[e.member] = nodeStats{Node: e.Node, Error: e.Error}
	}
	// The fleet total is the same versioned document one daemon serves:
	// counter sections sum, tenant sections merge by name (re-deriving
	// each error envelope), point-in-time sections stay per-member.
	total := collector.StatsV1{Schema: collector.StatsSchemaV1}
	for _, n := range nodes {
		if n.Stats != nil {
			total.Accumulate(*n.Stats)
		}
	}
	markPartial(w, errs)
	collector.WriteJSON(w, map[string]any{
		"nodes": nodes,
		"total": total,
	})
}

// serveSnapshot streams the members' /snapshot answers into one. A full
// query asks every member; a ?flow= query asks each listed flow's home
// member under the map for its own flows only, so a point query costs one
// member request whatever the fleet's size. Every member asked has its
// response opened and its first element read before anything is written,
// so whatever is wrong with a member by then — down, refusing, epoch-stale,
// not a snapshot document — still makes it a named entry of a well-formed
// partial answer. After that the response is committed: each step writes
// one member's pending element and reads that member's next. A member that
// then dies, truncates, sends a malformed, out-of-order or unasked-for
// element, or overruns the body cap can no longer be reported in a document
// whose "errors" list is already on the wire, and finishing without it
// would pass a hole off as a complete answer — so the frontend aborts the
// response instead (http.ErrAbortHandler): the client sees a transport
// error, never a clean end, and retries.
func (g *Frontend) serveSnapshot(w http.ResponseWriter, r *http.Request) {
	fm := g.CurrentFleetMap()
	q := r.URL.Query()
	flows, err := collector.ParseFlowFilter(q)
	if err != nil {
		// A single collector's 400, word for word, and nobody asked.
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var homes []int
	var asks []memberQuery
	if flows == nil {
		asks = everyMember(fm, r.URL.RawQuery)
	} else {
		homes, asks = homeQueries(fm, flows, q)
	}
	streams := make([]*flowStream, len(fm.Members))
	errs := g.fanOut(r.Context(), fm, "/snapshot", asks, func(i int, body io.ReadCloser) error {
		s := &flowStream{body: body}
		if err := s.next(); err != nil {
			s.close()
			return fmt.Errorf("bad snapshot body: %w", err)
		}
		streams[i] = s
		return nil
	})
	live := 0
	for _, s := range streams {
		if s != nil {
			defer s.close()
			live++
		}
	}
	// Every member asked refusing with one status is that status, not a
	// degraded fleet: a bad ?since= is the client's 400 and a fleet-wide
	// drain is the members' 503 — exactly what a single collector would
	// answer. Mixed failures fall through to the partial-result merge.
	if status, ok := unanimousStatus(len(asks), errs); ok {
		// A fleet-wide drain keeps the single collector's retry hint.
		if status == http.StatusServiceUnavailable {
			w.Header().Set("Retry-After", "1")
		}
		http.Error(w, errs[0].Error, status)
		return
	}
	markPartial(w, errs)
	if live == 0 {
		// Nobody to stream from: the document is its error list. (An
		// explicit query's empty answer has always been null.)
		list := []collector.FlowAnswers{}
		if flows != nil {
			list = nil
		}
		collector.WriteJSON(w, map[string]any{"errors": errs, "flows": list})
		return
	}
	// A healthy fleet's body is byte-identical to a single collector's:
	// the same writer frames the same element bytes.
	var failed any
	if len(errs) > 0 {
		failed = errs
	}
	sw := collector.NewSnapshotWriter(w, failed)
	if flows == nil {
		err = spliceByKey(sw, streams)
	} else {
		err = spliceByHome(sw, flows, homes, streams)
	}
	if err == nil {
		err = sw.Close()
	}
	if err != nil {
		panic(http.ErrAbortHandler)
	}
}

// homeQueries routes an explicit ?flow= list by fm.FlowHome: each flow's
// home, and for each home, in member order, the query asking it for its
// own flows — in request order, repeats kept, the keys in canonical
// decimal — with the window bounds (?since=, ?until=) passed through.
func homeQueries(fm *FleetMap, flows []core.FlowKey, q url.Values) ([]int, []memberQuery) {
	homes := make([]int, len(flows))
	queries := make([][]byte, len(fm.Members))
	for i, flow := range flows {
		h := fm.FlowHome(flow)
		homes[i] = h
		if queries[h] != nil {
			queries[h] = append(queries[h], '&')
		}
		queries[h] = strconv.AppendUint(append(queries[h], "flow="...), uint64(flow), 10)
	}
	var window string
	if q.Has("since") || q.Has("until") {
		window = "&" + url.Values{"since": q["since"], "until": q["until"]}.Encode()
	}
	var asks []memberQuery
	for m, query := range queries {
		if query != nil {
			asks = append(asks, memberQuery{m, string(append(query, window...))})
		}
	}
	return homes, asks
}

// spliceByKey k-way-merges the members' elements by ascending flow key.
// Each member lists only the flows it tracks (disjoint under the
// partitioner) in sorted order, so this reproduces exactly the flow order
// a single collector's merged Recording would list. A flow appearing on
// two members (a partitioning violation — some exporter routed under a
// different map) keeps the lowest-indexed member's answer
// deterministically; a member whose own keys do not ascend is an error.
// streams is indexed by member, nil for a member not merged.
func spliceByKey(sw *collector.SnapshotWriter, streams []*flowStream) error {
	var last uint64
	for wrote := false; ; {
		var best *flowStream
		for _, s := range streams {
			if s != nil && s.ok && (best == nil || s.cur.flow < best.cur.flow) {
				best = s
			}
		}
		if best == nil {
			return nil
		}
		if !wrote || best.cur.flow != last {
			if err := sw.Element(best.cur.raw); err != nil {
				return err
			}
			wrote, last = true, best.cur.flow
		}
		if err := best.next(); err != nil {
			return err
		}
		if best.ok && best.cur.flow <= last {
			return fmt.Errorf("flows[%d]: flow key %d after %d is out of order", best.seen-1, best.cur.flow, last)
		}
	}
}

// spliceByHome writes the answers to an explicit ?flow= list in request
// order, each from the stream of its home member (homes[i] for flows[i]),
// which was asked for exactly its own flows in that order. A home whose
// stream is nil failed before the response began and is in the error
// list: its flows' answers are left out. A member that answers another
// flow than the one asked for next, or fewer or more answers than it was
// asked for, is an error.
func spliceByHome(sw *collector.SnapshotWriter, flows []core.FlowKey, homes []int, streams []*flowStream) error {
	for i, flow := range flows {
		s := streams[homes[i]]
		switch {
		case s == nil:
			continue
		case !s.ok:
			return fmt.Errorf("flows[%d]: the answer ends where flow %d belongs", s.seen, uint64(flow))
		case s.cur.flow != uint64(flow):
			return fmt.Errorf("flows[%d]: flow %d answered where flow %d belongs", s.seen-1, s.cur.flow, uint64(flow))
		}
		if err := sw.Element(s.cur.raw); err != nil {
			return err
		}
		if err := s.next(); err != nil {
			return err
		}
	}
	for _, s := range streams {
		if s != nil && s.ok {
			return fmt.Errorf("flows[%d]: flow %d answered, but not asked for", s.seen-1, s.cur.flow)
		}
	}
	return nil
}

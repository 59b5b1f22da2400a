package collector

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"iter"
	"math"
	"net/http"
	"net/http/pprof"
	"net/url"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
)

// This file serves snapshot queries over HTTP/JSON. The answer encoding
// is factored into Answers so the loopback conformance tests
// (TestLoopbackBitIdentical) can compute the identical structure against
// an in-process sink and demand bit-identical JSON.

// HopAnswer is one (flow, hop)'s dynamic per-flow summary.
type HopAnswer struct {
	Hop     int     `json:"hop"`
	Samples int     `json:"samples"`
	P50     float64 `json:"p50"`
	P99     float64 `json:"p99"`
}

// QueryAnswer is one query's answer for one flow. Which fields are
// populated depends on the query kind.
type QueryAnswer struct {
	Query string `json:"query"`
	Kind  string `json:"kind"`
	// Path queries: the decoded per-hop switch IDs, whether decoding
	// finished, and the route-change inconsistency counter.
	Path            []uint64 `json:"path,omitempty"`
	Done            bool     `json:"done,omitempty"`
	Inconsistencies int      `json:"inconsistencies,omitempty"`
	// Latency queries: per-hop summaries (hops with no samples are
	// omitted).
	Hops []HopAnswer `json:"hops,omitempty"`
	// Util queries: the recovered series.
	Series []float64 `json:"series,omitempty"`
}

// FlowAnswers is every query's answer for one flow.
type FlowAnswers struct {
	Flow uint64 `json:"flow"`
	// Tracked reports whether the answering Recording holds live state
	// for the flow: false is the empty answer to a ?flow= for a flow the
	// collector never saw. A federated query frontend asks each flow's
	// home member only, so the answer it splices is the home's either way.
	Tracked bool          `json:"tracked,omitempty"`
	Answers []QueryAnswer `json:"answers"`
}

// Answers evaluates every query for every listed flow against one
// quiescent Recording (a merged snapshot). Answers come in a fixed order
// — flows as given, queries as given, hops ascending, p50 before p99 —
// so two Recordings holding the same state produce byte-identical JSON.
// Every query only reads the Recording.
//
// It collects what EachFlow evaluates, for callers that compare or keep
// the answers; the HTTP surface streams EachFlow instead, so a served
// snapshot's answer tree never exists.
func Answers(rec *core.Recording, queries []core.Query, flows []core.FlowKey) []FlowAnswers {
	out := make([]FlowAnswers, len(flows))
	for i, flow := range flows {
		evalFlow(rec, queries, flow, &out[i])
	}
	return out
}

// EachFlow yields Answers' elements one at a time without building the
// list: every flow is evaluated into the same FlowAnswers, which — like
// its path, hop and answer slices — is overwritten by the next iteration
// and, once the loop ends, by another call's, so a consumer encodes or
// copies what it keeps before moving on. The FlowAnswers comes from a
// pool (answerBufs), so a query that served before builds no answer tree.
func EachFlow(rec *core.Recording, queries []core.Query, flows []core.FlowKey) iter.Seq[*FlowAnswers] {
	return func(yield func(*FlowAnswers) bool) {
		fa := answerBufs.Get().(*FlowAnswers)
		defer putAnswers(fa)
		for _, flow := range flows {
			evalFlow(rec, queries, flow, fa)
			if !yield(fa) {
				return
			}
		}
	}
}

// eachTracked is EachFlow over every flow rec tracks, in key order, with
// no list of them: a view's AllFlows walks its runs in place, and each
// flow it yields is the one rec finds without a search. It is a loop of
// its own so that EachFlow's, ranging over a slice, costs what it did.
func eachTracked(rec *core.Recording, queries []core.Query) iter.Seq[*FlowAnswers] {
	return func(yield func(*FlowAnswers) bool) {
		fa := answerBufs.Get().(*FlowAnswers)
		defer putAnswers(fa)
		for flow := range rec.AllFlows() {
			evalFlow(rec, queries, flow, fa)
			if !yield(fa) {
				return
			}
		}
	}
}

// answerBufs holds the FlowAnswers EachFlow and eachTracked evaluate into,
// one per call in flight.
var answerBufs = sync.Pool{New: func() any { return new(FlowAnswers) }}

// maxPooledHops is the most hops of one answer a pooled FlowAnswers keeps
// room for: a latency query's hops are bounded only by a flow's path
// length, and one long path's array is left to the collector.
const maxPooledHops = 64

// putAnswers gives fa back to answerBufs without the util series it
// shares with a Recording, which the pool must not keep alive.
func putAnswers(fa *FlowAnswers) {
	for i := range fa.Answers {
		if cap(fa.Answers[i].Hops) > maxPooledHops {
			return
		}
		fa.Answers[i].Series = nil
	}
	answerBufs.Put(fa)
}

// evalFlow evaluates every query for one flow into fa, reusing the
// capacity of whatever slices fa already holds (a zero fa gets fresh
// ones).
func evalFlow(rec *core.Recording, queries []core.Query, flow core.FlowKey, fa *FlowAnswers) {
	fa.Flow, fa.Tracked = uint64(flow), rec.HasFlow(flow)
	if cap(fa.Answers) < len(queries) || fa.Answers == nil {
		fa.Answers = make([]QueryAnswer, len(queries))
	}
	fa.Answers = fa.Answers[:len(queries)]
	for i, q := range queries {
		a := &fa.Answers[i]
		*a = QueryAnswer{Query: q.Name(), Kind: q.Agg().String(), Path: a.Path[:0], Hops: a.Hops[:0]}
		switch q := q.(type) {
		case *core.PathQuery:
			a.Path, a.Done = rec.AppendPath(a.Path, q, flow)
			a.Inconsistencies = rec.PathInconsistencies(q, flow)
		case *core.LatencyQuery:
			var ps [2]float64
			hops := rec.Hops(q, flow)
			a.Hops = slices.Grow(a.Hops, hops)
			for hop := 1; hop <= hops; hop++ {
				n := rec.LatencySamples(q, flow, hop)
				if n == 0 {
					continue
				}
				if _, err := rec.AppendLatencyQuantiles(ps[:0], q, flow, hop, 0.5, 0.99); err != nil {
					continue
				}
				a.Hops = append(a.Hops, HopAnswer{Hop: hop, Samples: n, P50: ps[0], P99: ps[1]})
			}
		case *core.UtilQuery:
			a.Series = rec.UtilSeries(q, flow)
		}
	}
}

// Handler serves the collector's observability surface:
//
//	GET /healthz         {"ok":true,"plan_hash":"0x…"}
//	GET /stats           server counters + per-shard sink + per-connection ingest counters
//	GET /snapshot        all flows' query answers from a fresh snapshot
//	GET /snapshot?flow=N one flow, N in decimal (repeatable)
//
// Snapshots run concurrently with ingestion (the sink's snapshot
// contract), so querying a live collector never pauses exporters, and a
// ?flow= query asks only the listed flows' home shards for only those
// flows: its cost follows the flows asked for, not the packets held.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	// Every response carries the member's current cluster epoch in a
	// header (never the body — the body must stay byte-identical to the
	// single-collector encoding), so a query frontend can detect a member
	// that moved to a different partitioning mid-resize instead of
	// silently merging answers computed under two fleet maps.
	stamped := func(h http.HandlerFunc) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set(EpochHeader, strconv.FormatUint(s.Epoch(), 10))
			h(w, r)
		}
	}
	mux.HandleFunc("GET /healthz", stamped(func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, map[string]any{
			"ok":        true,
			"plan_hash": fmt.Sprintf("0x%016x", s.planHash),
		})
	}))
	mux.HandleFunc("GET /stats", stamped(func(w http.ResponseWriter, r *http.Request) {
		// The versioned stats document (see stats.go): server counters,
		// sink totals and per-shard breakdown, per-connection ingest
		// counters, and the QoS/durable sections when configured.
		WriteJSON(w, s.StatsV1())
	}))
	// POST /fleetmap is how an out-of-process resize coordinator advances
	// a member's epoch (the in-process fleet calls SetEpoch directly): the
	// body is the new fleet map — only its epoch matters to the member,
	// which fences future handshakes and nudges stale live sessions.
	mux.HandleFunc("POST /fleetmap", stamped(func(w http.ResponseWriter, r *http.Request) {
		var fm struct {
			Epoch *uint64 `json:"epoch"`
		}
		if err := json.NewDecoder(r.Body).Decode(&fm); err != nil {
			http.Error(w, fmt.Sprintf("bad fleet map body: %v", err), http.StatusBadRequest)
			return
		}
		if fm.Epoch == nil {
			http.Error(w, "fleet map body has no epoch", http.StatusBadRequest)
			return
		}
		s.SetEpoch(*fm.Epoch)
		WriteJSON(w, map[string]any{"ok": true, "epoch": *fm.Epoch})
	}))
	mux.HandleFunc("GET /snapshot", stamped(func(w http.ResponseWriter, r *http.Request) {
		// A draining daemon answers 503 instead of racing its own sink
		// teardown (or hanging a caller on a server that is half gone);
		// the query frontend folds the refusal into its partial-result
		// answer and keeps serving the surviving fleet members.
		if s.isClosing() {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "collector: draining", http.StatusServiceUnavailable)
			return
		}
		q := r.URL.Query() // every call re-parses the string: parse once
		flows, err := ParseFlowFilter(q)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if q.Has("since") || q.Has("until") {
			s.serveWindow(w, q, flows)
			return
		}
		// The snapshot's leases go back to the shards however the
		// request ends, so a query costs ingest only while it is answered.
		snap := s.cfg.Sink.SnapshotFlows(flows)
		defer snap.Close()
		merged, err := snap.Merged()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		if flows == nil {
			WriteSnapshot(w, eachTracked(merged, s.cfg.Queries))
			return
		}
		WriteSnapshot(w, EachFlow(merged, s.cfg.Queries, flows))
	}))
	return mux
}

// ParseFlowFilter reads a /snapshot query's ?flow= list, in request
// order with repeats kept; nil when there is none. A key is decimal, like
// ?since=/?until=: the body's "flow" must name the key the client wrote,
// not 010's octal 8 or 0x10's 16. The error is the 400 body's text, which
// the federated query frontend, parsing the same list before it routes
// the flows to their home members, answers word for word.
func ParseFlowFilter(q url.Values) ([]core.FlowKey, error) {
	var flows []core.FlowKey
	for _, raw := range q["flow"] {
		v, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad flow %q: %v", raw, err)
		}
		flows = append(flows, core.FlowKey(v))
	}
	return flows, nil
}

// EpochHeader carries the answering member's cluster epoch on every
// collector-tier HTTP response. The federated query frontend compares it
// against its fleet map's epoch and reports a mismatched member in the
// response's error list ("epoch_stale") rather than merging answers that
// were computed under a different partitioning.
const EpochHeader = "X-Pint-Epoch"

// PartialHeader marks an answer that covers less than what was asked
// for; the value counts the failed parts. It is the same convention the
// federated query frontend uses for dead fleet members (the two packages
// cannot share the constant — federation imports collector).
const PartialHeader = "X-Pint-Partial"

// parseWindowBound parses one ?since=/?until= value: a non-negative
// integer is taken as a store-clock timestamp (unix nanoseconds under
// the default clock); anything else must parse as RFC 3339 and lie where
// unix nanoseconds are a non-negative int64 — before 1970 UnixNano is
// negative and past 2262 it is undefined, and either would wrap into some
// other instant's uint64.
func parseWindowBound(raw string) (uint64, error) {
	if v, err := strconv.ParseUint(raw, 10, 64); err == nil {
		return v, nil
	}
	t, err := time.Parse(time.RFC3339, raw)
	if err != nil {
		return 0, fmt.Errorf("bad timestamp %q: want unix nanoseconds or RFC 3339", raw)
	}
	first, last := time.Unix(0, 0).UTC(), time.Unix(0, math.MaxInt64).UTC()
	if t.Before(first) || t.After(last) {
		return 0, fmt.Errorf("bad timestamp %q: RFC 3339 values must lie in %s..%s",
			raw, first.Format(time.RFC3339), last.Format(time.RFC3339))
	}
	return uint64(t.UnixNano()), nil
}

// serveWindow answers /snapshot?since=S&until=U from the segment log:
// every shard's pending slab is recorded first, then the window replays
// from the file. A packet's log record is written in the shard-lock hold
// that records it (pipeline.Persister), and a packet whose ingest returned
// is recorded or in its shard's slab, so after Sink.Barrier the file holds
// every packet ingested before the query, unless the store failed an
// append (Store.Err, a 500) — the log is the complete record, nothing is
// read from the live shards and so nothing is counted twice. No exporter
// is paused for a read: a window query takes no lock outside the sink
// and syncs nothing, and the barrier holds each shard's lock only while
// its slab records.
// A window reaching at or below the retention horizon answers partially
// (PartialHeader: 1) if it extends past the horizon, 400 if not.
func (s *Server) serveWindow(w http.ResponseWriter, q url.Values, flows []core.FlowKey) {
	d := s.cfg.Durable
	if d == nil {
		http.Error(w, "collector: no durable store (-data-dir) — historical windows unavailable", http.StatusBadRequest)
		return
	}
	since, until := uint64(0), ^uint64(0)
	var err error
	if raw := q.Get("since"); raw != "" {
		if since, err = parseWindowBound(raw); err != nil {
			http.Error(w, "since: "+err.Error(), http.StatusBadRequest)
			return
		}
	}
	if raw := q.Get("until"); raw != "" {
		if until, err = parseWindowBound(raw); err != nil {
			http.Error(w, "until: "+err.Error(), http.StatusBadRequest)
			return
		}
	}
	if since > until {
		http.Error(w, fmt.Sprintf("inverted window: since %d > until %d", since, until), http.StatusBadRequest)
		return
	}
	horizon := d.Store.HorizonTS()
	if horizon > 0 && until <= horizon {
		http.Error(w, fmt.Sprintf("window ends at %d, before the retention horizon %d — those segments are deleted",
			until, horizon), http.StatusBadRequest)
		return
	}
	s.cfg.Sink.Barrier()
	if err := d.Store.Err(); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	rec, flows, err := d.windowRecording(since, until, flows)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if horizon > 0 && since <= horizon {
		// The window's head predates retention: answer what survives and
		// say so, the same contract a degraded federated fleet serves.
		w.Header().Set(PartialHeader, "1")
	}
	WriteSnapshot(w, EachFlow(rec, d.queries, flows))
}

// WithProfiling layers net/http/pprof's endpoints under /debug/pprof/ on
// top of h; every other path falls through to h. It is opt-in (pintd
// -pprof) and off by default: the collector's HTTP port is an operational
// surface, and the profiling handlers expose memory contents and burn CPU
// on demand. With it mounted, `go tool pprof http://host/debug/pprof/profile`
// profiles a live collector under real exporter load — how the hot-path
// numbers in README.md are gathered.
func WithProfiling(h http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/", h)
	return mux
}

// MaxRequestBody bounds request bodies on the collector's (and the query
// frontend's) HTTP servers. Every endpoint is a GET; a megabyte is
// already generous for a body nobody reads.
const MaxRequestBody = 1 << 20

// HTTPServer wraps h (defaulting to s.Handler()) in an http.Server with
// the production guards a long-lived daemon needs: a header-read timeout
// so an idle half-open connect cannot pin a goroutine forever, an idle
// timeout to shed silent keep-alives, a header cap, and a request-body
// bound. cmd/pintd, cmd/pintgate, and the federation testbench all serve
// through it so the hardening is exercised everywhere.
func (s *Server) HTTPServer(h http.Handler) *http.Server {
	if h == nil {
		h = s.Handler()
	}
	return HardenedHTTPServer(h)
}

// HardenedHTTPServer applies the collector tier's HTTP guards to any
// handler (the query frontend shares them without owning a Server).
func HardenedHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           http.MaxBytesHandler(h, MaxRequestBody),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
		MaxHeaderBytes:    1 << 16,
	}
}

// WriteSnapshot writes the /snapshot document {"flows": [...]} one flow
// at a time: each FlowAnswers the sequence yields is appended to a pooled
// buffer (appendFlowJSON) and handed to w before the next is evaluated, so
// neither the answers nor the response ever exist whole in memory. The
// bytes are exactly WriteJSON(w, map[string]any{"flows": list}) for the
// non-nil list of what the sequence yields — which the conformance goldens
// and the benchmark's oracle compare against.
func WriteSnapshot(w http.ResponseWriter, flows iter.Seq[*FlowAnswers]) {
	sw := NewSnapshotWriter(w, nil)
	bp := elemBufs.Get().(*[]byte)
	defer func() {
		// A util series has no length bound: a buffer one long answer grew
		// is left to the collector rather than pinned by the pool.
		if cap(*bp) <= maxPooledElem {
			elemBufs.Put(bp)
		}
	}()
	for fa := range flows {
		var err error
		if *bp, err = appendFlowJSON((*bp)[:0], fa); err != nil {
			return // a non-finite answer: leave the body cut short
		}
		if err := sw.Element(*bp); err != nil {
			return // the client went away
		}
	}
	sw.Close()
}

// elemBufs holds the buffers WriteSnapshot appends elements into, one per
// call in flight.
var elemBufs = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledElem is the largest buffer elemBufs keeps.
const maxPooledElem = 64 << 10

// snapshotElemIndent is the indentation of a flows[] element, two levels
// deep in the document.
const snapshotElemIndent = "    "

// SnapshotWriter frames the /snapshot document around flows[] elements
// handed to it one at a time as encoded JSON. It is the one definition of
// that framing: a collector encodes its answers through it (WriteSnapshot)
// and the federated query frontend splices its members' elements through
// it unparsed, which is why a healthy fleet's body is byte-identical to a
// single collector's.
type SnapshotWriter struct {
	w    io.Writer
	head []byte // everything before the list's opening bracket, until written
	n    int
}

// NewSnapshotWriter starts a document on w. A non-nil errs — any value
// that marshals to a JSON list — makes it the degraded-fleet document
// {"errors": errs, "flows": [...]}. Nothing is written before the first
// Element or Close, so the caller may still set headers.
func NewSnapshotWriter(w http.ResponseWriter, errs any) *SnapshotWriter {
	w.Header().Set("Content-Type", "application/json")
	head := []byte("{\n")
	if errs != nil {
		// The "errors" member as WriteJSON renders it one level deep.
		list, err := json.MarshalIndent(errs, "  ", "  ")
		if err != nil {
			list = []byte("null")
		}
		head = append(append(append(head, "  \"errors\": "...), list...), ",\n"...)
	}
	return &SnapshotWriter{w: w, head: append(head, "  \"flows\": "...)}
}

// snapshotElemSep separates two flows[] elements.
var snapshotElemSep = []byte(",\n" + snapshotElemIndent)

// Element writes one flows[] element: its JSON from the opening brace to
// the closing one, inner lines already indented for the element's depth.
func (sw *SnapshotWriter) Element(elem []byte) error {
	sep := snapshotElemSep
	if sw.n == 0 {
		sep = append(sw.head, "[\n"+snapshotElemIndent...)
	}
	sw.n++
	if _, err := sw.w.Write(sep); err != nil {
		return err
	}
	_, err := sw.w.Write(elem)
	return err
}

// Close ends the document; a list that got no element is written as [].
func (sw *SnapshotWriter) Close() error {
	tail := []byte("\n  ]\n}\n")
	if sw.n == 0 {
		tail = append(sw.head, "[]\n}\n"...)
	}
	_, err := sw.w.Write(tail)
	return err
}

// WriteJSON writes v as indented JSON: /healthz, /stats and /fleetmap,
// and the documents the query frontend re-emits (a merged /stats, a fleet
// with no member to splice from), so those stay byte-identical to a single
// daemon's. /snapshot elements are appended by appendFlowJSON, which
// writes the same bytes this encoder would. The encoder and the buffer it
// indents into are pooled (jsonEncoders), as a new encoder regrows its
// indent buffer at every call: a /stats poll through the handler
// allocates 328 B, not 1,344 (TestStatsByteBudget). Nothing is written
// for a value that does not encode.
func WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	je := jsonEncoders.Get().(*jsonEncoder)
	if je.enc.Encode(v) == nil {
		w.Write(je.buf.Bytes())
	}
	if je.buf.Cap() <= maxPooledJSON {
		je.buf.Reset()
		jsonEncoders.Put(je)
	}
}

// jsonEncoder is an indenting encoder into a buffer of its own.
type jsonEncoder struct {
	buf bytes.Buffer
	enc *json.Encoder
}

// jsonEncoders pools WriteJSON's encoders; one whose buffer grew past
// maxPooledJSON, for a re-emitted /snapshot document, is let go.
var jsonEncoders = sync.Pool{New: func() any {
	je := &jsonEncoder{}
	je.enc = json.NewEncoder(&je.buf)
	je.enc.SetIndent("", "  ")
	return je
}}

const maxPooledJSON = 64 << 10

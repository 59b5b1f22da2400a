package federation

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/collector"
	"repro/internal/core"
	"repro/internal/pipeline"
)

// chunked hands out its bytes at most n at a time, the way a socket does.
type chunked struct {
	data []byte
	n    int
}

func (c *chunked) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := copy(p[:min(len(p), c.n)], c.data)
	c.data = c.data[n:]
	return n, nil
}

// streamed is what a flowStream made of one body.
type streamed struct {
	elems   [][]byte
	flows   []uint64
	tracked []bool
}

// drain reads body through a flowStream fed chunk bytes at a time.
func drain(body []byte, chunk int) (streamed, error) {
	var out streamed
	s := &flowStream{body: io.NopCloser(&chunked{data: body, n: chunk})}
	for {
		if err := s.next(); err != nil {
			return out, err
		}
		if !s.ok {
			return out, nil
		}
		out.elems = append(out.elems, bytes.Clone(s.cur.raw))
		out.flows = append(out.flows, s.cur.flow)
		out.tracked = append(out.tracked, s.cur.tracked)
	}
}

// memberBody is a real collector's full /snapshot body: the testbench
// plan's answers for a few recorded flows.
func memberBody(tb testing.TB) []byte {
	bench, err := collector.NewTestbench(11, 5)
	if err != nil {
		tb.Fatal(err)
	}
	rec, err := pipeline.NewRecording(bench.Engine, pipeline.Config{Base: bench.Base})
	if err != nil {
		tb.Fatal(err)
	}
	var pkts []core.PacketDigest
	vals := make([]core.HopValues, 200)
	for f := 0; f < 6; f++ {
		pkts = bench.FlowBatch(1, f, 40+30*f, pkts, vals)
		if err := rec.RecordBatch(pkts); err != nil {
			tb.Fatal(err)
		}
	}
	w := httptest.NewRecorder()
	collector.WriteSnapshot(w, collector.EachFlow(rec, bench.Queries(), rec.Flows()))
	return w.Body.Bytes()
}

// TestFlowStreamSplitsWhereTheEncoderDid: a real member body, delivered
// in reads of every awkward size, comes apart into exactly the elements
// encoding/json sees, and SnapshotWriter puts them back together into the
// body they came from — the round trip the frontend's byte identity rests
// on.
func TestFlowStreamSplitsWhereTheEncoderDid(t *testing.T) {
	big := cannedFlow(77, true, "big")
	big.Answers = append(big.Answers, collector.QueryAnswer{Query: "util", Kind: "per-packet", Series: make([]float64, 20000)})
	for name, body := range map[string][]byte{
		"collector": memberBody(t),
		"empty":     cannedBody(),
		"null":      []byte("{\n  \"flows\": null\n}\n"),
		"one":       cannedBody(cannedFlow(9, false, "")),
		"one huge":  cannedBody(cannedFlow(3, true, "a"), big, cannedFlow(78, true, "z")),
		"compact":   []byte(`{"flows":[{"flow":1,"answers":[]},{"answers":[{"query":"}]{\"\\"}],"tracked":true,"flow":2}]}`),
	} {
		var doc struct {
			Flows []json.RawMessage `json:"flows"`
		}
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, chunk := range []int{1, 2, 3, 7, 61, 4096, len(body) + 1} {
			got, err := drain(body, chunk)
			if err != nil {
				t.Fatalf("%s, %d-byte reads: %v", name, chunk, err)
			}
			if len(got.elems) != len(doc.Flows) {
				t.Fatalf("%s, %d-byte reads: %d elements, encoding/json finds %d", name, chunk, len(got.elems), len(doc.Flows))
			}
			w := httptest.NewRecorder()
			sw := collector.NewSnapshotWriter(w, nil)
			for i, elem := range got.elems {
				if !bytes.Equal(elem, doc.Flows[i]) {
					t.Fatalf("%s, %d-byte reads: element %d split differently from encoding/json:\n got: %s\nwant: %s", name, chunk, i, elem, doc.Flows[i])
				}
				var fa collector.FlowAnswers
				if err := json.Unmarshal(elem, &fa); err != nil || fa.Flow != got.flows[i] || fa.Tracked != got.tracked[i] {
					t.Fatalf("%s: element %d read as flow %d tracked %v, decodes as %+v (%v)", name, i, got.flows[i], got.tracked[i], fa, err)
				}
				sw.Element(elem)
			}
			sw.Close()
			if name != "compact" && name != "null" && !bytes.Equal(w.Body.Bytes(), body) {
				t.Fatalf("%s, %d-byte reads: elements do not reassemble into the body", name, chunk)
			}
		}
	}
}

// TestFlowStreamRejects: bodies a collector never sends — each of which a
// looser reader would split wrongly, mis-key or pass on broken.
func TestFlowStreamRejects(t *testing.T) {
	for name, body := range map[string]string{
		"not an object":      `[{"flow":1}]`,
		"other key":          `{"errors":[],"flows":[]}`,
		"second key":         `{"flows":[],"more":1}`,
		"element not object": `{"flows":[1]}`,
		"no flow":            `{"flows":[{"tracked":true}]}`,
		"flow twice":         `{"flows":[{"flow":1,"flow":2}]}`,
		"tracked twice":      `{"flows":[{"flow":1,"tracked":true,"tracked":false}]}`,
		"escaped key":        `{"flows":[{"fl\u006fw":1,"flow":2}]}`,
		"negative flow":      `{"flows":[{"flow":-1}]}`,
		"fractional flow":    `{"flows":[{"flow":1.0}]}`,
		"string flow":        `{"flows":[{"flow":"1"}]}`,
		"flow overflows":     `{"flows":[{"flow":18446744073709551616}]}`,
		"tracked not bool":   `{"flows":[{"flow":1,"tracked":1}]}`,
		"leading zero":       `{"flows":[{"flow":1,"x":01}]}`,
		"bare word":          `{"flows":[{"flow":1,"x":nul}]}`,
		"bad escape":         `{"flows":[{"flow":1,"x":"\q"}]}`,
		"short \\u":          `{"flows":[{"flow":1,"x":"\u12"}]}`,
		"raw newline":        "{\"flows\":[{\"flow\":1,\"x\":\"a\nb\"}]}",
		"trailing comma":     `{"flows":[{"flow":1},]}`,
		"missing comma":      `{"flows":[{"flow":1}{"flow":2}]}`,
		"mismatched close":   `{"flows":[{"flow":1,"x":[1}]}]}`,
		"too deep":           `{"flows":[{"flow":1,"x":` + strings.Repeat("[", 10001) + strings.Repeat("]", 10001) + `}]}`,
		"after the document": `{"flows":[]} {}`,
		"cut in a string":    `{"flows":[{"flow":1,"x":"abc`,
		"cut in a number":    `{"flows":[{"flow":1`,
		"cut before close":   `{"flows":[{"flow":1}]`,
		"empty":              ``,
	} {
		for _, chunk := range []int{1, 5, 1 << 20} {
			if got, err := drain([]byte(body), chunk); err == nil {
				t.Errorf("%s (%d-byte reads): accepted, %d elements", name, chunk, len(got.elems))
			}
		}
	}
	if _, err := drain(cannedBody(cannedFlow(1, true, "m"), cannedFlow(2, true, "m")), 64); err != nil {
		t.Fatal(err)
	}
}

// FuzzSnapshotElements: the element reader parses bytes from another
// process. Whatever they are, it must reach the same verdict however the
// bytes are cut into reads, and when it accepts — every element handed on
// — the body is valid JSON, the elements are exactly encoding/json's
// elements of its "flows" list, byte for byte (never mis-split), and each
// element's flow and tracked are what encoding/json decodes from it.
func FuzzSnapshotElements(f *testing.F) {
	f.Add(memberBody(f), uint16(4096))
	f.Add(cannedBody(), uint16(1))
	f.Add(cannedBody(cannedFlow(3, true, "a"), cannedFlow(1<<63, false, "")), uint16(7))
	f.Add([]byte("{\n  \"flows\": null\n}\n"), uint16(3))
	f.Add([]byte(`{"flows":[{"answers":[{"query":"}]{\"\\","kind":"\u00e9\ud83d\ude00"}],"tracked":true,"flow":2}]}`), uint16(2))
	f.Add([]byte(`{"flows":[{"flow":1,"x":[[[[{"y":[[{"z":{}}]]}]]]],"n":-0.5e+3,"t":true,"f":false,"u":null}]}`), uint16(5))
	f.Add([]byte(`{"flows":[{"flow":1,"flow":2}]}`), uint16(9))
	f.Add([]byte(`{"flows":[{"tracked":true,"answers":[]}]}`), uint16(9))
	f.Add([]byte(`{"flows":[{"fl\u006fw":1}]}`), uint16(9))
	f.Add([]byte(`{"flows":[{"flow":1},{"flow":1e3}]}`), uint16(4))
	f.Add([]byte(`{"flows":[{"flow":1,"s":"a\"},{\"flow\":2"}]}`), uint16(1))
	f.Fuzz(func(t *testing.T, body []byte, chunk uint16) {
		got, err := drain(body, int(chunk)+1)
		whole, wholeErr := drain(body, len(body)+1)
		if (err == nil) != (wholeErr == nil) || len(got.elems) != len(whole.elems) {
			t.Fatalf("%d-byte reads: %d elements, %v; one read: %d elements, %v", int(chunk)+1, len(got.elems), err, len(whole.elems), wholeErr)
		}
		for i := range got.elems {
			if !bytes.Equal(got.elems[i], whole.elems[i]) {
				t.Fatalf("element %d depends on how the body was read:\n%q\n%q", i, got.elems[i], whole.elems[i])
			}
		}
		if err != nil {
			return
		}
		var doc struct {
			Flows []json.RawMessage `json:"flows"`
		}
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatalf("accepted a body encoding/json rejects: %v", err)
		}
		if len(doc.Flows) != len(got.elems) {
			t.Fatalf("%d elements, encoding/json finds %d", len(got.elems), len(doc.Flows))
		}
		for i, elem := range got.elems {
			if !bytes.Equal(elem, doc.Flows[i]) {
				t.Fatalf("element %d mis-split:\n got: %q\nwant: %q", i, elem, doc.Flows[i])
			}
			var members map[string]json.RawMessage
			if err := json.Unmarshal(elem, &members); err != nil {
				t.Fatalf("element %d: %v", i, err)
			}
			flow, err := strconv.ParseUint(string(members["flow"]), 10, 64)
			if err != nil || flow != got.flows[i] {
				t.Fatalf("element %d: read flow %d, its \"flow\" member is %s", i, got.flows[i], members["flow"])
			}
			if tracked := string(members["tracked"]) == "true"; tracked != got.tracked[i] {
				t.Fatalf("element %d: read tracked %v, its \"tracked\" member is %s", i, got.tracked[i], members["tracked"])
			}
		}
	})
}

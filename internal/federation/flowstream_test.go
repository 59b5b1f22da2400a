package federation

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
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

// snapshotShape is encoding/json's account of whether a body it accepts
// is a snapshot document the gate may splice: an object whose one member
// is "flows", spelled without escapes, holding null or a list of objects;
// each of those objects names its own members without escapes, holds
// "flow" once, a 64-bit unsigned integer, and "tracked" at most once, a
// boolean. It returns the elements, their flows and tracked marks.
func snapshotShape(body []byte) (streamed, error) {
	var out streamed
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(body, &doc); err != nil {
		return out, err
	}
	if keys := rawKeys(body); len(keys) != 1 || keys[0] != `"flows"` {
		return out, fmt.Errorf("document members %q", keys)
	}
	if string(doc["flows"]) == "null" {
		return out, nil
	}
	var elems []json.RawMessage
	if err := json.Unmarshal(doc["flows"], &elems); err != nil {
		return out, err
	}
	for i, elem := range elems {
		var members map[string]json.RawMessage
		if err := json.Unmarshal(elem, &members); err != nil {
			return out, fmt.Errorf("element %d: %v", i, err)
		}
		var flows, tracks int
		for _, k := range rawKeys(elem) {
			switch {
			case strings.Contains(k, `\`):
				return out, fmt.Errorf("element %d: escaped key %s", i, k)
			case k == `"flow"`:
				flows++
			case k == `"tracked"`:
				tracks++
			}
		}
		flow, err := strconv.ParseUint(string(members["flow"]), 10, 64)
		if flows != 1 || tracks > 1 || err != nil {
			return out, fmt.Errorf("element %d: flow %s ×%d, tracked ×%d", i, members["flow"], flows, tracks)
		}
		tracked, ok := map[string]bool{"": false, "true": true, "false": false}[string(members["tracked"])]
		if !ok {
			return out, fmt.Errorf("element %d: tracked %s", i, members["tracked"])
		}
		out.elems = append(out.elems, elem)
		out.flows = append(out.flows, flow)
		out.tracked = append(out.tracked, tracked)
	}
	return out, nil
}

// rawKeys lists the member names of the JSON object v, as spelled: each
// key's bytes between the offsets a json.Decoder reports around it.
func rawKeys(v []byte) []string {
	dec := json.NewDecoder(bytes.NewReader(v))
	dec.Token() // {
	var keys []string
	for dec.More() {
		from := dec.InputOffset()
		dec.Token()
		keys = append(keys, string(bytes.TrimLeft(v[from:dec.InputOffset()], " \t\r\n,")))
		var skip json.RawMessage
		dec.Decode(&skip)
	}
	return keys
}

// FuzzSnapshotElements: the element scanner parses bytes from another
// process. Whatever they are, it must reach the same verdict however the
// bytes are cut into reads, and that verdict is encoding/json's both ways:
// it accepts exactly the bodies encoding/json accepts that have a snapshot
// document's shape (snapshotShape), and then its elements are exactly
// encoding/json's elements of the "flows" list, byte for byte (never
// mis-split), each with the flow and tracked encoding/json decodes; and
// it calls a body's grammar wrong only when encoding/json refuses it.
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
	for _, bad := range []string{`"\q"`, `"\u12g4"`, `"\u12"`, "01", "-", "-x", "1.", "1.e1", "1e", "1e+", "1E-x", "tru", "nulL", "\"a\x01b\"", "\"a\tb\"", "\"\x7f\xff\""} {
		f.Add([]byte(`{"flows":[{"flow":1,"x":`+bad+`}]}`), uint16(3))
	}
	for _, depth := range []int{maxDepth - 3, maxDepth - 2} { // the limit, and one past it
		f.Add([]byte(`{"flows":[{"flow":1,"x":`+strings.Repeat("[", depth)+strings.Repeat("]", depth)+`}]}`), uint16(64))
	}
	f.Add([]byte(`{"flows":[]} x`), uint16(1))
	f.Add([]byte("{\"flows\":[]}\n\t \r"), uint16(2))
	f.Add([]byte(`{"flows":[{"flow":1}]}{}`), uint16(5))
	f.Add([]byte(`{"flows":[{"flow":1}],"flows":[]}`), uint16(5))
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
		valid := json.Valid(body)
		var syntax *syntaxError
		if (errors.As(err, &syntax) || errors.Is(err, io.ErrUnexpectedEOF)) && valid {
			t.Fatalf("called a body encoding/json accepts malformed: %v", err)
		}
		if !valid {
			if err == nil {
				t.Fatalf("accepted a body encoding/json refuses")
			}
			return
		}
		want, shapeErr := snapshotShape(body)
		if (err == nil) != (shapeErr == nil) {
			t.Fatalf("scanner: %v; encoding/json's shape check: %v", err, shapeErr)
		}
		if err != nil {
			return
		}
		if len(want.elems) != len(got.elems) {
			t.Fatalf("%d elements, encoding/json finds %d", len(got.elems), len(want.elems))
		}
		for i, elem := range got.elems {
			if !bytes.Equal(elem, want.elems[i]) {
				t.Fatalf("element %d mis-split:\n got: %q\nwant: %q", i, elem, want.elems[i])
			}
			if got.flows[i] != want.flows[i] || got.tracked[i] != want.tracked[i] {
				t.Fatalf("element %d: read flow %d tracked %v, encoding/json decodes %d, %v", i, got.flows[i], got.tracked[i], want.flows[i], want.tracked[i])
			}
		}
	})
}

package collector

import (
	"encoding/json"
	"errors"
	"math"
	"strconv"
	"unicode/utf8"
)

// This file writes one /snapshot flows[] element without reflection. The
// bytes are exactly json.MarshalIndent(fa, snapshotElemIndent, "  ") —
// FuzzSnapshotElement and TestWriteSnapshotMatchesWholeDocumentEncoder
// hold it to that — so the body a daemon serves, the body the gate
// splices and the body the benchmark's oracle renders stay one encoding.

// errNonFinite refuses a NaN or infinite answer, which JSON cannot spell
// (encoding/json refuses it too).
var errNonFinite = errors.New("collector: answer holds a non-finite float")

// elemNewlines is a newline followed by the element's indentation at its
// deepest: nl(depth) slices it to one level's worth.
const elemNewlines = "\n" + snapshotElemIndent + "          "

// nl appends a line break indented for the given depth inside an element
// (the element's own braces are depth 0).
func nl(dst []byte, depth int) []byte {
	return append(dst, elemNewlines[:1+len(snapshotElemIndent)+2*depth]...)
}

// appendFlowJSON appends fa as one indented flows[] element, from its
// opening brace to its closing one, and refuses an answer holding a
// non-finite float. Members follow the struct order and its omitempty
// tags; a nil answer list is null and an empty one [].
func appendFlowJSON(dst []byte, fa *FlowAnswers) ([]byte, error) {
	dst = append(nl(append(dst, '{'), 1), `"flow": `...)
	dst = strconv.AppendUint(dst, fa.Flow, 10)
	if fa.Tracked {
		dst = append(nl(append(dst, ','), 1), `"tracked": true`...)
	}
	dst = append(nl(append(dst, ','), 1), `"answers": `...)
	switch {
	case fa.Answers == nil:
		dst = append(dst, "null"...)
	case len(fa.Answers) == 0:
		dst = append(dst, "[]"...)
	default:
		dst = append(dst, '[')
		for i := range fa.Answers {
			if i > 0 {
				dst = append(dst, ',')
			}
			var err error
			if dst, err = appendAnswerJSON(nl(dst, 2), &fa.Answers[i]); err != nil {
				return dst, err
			}
		}
		dst = append(nl(dst, 1), ']')
	}
	return append(nl(dst, 0), '}'), nil
}

// appendAnswerJSON appends one answers[] element, which sits at depth 2.
func appendAnswerJSON(dst []byte, a *QueryAnswer) ([]byte, error) {
	dst = append(nl(append(dst, '{'), 3), `"query": `...)
	dst = appendJSONString(dst, a.Query)
	dst = append(nl(append(dst, ','), 3), `"kind": `...)
	dst = appendJSONString(dst, a.Kind)
	if len(a.Path) > 0 {
		dst = append(nl(append(dst, ','), 3), `"path": [`...)
		for i, id := range a.Path {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendUint(nl(dst, 4), id, 10)
		}
		dst = append(nl(dst, 3), ']')
	}
	if a.Done {
		dst = append(nl(append(dst, ','), 3), `"done": true`...)
	}
	if a.Inconsistencies != 0 {
		dst = append(nl(append(dst, ','), 3), `"inconsistencies": `...)
		dst = strconv.AppendInt(dst, int64(a.Inconsistencies), 10)
	}
	var err error
	if len(a.Hops) > 0 {
		dst = append(nl(append(dst, ','), 3), `"hops": [`...)
		for i := range a.Hops {
			h := &a.Hops[i]
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(nl(append(nl(dst, 4), '{'), 5), `"hop": `...)
			dst = strconv.AppendInt(dst, int64(h.Hop), 10)
			dst = append(nl(append(dst, ','), 5), `"samples": `...)
			dst = strconv.AppendInt(dst, int64(h.Samples), 10)
			dst = append(nl(append(dst, ','), 5), `"p50": `...)
			if dst, err = appendJSONFloat(dst, h.P50); err != nil {
				return dst, err
			}
			dst = append(nl(append(dst, ','), 5), `"p99": `...)
			if dst, err = appendJSONFloat(dst, h.P99); err != nil {
				return dst, err
			}
			dst = append(nl(dst, 4), '}')
		}
		dst = append(nl(dst, 3), ']')
	}
	if len(a.Series) > 0 {
		dst = append(nl(append(dst, ','), 3), `"series": [`...)
		for i, v := range a.Series {
			if i > 0 {
				dst = append(dst, ',')
			}
			if dst, err = appendJSONFloat(nl(dst, 4), v); err != nil {
				return dst, err
			}
		}
		dst = append(nl(dst, 3), ']')
	}
	return append(nl(dst, 2), '}'), nil
}

// appendJSONFloat appends f as encoding/json spells a float64: the
// shortest decimal that round-trips, in exponent form only below 1e-6 or
// from 1e21 in magnitude, with a one-digit negative exponent unpadded.
func appendJSONFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, errNonFinite
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1] // e-07 → e-7
		dst = dst[:n-1]
	}
	return dst, nil
}

// appendJSONString appends s quoted. Query and kind names are plain ASCII
// in practice and go through verbatim; anything encoding/json would
// escape — quotes, backslashes, control bytes, <>& (its HTML escaping),
// non-ASCII with U+2028/U+2029 and invalid UTF-8 among it — is left to
// encoding/json itself.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(dst, q...)
		}
	}
	return append(append(append(dst, '"'), s...), '"')
}

package federation

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
)

// flowStream reads one member's /snapshot body — {"flows": [element, …]} —
// one element at a time, so the frontend can splice elements from member
// to client without ever holding a member's answer, decoded or not. A
// streaming json.Decoder does the reading: it buffers no more than the
// element it is on, finds where each element ends, and checks the grammar
// of every byte it passes — the bytes come from another process. After a
// successful next, ok reports whether an element is pending in cur.
type flowStream struct {
	body io.ReadCloser
	dec  *json.Decoder // nil until the document's head is read
	seen int           // elements read so far
	done bool
	ok   bool
	cur  element
}

// element is one flows[] element: its JSON exactly as the member sent it,
// and the two members the merge needs decoded.
type element struct {
	raw     []byte
	flow    uint64
	tracked bool
}

// next advances to the member's next element, or to the end of its
// document — which must then be complete, with nothing after it. The first
// call reads the document's head as well.
func (s *flowStream) next() error {
	err := s.advance()
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return fmt.Errorf("flows[%d]: %w", s.seen, err)
	}
	return nil
}

func (s *flowStream) advance() error {
	s.ok = false
	if s.done {
		return nil
	}
	if s.dec == nil {
		s.dec = json.NewDecoder(s.body)
		if err := s.expect(json.Delim('{'), "flows"); err != nil {
			return err
		}
		switch tok, err := s.dec.Token(); {
		case err != nil:
			return err
		case tok == nil: // a nil list: no elements
			return s.finish()
		case tok != json.Delim('['):
			return fmt.Errorf(`"flows" holds %v, not a list`, tok)
		}
	}
	if !s.dec.More() {
		if err := s.expect(json.Delim(']')); err != nil {
			return err
		}
		return s.finish()
	}
	if err := s.dec.Decode(&s.cur); err != nil {
		return err
	}
	s.seen++
	s.ok = true
	return nil
}

// expect reads the next tokens of the document, which must be want.
func (s *flowStream) expect(want ...json.Token) error {
	for _, w := range want {
		tok, err := s.dec.Token()
		if err != nil {
			return err
		}
		if tok != w {
			return fmt.Errorf("%v where %v belongs", tok, w)
		}
	}
	return nil
}

// finish reads what follows the list: the closing brace, then nothing.
func (s *flowStream) finish() error {
	if err := s.expect(json.Delim('}')); err != nil {
		return err
	}
	if tok, err := s.dec.Token(); err != io.EOF {
		if err == nil {
			err = fmt.Errorf("%v after the document", tok)
		}
		return err
	}
	s.done = true
	return nil
}

// UnmarshalJSON takes one flows[] element from the decoder: it keeps the
// bytes and decodes the element's "flow" and "tracked" members, refusing an
// element that names either twice, leaves "flow" out, spells a key with an
// escape (which could spell either), or gives either the wrong type. The
// decoder has already scanned b, so it is one valid JSON value.
func (e *element) UnmarshalJSON(b []byte) error {
	if b[0] != '{' {
		return fmt.Errorf("element %s is not an object", b)
	}
	e.raw = append(e.raw[:0], b...)
	e.flow, e.tracked = 0, false
	var hasFlow, hasTracked bool
	for i := skipSpace(b, 1); b[i] != '}'; {
		keyEnd := valueEnd(b, i)
		key := b[i+1 : keyEnd-1]
		i = skipSpace(b, skipSpace(b, keyEnd)+1) // past the colon
		end := valueEnd(b, i)
		val := b[i:end]
		switch {
		case bytes.IndexByte(key, '\\') >= 0:
			return fmt.Errorf("escaped element key %q", key)
		case string(key) == "flow":
			if hasFlow {
				return errors.New(`element repeats its "flow" key`)
			}
			hasFlow = true
			for _, c := range val {
				d := uint64(c - '0')
				if c < '0' || c > '9' || e.flow > (^uint64(0)-d)/10 {
					return fmt.Errorf("flow key %s is not a 64-bit unsigned integer", val)
				}
				e.flow = e.flow*10 + d
			}
		case string(key) == "tracked":
			if hasTracked {
				return errors.New(`element repeats its "tracked" key`)
			}
			hasTracked = true
			if e.tracked = string(val) == "true"; !e.tracked && string(val) != "false" {
				return fmt.Errorf("tracked %s is not a boolean", val)
			}
		}
		if i = skipSpace(b, end); b[i] == ',' {
			i = skipSpace(b, i+1)
		}
	}
	if !hasFlow {
		return errors.New(`element has no "flow" key`)
	}
	return nil
}

// valueEnd returns the end of the JSON value starting at b[i], for a b
// known to be valid JSON: strings and brackets are then all there is to
// follow, and a number or literal runs to the next delimiter.
func valueEnd(b []byte, i int) int {
	for depth := 0; ; i++ {
		switch b[i] {
		case '"':
			for i++; b[i] != '"'; i++ {
				if b[i] == '\\' {
					i++
				}
			}
		case '{', '[':
			depth++
			continue
		case '}', ']':
			depth--
		default:
			if depth > 0 {
				continue
			}
			for i < len(b) && strings.IndexByte(",}] \t\r\n", b[i]) < 0 {
				i++
			}
			return i
		}
		if depth == 0 {
			return i + 1
		}
	}
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
		i++
	}
	return i
}

package federation

import (
	"errors"
	"fmt"
	"io"
	"strconv"
	"sync"
)

// flowStream reads one member's /snapshot body — {"flows": [element, …]} —
// one element at a time, so the frontend can splice elements from member
// to client without ever holding a member's answer, decoded or not. A
// scanner does the reading in one pass over a reused buffer: it finds where
// each element ends, checks the grammar of every byte it passes exactly as
// encoding/json does — the bytes come from another process — and picks out
// the element's "flow" and "tracked" on the way. After a successful next, ok
// reports whether an element is pending in cur; cur.raw points into the
// stream's buffer and holds until the next call to next or close.
type flowStream struct {
	body   io.ReadCloser
	pooled *[]byte // where buf came from, nil until the first read
	buf    []byte  // bytes read from body; buf[off:] are not yet scanned
	off    int
	eof    bool   // body has ended: buf is all there is
	at     place  // where in the document off is
	stack  []byte // the open brackets of the value being scanned
	seen   int    // elements read so far
	ok     bool
	cur    element
}

// element is one flows[] element: its JSON exactly as the member sent it,
// and the two members the merge needs decoded.
type element struct {
	raw     []byte
	flow    uint64
	tracked bool
}

// place is where in the document a flowStream stands.
type place uint8

const (
	atHead  place = iota // before the document
	atFirst              // just inside the list
	atNext               // after an element
	atClose              // after the list
	atTail               // after the document
	atDone               // at the body's end
)

// maxDepth is encoding/json's nesting limit: the document's own object
// and list count, so an element is at depth 3.
const maxDepth = 10000

// errShort reports that the bytes buffered end inside what was being
// scanned: more must be read and the step scanned again.
var errShort = errors.New("more bytes needed")

// syntaxError is a body encoding/json would refuse as well; the other
// errors next returns are valid JSON that is not a snapshot document.
type syntaxError struct{ msg string }

func (e *syntaxError) Error() string { return e.msg }

func badChar(c byte, context string) error {
	return &syntaxError{"invalid character " + strconv.QuoteRune(rune(c)) + " " + context}
}

// streamBufs holds the buffers of closed streams, so a warm gate reads
// member bodies without allocating.
var streamBufs = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledBuf is the largest stream buffer streamBufs keeps, and
// minRead the least room a read is given.
const (
	maxPooledBuf = 64 << 10
	minRead      = 4 << 10
)

// close closes the body and gives the buffer back; cur is gone with it.
func (s *flowStream) close() error {
	if s.pooled != nil && cap(s.buf) <= maxPooledBuf {
		*s.pooled = s.buf[:0]
		streamBufs.Put(s.pooled)
	}
	s.pooled, s.buf, s.cur.raw = nil, nil, nil
	return s.body.Close()
}

// next advances to the member's next element, or to the end of its
// document — which must then be complete, with nothing after it. The first
// call reads the document's head as well.
func (s *flowStream) next() error {
	s.ok = false
	for {
		err := s.step()
		if err == errShort {
			err = s.fill()
		}
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return fmt.Errorf("flows[%d]: %w", s.seen, err)
		}
		if s.ok || s.at == atDone {
			return nil
		}
	}
}

// fill reads more of the body after buf[off:], and at least as many bytes
// as are already pending there, so a step scanned again and again over a
// long element costs in all a small multiple of the element's length.
func (s *flowStream) fill() error {
	if s.eof {
		return io.ErrUnexpectedEOF
	}
	if s.pooled == nil {
		s.pooled = streamBufs.Get().(*[]byte)
		s.buf = (*s.pooled)[:0]
	}
	pending := copy(s.buf, s.buf[s.off:])
	s.buf, s.off = s.buf[:pending], 0
	want := max(pending, 1)
	if cap(s.buf)-pending < want {
		s.buf = append(make([]byte, 0, max(2*cap(s.buf), pending+want, minRead)), s.buf...)
	}
	for got := 0; got < want; {
		n, err := s.body.Read(s.buf[len(s.buf):cap(s.buf)])
		s.buf, got = s.buf[:len(s.buf)+n], got+n
		if err == io.EOF {
			s.eof = true
			return nil
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// step scans from off for the next place in the document, consuming what
// it passes; errShort leaves off where it was.
func (s *flowStream) step() error {
	b, i := s.buf, s.off
	var err error
	switch s.at {
	case atHead:
		// {"flows": then [ or null
		if i = skipSpace(b, i); i == len(b) {
			return errShort
		}
		if b[i] != '{' {
			if !startsValue(b[i]) {
				return badChar(b[i], "looking for beginning of value")
			}
			return errors.New("document is not an object")
		}
		if i = skipSpace(b, i+1); i == len(b) {
			return errShort
		}
		if b[i] == '}' {
			return errors.New(`document has no "flows" member`)
		}
		var name []byte
		if name, i, err = member(b, i); err != nil {
			return err
		}
		if string(name) != "flows" {
			return fmt.Errorf(`document opens with %q where "flows" belongs`, name)
		}
		switch b[i] {
		case '[':
			s.at, i = atFirst, i+1
		case 'n':
			if i, err = scanLiteral(b, i, "null"); err != nil {
				return err
			}
			s.at = atClose // a nil list: no elements
		default:
			if !startsValue(b[i]) {
				return badChar(b[i], "looking for beginning of value")
			}
			return errors.New(`"flows" holds neither a list nor null`)
		}
	case atFirst, atNext:
		if i = skipSpace(b, i); i == len(b) {
			return errShort
		}
		switch c := b[i]; {
		case c == ']':
			s.at, i = atClose, i+1
		case s.at == atNext && c != ',':
			return badChar(c, "after array element")
		default:
			if s.at == atNext {
				if i = skipSpace(b, i+1); i == len(b) {
					return errShort
				}
			}
			start := i
			if i, err = s.element(b, i); err != nil {
				return err
			}
			s.cur.raw = b[start:i]
			s.at, s.ok = atNext, true
			s.seen++
		}
	case atClose:
		if i = skipSpace(b, i); i == len(b) {
			return errShort
		}
		switch b[i] {
		case '}':
			s.at, i = atTail, i+1
		case ',':
			return errors.New(`document has a member after "flows"`)
		default:
			return badChar(b[i], "after object key:value pair")
		}
	case atTail:
		// Whitespace is consumed as it comes, so a long tail of it is
		// scanned once; the document ends only at the body's end.
		if s.off = skipSpace(b, i); s.off < len(b) {
			return badChar(b[s.off], "after top-level value")
		}
		if !s.eof {
			return errShort
		}
		s.at = atDone
		return nil
	}
	s.off = i
	return nil
}

// element scans the flows[] element at b[i], which must be an object, and
// returns its end. It keeps the element's "flow" and "tracked" in cur,
// refusing an element that names either twice, leaves "flow" out, spells
// any of its own keys with an escape (which could spell either), or gives
// either the wrong type.
func (s *flowStream) element(b []byte, i int) (int, error) {
	if b[i] != '{' {
		if !startsValue(b[i]) {
			return 0, badChar(b[i], "looking for beginning of value")
		}
		return 0, errors.New("element is not an object")
	}
	s.cur.flow, s.cur.tracked = 0, false
	var hasFlow, hasTracked bool
	if i = skipSpace(b, i+1); i == len(b) {
		return 0, errShort
	}
	if b[i] == '}' {
		return 0, errors.New(`element has no "flow" key`)
	}
	for {
		name, val, err := member(b, i)
		if err != nil {
			return 0, err
		}
		if i, err = s.value(b, val, 3); err != nil {
			return 0, err
		}
		switch {
		case string(name) == "flow":
			if hasFlow {
				return 0, errors.New(`element repeats its "flow" key`)
			}
			hasFlow = true
			for _, c := range b[val:i] {
				d := uint64(c - '0')
				if c < '0' || c > '9' || s.cur.flow > (^uint64(0)-d)/10 {
					return 0, fmt.Errorf("flow key %s is not a 64-bit unsigned integer", b[val:i])
				}
				s.cur.flow = s.cur.flow*10 + d
			}
		case string(name) == "tracked":
			if hasTracked {
				return 0, errors.New(`element repeats its "tracked" key`)
			}
			hasTracked = true
			s.cur.tracked = string(b[val:i]) == "true"
			if !s.cur.tracked && string(b[val:i]) != "false" {
				return 0, fmt.Errorf("tracked %s is not a boolean", b[val:i])
			}
		default:
			for _, c := range name {
				if c == '\\' {
					return 0, fmt.Errorf("escaped element key %q", name)
				}
			}
		}
		if i = skipSpace(b, i); i == len(b) {
			return 0, errShort
		}
		switch b[i] {
		case ',':
			if i = skipSpace(b, i+1); i == len(b) {
				return 0, errShort
			}
		case '}':
			if !hasFlow {
				return 0, errors.New(`element has no "flow" key`)
			}
			return i + 1, nil
		default:
			return 0, badChar(b[i], "after object key:value pair")
		}
	}
}

// value scans the JSON value at b[i], depth brackets deep, and returns its
// end.
func (s *flowStream) value(b []byte, i, depth int) (int, error) {
	s.stack = s.stack[:0]
	var err error
	for {
		// At the beginning of a value.
		switch c := b[i]; c {
		case '{', '[':
			if depth+len(s.stack) >= maxDepth {
				return 0, badChar(c, "exceeded max depth")
			}
			if i = skipSpace(b, i+1); i == len(b) {
				return 0, errShort
			}
			if b[i] == c+2 { // {} or []
				i++
				break
			}
			s.stack = append(s.stack, c)
			if c == '{' {
				if _, i, err = member(b, i); err != nil {
					return 0, err
				}
			}
			continue
		case '"':
			i, err = scanString(b, i)
		case 't':
			i, err = scanLiteral(b, i, "true")
		case 'f':
			i, err = scanLiteral(b, i, "false")
		case 'n':
			i, err = scanLiteral(b, i, "null")
		default:
			if c != '-' && (c < '0' || c > '9') {
				return 0, badChar(c, "looking for beginning of value")
			}
			i, err = scanNumber(b, i)
		}
		if err != nil {
			return 0, err
		}
		// After a value: close what it ends, until the next one begins.
		for {
			if len(s.stack) == 0 {
				return i, nil
			}
			if i = skipSpace(b, i); i == len(b) {
				return 0, errShort
			}
			open := s.stack[len(s.stack)-1]
			if b[i] == open+2 {
				s.stack, i = s.stack[:len(s.stack)-1], i+1
				continue
			}
			if b[i] != ',' {
				if open == '{' {
					return 0, badChar(b[i], "after object key:value pair")
				}
				return 0, badChar(b[i], "after array element")
			}
			if i = skipSpace(b, i+1); i == len(b) {
				return 0, errShort
			}
			if open == '{' {
				if _, i, err = member(b, i); err != nil {
					return 0, err
				}
			}
			break
		}
	}
}

// member scans an object member's key and colon from b[i], and returns
// the key as spelled, between its quotes, and where the value begins.
func member(b []byte, i int) ([]byte, int, error) {
	if b[i] != '"' {
		return nil, 0, badChar(b[i], "looking for beginning of object key string")
	}
	key := i + 1
	i, err := scanString(b, i)
	if err != nil {
		return nil, 0, err
	}
	name := b[key : i-1]
	if i = skipSpace(b, i); i == len(b) {
		return nil, 0, errShort
	}
	if b[i] != ':' {
		return nil, 0, badChar(b[i], "after object key")
	}
	if i = skipSpace(b, i+1); i == len(b) {
		return nil, 0, errShort
	}
	return name, i, nil
}

// scanString returns the end of the string opening at b[i].
func scanString(b []byte, i int) (int, error) {
	for i++; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			return i + 1, nil
		case c == '\\':
			if i++; i == len(b) {
				return 0, errShort
			}
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				for range 4 {
					if i++; i == len(b) {
						return 0, errShort
					}
					if c, lc := b[i], b[i]|0x20; (c < '0' || c > '9') && (lc < 'a' || lc > 'f') {
						return 0, badChar(b[i], `in \u hexadecimal character escape`)
					}
				}
			default:
				return 0, badChar(b[i], "in string escape code")
			}
		case c < 0x20:
			return 0, badChar(c, "in string literal")
		}
	}
	return 0, errShort
}

// scanNumber returns the end of the number starting at b[i]. A number
// ends only at a byte that cannot continue it, and never ends a snapshot
// document, so running out of bytes is always errShort.
func scanNumber(b []byte, i int) (int, error) {
	if b[i] == '-' {
		if i++; i == len(b) {
			return 0, errShort
		}
	}
	switch c := b[i]; {
	case c == '0':
		i++
	case '1' <= c && c <= '9':
		i = digits(b, i+1)
	default:
		return 0, badChar(c, "in numeric literal")
	}
	if i < len(b) && b[i] == '.' {
		if i++; i == len(b) {
			return 0, errShort
		}
		if b[i] < '0' || b[i] > '9' {
			return 0, badChar(b[i], "after decimal point in numeric literal")
		}
		i = digits(b, i+1)
	}
	if i < len(b) && b[i]|0x20 == 'e' {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i == len(b) {
			return 0, errShort
		}
		if b[i] < '0' || b[i] > '9' {
			return 0, badChar(b[i], "in exponent of numeric literal")
		}
		i = digits(b, i+1)
	}
	if i == len(b) {
		return 0, errShort
	}
	return i, nil
}

func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// scanLiteral returns the end of lit, which must be at b[i].
func scanLiteral(b []byte, i int, lit string) (int, error) {
	for k := 1; k < len(lit); k++ {
		if i+k == len(b) {
			return 0, errShort
		}
		if b[i+k] != lit[k] {
			return 0, badChar(b[i+k], "in literal "+lit+" (expecting "+strconv.QuoteRune(rune(lit[k]))+")")
		}
	}
	return i + len(lit), nil
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
		i++
	}
	return i
}

// startsValue reports whether a JSON value may begin with c.
func startsValue(c byte) bool {
	switch c {
	case '{', '[', '"', 't', 'f', 'n', '-':
		return true
	}
	return '0' <= c && c <= '9'
}

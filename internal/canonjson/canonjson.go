// Package canonjson reads and writes, without reflection, the bytes
// encoding/json produces for the few types every lease moves: a shard
// checkpoint and the report and lease bodies that carry one (DESIGN.md §9.5).
//
// encoding/json stays the definition of the bytes. A writer built on this
// package must equal json.Marshal of its plain type byte for byte. A Reader
// takes only that canonical form, with JSON whitespace anywhere between
// tokens; on anything else it fails, and its caller decodes the input with
// encoding/json instead, so what a decode yields — value or error — is
// encoding/json's by construction.
package canonjson

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
)

// Reader walks one input token by token. A mismatch fails it for good: every
// later call returns a zero value and consumes nothing, so a decoder is
// straight-line code that asks OK once at the end.
type Reader struct {
	b   []byte
	i   int
	bad bool
	// first is set right after an opening delimiter, where the next member
	// takes no comma.
	first bool
}

// NewReader returns a Reader positioned at the start of b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// OK reports whether every call so far matched.
func (r *Reader) OK() bool { return !r.bad }

// Fail fails the reader: the input is not the canonical form.
func (r *Reader) Fail() { r.bad = true }

// End fails the reader unless only whitespace is left (json.Unmarshal's rule
// for what follows the value).
func (r *Reader) End() {
	if r.peek() != 0 || r.i != len(r.b) {
		r.bad = true
	}
}

// peek skips whitespace and returns the next byte, 0 at the end or once the
// reader has failed.
func (r *Reader) peek() byte {
	if r.bad {
		return 0
	}
	for r.i < len(r.b) {
		switch c := r.b[r.i]; c {
		case ' ', '\t', '\n', '\r':
			r.i++
		default:
			return c
		}
	}
	return 0
}

// Delim consumes one of { } [ ].
func (r *Reader) Delim(c byte) {
	if r.peek() != c {
		r.bad = true
		return
	}
	r.i++
	r.first = c == '{' || c == '['
}

// More reports whether the object or array being read has another member
// before its closing delimiter, consuming the comma that separates them.
func (r *Reader) More(closing byte) bool {
	c := r.peek()
	switch {
	case r.bad || c == closing:
		return false
	case r.first:
		r.first = false
		return true
	case c == ',':
		r.i++
		return true
	}
	r.bad = true
	return false
}

// Field consumes the next member's key and colon when the key is exactly
// name, and reports whether it did. Any other next member, or the end of the
// object, is left unconsumed: the caller's next Field or Delim('}') decides.
func (r *Reader) Field(name string) bool {
	i, first := r.i, r.first
	if r.More('}') {
		if r.peek() == '"' && bytes.HasPrefix(r.b[r.i+1:], []byte(name)) {
			if j := r.i + 1 + len(name); j < len(r.b) && r.b[j] == '"' {
				r.i = j + 1
				if r.peek() == ':' {
					r.i++
					return true
				}
			}
		}
	}
	if !r.bad {
		r.i, r.first = i, first
	}
	return false
}

// Need is Field for a member the canonical form always has.
func (r *Reader) Need(name string) {
	if !r.Field(name) {
		r.bad = true
	}
}

// Key consumes a map member's key and colon and returns the key's bytes. A
// key holding an escape or a non-ASCII byte fails the reader.
func (r *Reader) Key() []byte {
	if r.peek() != '"' {
		r.bad = true
		return nil
	}
	for j := r.i + 1; j < len(r.b); j++ {
		switch c := r.b[j]; {
		case c == '"':
			k := r.b[r.i+1 : j]
			r.i = j + 1
			if r.peek() != ':' {
				r.bad = true
				return nil
			}
			r.i++
			return k
		case c < 0x20 || c == '\\' || c >= 0x80:
			r.bad = true
			return nil
		}
	}
	r.bad = true
	return nil
}

// Null consumes a null literal and reports whether there was one.
func (r *Reader) Null() bool {
	if r.peek() == 'n' && bytes.HasPrefix(r.b[r.i:], []byte("null")) {
		r.i += len("null")
		return true
	}
	return false
}

// Bool consumes true or false.
func (r *Reader) Bool() bool {
	switch r.peek() {
	case 't':
		if bytes.HasPrefix(r.b[r.i:], []byte("true")) {
			r.i += len("true")
			return true
		}
	case 'f':
		if bytes.HasPrefix(r.b[r.i:], []byte("false")) {
			r.i += len("false")
			return false
		}
	}
	r.bad = true
	return false
}

// Int consumes an integer literal that fits an int; see Int64.
func (r *Reader) Int() int {
	n := r.Int64()
	if int64(int(n)) != n {
		r.bad = true
		return 0
	}
	return int(n)
}

// Int64 consumes an integer literal in int64's range with no fraction or
// exponent. Anything else — including a number encoding/json would also
// reject for an integer field — fails the reader.
func (r *Reader) Int64() int64 {
	if c := r.peek(); c != '-' && c-'0' >= 10 {
		r.bad = true
		return 0
	}
	i := r.i
	neg := r.b[i] == '-'
	if neg {
		i++
	}
	start := i
	var u uint64
	for ; i < len(r.b) && r.b[i]-'0' < 10; i++ {
		u = u*10 + uint64(r.b[i]-'0')
	}
	digits := i - start
	limit := uint64(math.MaxInt64)
	if neg {
		limit++
	}
	if digits == 0 || digits > 19 || u > limit || digits > 1 && r.b[start] == '0' ||
		i < len(r.b) && (r.b[i] == '.' || r.b[i] == 'e' || r.b[i] == 'E') {
		r.bad = true
		return 0
	}
	r.i = i
	if neg {
		return -int64(u)
	}
	return int64(u)
}

// Str consumes a string literal. Escapes and non-ASCII bytes are unquoted by
// encoding/json itself, invalid UTF-8 replacement included.
func (r *Reader) Str() string {
	if r.peek() != '"' {
		r.bad = true
		return ""
	}
	for j := r.i + 1; j < len(r.b); j++ {
		c := r.b[j]
		if c == '"' {
			s := string(r.b[r.i+1 : j])
			r.i = j + 1
			return s
		}
		if c < 0x20 || c == '\\' || c >= 0x80 {
			break
		}
	}
	end := stringEnd(r.b, r.i)
	var s string
	if end < 0 || json.Unmarshal(r.b[r.i:end], &s) != nil {
		r.bad = true
		return ""
	}
	r.i = end
	return s
}

// Object consumes one object and returns its bytes, for a member the caller
// hands to encoding/json whole. It only balances delimiters outside strings;
// the caller's json.Unmarshal of the result is what validates it.
func (r *Reader) Object() []byte {
	if r.peek() != '{' {
		r.bad = true
		return nil
	}
	depth := 0
	for j := r.i; j < len(r.b); j++ {
		switch r.b[j] {
		case '"':
			if j = stringEnd(r.b, j); j < 0 {
				r.bad = true
				return nil
			}
			j--
		case '{', '[':
			depth++
		case '}', ']':
			if depth--; depth == 0 {
				obj := r.b[r.i : j+1]
				r.i = j + 1
				return obj
			}
		}
	}
	r.bad = true
	return nil
}

// stringEnd returns the index just past the string literal opening at b[i],
// -1 when it is unterminated.
func stringEnd(b []byte, i int) int {
	for j := i + 1; j < len(b); j++ {
		switch b[j] {
		case '\\':
			j++
		case '"':
			return j + 1
		}
	}
	return -1
}

// AppendInt appends v as encoding/json writes an integer.
func AppendInt[T ~int | ~int64](b []byte, v T) []byte { return strconv.AppendInt(b, int64(v), 10) }

// AppendString appends s as json.Marshal writes a string. Printable ASCII
// with nothing to escape is copied; anything else is escaped by
// encoding/json itself (HTML escaping and U+2028/U+2029 included).
func AppendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&':
			q, _ := json.Marshal(s)
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

package service

// The JSON envelope of POST /validate and POST /streams/{name}/check is
// an object whose bulk is one "values" array of strings. Decoding it
// through encoding/json costs a string allocation per value, and the
// compiled matcher wants bytes anyway. decodeEnvelope instead walks the
// top-level object itself and unescapes each value in place in the
// request slab, yielding the same [][]byte views the columnar decoders
// produce. Every other member (fingerprint, rule, train, rule
// parameters) is re-assembled into a small object and handed to
// encoding/json, so those fields keep its exact semantics.
//
// The walk accepts and rejects exactly what json.Unmarshal does for a
// struct with a `values []string` field, and yields the same values;
// FuzzJSONValues holds it to that. This includes the less obvious rules:
//   - member names match fields case-insensitively (bytes.EqualFold, so
//     "VALUES" and "valueſ" both name the field) and may be escaped;
//   - a repeated "values" member decodes over the previous one: the last
//     wins, but a null element keeps what an earlier array held at that
//     index, and null or [] resets the slice;
//   - any element that is not a string or null is a type error;
//   - invalid UTF-8 and lone surrogates decode to U+FFFD.
//
// Unlike json.Decoder, anything but whitespace after the object is an
// error.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"unicode/utf16"
	"unicode/utf8"
)

var (
	errTrailingData  = errors.New("unexpected data after the top-level JSON value")
	errUnexpectedEnd = errors.New("unexpected end of JSON input")
)

// valuesName is the JSON name of the envelope's values field.
var valuesName = []byte("values")

// maxEscapedNameLen bounds the raw length of a member name that can
// still decode to "values": six letters, each at most a \uXXXX escape.
const maxEscapedNameLen = 6 * len(`\uXXXX`)

// envelope decodes the body as a JSON envelope: the "values" strings
// into views of the slab, every other member into rest. It writes the
// HTTP error itself on failure.
func (b *reqBody) envelope(w http.ResponseWriter, r *http.Request, rest any) ([][]byte, bool) {
	values, err := decodeEnvelope(b.slab, b.presized(bytes.Count(b.slab, []byte{','})+1), rest)
	b.views = values
	if err != nil {
		writeError(w, r, http.StatusBadRequest, "bad request body: "+err.Error())
		return nil, false
	}
	return values, true
}

// decodeEnvelope decodes the JSON object in slab, rewriting it in place:
// the strings of its "values" member are appended to views[:0] and
// returned, and every other member is unmarshalled into rest, which must
// have no field that "values" names. A top-level null decodes to no
// values and leaves rest untouched, as json.Unmarshal does.
func decodeEnvelope(slab []byte, views [][]byte, rest any) ([][]byte, error) {
	d := envDecoder{b: slab, views: views[:0]}
	if err := d.decode(); err != nil {
		return d.views[:0], err
	}
	if d.rest != nil {
		if err := json.Unmarshal(append(d.rest, '}'), rest); err != nil {
			return d.views[:0], err
		}
	}
	return d.views[:d.n], nil
}

// envDecoder is the state of one decodeEnvelope walk.
type envDecoder struct {
	b []byte
	i int
	// views holds every element written since the last reset, which is
	// what a null element of a repeated "values" member reads back; n is
	// the length of the current member.
	views [][]byte
	n     int
	// rest re-assembles the members other than "values", from '{' on.
	rest []byte
}

// syntaxError reports msg at the current offset.
func (d *envDecoder) syntaxError(msg string) error {
	if d.i >= len(d.b) {
		return errUnexpectedEnd
	}
	return fmt.Errorf("offset %d: %s", d.i, msg)
}

// ws skips JSON whitespace.
func (d *envDecoder) ws() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// null consumes the literal null at d.i.
func (d *envDecoder) null() error {
	if len(d.b)-d.i < 4 || string(d.b[d.i:d.i+4]) != "null" {
		return d.syntaxError("invalid literal")
	}
	d.i += 4
	return nil
}

// decode walks the whole body: one object (or null), then whitespace.
func (d *envDecoder) decode() error {
	d.ws()
	if d.i >= len(d.b) {
		return errUnexpectedEnd
	}
	switch d.b[d.i] {
	case 'n':
		if err := d.null(); err != nil {
			return err
		}
	case '{':
		if err := d.object(); err != nil {
			return err
		}
	default:
		return d.syntaxError("request body must be a JSON object")
	}
	d.ws()
	if d.i != len(d.b) {
		return errTrailingData
	}
	return nil
}

// object walks the top-level object, d.i at its '{'.
func (d *envDecoder) object() error {
	d.i++
	d.ws()
	if d.i < len(d.b) && d.b[d.i] == '}' {
		d.i++
		return nil
	}
	for {
		d.ws()
		if d.i >= len(d.b) || d.b[d.i] != '"' {
			return d.syntaxError("expected a member name")
		}
		lo := d.i
		end, esc, high, err := scanString(d.b, lo)
		if err != nil {
			return err
		}
		d.i = end
		d.ws()
		if d.i >= len(d.b) || d.b[d.i] != ':' {
			return d.syntaxError("expected ':' after a member name")
		}
		d.i++
		d.ws()
		if isValuesName(d.b[lo+1:end-1], esc, high) {
			err = d.values()
		} else {
			err = d.member(d.b[lo:end])
		}
		if err != nil {
			return err
		}
		d.ws()
		if d.i >= len(d.b) {
			return errUnexpectedEnd
		}
		switch d.b[d.i] {
		case ',':
			d.i++
		case '}':
			d.i++
			return nil
		default:
			return d.syntaxError("expected ',' or '}' after an object member")
		}
	}
}

// member copies a member other than "values", name included, into the
// re-assembled object; encoding/json validates and decodes its value.
func (d *envDecoder) member(name []byte) error {
	lo := d.i
	end, err := skipValue(d.b, lo)
	if err != nil {
		return err
	}
	d.i = end
	if d.rest == nil {
		d.rest = append(make([]byte, 0, 64+len(name)+end-lo), '{')
	} else {
		d.rest = append(d.rest, ',')
	}
	d.rest = append(d.rest, name...)
	d.rest = append(d.rest, ':')
	d.rest = append(d.rest, d.b[lo:end]...)
	return nil
}

// values decodes one "values" member's value, d.i at its first byte.
func (d *envDecoder) values() error {
	if d.i >= len(d.b) {
		return errUnexpectedEnd
	}
	switch d.b[d.i] {
	case 'n':
		d.views, d.n = d.views[:0], 0
		return d.null()
	case '[':
	default:
		return d.syntaxError("values must be an array of strings")
	}
	d.i++
	d.ws()
	if d.i < len(d.b) && d.b[d.i] == ']' {
		d.i++
		d.views, d.n = d.views[:0], 0
		return nil
	}
	n := 0
	for {
		d.ws()
		if d.i >= len(d.b) {
			return errUnexpectedEnd
		}
		switch d.b[d.i] {
		case '"':
			v, end, err := decodeString(d.b, d.i)
			if err != nil {
				return err
			}
			d.i = end
			if n < len(d.views) {
				d.views[n] = v
			} else {
				d.views = append(d.views, v)
			}
		case 'n':
			if err := d.null(); err != nil {
				return err
			}
			// encoding/json leaves a string untouched on null, so the
			// element keeps what an earlier "values" member held here.
			if n >= len(d.views) {
				d.views = append(d.views, nil)
			}
		default:
			return d.syntaxError("values must be strings")
		}
		n++
		d.ws()
		if d.i >= len(d.b) {
			return errUnexpectedEnd
		}
		switch d.b[d.i] {
		case ',':
			d.i++
		case ']':
			d.i++
			d.n = n
			return nil
		default:
			return d.syntaxError("expected ',' or ']' after an array element")
		}
	}
}

// decodeString decodes the JSON string whose opening quote is b[i] and
// returns its value and the index just past its closing quote. Plain
// strings are views into b and escaped ones are decoded in place, which
// never grows them. Invalid UTF-8 becomes U+FFFD, three bytes per
// invalid byte, so such a value is copied out instead.
func decodeString(b []byte, i int) (v []byte, end int, err error) {
	end, esc, high, err := scanString(b, i)
	if err != nil {
		return nil, 0, err
	}
	raw := b[i+1 : end-1]
	switch {
	case high && !utf8.Valid(raw):
		return appendJSONString(make([]byte, 0, len(raw)+2*utf8.UTFMax), raw), end, nil
	case esc:
		// Each escape decodes to no more bytes than it spans, so the
		// output never overtakes the input it is read from.
		return appendJSONString(raw[:0], raw), end, nil
	default:
		return raw, end, nil
	}
}

// isValuesName reports whether a raw member name (between its quotes)
// names the values field under encoding/json's case-insensitive match.
func isValuesName(raw []byte, esc, high bool) bool {
	if !esc && !high {
		return bytes.EqualFold(raw, valuesName)
	}
	if len(raw) > maxEscapedNameLen {
		return false
	}
	var buf [maxEscapedNameLen]byte
	return bytes.EqualFold(appendJSONString(buf[:0], raw), valuesName)
}

// strSpecial marks the bytes scanString must look at: the closing quote,
// escapes, control characters (invalid in JSON strings) and non-ASCII.
var strSpecial = func() (t [256]bool) {
	for c := range t {
		t[c] = c < 0x20 || c == '"' || c == '\\' || c >= utf8.RuneSelf
	}
	return t
}()

// scanString validates the JSON string whose opening quote is b[i] and
// returns the index just past its closing quote, whether it contains
// escapes, and whether it contains non-ASCII bytes.
func scanString(b []byte, i int) (end int, esc, high bool, err error) {
	j := i + 1
	for {
		for j < len(b) && !strSpecial[b[j]] {
			j++
		}
		if j >= len(b) {
			return 0, false, false, errors.New("unterminated JSON string")
		}
		switch c := b[j]; {
		case c == '"':
			return j + 1, esc, high, nil
		case c == '\\':
			esc = true
			if j+1 >= len(b) {
				return 0, false, false, errors.New("unterminated JSON string")
			}
			switch b[j+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				j += 2
			case 'u':
				if j+6 > len(b) {
					return 0, false, false, errors.New("truncated \\u escape")
				}
				if _, ok := hex4(b[j+2:]); !ok {
					return 0, false, false, fmt.Errorf("offset %d: bad \\u escape", j)
				}
				j += 6
			default:
				return 0, false, false, fmt.Errorf("offset %d: bad escape \\%c", j, b[j+1])
			}
		case c < 0x20:
			return 0, false, false, fmt.Errorf("offset %d: control character in JSON string", j)
		default:
			high = true
			j++
		}
	}
}

// hex4 decodes four hex digits.
func hex4(b []byte) (rune, bool) {
	var r rune
	for _, c := range b[:4] {
		r <<= 4
		switch {
		case c >= '0' && c <= '9':
			r |= rune(c - '0')
		case c >= 'a' && c <= 'f':
			r |= rune(c-'a') + 10
		case c >= 'A' && c <= 'F':
			r |= rune(c-'A') + 10
		default:
			return 0, false
		}
	}
	return r, true
}

// appendJSONString appends the decoded contents of a string validated
// by scanString (raw excludes the quotes), replacing invalid UTF-8 and
// lone surrogates with U+FFFD as encoding/json does. dst may share raw's
// memory at or behind raw's start when raw is valid UTF-8: the output
// then never overtakes the input.
func appendJSONString(dst, raw []byte) []byte {
	for i := 0; i < len(raw); {
		c := raw[i]
		switch {
		case c == '\\':
			switch raw[i+1] {
			case 'u':
				r, n := decodeHexRune(raw[i:])
				dst = utf8.AppendRune(dst, r)
				i += n
				continue
			case 'b':
				c = '\b'
			case 'f':
				c = '\f'
			case 'n':
				c = '\n'
			case 'r':
				c = '\r'
			case 't':
				c = '\t'
			default: // '"', '\\', '/'
				c = raw[i+1]
			}
			dst = append(dst, c)
			i += 2
		case c < utf8.RuneSelf:
			dst = append(dst, c)
			i++
		default:
			r, n := utf8.DecodeRune(raw[i:])
			dst = utf8.AppendRune(dst, r)
			i += n
		}
	}
	return dst
}

// skipValue returns the index just past the JSON value starting at
// b[i]. It finds the value's extent only — strings are validated,
// everything else is left to encoding/json, which decodes the copy.
func skipValue(b []byte, i int) (int, error) {
	if i >= len(b) {
		return 0, errUnexpectedEnd
	}
	switch b[i] {
	case '"':
		end, _, _, err := scanString(b, i)
		return end, err
	case '{', '[':
		depth := 0
		for i < len(b) {
			switch b[i] {
			case '"':
				end, _, _, err := scanString(b, i)
				if err != nil {
					return 0, err
				}
				i = end
				continue
			case '{', '[':
				depth++
			case '}', ']':
				depth--
				if depth == 0 {
					return i + 1, nil
				}
			}
			i++
		}
		return 0, errUnexpectedEnd
	default:
		j := i
		for j < len(b) {
			switch b[j] {
			case ',', '}', ']', ' ', '\t', '\n', '\r':
				if j == i {
					return 0, fmt.Errorf("offset %d: expected a value", i)
				}
				return j, nil
			}
			j++
		}
		return j, nil
	}
}

// decodeHexRune decodes one \uXXXX escape validated by scanString (b
// starts at the backslash), combining a UTF-16 surrogate pair, and
// returns the rune and the number of input bytes consumed. A lone
// surrogate decodes to U+FFFD, as in encoding/json.
func decodeHexRune(b []byte) (rune, int) {
	r, _ := hex4(b[2:])
	if !utf16.IsSurrogate(r) {
		return r, 6
	}
	if len(b) >= 12 && b[6] == '\\' && b[7] == 'u' {
		r2, _ := hex4(b[8:])
		if dec := utf16.DecodeRune(r, r2); dec != utf8.RuneError {
			return dec, 12
		}
	}
	return utf8.RuneError, 6
}

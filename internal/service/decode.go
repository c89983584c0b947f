package service

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

// ParseRequest decodes a body ReadRequest read: one JSON object with no
// unknown fields and nothing but white space after it. A failure is a
// 400.
//
// The decoder is hand-written, the mirror of EncodeJSON: one pass over
// the body, each string value unescaped straight into a string of its
// final size, and no copy of the body. It accepts and rejects what
// json.Decoder with DisallowUnknownFields does, and decodes what it
// accepts to the same MapRequest (FuzzParseRequest holds it to that):
//   - field names match case-insensitively, folded as encoding/json
//     folds them, and a repeated key's last value wins (a repeated
//     options object is decoded into the same RequestOptions);
//   - invalid UTF-8 and lone surrogates in a string become U+FFFD;
//   - null leaves a field as it was, except options, which it resets;
//   - the integer fields take only integer literals in range;
//   - an unknown field, at the top level or in options, is an error.
//
// Only the error text differs: the decoder stops at the first fault it
// meets, where encoding/json checks the whole syntax first.
func ParseRequest(body []byte) (*MapRequest, error) {
	d := decoder{b: body}
	req := new(MapRequest)
	if err := d.request(req); err != nil {
		return nil, fmt.Errorf("bad request: %w", err)
	}
	return req, nil
}

var errAfterObject = errors.New("data after the JSON object")

// decoder reads one MapRequest from b, at offset off.
type decoder struct {
	b   []byte
	off int
}

// The JSON names of MapRequest's and RequestOptions' fields, in the
// order of the cases in request and options.
var (
	requestFields = []string{"circuit", "blif", "bench", "algorithm", "options", "timeout_ms", "async"}
	optionFields  = []string{"max_width", "max_height", "objective", "clock_weight", "depth_weight",
		"always_footed", "pareto", "tuple_budget", "sequence_aware", "workers", "strash_off"}
)

func (d *decoder) request(req *MapRequest) error {
	d.space()
	if !d.null() {
		err := d.object(requestFields, func(field int) error {
			switch field {
			case 0:
				return d.str(&req.Circuit)
			case 1:
				return d.str(&req.BLIF)
			case 2:
				return d.str(&req.Bench)
			case 3:
				return d.str(&req.Algorithm)
			case 4:
				return d.options(&req.Options)
			case 5:
				return d.num64(&req.TimeoutMS)
			default:
				return d.boolean(&req.Async)
			}
		})
		if err != nil {
			return err
		}
	}
	d.space()
	if d.off < len(d.b) {
		return errAfterObject
	}
	return nil
}

// options reads an options object, into the RequestOptions *opts
// already points to if any, or null, which resets *opts.
func (d *decoder) options(opts **RequestOptions) error {
	if d.null() {
		*opts = nil
		return nil
	}
	if *opts == nil {
		*opts = new(RequestOptions)
	}
	o := *opts
	return d.object(optionFields, func(field int) error {
		switch field {
		case 0:
			return d.num(&o.MaxWidth)
		case 1:
			return d.num(&o.MaxHeight)
		case 2:
			return d.str(&o.Objective)
		case 3:
			return d.num(&o.ClockWeight)
		case 4:
			return d.num(&o.DepthWeight)
		case 5:
			return d.boolean(&o.AlwaysFooted)
		case 6:
			return d.boolean(&o.Pareto)
		case 7:
			return d.num(&o.TupleBudget)
		case 8:
			return d.boolean(&o.SequenceAware)
		case 9:
			return d.num(&o.Workers)
		default:
			return d.boolean(&o.StrashOff)
		}
	})
}

// object reads a JSON object whose keys all name a field in fields,
// calling member with each key's field index to read its value. A key
// names fields[i] when the two are equal under Unicode case folding,
// as encoding/json compares them.
func (d *decoder) object(fields []string, member func(field int) error) error {
	if err := d.expect('{', "looking for beginning of object"); err != nil {
		return err
	}
	d.space()
	if d.peek() == '}' {
		d.off++
		return nil
	}
	for {
		d.space()
		key, err := d.key()
		if err != nil {
			return err
		}
		i := slices.IndexFunc(fields, func(f string) bool { return bytes.EqualFold(key, []byte(f)) })
		if i < 0 {
			return fmt.Errorf("json: unknown field %q", key)
		}
		d.space()
		if err := d.expect(':', "after object key"); err != nil {
			return err
		}
		d.space()
		if err := member(i); err != nil {
			return err
		}
		d.space()
		if d.peek() == ',' {
			d.off++
			continue
		}
		return d.expect('}', "after object key:value pair")
	}
}

// key reads an object key and returns it unescaped.
func (d *decoder) key() ([]byte, error) {
	if d.peek() != '"' {
		return nil, d.syntax("looking for beginning of object key string")
	}
	raw, n, plain, err := d.scanString()
	if err != nil || plain {
		return raw, err
	}
	return []byte(unescape(raw, n)), nil
}

// str reads a string or null into *dst; null leaves it as it was.
func (d *decoder) str(dst *string) error {
	if d.null() {
		return nil
	}
	if d.peek() != '"' {
		return d.mistyped("a string")
	}
	raw, n, plain, err := d.scanString()
	if err != nil {
		return err
	}
	if plain {
		*dst = string(raw)
	} else {
		*dst = unescape(raw, n)
	}
	return nil
}

// boolean reads true, false or null into *dst; null leaves it as it
// was.
func (d *decoder) boolean(dst *bool) error {
	switch {
	case d.null():
	case d.literal("true"):
		*dst = true
	case d.literal("false"):
		*dst = false
	default:
		return d.mistyped("true or false")
	}
	return nil
}

func (d *decoder) num(dst *int) error {
	v, ok, err := d.integer(strconv.IntSize)
	if ok {
		*dst = int(v)
	}
	return err
}

func (d *decoder) num64(dst *int64) error {
	v, ok, err := d.integer(64)
	if ok {
		*dst = v
	}
	return err
}

// integer reads an integer literal that fits in bits, or null (ok
// false). A number with a fraction or an exponent is an error even when
// its value is whole, as it is to encoding/json.
func (d *decoder) integer(bits int) (v int64, ok bool, err error) {
	if d.null() {
		return 0, false, nil
	}
	start := d.off
	if d.peek() == '-' {
		d.off++
	}
	if c := d.peek(); c < '0' || c > '9' {
		if d.off > start {
			return 0, false, d.syntax("in numeric literal")
		}
		return 0, false, d.mistyped("an integer")
	}
	if d.b[d.off] == '0' {
		d.off++
	} else {
		for c := d.peek(); c >= '0' && c <= '9'; c = d.peek() {
			d.off++
		}
	}
	lit := d.b[start:d.off]
	if c := d.peek(); c == '.' || c == 'e' || c == 'E' {
		return 0, false, fmt.Errorf("json: number at offset %d is not an integer", start)
	}
	v, err = strconv.ParseInt(string(lit), 10, bits)
	if err != nil {
		return 0, false, fmt.Errorf("json: number %s out of range", lit)
	}
	return v, true, nil
}

// scanString reads the JSON string at d.off and returns its raw
// contents between the quotes, the length of their unescaped form, and
// whether that form is the raw bytes themselves (no escape, no invalid
// UTF-8).
func (d *decoder) scanString() (raw []byte, n int, plain bool, err error) {
	start := d.off + 1
	plain = true
	for i := start; i < len(d.b); {
		j := i
		for j < len(d.b) && literalByte[d.b[j]] {
			j++
		}
		n += j - i
		if i = j; i == len(d.b) {
			break
		}
		c := d.b[i]
		switch {
		case c == '"':
			d.off = i + 1
			return d.b[start:i], n, plain, nil
		case c == '\\':
			plain = false
			if i+1 < len(d.b) && d.b[i+1] == 'u' {
				r, size := unicodeEscape(d.b[i:])
				if size == 0 {
					d.off = i + 1
					return nil, 0, false, d.syntax("in \\u hexadecimal character escape")
				}
				n += utf8.RuneLen(r)
				i += size
				continue
			}
			if i+1 >= len(d.b) || simpleEscapes[d.b[i+1]] == 0 {
				d.off = i + 1
				return nil, 0, false, d.syntax("in string escape code")
			}
			n++
			i += 2
		case c < ' ':
			d.off = i
			return nil, 0, false, d.syntax("in string literal")
		default:
			// Invalid UTF-8 decodes, a byte at a time, to U+FFFD.
			r, size := utf8.DecodeRune(d.b[i:])
			plain = plain && (r != utf8.RuneError || size > 1)
			n += utf8.RuneLen(r)
			i += size
		}
	}
	d.off = len(d.b)
	return nil, 0, false, errUnexpectedEnd
}

// unescape decodes the raw contents of a JSON string that scanString
// accepted into a string of its unescaped length n: escapes decoded,
// invalid UTF-8 replaced byte by byte with U+FFFD.
func unescape(raw []byte, n int) string {
	var sb strings.Builder
	sb.Grow(n)
	for i := 0; i < len(raw); {
		j := i
		for j < len(raw) && literalByte[raw[j]] {
			j++
		}
		sb.Write(raw[i:j])
		if i = j; i == len(raw) {
			break
		}
		if raw[i] != '\\' {
			r, size := utf8.DecodeRune(raw[i:])
			sb.WriteRune(r)
			i += size
			continue
		}
		if raw[i+1] == 'u' {
			r, size := unicodeEscape(raw[i:])
			sb.WriteRune(r)
			i += size
			continue
		}
		sb.WriteByte(simpleEscapes[raw[i+1]])
		i += 2
	}
	return sb.String()
}

// literalByte marks the bytes that stand for themselves in a JSON
// string: printable ASCII other than the quote and the backslash.
var literalByte = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// simpleEscapes maps the byte after a backslash to the byte it stands
// for, for every escape but \u; zero marks a byte that is no escape.
var simpleEscapes = [256]byte{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}

// unicodeEscape decodes the \uXXXX escape s starts with, and the low
// surrogate escape after it when the first is a high surrogate, and
// returns the rune and the bytes consumed (0 when s does not start with
// a valid escape). A surrogate not in such a pair is U+FFFD, and the
// escape after it is read on its own, as encoding/json reads it.
func unicodeEscape(s []byte) (rune, int) {
	r := hex4(s)
	if r < 0 {
		return 0, 0
	}
	if !utf16.IsSurrogate(r) {
		return r, 6
	}
	if pair := utf16.DecodeRune(r, hex4(s[6:])); pair != utf8.RuneError {
		return pair, 12
	}
	return utf8.RuneError, 6
}

// hex4 returns the code unit of the \uXXXX escape s starts with, or -1.
func hex4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

var errUnexpectedEnd = errors.New("unexpected end of JSON input")

func (d *decoder) space() {
	for d.off < len(d.b) {
		switch d.b[d.off] {
		case ' ', '\t', '\r', '\n':
			d.off++
		default:
			return
		}
	}
}

// peek returns the byte at d.off, or 0 at the end of the body.
func (d *decoder) peek() byte {
	if d.off < len(d.b) {
		return d.b[d.off]
	}
	return 0
}

func (d *decoder) expect(c byte, context string) error {
	if d.peek() != c {
		return d.syntax(context)
	}
	d.off++
	return nil
}

// literal consumes lit if the body holds it at d.off.
func (d *decoder) literal(lit string) bool {
	if !bytes.HasPrefix(d.b[d.off:], []byte(lit)) {
		return false
	}
	d.off += len(lit)
	return true
}

func (d *decoder) null() bool { return d.literal("null") }

// syntax reports the byte at d.off as encoding/json's scanner words it.
func (d *decoder) syntax(context string) error {
	if d.off >= len(d.b) {
		return errUnexpectedEnd
	}
	return fmt.Errorf("invalid character %q %s", rune(d.b[d.off]), context)
}

// mistyped reports a value of the wrong kind for its field.
func (d *decoder) mistyped(want string) error {
	if d.off >= len(d.b) {
		return errUnexpectedEnd
	}
	return fmt.Errorf("json: value at offset %d is not %s", d.off, want)
}

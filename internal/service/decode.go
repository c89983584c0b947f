package service

import (
	"bytes"
	"encoding/binary"
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
	err := d.document(func() error {
		return d.object(requestFields, func(field int) error {
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
				return pointee(&d, &req.Options, d.options)
			case 5:
				return d.num64(&req.TimeoutMS)
			default:
				return d.boolean(&req.Async)
			}
		})
	})
	if err != nil {
		return nil, fmt.Errorf("bad request: %w", err)
	}
	return req, nil
}

// ParseJobView decodes a job view as soimapd and soirouter write it: the
// client's one reader of POST /v1/map and GET /v1/jobs/{id} answers.
//
// It is ParseRequest's decoder reading as json.Unmarshal reads into a
// JobView, and it decodes to the same value (FuzzParseJobView holds it
// to that):
//   - the value under a key that names no field is checked and skipped;
//   - null sets a pointer, the gates slice or the phases map to nil and
//     leaves any other field as it was;
//   - a repeated object is decoded into the struct or map the first one
//     made, and a repeated gates array into the slice the first one
//     filled, each element past its length into the element the backing
//     array holds there;
//   - the float fields of Attribution take any number literal in range;
//   - anything but white space after the view is an error.
//
// The view's strings are cut from a few 1 KB chunks, not allocated one
// by one, and the gates slice is presized from the stats' gate count,
// which the server writes before the gates.
func ParseJobView(b []byte) (*JobView, error) {
	var arena strings.Builder
	d := decoder{b: b, arena: &arena, skipUnknown: true}
	v := new(JobView)
	if err := d.document(func() error { return d.jobView(v) }); err != nil {
		return nil, err
	}
	return v, nil
}

var errAfterObject = errors.New("data after the JSON object")

// decoder reads one JSON document from b, at offset off.
type decoder struct {
	b   []byte
	off int
	// arena, when set, holds every string value read: each is cut from
	// its newest bytes. A strings.Builder only ever appends, so a string
	// cut from it never changes; a string that does not fit starts a new
	// chunk. Without an arena each string value gets an allocation of its
	// own size.
	arena *strings.Builder
	// skipUnknown skips the value under a key that names no field, as
	// json.Unmarshal does, where json.Decoder with DisallowUnknownFields
	// fails.
	skipUnknown bool
	depth       int // objects and arrays open at off
}

// arenaChunk is the least a decoder's string arena allocates at a time.
const arenaChunk = 1 << 10

// maxDepth is encoding/json's limit on nested objects and arrays.
const maxDepth = 10000

// The JSON names of each decoded struct's fields, in the order of the
// cases that read them.
var (
	requestFields = []string{"circuit", "blif", "bench", "algorithm", "options", "timeout_ms", "async"}
	optionFields  = []string{"max_width", "max_height", "objective", "clock_weight", "depth_weight",
		"always_footed", "pareto", "tuple_budget", "sequence_aware", "workers", "strash_off"}
	viewFields = []string{"id", "state", "circuit", "algorithm", "cached", "coalesced", "recovered",
		"elapsed_ms", "error", "result", "trace_id", "attribution"}
	resultFields = []string{"circuit", "algorithm", "options", "source", "unate", "duplicated_gates",
		"strash", "stats", "gates", "degraded"}
	resultOptionFields = []string{"max_width", "max_height", "objective", "clock_weight", "depth_weight",
		"always_footed", "pareto", "tuple_budget", "sequence_aware", "strash_off"}
	networkFields     = []string{"name", "inputs", "outputs", "gates", "depth"}
	strashFields      = []string{"nodes_in", "nodes_out", "merged", "folded", "dead"}
	statsFields       = []string{"t_logic", "t_disch", "t_total", "gates", "t_clock", "levels", "input_inverters"}
	gateFields        = []string{"id", "output", "level", "pulldown", "discharges", "footed", "compound"}
	compoundFields    = []string{"kind", "stages"}
	attributionFields = []string{"replica", "trace_id", "cache_tier", "queue_wait_ms", "wall_ms",
		"phases_ms", "strash_merged", "strash_folded", "strash_dead", "dp_tuples"}
)

// document reads the whole body: one value, read by value, with nothing
// but white space around it.
func (d *decoder) document(value func() error) error {
	d.space()
	if err := value(); err != nil {
		return err
	}
	d.space()
	if d.off < len(d.b) {
		return errAfterObject
	}
	return nil
}

// pointee reads null, which sets *p to nil, or a value into the T *p
// points to, made first if *p is nil: a repeated key's object is
// decoded into the T the first one made, as encoding/json decodes into
// a pointer.
func pointee[T any](d *decoder, p **T, read func(*T) error) error {
	if d.null() {
		*p = nil
		return nil
	}
	if *p == nil {
		*p = new(T)
	}
	return read(*p)
}

func (d *decoder) options(o *RequestOptions) error {
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

func (d *decoder) jobView(v *JobView) error {
	return d.object(viewFields, func(field int) error {
		switch field {
		case 0:
			return d.str(&v.ID)
		case 1:
			return d.str((*string)(&v.State))
		case 2:
			return d.str(&v.Circuit)
		case 3:
			return d.str(&v.Algorithm)
		case 4:
			return d.boolean(&v.Cached)
		case 5:
			return d.boolean(&v.Coalesced)
		case 6:
			return d.boolean(&v.Recovered)
		case 7:
			return d.num64(&v.ElapsedMS)
		case 8:
			return d.str(&v.Error)
		case 9:
			return pointee(d, &v.Result, d.result)
		case 10:
			return d.str(&v.TraceID)
		default:
			return pointee(d, &v.Attribution, d.attribution)
		}
	})
}

func (d *decoder) result(r *MapResult) error {
	return d.object(resultFields, func(field int) error {
		switch field {
		case 0:
			return d.str(&r.Circuit)
		case 1:
			return d.str(&r.Algorithm)
		case 2:
			return d.resultOptions(&r.Options)
		case 3:
			return d.network(&r.Source)
		case 4:
			return d.network(&r.Unate)
		case 5:
			return d.num(&r.Duplicated)
		case 6:
			return pointee(d, &r.Strash, d.strash)
		case 7:
			return d.stats(&r.Stats)
		case 8:
			return d.gates(&r.Gates, r.Stats.Gates)
		default:
			return d.boolean(&r.Degraded)
		}
	})
}

func (d *decoder) resultOptions(o *OptionsJSON) error {
	return d.object(resultOptionFields, func(field int) error {
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
		default:
			return d.boolean(&o.StrashOff)
		}
	})
}

func (d *decoder) network(n *NetworkJSON) error {
	return d.object(networkFields, func(field int) error {
		switch field {
		case 0:
			return d.str(&n.Name)
		case 1:
			return d.num(&n.Inputs)
		case 2:
			return d.num(&n.Outputs)
		case 3:
			return d.num(&n.Gates)
		default:
			return d.num(&n.Depth)
		}
	})
}

func (d *decoder) strash(s *StrashJSON) error {
	return d.object(strashFields, func(field int) error {
		switch field {
		case 0:
			return d.num(&s.NodesIn)
		case 1:
			return d.num(&s.NodesOut)
		case 2:
			return d.num(&s.Merged)
		case 3:
			return d.num(&s.Folded)
		default:
			return d.num(&s.Dead)
		}
	})
}

func (d *decoder) stats(s *StatsJSON) error {
	return d.object(statsFields, func(field int) error {
		switch field {
		case 0:
			return d.num(&s.TLogic)
		case 1:
			return d.num(&s.TDisch)
		case 2:
			return d.num(&s.TTotal)
		case 3:
			return d.num(&s.Gates)
		case 4:
			return d.num(&s.TClock)
		case 5:
			return d.num(&s.Levels)
		default:
			return d.num(&s.InputInverters)
		}
	})
}

// gates reads an array of gates, or null, which sets *dst to nil, into
// *dst as encoding/json decodes into a slice: the slice is reused, an
// element past its length is decoded into the element its backing array
// holds there (zero if none), and an empty array makes an empty slice.
// A full slice grows to hint elements at once, if the bytes left could
// hold that many, and as append grows it past them.
func (d *decoder) gates(dst *[]GateJSON, hint int) error {
	if d.null() {
		*dst = nil
		return nil
	}
	s := *dst
	hint = min(hint, (len(d.b)-d.off)/2)
	n := 0
	err := d.list('[', ']', func() error {
		if n == len(s) {
			if n == cap(s) {
				s = slices.Grow(s, max(1, hint-n))
			}
			s = s[:n+1]
		}
		n++
		return d.gate(&s[n-1])
	})
	if err != nil {
		return err
	}
	if n == 0 {
		s = []GateJSON{}
	}
	*dst = s[:n]
	return nil
}

func (d *decoder) gate(g *GateJSON) error {
	return d.object(gateFields, func(field int) error {
		switch field {
		case 0:
			return d.num(&g.ID)
		case 1:
			return d.str(&g.Output)
		case 2:
			return d.num(&g.Level)
		case 3:
			return d.num(&g.Pulldown)
		case 4:
			return d.num(&g.Discharges)
		case 5:
			return d.boolean(&g.Footed)
		default:
			return pointee(d, &g.Compound, d.compound)
		}
	})
}

func (d *decoder) compound(c *CompoundJSON) error {
	return d.object(compoundFields, func(field int) error {
		if field == 0 {
			return d.str(&c.Kind)
		}
		return d.num(&c.Stages)
	})
}

func (d *decoder) attribution(a *Attribution) error {
	return d.object(attributionFields, func(field int) error {
		switch field {
		case 0:
			return d.str(&a.Replica)
		case 1:
			return d.str(&a.TraceID)
		case 2:
			return d.str(&a.CacheTier)
		case 3:
			return d.float(&a.QueueWaitMS)
		case 4:
			return d.float(&a.WallMS)
		case 5:
			return d.phases(&a.PhasesMS)
		case 6:
			return d.num64(&a.StrashMerged)
		case 7:
			return d.num64(&a.StrashFolded)
		case 8:
			return d.num64(&a.StrashDead)
		default:
			return d.num64(&a.DPTuples)
		}
	})
}

// phases reads an object of phase times, or null, which sets *m to nil,
// into the map *m, made if nil. A null time is stored as 0, as
// encoding/json stores a map element.
func (d *decoder) phases(m *map[string]float64) error {
	if d.null() {
		*m = nil
		return nil
	}
	if *m == nil {
		*m = make(map[string]float64)
	}
	return d.list('{', '}', func() error {
		key, err := d.key()
		if err != nil {
			return err
		}
		if err := d.colon(); err != nil {
			return err
		}
		var ms float64
		if err := d.float(&ms); err != nil {
			return err
		}
		(*m)[d.text(key, len(key), true)] = ms
		return nil
	})
}

// object reads a JSON object whose keys each name a field in fields, or
// null, which leaves the fields as they were. member reads the value of
// each key with its field's index. A key names fields[i] when the two
// are equal under Unicode case folding, as encoding/json compares them.
// The value of a key that names no field is skipped under skipUnknown
// and an error otherwise.
func (d *decoder) object(fields []string, member func(field int) error) error {
	if d.null() {
		return nil
	}
	next := 0
	return d.list('{', '}', func() error {
		i, key, err := d.field(fields, next)
		if err != nil {
			return err
		}
		if i < 0 && !d.skipUnknown {
			return fmt.Errorf("json: unknown field %q", key)
		}
		if err := d.colon(); err != nil {
			return err
		}
		if i < 0 {
			return d.skip()
		}
		next = i + 1
		return member(i)
	})
}

// field reads an object key and returns the index of the field in
// fields it names, or -1, and the key. It tries fields[next] first: a
// key that is its name quoted, as a writer that follows the field order
// spells each key, is matched without a scan.
func (d *decoder) field(fields []string, next int) (int, []byte, error) {
	if next < len(fields) {
		f, i := fields[next], d.off+1
		if end := i + len(f); end < len(d.b) && d.b[d.off] == '"' && string(d.b[i:end]) == f && d.b[end] == '"' {
			d.off = end + 1
			return next, d.b[i:end], nil
		}
	}
	key, err := d.key()
	if err != nil {
		return 0, nil, err
	}
	for i := range fields {
		if i += next; i >= len(fields) {
			i -= len(fields)
		}
		if string(key) == fields[i] || bytes.EqualFold(key, []byte(fields[i])) {
			return i, key, nil
		}
	}
	return -1, key, nil
}

// colon reads the colon after an object key and the white space around
// it.
func (d *decoder) colon() error {
	d.space()
	if err := d.expect(':', "after object key"); err != nil {
		return err
	}
	d.space()
	return nil
}

// list reads a JSON object or array, opened by open and closed by
// close, calling each to read every member or element.
func (d *decoder) list(open, close byte, each func() error) error {
	if d.peek() != open {
		if open == '{' {
			return d.mistyped("an object")
		}
		return d.mistyped("an array")
	}
	d.off++
	if err := d.nest(); err != nil {
		return err
	}
	d.space()
	if d.peek() == close {
		d.off++
		d.depth--
		return nil
	}
	for {
		d.space()
		if err := each(); err != nil {
			return err
		}
		d.space()
		if d.peek() == ',' {
			d.off++
			continue
		}
		if err := d.expect(close, "after object member or array element"); err != nil {
			return err
		}
		d.depth--
		return nil
	}
}

// nest counts an object or array opened, failing past maxDepth.
func (d *decoder) nest() error {
	if d.depth++; d.depth > maxDepth {
		return errors.New("json: exceeded max depth")
	}
	return nil
}

// skip reads any JSON value and discards it.
func (d *decoder) skip() error {
	switch c := d.peek(); {
	case c == '{':
		return d.object(nil, nil)
	case c == '[':
		return d.list('[', ']', d.skip)
	case c == '"':
		_, _, _, err := d.scanString()
		return err
	case c == '-' || isDigit(c):
		_, _, err := d.number()
		return err
	case d.literal("true"), d.literal("false"), d.null():
		return nil
	default:
		return d.syntax("looking for beginning of value")
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
	var sb strings.Builder
	sb.Grow(n)
	unescape(&sb, raw)
	return []byte(sb.String()), nil
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
	*dst = d.text(raw, n, plain)
	return nil
}

// text returns the string scanString read as raw, n bytes once
// unescaped, which plain says raw already is: cut from the arena when
// the decoder has one, else in a string of its own.
func (d *decoder) text(raw []byte, n int, plain bool) string {
	sb := d.arena
	switch {
	case sb == nil:
		sb = new(strings.Builder)
	case sb.Cap()-sb.Len() < n:
		// A new chunk, not a grown copy: the strings cut so far keep
		// the old one.
		*sb = strings.Builder{}
		sb.Grow(max(n, arenaChunk))
	}
	start := sb.Len()
	sb.Grow(n)
	if plain {
		sb.Write(raw)
	} else {
		unescape(sb, raw)
	}
	return sb.String()[start:]
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
	lit, whole, err := d.number()
	if err != nil {
		return 0, false, err
	}
	if !whole {
		return 0, false, fmt.Errorf("json: number at offset %d is not an integer", start)
	}
	// Nine digits fit in any int; a longer literal is range-checked.
	digits := lit
	if lit[0] == '-' {
		digits = lit[1:]
	}
	if len(digits) <= 9 {
		for _, c := range digits {
			v = v*10 + int64(c-'0')
		}
		if len(digits) < len(lit) {
			v = -v
		}
		return v, true, nil
	}
	v, err = strconv.ParseInt(string(lit), 10, bits)
	if err != nil {
		return 0, false, fmt.Errorf("json: number %s out of range", lit)
	}
	return v, true, nil
}

// float reads a number or null into *dst; null leaves it as it was.
func (d *decoder) float(dst *float64) error {
	if d.null() {
		return nil
	}
	lit, _, err := d.number()
	if err != nil {
		return err
	}
	v, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return fmt.Errorf("json: number %s out of range", lit)
	}
	*dst = v
	return nil
}

// number reads a number literal as JSON's grammar spells it and returns
// it, and whether it is an integer literal: an optional minus and an
// integer part without leading zeros, with no fraction or exponent after.
func (d *decoder) number() (lit []byte, whole bool, err error) {
	b, start := d.b, d.off
	i := start
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i == len(b) || !isDigit(b[i]):
		d.off = i
		if i > start {
			return nil, false, d.syntax("in numeric literal")
		}
		return nil, false, d.mistyped("a number")
	case b[i] == '0':
		i++
	default:
		i = digits(b, i)
	}
	whole = true
	if i < len(b) && b[i] == '.' {
		if i++; i == len(b) || !isDigit(b[i]) {
			d.off = i
			return nil, false, d.syntax("after decimal point in numeric literal")
		}
		i, whole = digits(b, i), false
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i == len(b) || !isDigit(b[i]) {
			d.off = i
			return nil, false, d.syntax("in exponent of numeric literal")
		}
		i, whole = digits(b, i), false
	}
	d.off = i
	return b[start:i], whole, nil
}

// digits returns the offset of the first byte at or after i in b that
// is not a decimal digit.
func digits(b []byte, i int) int {
	for i < len(b) && isDigit(b[i]) {
		i++
	}
	return i
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

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

// unescape writes the contents of a JSON string that scanString
// accepted as raw to sb: escapes decoded, invalid UTF-8 replaced byte by
// byte with U+FFFD.
func unescape(sb *strings.Builder, raw []byte) {
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

// A run of indentation is skipped eight spaces at a time.
func (d *decoder) space() {
	b, i := d.b, d.off
	for i < len(b) && b[i] <= ' ' {
		if i+8 <= len(b) && binary.LittleEndian.Uint64(b[i:]) == eightSpaces {
			i += 8
			continue
		}
		if spaceBytes>>b[i]&1 == 0 {
			break
		}
		i++
	}
	d.off = i
}

const (
	// spaceBytes has bit c set for each byte c that is JSON white space.
	spaceBytes  = 1<<' ' | 1<<'\t' | 1<<'\r' | 1<<'\n'
	eightSpaces = 0x2020202020202020
)

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
	if len(d.b)-d.off < len(lit) || string(d.b[d.off:d.off+len(lit)]) != lit {
		return false
	}
	d.off += len(lit)
	return true
}

func (d *decoder) null() bool { return d.peek() == 'n' && d.literal("null") }

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

package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	"soidomino/internal/mapper"
	"soidomino/internal/report"
)

// MapResult is the JSON encoding of one finished mapping job. It is the
// single result type of the subsystem: the daemon returns it from the job
// API and `soimap -json` prints it, so the two outputs are byte-identical
// for the same circuit, algorithm and options (see EncodeJSON).
type MapResult struct {
	Circuit   string      `json:"circuit"`
	Algorithm string      `json:"algorithm"`
	Options   OptionsJSON `json:"options"`
	Source    NetworkJSON `json:"source"`
	// Unate describes the decomposed, unate-converted network the mapper
	// consumed; Duplicated counts the gates the bubble-pushing duplicated.
	Unate      NetworkJSON `json:"unate"`
	Duplicated int         `json:"duplicated_gates"`
	// Strash summarizes the canonicalization front-end's reduction;
	// absent when the run opted out (options.strash_off). The counts are
	// structural, not timing, so they are deterministic and safe inside
	// the byte-compared encoding.
	Strash *StrashJSON `json:"strash,omitempty"`
	Stats  StatsJSON   `json:"stats"`
	// Gates is set on a decoded result. One NewMapResult made leaves it
	// nil and holds the mapper's gates instead (gates): the writer
	// renders each gate from them, so no copy of the netlist is made.
	Gates []GateJSON `json:"gates"`
	// Degraded marks a Pareto run whose tuple budget overflowed: the
	// mapping is complete and audit-clean but frontier exploration was
	// truncated (see mapper.Result.Degraded).
	Degraded bool `json:"degraded,omitempty"`

	gates []*mapper.Gate // the mapped gates, non-nil when NewMapResult made r
}

// OptionsJSON mirrors the canonical mapper.Options a result was mapped
// under (mapper.Canonical): a field the algorithm does not read holds
// its default. Options.Workers, which no algorithm reads, is absent.
type OptionsJSON struct {
	MaxWidth      int    `json:"max_width"`
	MaxHeight     int    `json:"max_height"`
	Objective     string `json:"objective"`
	ClockWeight   int    `json:"clock_weight"`
	DepthWeight   int    `json:"depth_weight"`
	AlwaysFooted  bool   `json:"always_footed,omitempty"`
	Pareto        bool   `json:"pareto,omitempty"`
	TupleBudget   int    `json:"tuple_budget,omitempty"`
	SequenceAware bool   `json:"sequence_aware,omitempty"`
	StrashOff     bool   `json:"strash_off,omitempty"`
}

// StrashJSON summarizes the strash front-end's reduction of one source
// network (see strash.Counters).
type StrashJSON struct {
	NodesIn  int `json:"nodes_in"`
	NodesOut int `json:"nodes_out"`
	Merged   int `json:"merged"`
	Folded   int `json:"folded"`
	Dead     int `json:"dead"`
}

// NetworkJSON summarizes one logic network.
type NetworkJSON struct {
	Name    string `json:"name"`
	Inputs  int    `json:"inputs"`
	Outputs int    `json:"outputs"`
	Gates   int    `json:"gates"`
	Depth   int    `json:"depth"`
}

// StatsJSON mirrors mapper.Stats (the paper's reported metrics).
type StatsJSON struct {
	TLogic         int `json:"t_logic"`
	TDisch         int `json:"t_disch"`
	TTotal         int `json:"t_total"`
	Gates          int `json:"gates"`
	TClock         int `json:"t_clock"`
	Levels         int `json:"levels"`
	InputInverters int `json:"input_inverters"`
}

// GateJSON summarizes one mapped domino gate.
type GateJSON struct {
	ID         int    `json:"id"`
	Output     string `json:"output"`
	Level      int    `json:"level"`
	Pulldown   int    `json:"pulldown"`
	Discharges int    `json:"discharges"`
	Footed     bool   `json:"footed,omitempty"`
	// Compound is set for gates realized as multiple dynamic stages joined
	// by a static NAND/NOR (the paper's solution 7).
	Compound *CompoundJSON `json:"compound,omitempty"`
}

// CompoundJSON describes a compound gate's static output stage.
type CompoundJSON struct {
	Kind   string `json:"kind"`
	Stages int    `json:"stages"`
}

// NewMapResult flattens a finished pipeline + mapping into the shared
// encoding. The circuit argument names the submission (benchmark name or
// file stem); it may differ from the network's own name. The result
// holds res's gates, which EncodeJSON renders one by one, so res must
// not be changed until it is encoded.
func NewMapResult(circuit string, p *report.Pipeline, res *mapper.Result) *MapResult {
	srcStats, unateStats := p.OrigStats, p.UnateStats
	r := &MapResult{
		Circuit:   circuit,
		Algorithm: res.Algorithm,
		Options: OptionsJSON{
			MaxWidth:      res.Options.MaxWidth,
			MaxHeight:     res.Options.MaxHeight,
			Objective:     res.Options.Objective.String(),
			ClockWeight:   res.Options.ClockWeight,
			DepthWeight:   res.Options.DepthWeight,
			AlwaysFooted:  res.Options.AlwaysFooted,
			Pareto:        res.Options.Pareto,
			TupleBudget:   res.Options.TupleBudget,
			SequenceAware: res.Options.SequenceAware,
			StrashOff:     res.Options.StrashOff,
		},
		Source: NetworkJSON{
			Name:    p.Orig.Name,
			Inputs:  srcStats.Inputs,
			Outputs: srcStats.Outputs,
			Gates:   srcStats.Gates,
			Depth:   srcStats.Depth,
		},
		Unate: NetworkJSON{
			Name:    p.Unate.Name,
			Inputs:  unateStats.Inputs,
			Outputs: unateStats.Outputs,
			Gates:   unateStats.Gates,
			Depth:   unateStats.Depth,
		},
		Duplicated: p.Duplicated,
		Stats: StatsJSON{
			TLogic:         res.Stats.TLogic,
			TDisch:         res.Stats.TDisch,
			TTotal:         res.Stats.TTotal,
			Gates:          res.Stats.Gates,
			TClock:         res.Stats.TClock,
			Levels:         res.Stats.Levels,
			InputInverters: res.Stats.InputInverters,
		},
		Degraded: res.Degraded,
		gates:    res.Gates,
	}
	if r.gates == nil {
		r.gates = []*mapper.Gate{} // still written "[]", as a mapping with no gate is
	}
	if p.Strash != nil {
		c := p.Strash.Counters
		r.Strash = &StrashJSON{
			NodesIn: c.NodesIn, NodesOut: c.NodesOut,
			Merged: c.Merged, Folded: c.Folded, Dead: c.Dead,
		}
	}
	return r
}

// gate returns gate i in its wire form: read from Gates of a decoded
// result, or made from the held mapper gate, with c backing its
// Compound, so the caller keeps both on its stack.
func (r *MapResult) gate(i int, c *CompoundJSON) GateJSON {
	if r.gates == nil {
		return r.Gates[i]
	}
	g := r.gates[i]
	gj := GateJSON{
		ID:         g.ID,
		Output:     g.Output,
		Level:      int(g.Level),
		Pulldown:   g.Pulldown(),
		Discharges: len(g.Discharges),
		Footed:     g.Footed,
	}
	if g.Compound != nil {
		*c = CompoundJSON{Kind: g.Compound.Kind.String(), Stages: len(g.Compound.Stages)}
		gj.Compound = c
	}
	return gj
}

// EncodeJSON renders a MapResult in the subsystem's wire form: two-space
// indented JSON with a trailing newline, byte for byte what
// json.MarshalIndent(r, "", "  ") plus "\n" produces (FuzzEncodeJSON
// holds it to that oracle). Both soimapd and `soimap -json` go through
// this function, which is what makes their outputs comparable byte for
// byte. The writer walks the fields by hand into a pooled buffer and
// returns an exact-size copy; it cannot fail.
func EncodeJSON(r *MapResult) ([]byte, error) { return encodeResult(r), nil }

func encodeResult(r *MapResult) []byte {
	w := newWriter()
	defer w.release()
	r.write(&w)
	w.b = append(w.b, '\n')
	return bytes.Clone(w.b)
}

// checkEncoding reports whether b is a result this replica would serve:
// decoded as a MapResult and re-encoded, it must give b back byte for
// byte. An unknown field, a missing one or any other layout the writer
// would not produce fails, so a store or peer entry can never serve an
// answer the key does not determine.
func checkEncoding(b []byte) error {
	var r MapResult
	if err := json.Unmarshal(b, &r); err != nil {
		return err
	}
	if !bytes.Equal(encodeResult(&r), b) {
		return errors.New("result bytes differ from their re-encoding")
	}
	return nil
}

func (r *MapResult) write(w *jsonWriter) {
	w.open('{')
	w.str("circuit", r.Circuit)
	w.str("algorithm", r.Algorithm)
	w.key("options")
	o := &r.Options
	w.open('{')
	w.num("max_width", o.MaxWidth)
	w.num("max_height", o.MaxHeight)
	w.str("objective", o.Objective)
	w.num("clock_weight", o.ClockWeight)
	w.num("depth_weight", o.DepthWeight)
	w.flag("always_footed", o.AlwaysFooted)
	w.flag("pareto", o.Pareto)
	if o.TupleBudget != 0 {
		w.num("tuple_budget", o.TupleBudget)
	}
	w.flag("sequence_aware", o.SequenceAware)
	w.flag("strash_off", o.StrashOff)
	w.close('}')
	w.key("source")
	r.Source.write(w)
	w.key("unate")
	r.Unate.write(w)
	w.num("duplicated_gates", r.Duplicated)
	if c := r.Strash; c != nil {
		w.key("strash")
		w.open('{')
		w.num("nodes_in", c.NodesIn)
		w.num("nodes_out", c.NodesOut)
		w.num("merged", c.Merged)
		w.num("folded", c.Folded)
		w.num("dead", c.Dead)
		w.close('}')
	}
	w.key("stats")
	st := &r.Stats
	w.open('{')
	w.num("t_logic", st.TLogic)
	w.num("t_disch", st.TDisch)
	w.num("t_total", st.TTotal)
	w.num("gates", st.Gates)
	w.num("t_clock", st.TClock)
	w.num("levels", st.Levels)
	w.num("input_inverters", st.InputInverters)
	w.close('}')
	w.key("gates")
	n := len(r.Gates)
	if r.gates != nil {
		n = len(r.gates)
	}
	switch {
	case r.gates == nil && r.Gates == nil:
		w.b = append(w.b, "null"...)
	case n == 0:
		w.b = append(w.b, "[]"...)
	default:
		w.open('[')
		for i := range n {
			var c CompoundJSON
			g := r.gate(i, &c)
			w.elem()
			g.write(w)
		}
		w.close(']')
	}
	w.flag("degraded", r.Degraded)
	w.close('}')
}

func (g *GateJSON) write(w *jsonWriter) {
	w.open('{')
	w.num("id", g.ID)
	w.str("output", g.Output)
	w.num("level", g.Level)
	w.num("pulldown", g.Pulldown)
	w.num("discharges", g.Discharges)
	w.flag("footed", g.Footed)
	if c := g.Compound; c != nil {
		w.key("compound")
		w.open('{')
		w.str("kind", c.Kind)
		w.num("stages", c.Stages)
		w.close('}')
	}
	w.close('}')
}

func (n *NetworkJSON) write(w *jsonWriter) {
	w.open('{')
	w.str("name", n.Name)
	w.num("inputs", n.Inputs)
	w.num("outputs", n.Outputs)
	w.num("gates", n.Gates)
	w.num("depth", n.Depth)
	w.close('}')
}

// jsonWriter appends JSON in encoding/json's MarshalIndent(v, "", "  ")
// layout: one member per line, two spaces per nesting level. Keys are
// the callers' constant, escape-free literals. It never opens an empty
// object or array: no wire type has one (empty slices are written "[]"
// by the caller). A writer lives on its caller's stack, over a pooled
// buffer that release hands back.
type jsonWriter struct {
	b     []byte
	buf   *[]byte // the pooled buffer b grew from
	depth int
	first bool // the innermost open object or array has no member yet
}

var buffers = sync.Pool{New: func() any { return new([]byte) }}

func newWriter() jsonWriter {
	buf := buffers.Get().(*[]byte)
	return jsonWriter{b: (*buf)[:0], buf: buf}
}

func (w *jsonWriter) release() {
	*w.buf = w.b
	buffers.Put(w.buf)
}

// indents is a line break followed by more indentation than a writer
// reaches: a compound gate's members, four levels deep, are the deepest
// (a spliced encoding keeps its own indentation).
var indents = "\n" + strings.Repeat("  ", 8)

func (w *jsonWriter) open(c byte) {
	w.b = append(w.b, c)
	w.depth++
	w.first = true
}

func (w *jsonWriter) close(c byte) {
	w.depth--
	w.newline()
	w.b = append(w.b, c)
	w.first = false
}

func (w *jsonWriter) newline() {
	w.b = append(w.b, indents[:1+2*w.depth]...)
}

// elem starts the next member of the innermost open object or array.
func (w *jsonWriter) elem() {
	if !w.first {
		w.b = append(w.b, ',')
	}
	w.first = false
	w.newline()
}

func (w *jsonWriter) key(k string) {
	w.elem()
	w.b = append(w.b, '"')
	w.b = append(w.b, k...)
	w.b = append(w.b, `": `...)
}

func (w *jsonWriter) str(k, v string) {
	w.key(k)
	w.b = appendString(w.b, v)
}

func (w *jsonWriter) num(k string, v int) {
	w.key(k)
	w.b = strconv.AppendInt(w.b, int64(v), 10)
}

func (w *jsonWriter) boolean(k string, v bool) {
	w.key(k)
	w.b = strconv.AppendBool(w.b, v)
}

// flag writes an omitempty bool: present only when set.
func (w *jsonWriter) flag(k string, v bool) {
	if v {
		w.boolean(k, v)
	}
}

// spliced writes held, an encoding made at depth 0 with a trailing
// newline, as the value of k: its lines re-indented to the writer's
// depth, the newline dropped. JSON strings carry no raw newline, so
// every '\n' in held is a line break.
func (w *jsonWriter) spliced(k string, held []byte) {
	w.key(k)
	held = held[:len(held)-1]
	for {
		i := bytes.IndexByte(held, '\n')
		if i < 0 {
			w.b = append(w.b, held...)
			return
		}
		w.b = append(w.b, held[:i]...)
		w.newline()
		held = held[i+1:]
	}
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string literal with encoding/json's
// escaping: '"' and '\\' backslashed; \b \f \n \r \t by name; other
// control bytes and the HTML-sensitive '<', '>' and '&' as \u00XX;
// U+2028 and U+2029 as \u2028 and \u2029; each byte of invalid UTF-8
// as \ufffd.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

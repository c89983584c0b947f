// Package blif reads and writes a practical subset of the Berkeley Logic
// Interchange Format (BLIF), the interchange format the original ISCAS/MCNC
// benchmark suites circulate in. Supported constructs:
//
//	.model NAME
//	.inputs A B C ...          (continuation with trailing \ allowed)
//	.outputs X Y ...
//	.names in1 in2 ... out     followed by a PLA cover (rows of 01- + output)
//	.end
//
// Covers are converted into AND/OR/NOT networks: each on-set row becomes a
// product of literals, rows are OR-ed together; off-set covers (output
// column 0) are built the same way and complemented. Latches, subcircuits
// and don't-care covers are rejected with a descriptive error.
//
// There is one reader. It lexes the text in place (lines and fields are
// substrings of it) into flat cover and row tables, then lowers each
// cover into a Builder: a *logic.Network for Parse, or strash's
// hash-consing builder when only the structural key is wanted (Lower).
package blif

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"unicode"
	"unicode/utf8"

	"soidomino/internal/faultpoint"
	"soidomino/internal/logic"
)

// PointParse is the fault-injection point at the head of every parse: a
// stand-in for I/O and syntax failures on untrusted input.
var PointParse = faultpoint.Define("blif.parse", "before reading the first BLIF line")

// Input bounds: malformed or adversarial files must produce a clear error,
// never a panic or unbounded allocation.
const (
	// maxLineBytes caps one physical line.
	maxLineBytes = 1 << 20
	// maxLogicalLine caps a backslash-continued logical line, so a file of
	// endless continuations cannot accumulate memory without limit.
	maxLogicalLine = 1 << 20
	// maxEmitDepth caps .names reference nesting during network
	// construction, bounding recursion on degenerate deep chains.
	maxEmitDepth = 10000
)

// Builder receives a parsed model node by node, every fanin before the
// gate that reads it. The ids are the builder's own, and a call may
// return an id it returned before. *logic.Network implements it (Parse's
// result), and so does strash.Builder, which keys a source from its text
// without building a network.
type Builder interface {
	AddInput(name string) int
	AddConst(value bool) int
	AddGate(op logic.Op, fanin ...int) int
	AddOutput(name string, node int)
}

// Parse reads a single .model from r and builds the equivalent network.
func Parse(r io.Reader) (*logic.Network, error) {
	var sb strings.Builder
	if l, ok := r.(interface{ Len() int }); ok {
		sb.Grow(l.Len())
	}
	if _, err := io.Copy(&sb, r); err != nil {
		return nil, fmt.Errorf("blif: %w", err)
	}
	return ParseString(sb.String())
}

// ParseString is Parse over a string.
func ParseString(s string) (*logic.Network, error) {
	return ParseContext(context.Background(), s)
}

// ParseContext is ParseString honoring any fault-injection registry
// carried by ctx (the parser itself has no cancellation points; parsing
// is fast). It lexes src in place, without copying it.
func ParseContext(ctx context.Context, src string) (*logic.Network, error) {
	n := logic.New("")
	model, err := Lower(ctx, src, n)
	if err != nil {
		return nil, err
	}
	n.Name = model
	return n, n.Check()
}

// Lower parses the single .model in src into b and returns the model
// name ("blif" when none is declared). It reports exactly the errors
// Parse does. When b is a *logic.Network, each gate is named after the
// cover that defines it, as Parse names them.
func Lower(ctx context.Context, src string, b Builder) (string, error) {
	if err := faultpoint.From(ctx).Check(ctx, PointParse); err != nil {
		return "", fmt.Errorf("blif: %w", err)
	}
	p := newParser(src)
	if err := p.lex(src); err != nil {
		return "", err
	}
	if err := p.build(b); err != nil {
		return "", err
	}
	if p.model == "" {
		return "blif", nil
	}
	return p.model, nil
}

// signal is one name the text mentions: a primary input, a cover's
// output, or a fanin that may be either or neither.
type signal struct {
	name  string
	cover int32 // index into parser.covers, -1 for none
	id    int32 // builder id once built, else unbuilt or building
}

// signal.id before the signal is built, and while its cover's fanins
// are being built (a cycle reaches it then).
const (
	unbuilt  = -1
	building = -2
)

// cover is one .names block: a PLA over fanins[inLo:inHi] driving out,
// with rows[rowLo:rowHi].
type cover struct {
	out          int32
	inLo, inHi   int32
	rowLo, rowHi int32
}

type row struct {
	pattern string // one byte per input: '0', '1' or '-'
	value   byte   // '0' or '1'
}

// parser holds one text's tables: every signal once, indexed by name,
// and the covers, their fanins and their rows in flat slices. The
// scratch slices are reused across covers; memo[id] is the inverter of
// builder node id for the cover being lowered when memoAt[id] == stamp.
type parser struct {
	model   string
	index   map[string]int32
	sigs    []signal
	inputs  []int32
	outputs []int32
	covers  []cover
	fanins  []int32
	rows    []row
	current int32 // the open cover, -1 outside a .names block

	join []byte // a continued logical line being joined

	net    *logic.Network // b when it is a network: gates get names
	ids    []int          // fanin ids of the covers being built, a stack
	lits   []int
	terms  []int
	one    [1]int
	memo   []int
	memoAt []int32
	stamp  int32
}

// newParser returns a parser with its tables sized for src from counts
// that blank lines and comments cannot inflate: the lines that open with
// a directive, with .names, and with a cover character. Lines that open
// with white space are not counted; the tables grow to hold them. What
// Write emits has no other lines, so its rows fit exactly and memo gets
// an entry per line and one more.
func newParser(src string) *parser {
	var directives, names, rows int
	for line := src; line != ""; {
		switch line[0] {
		case '.':
			directives++
			if strings.HasPrefix(line, ".names") {
				names++
			}
		case '0', '1', '-':
			rows++
		}
		i := strings.IndexByte(line, '\n')
		if i < 0 {
			break
		}
		line = line[i+1:]
	}
	lines := directives + rows + 1
	sigs := names + names/4 + 8
	return &parser{
		index:   make(map[string]int32, sigs),
		sigs:    make([]signal, 0, sigs),
		covers:  make([]cover, 0, names),
		fanins:  make([]int32, 0, 2*names),
		rows:    make([]row, 0, rows),
		memo:    make([]int, lines),
		memoAt:  make([]int32, lines),
		current: -1,
	}
}

// lex reads src's lines into the parser's tables. Lines end at '\n' (a
// '\r' before it is dropped), '#' starts a comment, and a trailing '\'
// continues a line onto the next.
func (p *parser) lex(src string) error {
	lineno := 0
	for pos := 0; pos < len(src); {
		lineno++
		raw := src[pos:]
		if i := strings.IndexByte(raw, '\n'); i >= 0 {
			raw = raw[:i]
			pos += i + 1
		} else {
			pos = len(src)
		}
		if len(raw) >= maxLineBytes {
			return fmt.Errorf("blif: line %d: line exceeds %d bytes", lineno, maxLineBytes)
		}
		line := strings.TrimSuffix(raw, "\r")
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if len(p.join)+len(line) > maxLogicalLine {
			return fmt.Errorf("blif: line %d: continued line exceeds %d bytes", lineno, maxLogicalLine)
		}
		if strings.HasSuffix(line, "\\") {
			p.join = append(append(p.join, line[:len(line)-1]...), ' ')
			continue
		}
		if len(p.join) > 0 {
			line = string(append(p.join, line...))
			p.join = p.join[:0]
		}
		if line == "" {
			continue
		}
		if err := p.line(line); err != nil {
			return fmt.Errorf("blif: line %d: %w", lineno, err)
		}
	}
	return nil
}

// nextField splits s's first field off the rest, splitting at Unicode
// white space as strings.Fields does. ASCII is scanned a byte at a time;
// the first non-ASCII byte hands the scan to the rune decoder.
func nextField(s string) (field, rest string) {
	i := 0
	for i < len(s) && s[i] < utf8.RuneSelf && asciiSpace[s[i]] {
		i++
	}
	if i < len(s) && s[i] >= utf8.RuneSelf {
		i = scanRunes(s, i, true)
	}
	j := i
	for j < len(s) && s[j] < utf8.RuneSelf && !asciiSpace[s[j]] {
		j++
	}
	if j < len(s) && s[j] >= utf8.RuneSelf {
		j = scanRunes(s, j, false)
	}
	return s[i:j], s[j:]
}

var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// scanRunes returns the offset of the first rune at or after i that is
// (space false) or is not (space true) Unicode white space.
func scanRunes(s string, i int, space bool) int {
	for i < len(s) {
		r, size := utf8.DecodeRuneInString(s[i:])
		if unicode.IsSpace(r) != space {
			break
		}
		i += size
	}
	return i
}

// intern returns the signal named name, adding it on first mention.
func (p *parser) intern(name string) int32 {
	if s, ok := p.index[name]; ok {
		return s
	}
	s := int32(len(p.sigs))
	p.sigs = append(p.sigs, signal{name: name, cover: -1, id: unbuilt})
	p.index[name] = s
	return s
}

// internAll appends the signals named by the fields of s to list.
func (p *parser) internAll(list []int32, s string) []int32 {
	for f, rest := nextField(s); f != ""; f, rest = nextField(rest) {
		list = append(list, p.intern(f))
	}
	return list
}

func (p *parser) line(line string) error {
	if line[0] != '.' {
		return p.coverRow(line)
	}
	p.current = -1
	directive, rest := nextField(line)
	switch directive {
	case ".model":
		if name, _ := nextField(rest); name != "" {
			p.model = name
		}
	case ".inputs":
		p.inputs = p.internAll(p.inputs, rest)
	case ".outputs":
		p.outputs = p.internAll(p.outputs, rest)
	case ".names":
		// Every field is a fanin but the last, the cover's output.
		lo := int32(len(p.fanins))
		p.fanins = p.internAll(p.fanins, rest)
		if int32(len(p.fanins)) == lo {
			return fmt.Errorf(".names needs at least an output signal")
		}
		out := p.fanins[len(p.fanins)-1]
		p.fanins = p.fanins[:len(p.fanins)-1]
		if p.sigs[out].cover >= 0 {
			return fmt.Errorf("signal %q defined twice", p.sigs[out].name)
		}
		c := cover{out: out, inLo: lo, inHi: int32(len(p.fanins)), rowLo: int32(len(p.rows)), rowHi: int32(len(p.rows))}
		p.current = int32(len(p.covers))
		p.sigs[out].cover = p.current
		p.covers = append(p.covers, c)
	case ".latch", ".subckt", ".gate", ".mlatch":
		return fmt.Errorf("%s is not supported (combinational BLIF only)", directive)
	default:
		// .end and unknown dot-directives (.default_input_arrival etc.)
		// carry nothing the network needs.
	}
	return nil
}

func (p *parser) coverRow(line string) error {
	if p.current < 0 {
		return fmt.Errorf("cover row %q outside a .names block", line)
	}
	c := &p.covers[p.current]
	k := int(c.inHi - c.inLo)
	in, rest := nextField(line)
	out, rest := nextField(rest)
	extra, _ := nextField(rest)
	switch {
	case k == 0 && in != "" && out == "":
		if in != "0" && in != "1" {
			return fmt.Errorf("constant cover value %q", in)
		}
		p.rows = append(p.rows, row{value: in[0]})
	case out != "" && extra == "":
		if len(in) != k {
			return fmt.Errorf("cover row width %d for %d inputs", len(in), k)
		}
		for _, ch := range in {
			if ch != '0' && ch != '1' && ch != '-' {
				return fmt.Errorf("bad cover character %q", ch)
			}
		}
		if out != "0" && out != "1" {
			return fmt.Errorf("bad cover output %q", out)
		}
		p.rows = append(p.rows, row{pattern: in, value: out[0]})
	default:
		return fmt.Errorf("malformed cover row %q", line)
	}
	c.rowHi = int32(len(p.rows))
	if p.rows[c.rowLo].value != p.rows[c.rowHi-1].value {
		return fmt.Errorf("mixed on-set and off-set rows for %q", p.sigs[c.out].name)
	}
	return nil
}

// build adds the inputs to b, then every cover in declaration order (so
// unreferenced logic is kept), each after its fanins, then the outputs.
func (p *parser) build(b Builder) error {
	p.net, _ = b.(*logic.Network)
	for _, s := range p.inputs {
		sg := &p.sigs[s]
		if sg.id >= 0 {
			return fmt.Errorf("blif: duplicate input %q", sg.name)
		}
		sg.id = int32(b.AddInput(sg.name))
	}
	for _, c := range p.covers {
		if _, err := p.emit(b, c.out, 0); err != nil {
			return err
		}
	}
	for _, s := range p.outputs {
		id, err := p.emit(b, s, 0)
		if err != nil {
			return err
		}
		b.AddOutput(p.sigs[s].name, id)
	}
	return nil
}

// emit returns the builder id of signal s, building its cover (and,
// first, the covers of its fanins) on first use.
func (p *parser) emit(b Builder, s int32, depth int) (int, error) {
	sg := &p.sigs[s]
	if sg.id >= 0 {
		return int(sg.id), nil
	}
	if sg.cover < 0 {
		return -1, fmt.Errorf("blif: signal %q is never defined", sg.name)
	}
	if sg.id == building {
		return -1, fmt.Errorf("blif: combinational cycle through %q", sg.name)
	}
	if depth > maxEmitDepth {
		return -1, fmt.Errorf("blif: signal %q nested deeper than %d", sg.name, maxEmitDepth)
	}
	sg.id = building
	c := &p.covers[sg.cover]
	lo := len(p.ids)
	for _, f := range p.fanins[c.inLo:c.inHi] {
		id, err := p.emit(b, f, depth+1)
		if err != nil {
			return -1, err
		}
		p.ids = append(p.ids, id)
	}
	id := p.lower(b, c, p.ids[lo:])
	p.ids = p.ids[:lo]
	// A buffer cover over a primary input returns the input itself;
	// naming the node after the cover would rename the input.
	if p.net != nil && p.net.Nodes[id].Op != logic.Input {
		p.net.Nodes[id].Name = sg.name
	}
	sg.id = int32(id)
	return id, nil
}

// lower builds one PLA cover over the fanin ids and returns the id of
// the node computing its output.
func (p *parser) lower(b Builder, c *cover, fanin []int) int {
	rows := p.rows[c.rowLo:c.rowHi]
	if len(rows) == 0 {
		// An empty cover is constant 0 by BLIF convention.
		return b.AddConst(false)
	}
	onSet := rows[0].value == '1'
	if len(fanin) == 0 {
		return b.AddConst(onSet)
	}
	p.stamp++ // a fresh inverter memo, shared across the cover's rows
	terms := p.terms[:0]
	for _, r := range rows {
		lits := p.lits[:0]
		for i := 0; i < len(r.pattern); i++ {
			switch r.pattern[i] {
			case '1':
				lits = append(lits, fanin[i])
			case '0':
				lits = append(lits, p.inv(b, fanin[i]))
			}
		}
		p.lits = lits
		switch len(lits) {
		case 0:
			// Row of all '-': tautology.
			terms = append(terms, b.AddConst(true))
		case 1:
			terms = append(terms, lits[0])
		default:
			terms = append(terms, b.AddGate(logic.And, lits...))
		}
	}
	p.terms = terms
	root := terms[0]
	if len(terms) > 1 {
		root = b.AddGate(logic.Or, terms...)
	}
	if !onSet {
		root = p.not(b, root)
	}
	return root
}

// inv returns NOT id, built once per cover.
func (p *parser) inv(b Builder, id int) int {
	if id >= len(p.memo) {
		size := max(2*len(p.memo), id+1, 64)
		p.memo = append(p.memo, make([]int, size-len(p.memo))...)
		p.memoAt = append(p.memoAt, make([]int32, size-len(p.memoAt))...)
	}
	if p.memoAt[id] != p.stamp {
		p.memo[id] = p.not(b, id)
		p.memoAt[id] = p.stamp
	}
	return p.memo[id]
}

// not adds NOT id through a one-element scratch fanin list, so the call
// through the interface allocates nothing.
func (p *parser) not(b Builder, id int) int {
	p.one[0] = id
	return b.AddGate(logic.Not, p.one[:]...)
}

// Write renders the network as BLIF. Every node is written as a .names
// block under its own name, or a generated n<id>, suffixed with "_"
// until it names no other signal: a parsed network may hold an n1 too.
func Write(w io.Writer, n *logic.Network) error {
	bw := bufio.NewWriter(w)
	taken := make(map[string]bool, len(n.Nodes)+len(n.Outputs))
	for _, node := range n.Nodes {
		taken[node.Name] = true
	}
	for _, out := range n.Outputs {
		taken[out.Name] = true
	}
	names := make([]string, len(n.Nodes))
	for id, node := range n.Nodes {
		names[id] = node.Name
		if node.Name == "" {
			names[id] = fmt.Sprintf("n%d", id)
			for taken[names[id]] {
				names[id] += "_"
			}
			taken[names[id]] = true
		}
	}
	name := func(id int) string { return names[id] }
	fmt.Fprintf(bw, ".model %s\n", n.Name)
	fmt.Fprint(bw, ".inputs")
	for _, id := range n.Inputs {
		fmt.Fprintf(bw, " %s", name(id))
	}
	fmt.Fprintln(bw)
	fmt.Fprint(bw, ".outputs")
	outAlias := make(map[string]int)
	for _, out := range n.Outputs {
		fmt.Fprintf(bw, " %s", out.Name)
		outAlias[out.Name] = out.Node
	}
	fmt.Fprintln(bw)
	for id, node := range n.Nodes {
		if node.Op == logic.Input {
			continue
		}
		if err := writeNode(bw, n, id, name); err != nil {
			return err
		}
	}
	// Outputs whose name differs from their driver get a buffer cover.
	outs := make([]string, 0, len(outAlias))
	for o := range outAlias {
		outs = append(outs, o)
	}
	sort.Strings(outs)
	for _, o := range outs {
		drv := name(outAlias[o])
		if drv != o {
			fmt.Fprintf(bw, ".names %s %s\n1 1\n", drv, o)
		}
	}
	fmt.Fprintln(bw, ".end")
	return bw.Flush()
}

func writeNode(w io.Writer, n *logic.Network, id int, name func(int) string) error {
	node := n.Nodes[id]
	fmt.Fprint(w, ".names")
	for _, f := range node.Fanin {
		fmt.Fprintf(w, " %s", name(f))
	}
	fmt.Fprintf(w, " %s\n", name(id))
	k := len(node.Fanin)
	pattern := func(fill byte) []byte {
		b := make([]byte, k)
		for i := range b {
			b[i] = fill
		}
		return b
	}
	switch node.Op {
	case logic.Const0:
		fmt.Fprintln(w, "0") // explicit, though empty cover means 0 too
	case logic.Const1:
		fmt.Fprintln(w, "1")
	case logic.Buf:
		fmt.Fprintln(w, "1 1")
	case logic.Not:
		fmt.Fprintln(w, "0 1")
	case logic.And:
		fmt.Fprintf(w, "%s 1\n", pattern('1'))
	case logic.Nand:
		for i := 0; i < k; i++ {
			row := pattern('-')
			row[i] = '0'
			fmt.Fprintf(w, "%s 1\n", row)
		}
	case logic.Or:
		for i := 0; i < k; i++ {
			row := pattern('-')
			row[i] = '1'
			fmt.Fprintf(w, "%s 1\n", row)
		}
	case logic.Nor:
		fmt.Fprintf(w, "%s 1\n", pattern('0'))
	case logic.Xor, logic.Xnor:
		wantOdd := node.Op == logic.Xor
		for m := 0; m < 1<<k; m++ {
			ones := 0
			row := pattern('0')
			for i := 0; i < k; i++ {
				if m&(1<<i) != 0 {
					row[i] = '1'
					ones++
				}
			}
			if (ones%2 == 1) == wantOdd {
				fmt.Fprintf(w, "%s 1\n", row)
			}
		}
	default:
		return fmt.Errorf("blif: cannot write op %v", node.Op)
	}
	return nil
}

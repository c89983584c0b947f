// Package benchfmt reads and writes the ISCAS-89 ".bench" netlist format,
// the other common distribution format of the benchmark circuits the
// paper evaluates:
//
//	# comment
//	INPUT(G1)
//	OUTPUT(G17)
//	G10 = NAND(G1, G3)
//	G17 = NOT(G10)
//
// Supported functions: AND, OR, NAND, NOR, XOR, XNOR, NOT, BUF/BUFF.
// Sequential elements (DFF) are rejected: the mapper is combinational.
package benchfmt

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strings"

	"soidomino/internal/logic"
)

// Input bounds: malformed or adversarial files must produce a clear error,
// never a panic or unbounded work.
const (
	// maxLineBytes caps one line (the scanner buffer).
	maxLineBytes = 1 << 20
	// maxEmitDepth caps gate reference nesting during network
	// construction, bounding recursion on degenerate deep chains.
	maxEmitDepth = 10000
)

// Parse reads a .bench netlist and builds the equivalent network.
func Parse(name string, r io.Reader) (*logic.Network, error) {
	type def struct {
		op     logic.Op
		fanins []string
		line   int
	}
	defs := make(map[string]*def)
	var inputs, outputs, order []string

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxLineBytes)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := sc.Text()
		if i := strings.Index(line, "#"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		upper := strings.ToUpper(line)
		switch {
		case strings.HasPrefix(upper, "INPUT(") || strings.HasPrefix(upper, "OUTPUT("):
			open := strings.Index(line, "(")
			closeIdx := strings.LastIndex(line, ")")
			if closeIdx < open {
				return nil, fmt.Errorf("benchfmt: line %d: malformed %q", lineno, line)
			}
			sig := strings.TrimSpace(line[open+1 : closeIdx])
			if sig == "" {
				return nil, fmt.Errorf("benchfmt: line %d: empty signal name", lineno)
			}
			if strings.HasPrefix(upper, "INPUT(") {
				inputs = append(inputs, sig)
			} else {
				outputs = append(outputs, sig)
			}
		case strings.Contains(line, "="):
			eq := strings.Index(line, "=")
			lhs := strings.TrimSpace(line[:eq])
			rhs := strings.TrimSpace(line[eq+1:])
			open := strings.Index(rhs, "(")
			closeIdx := strings.LastIndex(rhs, ")")
			if lhs == "" || open < 0 || closeIdx < open {
				return nil, fmt.Errorf("benchfmt: line %d: malformed gate %q", lineno, line)
			}
			fn := strings.ToUpper(strings.TrimSpace(rhs[:open]))
			op, ok := opFromName(fn)
			if !ok {
				return nil, fmt.Errorf("benchfmt: line %d: unsupported function %q (combinational only)", lineno, fn)
			}
			var fanins []string
			for _, f := range strings.Split(rhs[open+1:closeIdx], ",") {
				f = strings.TrimSpace(f)
				if f == "" {
					return nil, fmt.Errorf("benchfmt: line %d: empty fanin", lineno)
				}
				fanins = append(fanins, f)
			}
			if _, dup := defs[lhs]; dup {
				return nil, fmt.Errorf("benchfmt: line %d: signal %q defined twice", lineno, lhs)
			}
			defs[lhs] = &def{op: op, fanins: fanins, line: lineno}
			order = append(order, lhs)
		default:
			return nil, fmt.Errorf("benchfmt: line %d: unrecognized %q", lineno, line)
		}
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return nil, fmt.Errorf("benchfmt: line %d: line exceeds %d bytes", lineno+1, maxLineBytes)
		}
		return nil, fmt.Errorf("benchfmt: %w", err)
	}

	n := logic.New(name)
	ids := make(map[string]int, len(inputs)+len(defs))
	for _, in := range inputs {
		if _, dup := ids[in]; dup {
			return nil, fmt.Errorf("benchfmt: duplicate input %q", in)
		}
		ids[in] = n.AddInput(in)
	}
	visiting := make(map[string]bool)
	var emit func(sig string, depth int) (int, error)
	emit = func(sig string, depth int) (int, error) {
		if id, ok := ids[sig]; ok {
			return id, nil
		}
		d, ok := defs[sig]
		if !ok {
			return -1, fmt.Errorf("benchfmt: signal %q never defined", sig)
		}
		if visiting[sig] {
			return -1, fmt.Errorf("benchfmt: combinational cycle through %q", sig)
		}
		if depth > maxEmitDepth {
			return -1, fmt.Errorf("benchfmt: signal %q nested deeper than %d", sig, maxEmitDepth)
		}
		visiting[sig] = true
		fan := make([]int, len(d.fanins))
		for i, f := range d.fanins {
			id, err := emit(f, depth+1)
			if err != nil {
				return -1, err
			}
			fan[i] = id
		}
		delete(visiting, sig)
		if len(fan) < d.op.MinFanin() || (d.op.MaxFanin() >= 0 && len(fan) > d.op.MaxFanin()) {
			return -1, fmt.Errorf("benchfmt: line %d: %s with %d fanins", d.line, d.op, len(fan))
		}
		id := n.AddGate(d.op, fan...)
		n.Nodes[id].Name = sig
		ids[sig] = id
		return id, nil
	}
	for _, sig := range order {
		if _, err := emit(sig, 0); err != nil {
			return nil, err
		}
	}
	for _, out := range outputs {
		id, err := emit(out, 0)
		if err != nil {
			return nil, err
		}
		n.AddOutput(out, id)
	}
	return n, n.Check()
}

// ParseString is Parse over a string.
func ParseString(name, s string) (*logic.Network, error) {
	return Parse(name, strings.NewReader(s))
}

func opFromName(fn string) (logic.Op, bool) {
	switch fn {
	case "AND":
		return logic.And, true
	case "OR":
		return logic.Or, true
	case "NAND":
		return logic.Nand, true
	case "NOR":
		return logic.Nor, true
	case "XOR":
		return logic.Xor, true
	case "XNOR":
		return logic.Xnor, true
	case "NOT", "INV":
		return logic.Not, true
	case "BUF", "BUFF":
		return logic.Buf, true
	}
	return 0, false
}

var opToName = map[logic.Op]string{
	logic.And:  "AND",
	logic.Or:   "OR",
	logic.Nand: "NAND",
	logic.Nor:  "NOR",
	logic.Xor:  "XOR",
	logic.Xnor: "XNOR",
	logic.Not:  "NOT",
	logic.Buf:  "BUFF",
}

// Write renders the network in .bench syntax. Constants have no .bench
// representation and are rejected.
func Write(w io.Writer, n *logic.Network) error {
	bw := bufio.NewWriter(w)
	name := func(id int) string {
		if nm := n.Nodes[id].Name; nm != "" {
			return nm
		}
		return fmt.Sprintf("N%d", id)
	}
	fmt.Fprintf(bw, "# %s\n", n.Name)
	for _, id := range n.Inputs {
		fmt.Fprintf(bw, "INPUT(%s)\n", name(id))
	}
	// Outputs whose name differs from their driver get a BUFF alias so the
	// primary-output names survive a round trip.
	named := make(map[string]bool, len(n.Nodes))
	for _, node := range n.Nodes {
		if node.Name != "" {
			named[node.Name] = true
		}
	}
	type alias struct{ out, drv string }
	var aliases []alias
	for _, out := range n.Outputs {
		drv := name(out.Node)
		if out.Name != drv && !named[out.Name] {
			aliases = append(aliases, alias{out.Name, drv})
			fmt.Fprintf(bw, "OUTPUT(%s)\n", out.Name)
			continue
		}
		fmt.Fprintf(bw, "OUTPUT(%s)\n", drv)
	}
	for id, node := range n.Nodes {
		switch node.Op {
		case logic.Input:
			continue
		case logic.Const0, logic.Const1:
			return fmt.Errorf("benchfmt: node %d: constants are not representable in .bench", id)
		}
		fn, ok := opToName[node.Op]
		if !ok {
			return fmt.Errorf("benchfmt: node %d: cannot write op %s", id, node.Op)
		}
		names := make([]string, len(node.Fanin))
		for i, f := range node.Fanin {
			names[i] = name(f)
		}
		fmt.Fprintf(bw, "%s = %s(%s)\n", name(id), fn, strings.Join(names, ", "))
	}
	for _, a := range aliases {
		fmt.Fprintf(bw, "%s = BUFF(%s)\n", a.out, a.drv)
	}
	return bw.Flush()
}

package mapper

import (
	"bufio"
	"fmt"
	"io"
	"sort"

	"soidomino/internal/sp"
)

// WriteDot renders the mapped circuit in Graphviz dot format: one node per
// domino gate labeled with its pulldown expression, discharge count and
// level; edges follow the domino cascade; primary inputs as boxes and
// outputs as double circles. Useful for inspecting small mappings.
func (r *Result) WriteDot(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "digraph %q {\n  rankdir=LR;\n", r.Name)

	inputs := make(map[string]bool)
	for _, g := range r.Gates {
		for _, n := range g.Nodes {
			if n.Kind == sp.Leaf && n.FromPI() {
				inputs[r.Signal(n)] = true
			}
		}
	}
	names := make([]string, 0, len(inputs))
	for in := range inputs {
		names = append(names, in)
	}
	sort.Strings(names)
	for _, in := range names {
		fmt.Fprintf(bw, "  in_%s [label=%q, shape=box];\n", sanitizeDotName(in), in)
	}

	for _, g := range r.Gates {
		kind := "domino"
		if g.Compound != nil {
			kind = fmt.Sprintf("compound-%s", g.Compound.Kind)
		}
		foot := ""
		if g.Footed {
			foot = ", footed"
		}
		fmt.Fprintf(bw, "  g%d [label=\"%s\\n%s\\n%s, L%d%s, %dT+%dD\", shape=ellipse];\n",
			g.ID, g.Output, r.Expr(g.Nodes), kind, g.Level, foot,
			g.LogicTransistors(), len(g.Discharges))
		seen := make(map[string]bool)
		for _, n := range g.Nodes {
			if n.Kind != sp.Leaf {
				continue
			}
			var src string
			if ref := n.Gate(); ref >= 0 {
				src = fmt.Sprintf("g%d", ref)
			} else {
				src = "in_" + sanitizeDotName(r.Signal(n))
			}
			if seen[src] {
				continue
			}
			seen[src] = true
			fmt.Fprintf(bw, "  %s -> g%d;\n", src, g.ID)
		}
	}

	outs := make([]string, 0, len(r.OutputGate))
	for name := range r.OutputGate {
		outs = append(outs, name)
	}
	sort.Strings(outs)
	for _, name := range outs {
		fmt.Fprintf(bw, "  out_%s [label=%q, shape=doublecircle];\n", sanitizeDotName(name), name)
		fmt.Fprintf(bw, "  g%d -> out_%s;\n", r.OutputGate[name], sanitizeDotName(name))
	}
	fmt.Fprintln(bw, "}")
	return bw.Flush()
}

func sanitizeDotName(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	if len(out) == 0 {
		return "_"
	}
	return string(out)
}

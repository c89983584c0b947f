// Package corpus is the fixed set of BLIF sources that pins the reader:
// the parse golden (testdata/blif_parse.golden) records what the reader
// makes of each, and the service's key-agreement test holds the text-path
// key to the network-path key on each. It covers every registry circuit
// and a seeded random set as blif.Write renders them, the committed .blif
// files, hand-written texts for the grammar's corners, and one malformed
// text per error branch.
package corpus

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"soidomino/internal/bench"
	"soidomino/internal/blif"
	"soidomino/internal/logic"
)

// Source is one BLIF text and the label the golden files it under.
type Source struct {
	Label string
	Text  string
}

// RandomSeeds is how many seeded bench.Random networks Sources covers.
const RandomSeeds = 600

// Random is the seed'th random network: the size and the wide-gate,
// constant, reconvergence and input-driven-output knobs vary with the
// seed so the set reaches wide covers, XOR truth tables, constants and
// buffer covers on inputs.
func Random(seed int64) *logic.Network {
	p := bench.DefaultRandParams(seed)
	p.Inputs = 2 + int(seed%7)
	p.Outputs = 1 + int(seed%5)
	p.Gates = 1 + int(seed*37%90)
	p.WideFrac = float64(seed%6) / 5
	p.ConstFrac = float64(seed%4) * 0.1
	p.Reconvergence = float64(seed%5) / 4
	p.PIOutputs = seed%3 != 0
	return bench.Random(p)
}

// Sources returns the corpus in a fixed order. root is the repository
// root, where testdata/ holds the committed .blif files.
func Sources(root string) ([]Source, error) {
	var srcs []Source
	write := func(label string, n *logic.Network) error {
		var b bytes.Buffer
		if err := blif.Write(&b, n); err != nil {
			return fmt.Errorf("%s: %w", label, err)
		}
		srcs = append(srcs, Source{label, b.String()})
		return nil
	}
	for _, name := range bench.Names() {
		if err := write("registry/"+name, bench.MustBuild(name)); err != nil {
			return nil, err
		}
	}
	files, err := filepath.Glob(filepath.Join(root, "testdata", "fuzz", "corpus", "*.blif"))
	if err != nil {
		return nil, err
	}
	sort.Strings(files)
	files = append([]string{filepath.Join(root, "testdata", "maj.blif")}, files...)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		rel, _ := filepath.Rel(root, f)
		srcs = append(srcs, Source{filepath.ToSlash(rel), string(b)})
	}
	for seed := int64(1); seed <= RandomSeeds; seed++ {
		if err := write(fmt.Sprintf("random/%d", seed), Random(seed)); err != nil {
			return nil, err
		}
	}
	for _, c := range corners() {
		srcs = append(srcs, Source{"corner/" + c.Label, c.Text})
	}
	for _, c := range malformed() {
		srcs = append(srcs, Source{"malformed/" + c.Label, c.Text})
	}
	return srcs, nil
}

// lineCap is the reader's physical line bound (maxLineBytes).
const lineCap = 1 << 20

// chain declares an alias chain s<depth> <- ... <- s0 <- a deepest
// first, so building s<depth> recurses through all of it.
func chain(depth int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, ".model deep\n.inputs a\n.outputs s%d\n", depth)
	for i := depth; i >= 1; i-- {
		fmt.Fprintf(&sb, ".names s%d s%d\n1 1\n", i-1, i)
	}
	sb.WriteString(".names a s0\n1 1\n.end\n")
	return sb.String()
}

// corners are valid texts for the grammar's corners: line endings,
// whitespace, comments, continuations, defaults and aliasing.
func corners() []Source {
	return []Source{
		{"crlf", ".model m\r\n.inputs a b\r\n.outputs f\r\n.names a b f\r\n1- 1\r\n-1 1\r\n.end\r\n"},
		{"tabs-comments", "# header\n\t.model  m # name\n.inputs\ta   b \n.outputs f\t\n.names a b f # and\n11\t1\n\n.end # done"},
		{"continuation", ".model m\n.inputs a \\\nb \\\n  c\n.outputs f\n.names a b \\\nc f\n111 1\n.end\n"},
		{"continued-comment", ".model m\n.inputs a # b \\\n.outputs a\n.end\n"},
		{"no-model", ".inputs a b\n.outputs f\n.names a b f\n01 1\n"},
		{"model-no-name", ".model\n.inputs a\n.outputs a\n"},
		{"two-models", ".model first\n.model second\n.inputs a\n.outputs a\n.end\n"},
		{"unknown-directive", ".model m\n.default_input_arrival 0 0\n.inputs a\n.outputs f\n.names a f\n0 1\n.area 5\n.end\n"},
		{"empty-cover", ".model m\n.inputs a\n.outputs f g\n.names f\n.names a g\n.end\n"},
		{"constants", ".model m\n.inputs a\n.outputs one zero z2\n.names one\n1\n.names zero\n0\n.names z2\n0\n0\n.end\n"},
		{"dup-fanin", ".model m\n.inputs a b\n.outputs y\n.names a a b y\n01- 1\n10- 1\n001 1\n.end\n"},
		{"alias-input", ".model m\n.inputs a b\n.outputs y b\n.names a y\n1 1\n.end\n"},
		{"alias-gate", ".model m\n.inputs a b\n.outputs y g\n.names a b g\n11 1\n.names g y\n1 1\n.end\n"},
		{"alias-chain", ".model m\n.inputs a\n.outputs z\n.names y z\n1 1\n.names x y\n1 1\n.names a x\n1 1\n.end\n"},
		{"inverted-alias", ".model m\n.inputs a\n.outputs y z\n.names a y\n0 1\n.names a z\n0 1\n.end\n"},
		{"input-cover-ignored", ".model m\n.inputs a\n.outputs a\n.names zz a\n1 1\n.end\n"},
		{"output-twice", ".model m\n.inputs a b\n.outputs y y a\n.names a b y\n10 1\n.end\n"},
		{"dead-logic", ".model m\n.inputs a b\n.outputs a\n.names a b d1\n11 1\n.names d1 d2\n0 1\n.end\n"},
		{"tautology-row", ".model m\n.inputs a b\n.outputs f\n.names a b f\n-- 1\n1- 1\n.end\n"},
		{"offset-multi", ".model m\n.inputs a b c\n.outputs f\n.names a b c f\n1-0 0\n01- 0\n--1 0\n.end\n"},
		{"rows-after-end", ".model m\n.inputs a\n.outputs f\n.end\n.names a f\n1 1\n"},
		{"unicode-space", ".model m\n.inputs a b\n.outputs f\u0085\n.names a b f\n11 1\n.end\n"},
		{"declared-late", ".model m\n.outputs f\n.names a g f\n10 1\n.names b g\n0 1\n.inputs b a\n.end\n"},
		{"long-line-edge", ".model m\n.inputs a\n.outputs a\n# " + strings.Repeat("x", lineCap-3) + "\n.end\n"},
		{"deep-edge", chain(10000)},
	}
}

// malformed has one text per error branch of the reader.
func malformed() []Source {
	return []Source{
		{"cycle", ".model m\n.inputs a\n.outputs f\n.names g f\n1 1\n.names f g\n1 1\n.end\n"},
		{"undefined", ".model m\n.inputs a\n.outputs f\n.names a z f\n11 1\n.end\n"},
		{"undefined-output", ".model m\n.inputs a\n.outputs f\n.end\n"},
		{"dup-input", ".model m\n.inputs a b\n.inputs a\n.outputs b\n.end\n"},
		{"double-def", ".model m\n.inputs a\n.outputs f\n.names a f\n1 1\n.names a f\n0 1\n.end\n"},
		{"row-width", ".model m\n.inputs a b\n.outputs f\n.names a b f\n1 1\n.end\n"},
		{"row-width-const", ".model m\n.outputs f\n.names f\n1 1\n.end\n"},
		{"bad-char", ".model m\n.inputs a b\n.outputs f\n.names a b f\n1x 1\n.end\n"},
		{"bad-char-utf8", ".model m\n.inputs a\n.outputs f\n.names a f\n\xff 1\n.end\n"},
		{"bad-output", ".model m\n.inputs a\n.outputs f\n.names a f\n1 2\n.end\n"},
		{"bad-const", ".model m\n.outputs f\n.names f\nx\n.end\n"},
		{"malformed-row", ".model m\n.inputs a b\n.outputs f\n.names a b f\n11 1 1\n.end\n"},
		{"mixed", ".model m\n.inputs a b\n.outputs f\n.names a b f\n1- 1\n-1 0\n.end\n"},
		{"stray-row", ".model m\n.inputs a\n.outputs a\n1 1\n.end\n"},
		{"row-after-directive", ".model m\n.inputs a\n.outputs f\n.names a f\n.area 1\n1 1\n.end\n"},
		{"continued-blank", ".model m\n\\\n.names a y\n.end\n"},
		{"names-no-args", ".model m\n.names\n.end\n"},
		{"latch", ".model m\n.inputs a\n.latch a b re clk 0\n.end\n"},
		{"subckt", ".model m\n.subckt adder a=x b=y\n.end\n"},
		{"gate", ".model m\n.gate nand2 A=a B=b O=f\n.end\n"},
		{"mlatch", ".model m\n.mlatch a b\n.end\n"},
		{"long-line", ".model m\n.inputs a\n.outputs a\n# " + strings.Repeat("x", lineCap-2) + "\n.end\n"},
		{"long-line-crlf", ".model m\n.inputs a\n.outputs a\n# " + strings.Repeat("x", lineCap-3) + "\r\n.end\n"},
		{"long-line-eof", ".model m\n.inputs a\n.outputs a\n# " + strings.Repeat("x", lineCap-2)},
		{"too-deep", chain(10001)},
		{"continuation-flood", ".model m\n.inputs a\n.outputs y\n.names a y \\\n" +
			strings.Repeat(strings.Repeat("x", 1024)+" \\\n", 1100) + "\n"},
	}
}

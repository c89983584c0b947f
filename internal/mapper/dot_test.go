package mapper

import (
	"strings"
	"testing"
)

func TestWriteDotMapped(t *testing.T) {
	res, err := SOIDominoMap(fig2Network(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := res.WriteDot(&sb); err != nil {
		t.Fatal(err)
	}
	dot := sb.String()
	for _, want := range []string{
		"digraph \"fig2\"",
		"in_A [label=\"A\", shape=box]",
		"D*(A+B+C)",
		"out_f",
		"doublecircle",
		"}",
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("dot missing %q:\n%s", want, dot)
		}
	}
}

func TestWriteDotDedupesEdges(t *testing.T) {
	// Gate using the same input twice gets one edge from it.
	n := fig3Network()
	res, err := DominoMap(n, fig3Options())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := res.WriteDot(&sb); err != nil {
		t.Fatal(err)
	}
	if c := strings.Count(sb.String(), "in_a -> g0;"); c != 1 {
		t.Errorf("edge from a appears %d times", c)
	}
}

func TestWriteDotCompoundLabel(t *testing.T) {
	res, err := DominoMap(stackedStacks(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	CompoundTransform(res, DefaultCompoundOptions())
	var sb strings.Builder
	if err := res.WriteDot(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "compound-nor") {
		t.Errorf("dot missing compound label:\n%s", sb.String())
	}
}

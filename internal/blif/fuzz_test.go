package blif

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"soidomino/internal/strash"
)

// FuzzParseBLIF drives the parser with arbitrary bytes. The parser must
// never panic; on a successful parse the resulting network must pass its
// own consistency check, render back to BLIF, and reparse. It is also
// the oracle for keying a source from its text: lowering the text into
// strash's builder must fail exactly when Parse fails, with the same
// error, and otherwise give the key strash.Run gives on the parsed
// network.
func FuzzParseBLIF(f *testing.F) {
	f.Add(".model m\n.inputs a b\n.outputs y\n.names a b y\n11 1\n.end\n")
	f.Add(".model maj3\n.inputs a b c\n.outputs maj\n.names a b c maj\n11- 1\n-11 1\n1-1 1\n.end\n")
	f.Add("# comment\n.model x\n.inputs a\n.outputs y\n.names a \\\ny\n1 1\n.end\n")
	f.Add(".model k\n.inputs a\n.outputs y\n.names y\n1\n.names a q\n0 1\n.end\n")
	f.Add(".names a a\n1 1\n")
	f.Add(".model m\n.inputs a b\n.outputs y b\n.names a y\n1 1\n.end\n")
	f.Add(".model m\n.inputs a b\n.outputs f\n.names a a b f\n01- 1\n1-0 0\n.end\n")
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 64*1024 {
			t.Skip("oversized input")
		}
		net, err := ParseString(src)
		b := strash.NewBuilder(0)
		model, lowerErr := Lower(context.Background(), src, b)
		if fmt.Sprint(err) != fmt.Sprint(lowerErr) {
			t.Fatalf("Parse and Lower disagree:\n  Parse: %v\n  Lower: %v\ninput:\n%s", err, lowerErr, src)
		}
		if err != nil {
			return
		}
		if model != net.Name || b.Key(model) != strash.Run(net).Key {
			t.Fatalf("text key differs from strash.Run's on the parsed network (model %q vs %q)\ninput:\n%s", model, net.Name, src)
		}
		if err := net.Check(); err != nil {
			t.Fatalf("parsed network fails Check: %v\ninput:\n%s", err, src)
		}
		var buf bytes.Buffer
		if err := Write(&buf, net); err != nil {
			t.Fatalf("cannot render parsed network: %v\ninput:\n%s", err, src)
		}
		again, err := ParseString(buf.String())
		if err != nil {
			t.Fatalf("rendered BLIF does not reparse: %v\nrendered:\n%s", err, buf.String())
		}
		if again.Len() == 0 && net.Len() != 0 {
			t.Fatalf("round trip lost all nodes\ninput:\n%s", src)
		}
	})
}

// FuzzParseBLIF must reject pathological nesting and oversized lines with
// errors, not stack exhaustion or unbounded allocation; spot-check the
// bounds directly since fuzzing rarely synthesizes them.
func TestParseBounds(t *testing.T) {
	var sb strings.Builder
	// Declared deepest-first so construction must recurse through the
	// whole chain before it can memoize anything.
	sb.WriteString(".model deep\n.inputs a\n.outputs s10001\n")
	for i := 10001; i >= 1; i-- {
		sb.WriteString(".names s")
		sb.WriteString(itoa(i - 1))
		sb.WriteString(" s")
		sb.WriteString(itoa(i))
		sb.WriteString("\n1 1\n")
	}
	sb.WriteString(".names a s0\n1 1\n.end\n")
	if _, err := ParseString(sb.String()); err == nil || !strings.Contains(err.Error(), "nested deeper") {
		t.Fatalf("deep chain: got %v, want nesting-depth error", err)
	}

	long := ".model m\n.inputs a\n.outputs y\n.names a y " + strings.Repeat("x", maxLineBytes) + "\n1 1\n.end\n"
	if _, err := ParseString(long); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("long line: got %v, want size error", err)
	}

	cont := ".model m\n.inputs a\n.outputs y\n" + strings.Repeat(".names a y \\\n", 1) +
		strings.Repeat(strings.Repeat("x", 1024)+" \\\n", 1100) + "\n"
	if _, err := ParseString(cont); err == nil || !strings.Contains(err.Error(), "continued line") {
		t.Fatalf("continuation flood: got %v, want logical-line size error", err)
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b [12]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

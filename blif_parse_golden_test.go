package soidomino

import (
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"soidomino/internal/blif"
	"soidomino/internal/blif/corpus"
)

// blifParseLines renders the parse golden's lines: for every corpus
// source, the sha256 of ParseString's Dump, or the exact error.
func blifParseLines(t *testing.T) []string {
	t.Helper()
	srcs, err := corpus.Sources(".")
	if err != nil {
		t.Fatal(err)
	}
	lines := make([]string, 0, len(srcs))
	for _, src := range srcs {
		n, err := blif.ParseString(src.Text)
		if err != nil {
			lines = append(lines, fmt.Sprintf("%s error %q", src.Label, err.Error()))
			continue
		}
		lines = append(lines, fmt.Sprintf("%s %x", src.Label, sha256.Sum256([]byte(n.Dump()))))
	}
	return lines
}

// TestBLIFParseGolden pins the BLIF reader node for node: ids, ops,
// names, fanin order and outputs of every parsed corpus source, and the
// exact text (line number included) of every rejection. A reader change
// that is meant to be behaviour-preserving must pass it unchanged; after
// a deliberate change to what the reader builds, regenerate with:
//
//	go test -run TestBLIFParseGolden -update .
func TestBLIFParseGolden(t *testing.T) {
	got := strings.Join(blifParseLines(t), "\n") + "\n"
	const golden = "testdata/blif_parse.golden"
	if *updateKeys {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("BLIF parse drift at line %d:\n  got:  %s\n  want: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("BLIF parse vectors differ in length: %d vs %d lines", len(gl), len(wl))
	}
}

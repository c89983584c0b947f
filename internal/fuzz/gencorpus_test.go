package fuzz

import (
	"os"
	"testing"
)

// TestGenerateFaultCorpus is the maintained tool for (re)seeding the
// checked-in regression corpus: it runs the narrow fault-injection
// campaign (inverted SOI reorder rule) with corpus persistence enabled,
// writing shrunk repros into testdata/fuzz/corpus. The entries fail only
// under the injected fault, so with healthy mappers TestCorpusReplays
// keeps them green while pinning the exact structures whose stack order
// the SOI DP must get right.
//
// Skipped unless SOIFUZZ_GEN_CORPUS=1; run it after changing the
// generator, shrinker or corpus format and review the diff:
//
//	SOIFUZZ_GEN_CORPUS=1 go test -run TestGenerateFaultCorpus ./internal/fuzz/
func TestGenerateFaultCorpus(t *testing.T) {
	if os.Getenv("SOIFUZZ_GEN_CORPUS") == "" {
		t.Skip("set SOIFUZZ_GEN_CORPUS=1 to regenerate the corpus")
	}
	cfg := faultConfig()
	cfg.Cases = 400
	cfg.CorpusDir = corpusDir
	cfg.CorpusNote = "captured with mapper.PointInvertReorder armed (Flip, Prob 1); healthy mappers must pass it"
	cfg.MaxCorpusEntries = 3
	cfg.Logf = t.Logf
	sum, err := New(cfg).Run(invertedReorder())
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Corpus) == 0 {
		t.Fatal("campaign produced no corpus entries")
	}
	t.Logf("wrote %d corpus entries: %v", len(sum.Corpus), sum.Corpus)
}

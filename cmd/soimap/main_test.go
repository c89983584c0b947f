package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"soidomino/internal/service"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestListGolden pins the sorted, column-aligned -list format.
func TestListGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := writeBenchmarkList(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "list.golden")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("-list output changed; run `go test ./cmd/soimap -update` if intended\ngot:\n%s\nwant:\n%s",
			buf.Bytes(), want)
	}
}

func TestListSortedAndAligned(t *testing.T) {
	var buf bytes.Buffer
	if err := writeBenchmarkList(&buf); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimRight(buf.Bytes(), "\n"), []byte("\n"))
	if len(lines) < 2 {
		t.Fatalf("only %d lines", len(lines))
	}
	kindCol := bytes.Index(lines[0], []byte("KIND"))
	descCol := bytes.Index(lines[0], []byte("DESCRIPTION"))
	if kindCol < 0 || descCol < 0 {
		t.Fatalf("header %q lacks KIND/DESCRIPTION", lines[0])
	}
	prev := ""
	for _, line := range lines[1:] {
		name := string(bytes.Fields(line)[0])
		if name <= prev {
			t.Errorf("benchmark %q out of order after %q", name, prev)
		}
		prev = name
		// Column alignment: every row is wide enough and has a field
		// boundary exactly at each header column.
		if len(line) <= descCol {
			t.Errorf("row %q shorter than the description column", line)
			continue
		}
		if line[kindCol-1] != ' ' || line[kindCol] == ' ' {
			t.Errorf("row %q: kind column misaligned", line)
		}
		if line[descCol-1] != ' ' || line[descCol] == ' ' {
			t.Errorf("row %q: description column misaligned", line)
		}
	}
}

// TestUnknownAlgoFailsFirst: a bad -algo is refused before any pipeline
// output (source, strash, unate lines) is printed, with the service's
// own 400 text, which lists the valid keys.
func TestUnknownAlgoFailsFirst(t *testing.T) {
	savedFlags, savedArgs, savedStdout := flag.CommandLine, os.Args, os.Stdout
	defer func() { flag.CommandLine, os.Args, os.Stdout = savedFlags, savedArgs, savedStdout }()
	flag.CommandLine = flag.NewFlagSet("soimap", flag.ContinueOnError)
	os.Args = []string{"soimap", "-circuit", "mux", "-algo", "bogus"}
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := run()
	w.Close()
	os.Stdout = savedStdout
	out, _ := io.ReadAll(r)
	if runErr == nil {
		t.Fatal("soimap -algo bogus succeeded")
	}
	if len(out) != 0 {
		t.Errorf("printed before failing:\n%s", out)
	}

	srv := service.New(service.Config{Workers: 1})
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/map", "application/json",
		strings.NewReader(`{"circuit": "mux", "algorithm": "bogus"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct{ Error string }
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || body.Error != runErr.Error() {
		t.Errorf("CLI error %q; service answered %d %q", runErr, resp.StatusCode, body.Error)
	}
	if !strings.Contains(runErr.Error(), "want domino, rs, rsdeep or soi") {
		t.Errorf("error %q does not list the valid keys", runErr)
	}
}

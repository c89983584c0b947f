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

	"soidomino/internal/cluster"
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

// runCLI runs soimap's run() on args with stdout captured, restoring the
// flag set, arguments and stdout afterwards.
func runCLI(t *testing.T, args ...string) (string, error) {
	t.Helper()
	savedFlags, savedArgs, savedStdout := flag.CommandLine, os.Args, os.Stdout
	defer func() { flag.CommandLine, os.Args, os.Stdout = savedFlags, savedArgs, savedStdout }()
	flag.CommandLine = flag.NewFlagSet("soimap", flag.ContinueOnError)
	os.Args = append([]string{"soimap"}, args...)
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()
	os.Stdout = w
	runErr := run()
	w.Close()
	return string(<-out), runErr
}

// newDaemon starts an in-process soimapd and returns its base URL.
func newDaemon(t *testing.T) string {
	t.Helper()
	srv := service.New(service.Config{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Shutdown(context.Background())
	})
	return ts.URL
}

// TestUnknownAlgoFailsFirst: a bad request is refused before any
// pipeline output (source, strash, unate lines) is printed, with the
// service's own 400 text for the request the flags build.
func TestUnknownAlgoFailsFirst(t *testing.T) {
	daemon := newDaemon(t)
	for _, tc := range []struct {
		name string
		args []string
		body string
	}{
		{"bogus algorithm", []string{"-circuit", "mux", "-algo", "bogus"},
			`{"circuit": "mux", "algorithm": "bogus"}`},
		{"unknown circuit", []string{"-circuit", "mut"},
			`{"circuit": "mut"}`},
		{"two sources", []string{"-circuit", "mux", "-bench", "../../testdata/c17.bench"},
			`{"circuit": "mux", "bench": "INPUT(a)\nOUTPUT(a)\n"}`},
		{"negative tuple budget", []string{"-circuit", "mux", "-pareto", "-tuple-budget", "-1"},
			`{"circuit": "mux", "options": {"pareto": true, "tuple_budget": -1}}`},
		{"unknown objective", []string{"-circuit", "mux", "-objective", "speed"},
			`{"circuit": "mux", "options": {"objective": "speed"}}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out, runErr := runCLI(t, tc.args...)
			if runErr == nil {
				t.Fatalf("soimap %s succeeded", strings.Join(tc.args, " "))
			}
			if out != "" {
				t.Errorf("printed before failing:\n%s", out)
			}
			resp, err := http.Post(daemon+"/v1/map", "application/json", strings.NewReader(tc.body))
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
		})
	}
}

// TestCLIMatchesDaemon: soimap -json prints the same bytes whether it
// maps locally, through -server against a soimapd, or through -server
// against a soirouter in front of that soimapd, for every source kind.
func TestCLIMatchesDaemon(t *testing.T) {
	daemon := newDaemon(t)
	rt, err := cluster.New(cluster.Config{Replicas: []string{daemon}, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	router := httptest.NewServer(rt.Handler())
	t.Cleanup(func() {
		router.Close()
		rt.Close()
	})
	for _, src := range [][]string{
		{"-circuit", "mux"},
		{"-blif", "../../testdata/maj.blif"},
		{"-bench", "../../testdata/c17.bench"},
	} {
		for _, algo := range []string{"soi", "domino"} {
			args := append([]string{"-json", "-algo", algo}, src...)
			t.Run(strings.Join(args[1:], " "), func(t *testing.T) {
				local, err := runCLI(t, args...)
				if err != nil {
					t.Fatal(err)
				}
				for _, target := range []struct{ name, url string }{{"soimapd", daemon}, {"soirouter", router.URL}} {
					remote, err := runCLI(t, append([]string{"-server", target.url}, args...)...)
					if err != nil {
						t.Fatalf("via %s: %v", target.name, err)
					}
					if remote != local {
						t.Errorf("via %s the output differs:\nlocal:\n%s\nremote:\n%s", target.name, local, remote)
					}
				}
			})
		}
	}
}

// TestServerRefusesLocalOnlyFlags: with -server, a flag that acts on the
// mapping in this process fails before anything is submitted, and the
// error names the flag.
func TestServerRefusesLocalOnlyFlags(t *testing.T) {
	for _, name := range []string{"verify", "compound", "dump", "netlist", "spice", "dot", "stats", "trace-sample"} {
		args := []string{"-server", "http://127.0.0.1:0", "-circuit", "mux", "-" + name}
		if name == "spice" || name == "dot" || name == "trace-sample" {
			args = append(args, "2")
		}
		_, err := runCLI(t, args...)
		if err == nil || !strings.Contains(err.Error(), "-"+name+" ") {
			t.Errorf("-server with -%s: err = %v, want one naming the flag", name, err)
		}
	}
}

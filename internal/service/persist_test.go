package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	builtin "soidomino/internal/bench"
	"soidomino/internal/blif"
	"soidomino/internal/faultpoint"
	"soidomino/internal/mapper"
	"soidomino/internal/report"
	"soidomino/internal/store"
)

// TestWarmRestartServesFromDisk is the tentpole's core promise: a job
// mapped before a clean shutdown is answered from the durable store —
// byte-identically — by the next process on the same state dir.
func TestWarmRestartServesFromDisk(t *testing.T) {
	dir := t.TempDir()

	s1 := New(Config{Workers: 2, StateDir: dir, JournalFsync: "always"})
	ts1 := newPersistHTTP(t, s1)
	code, first := postMapURL(t, ts1.URL, `{"circuit": "mux"}`)
	if code != http.StatusOK || first.State != JobDone {
		t.Fatalf("first submit: code %d, state %s, error %q", code, first.State, first.Error)
	}
	firstBytes, err := EncodeJSON(first.Result)
	if err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	shutdownNow(t, s1)

	// Drop the journal so the restart has no jobs to recover (recovery
	// would warm the LRU and mask the disk tier this test is aimed at;
	// the journal path has its own tests below).
	os.Remove(filepath.Join(dir, "journal.soij"))

	s2 := New(Config{Workers: 2, StateDir: dir, JournalFsync: "always"})
	defer shutdownNow(t, s2)
	ts2 := newPersistHTTP(t, s2)
	code, again := postMapURL(t, ts2.URL, `{"circuit": "mux"}`)
	if code != http.StatusOK || again.State != JobDone {
		t.Fatalf("restart submit: code %d, state %s, error %q", code, again.State, again.Error)
	}
	if !again.Cached {
		t.Fatal("restart submission not served from a cache tier")
	}
	if got := again.Attribution.CacheTier; got != TierStore {
		t.Fatalf("restart cache tier = %q, want %q", got, TierStore)
	}
	againBytes, err := EncodeJSON(again.Result)
	if err != nil {
		t.Fatal(err)
	}
	if string(againBytes) != string(firstBytes) {
		t.Fatal("disk-served result bytes differ from the original run")
	}
	if hits := s2.Counter("store_hits"); hits < 1 {
		t.Fatalf("store_hits = %d after warm restart, want > 0", hits)
	}
	// A second identical submission hits the promoted LRU entry, not disk.
	_, third := postMapURL(t, ts2.URL, `{"circuit": "mux"}`)
	if third.Attribution.CacheTier != TierLocal {
		t.Fatalf("post-promotion tier = %q, want %q", third.Attribution.CacheTier, TierLocal)
	}
}

// TestJournalReadmitsUnfinishedJobs crash-stops a server with a job
// still running and proves the next process re-admits it under its
// original id and finishes it with the same bytes a fresh run produces.
func TestJournalReadmitsUnfinishedJobs(t *testing.T) {
	dir := t.TempDir()

	s1 := New(Config{Workers: 1, StateDir: dir, JournalFsync: "always"})
	release := make(chan struct{})
	picked := make(chan struct{}, 1)
	realMap := s1.mapFn
	s1.mapFn = func(ctx context.Context, j *job) (*MapResult, error) {
		picked <- struct{}{}
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return realMap(ctx, j)
	}
	ts1 := newPersistHTTP(t, s1)
	code, v := postMapURL(t, ts1.URL, `{"circuit": "z4ml", "async": true}`)
	if code != http.StatusAccepted {
		t.Fatalf("async submit: code %d", code)
	}
	<-picked // the worker holds the job; it can never finish
	ts1.Close()
	s1.Abort()
	close(release)

	s2 := New(Config{Workers: 2, StateDir: dir, JournalFsync: "always"})
	defer shutdownNow(t, s2)
	recovered := s2.RecoveredJobs()
	req, ok := recovered[v.ID]
	if !ok {
		t.Fatalf("job %s not in RecoveredJobs (%d entries)", v.ID, len(recovered))
	}
	if req.Circuit != "z4ml" {
		t.Fatalf("recovered request circuit = %q, want z4ml", req.Circuit)
	}
	if n := s2.Counter("jobs_readmitted"); n != 1 {
		t.Fatalf("jobs_readmitted = %d, want 1", n)
	}

	ts2 := newPersistHTTP(t, s2)
	view := pollJob(t, ts2.URL, v.ID, 10*time.Second)
	if view.State != JobDone {
		t.Fatalf("re-admitted job state = %s, error %q", view.State, view.Error)
	}
	if !view.Recovered {
		t.Fatal("re-admitted job not marked recovered")
	}
	gotBytes, err := EncodeJSON(view.Result)
	if err != nil {
		t.Fatal(err)
	}
	// Oracle: a fresh, independent derivation of the same request.
	opt, _ := OptionsFromRequest(nil)
	want, err := mapRequestLocal(t, "z4ml", report.SOI, opt)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotBytes) != string(want) {
		t.Fatal("re-admitted job's bytes differ from a fresh derivation")
	}
}

// TestCrashRestartReservesTerminalJobs: a job that finished before the
// crash is re-served (journal terminal record + stored result) instead
// of 404ing its poller, with the outcome its poller saw: the same bytes
// for a done job, the same error for one failed by an injected panic.
func TestCrashRestartReservesTerminalJobs(t *testing.T) {
	var src bytes.Buffer
	if err := blif.Write(&src, builtin.MustBuild("mux")); err != nil {
		t.Fatal(err)
	}
	blifBody, err := json.Marshal(MapRequest{BLIF: src.String()})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		body  string
		panic bool // arm a mapper.combine panic so the job fails
		want  JobState
	}{
		{"done", `{"circuit": "mux"}`, false, JobDone},
		{"panicked", `{"circuit": "mux"}`, true, JobFailed},
		// A failed job holds no result to take its label from, so the
		// recovered label comes from the journaled key's network name.
		{"panicked blif", string(blifBody), true, JobFailed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			var sink syncBuffer
			cfg := Config{Workers: 2, StateDir: dir, JournalFsync: "always",
				Logger: slog.New(slog.NewTextHandler(&sink, nil))}
			if tc.panic {
				cfg.Faults = faultpoint.New(1)
				cfg.Faults.Arm(mapper.PointCombine, faultpoint.Fault{Kind: faultpoint.Panic, Prob: 1, Times: 1})
			}
			s1 := New(cfg)
			ts1 := newPersistHTTP(t, s1)
			code, v := postMapURL(t, ts1.URL, tc.body)
			if code != http.StatusOK || v.State != tc.want {
				t.Fatalf("submit: code %d, state %s (%q)", code, v.State, v.Error)
			}
			// The terminal journal record is written behind the answer;
			// crash only once it is down, or the job is re-admitted.
			waitJobFinished(t, &sink)
			ts1.Close()
			s1.Abort()

			s2 := New(Config{Workers: 2, StateDir: dir, JournalFsync: "always"})
			defer shutdownNow(t, s2)
			if n := s2.Counter("jobs_recovered"); n != 1 {
				t.Fatalf("jobs_recovered = %d, want 1", n)
			}
			ts2 := newPersistHTTP(t, s2)
			view := pollJob(t, ts2.URL, v.ID, 5*time.Second)
			if view.State != tc.want || !view.Recovered || view.Cached != (tc.want == JobDone) {
				t.Fatalf("recovered job = state %s recovered %t cached %t", view.State, view.Recovered, view.Cached)
			}
			if view.Error != v.Error {
				t.Fatalf("recovered job error %q, want the pre-crash %q", view.Error, v.Error)
			}
			if view.Algorithm != v.Algorithm {
				t.Fatalf("recovered job algorithm %q, want the pre-crash %q", view.Algorithm, v.Algorithm)
			}
			if view.Circuit != v.Circuit {
				t.Fatalf("recovered job circuit %q, want the pre-crash %q", view.Circuit, v.Circuit)
			}
			if tc.want == JobDone {
				wantBytes, _ := EncodeJSON(v.Result)
				gotBytes, _ := EncodeJSON(view.Result)
				if string(gotBytes) != string(wantBytes) {
					t.Fatal("recovered job's bytes differ from the pre-crash response")
				}
			}
		})
	}
}

// TestRecoveryIgnoresLateAcceptedRecord: the handler journals a job's
// accepted record after the queue send, so a fast worker's terminal
// record (behind an older journal's running record here) can precede
// it. Recovery must still re-serve the terminal outcome instead of
// re-admitting the job.
func TestRecoveryIgnoresLateAcceptedRecord(t *testing.T) {
	s := New(Config{Workers: 1})
	defer shutdownNow(t, s)
	s.recoverJobs([]store.JobRecord{
		{Type: store.RecRunning, ID: "j1", Key: "k"},
		{Type: store.RecFailed, ID: "j1", Key: "k", Error: "boom"},
		{Type: store.RecAccepted, ID: "j1", Key: "k", Request: []byte(`{"circuit": "mux"}`)},
	})
	if r, a := s.Counter("jobs_recovered"), s.Counter("jobs_readmitted"); r != 1 || a != 0 {
		t.Fatalf("jobs_recovered = %d, jobs_readmitted = %d; want 1, 0", r, a)
	}
	s.mu.Lock()
	j := s.jobs["j1"]
	s.mu.Unlock()
	if v, _ := j.view(); v.State != JobFailed || v.Error != "boom" {
		t.Fatalf("recovered job = state %s error %q, want failed %q", v.State, v.Error, "boom")
	}
}

// TestRecoveryParsesJournaledRequests: recovery reads an accepted
// record's request with ParseRequest, the decoder router and replica
// share. A request written the old way (json.Marshal of the decoded
// MapRequest) and a body journaled as read, with extra white space and
// escaped BLIF text, both recover to the request they encode.
func TestRecoveryParsesJournaledRequests(t *testing.T) {
	want := &MapRequest{
		BLIF:      ".model esc\n.inputs a b\n.outputs z\n.names a b z\n11 1\n.end\n# \"q\" \\ <t> \u00e9\t\n",
		Algorithm: "soi",
		Options:   &RequestOptions{Pareto: true, TupleBudget: 4},
		TimeoutMS: 1500,
	}
	marshaled, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	asRead := []byte(` {
	"blif" : ".model esc\n.inputs a b\n.outputs z\n.names a b z\n11 1\n.end\n# \"q\" \\ \u003ct\u003e \u00e9\t\n" ,
	"algorithm":"soi", "options" : { "pareto" : true, "tuple_budget" : 4 },
	"timeout_ms" : 1500 }
`)
	dir := t.TempDir()
	jnl, _, err := store.OpenJournal(dir, store.SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	for id, body := range map[string][]byte{"j1": marshaled, "j2": asRead} {
		for _, rec := range []store.JobRecord{
			{Type: store.RecAccepted, ID: id, Key: "k" + id, Request: body},
			{Type: store.RecFailed, ID: id, Key: "k" + id, Error: "boom"},
		} {
			if err := jnl.Append(context.Background(), rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}

	s := New(Config{Workers: 1, StateDir: dir, JournalFsync: "off"})
	defer shutdownNow(t, s)
	recovered := s.RecoveredJobs()
	for _, id := range []string{"j1", "j2"} {
		if got := recovered[id]; !reflect.DeepEqual(got, want) {
			t.Errorf("job %s recovered request %+v, want %+v", id, got, want)
		}
	}
}

// TestTornResultQuarantinedNeverServed corrupts a stored record on disk
// and proves the next lookup detects, quarantines and recomputes — the
// response bytes never change.
func TestTornResultQuarantinedNeverServed(t *testing.T) {
	dir := t.TempDir()

	s1 := New(Config{Workers: 2, StateDir: dir, JournalFsync: "always"})
	ts1 := newPersistHTTP(t, s1)
	_, v := postMapURL(t, ts1.URL, `{"circuit": "mux"}`)
	wantBytes, _ := EncodeJSON(v.Result)
	ts1.Close()
	shutdownNow(t, s1)

	// Flip a byte in every stored record.
	resDir := filepath.Join(dir, "results")
	ents, _ := os.ReadDir(resDir)
	if len(ents) == 0 {
		t.Fatal("no persisted results to corrupt")
	}
	for _, e := range ents {
		p := filepath.Join(resDir, e.Name())
		b, _ := os.ReadFile(p)
		b[len(b)-1] ^= 0xff
		os.WriteFile(p, b, 0o644)
	}

	s2 := New(Config{Workers: 2, StateDir: dir, JournalFsync: "always"})
	defer shutdownNow(t, s2)
	ts2 := newPersistHTTP(t, s2)
	// Boot fsck already quarantined the record; the resubmission must
	// recompute (miss), and the recovered terminal job falls back to
	// re-admission — both paths still produce the original bytes.
	if c := s2.Counter("store_corrupt"); c < 1 {
		t.Fatalf("store_corrupt = %d, want > 0", c)
	}
	code, again := postMapURL(t, ts2.URL, `{"circuit": "mux"}`)
	if code != http.StatusOK || again.State != JobDone {
		t.Fatalf("resubmit after corruption: code %d, state %s", code, again.State)
	}
	gotBytes, _ := EncodeJSON(again.Result)
	if string(gotBytes) != string(wantBytes) {
		t.Fatal("result bytes changed after corruption (must be recomputed, never served torn)")
	}
	q, _ := os.ReadDir(filepath.Join(dir, "quarantine"))
	if len(q) == 0 {
		t.Fatal("corrupt record not quarantined")
	}
}

// TestJanitorCompactsJournalAndStore proves disk and memory evict
// together: once the janitor drops a terminal job, its journal records
// go too, and a restart no longer resurrects it.
func TestJanitorCompactsJournalAndStore(t *testing.T) {
	dir := t.TempDir()

	s1 := New(Config{Workers: 2, StateDir: dir, JournalFsync: "always",
		JobRetention: 50 * time.Millisecond, CacheEntries: 4, StoreEntries: 1})
	ts1 := newPersistHTTP(t, s1)
	_, v1 := postMapURL(t, ts1.URL, `{"circuit": "mux"}`)
	_, v2 := postMapURL(t, ts1.URL, `{"circuit": "z4ml"}`)
	if v1.State != JobDone || v2.State != JobDone {
		t.Fatalf("submissions: %s / %s", v1.State, v2.State)
	}
	// Wait until the janitor has evicted both jobs, not just the first:
	// the second can finish a tick later. Eviction and compaction share a
	// janitor tick, and shutdown waits for the janitor to exit.
	deadline := time.Now().Add(5 * time.Second)
	for s1.Counter("jobs_evicted") < 2 || s1.Counter("jobs_journal_compacted") == 0 || s1.Counter("store_evicted") == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("janitor never compacted: evicted %d, journal %d, store %d",
				s1.Counter("jobs_evicted"), s1.Counter("jobs_journal_compacted"), s1.Counter("store_evicted"))
		}
		time.Sleep(10 * time.Millisecond)
	}
	ts1.Close()
	shutdownNow(t, s1)

	s2 := New(Config{Workers: 2, StateDir: dir, JournalFsync: "always"})
	defer shutdownNow(t, s2)
	if n := s2.Counter("jobs_recovered") + s2.Counter("jobs_readmitted"); n != 0 {
		t.Fatalf("compacted jobs resurrected after restart: %d", n)
	}
	if got := s2.RecoveredJobs(); len(got) != 0 {
		t.Fatalf("RecoveredJobs = %d entries after compaction", len(got))
	}
}

// TestBootQuarantinesGarbageStateDir: a state dir full of junk must
// never stop the daemon — fsck quarantines and the server starts cold.
func TestBootQuarantinesGarbageStateDir(t *testing.T) {
	dir := t.TempDir()
	resDir := filepath.Join(dir, "results")
	os.MkdirAll(resDir, 0o755)
	os.WriteFile(filepath.Join(resDir, "garbage.res"), []byte("not a record"), 0o644)
	os.WriteFile(filepath.Join(resDir, ".tmp-999"), []byte("torn temp"), 0o644)
	os.WriteFile(filepath.Join(dir, "journal.soij"), []byte("definitely not a journal"), 0o644)

	s := New(Config{Workers: 1, StateDir: dir, JournalFsync: "always"})
	defer shutdownNow(t, s)
	if c := s.Counter("store_corrupt"); c < 2 {
		t.Fatalf("store_corrupt = %d, want >= 2 (bad result + bad journal)", c)
	}
	// The tier still works after the cleanup.
	ts := newPersistHTTP(t, s)
	code, v := postMapURL(t, ts.URL, `{"circuit": "mux"}`)
	if code != http.StatusOK || v.State != JobDone {
		t.Fatalf("submit on scrubbed state dir: code %d, state %s", code, v.State)
	}
}

// TestJournalFsyncFaultDegradesNotFails: an injected fsync failure
// under -journal-fsync=always costs durability counters, never jobs.
func TestJournalFsyncFaultDegradesNotFails(t *testing.T) {
	reg := faultpoint.New(1)
	reg.Arm(store.PointFsyncFail, faultpoint.Fault{Kind: faultpoint.Error, Prob: 1})

	s := New(Config{Workers: 1, StateDir: t.TempDir(), JournalFsync: "always", Faults: reg})
	defer shutdownNow(t, s)
	ts := newPersistHTTP(t, s)
	code, v := postMapURL(t, ts.URL, `{"circuit": "mux"}`)
	if code != http.StatusOK || v.State != JobDone {
		t.Fatalf("submit under fsync faults: code %d, state %s, error %q", code, v.State, v.Error)
	}
	if n := s.Counter("store_write_errors"); n < 1 {
		t.Fatalf("store_write_errors = %d, want > 0", n)
	}
}

// --- helpers ---

// newPersistHTTP serves s without registering shutdown cleanup, so the
// tests control the server's death (Abort vs Shutdown) explicitly.
// TestJobIDAssignedBeforeQueueSend: the worker that receives a job reads
// its id (for the journal's terminal record) without taking
// the server lock, so handleMap must assign the id before sending the job
// to the queue. Back-to-back sync submissions to a journaling server
// hand every job to a parked worker while its handler is still running —
// the window where a write-after-send races — and under -race this test
// reports that write. (Several concurrent clients hide it: their lock and
// gauge traffic orders the write before the read.) Every job must finish
// under a fresh id.
func TestJobIDAssignedBeforeQueueSend(t *testing.T) {
	s := New(Config{Workers: 1, StateDir: t.TempDir(), JournalFsync: "off"})
	defer shutdownNow(t, s)
	ts := newPersistHTTP(t, s)

	ids := map[string]bool{}
	for i := 1; i <= 128; i++ {
		code, v := postMapURL(t, ts.URL, fmt.Sprintf(`{"circuit": "mux", "options": {"clock_weight": %d}}`, i))
		if code != http.StatusOK || v.State != JobDone || v.ID == "" || ids[v.ID] {
			t.Fatalf("job %d: code %d, state %s, id %q (error %q); want done under a fresh id",
				i, code, v.State, v.ID, v.Error)
		}
		ids[v.ID] = true
	}
}

func newPersistHTTP(t *testing.T, s *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close) // Close is idempotent; early explicit closes are fine
	return ts
}

// postMapURL is postMap against a bare base URL (the persistence tests
// juggle two servers per test, so the *httptest.Server helper variant
// is inconvenient).
func postMapURL(t *testing.T, baseURL, body string) (int, JobView) {
	t.Helper()
	resp, err := http.Post(baseURL+"/v1/map", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/map: %v", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	v := checkEnvelope(t, raw)
	return resp.StatusCode, v
}

func shutdownNow(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

func pollJob(t *testing.T, baseURL, id string, timeout time.Duration) JobView {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(baseURL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatalf("GET job %s: %v", id, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("read job %s: %v", id, err)
		}
		v := checkEnvelope(t, body)
		if resp.StatusCode == http.StatusOK &&
			(v.State == JobDone || v.State == JobFailed || v.State == JobCanceled) {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s not terminal after %s (state %s)", id, timeout, v.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// mapRequestLocal derives a request's result bytes with a fresh local
// pipeline run — the byte-compare oracle.
func mapRequestLocal(t *testing.T, circuit string, algo report.Algorithm, opt mapper.Options) ([]byte, error) {
	t.Helper()
	req := &MapRequest{Circuit: circuit, Algorithm: algo.Key()}
	src, label, err := ParseSource(context.Background(), req)
	if err != nil {
		return nil, err
	}
	res, err := mapSubmission(label, src, algo, opt)
	if err != nil {
		return nil, err
	}
	return EncodeJSON(res)
}

// unservableEdits are result encodings that decode without error but
// that no replica would write: the old decode-only check served them
// (the second as "gates": null), so a key would no longer determine its
// answer.
func unservableEdits(t *testing.T, held []byte) map[string][]byte {
	t.Helper()
	extra := bytes.Replace(held, []byte("{\n  \"circuit\""), []byte("{\n  \"extra\": 1,\n  \"circuit\""), 1)
	i := bytes.Index(held, []byte(",\n  \"gates\": ["))
	end := bytes.Index(held[i:], []byte("\n  ]"))
	if bytes.Equal(extra, held) || i < 0 || end < 0 {
		t.Fatal("held encoding lacks the fields to edit")
	}
	noGates := slices.Concat(held[:i], held[i+end+len("\n  ]"):])
	var r MapResult
	if err := json.Unmarshal(noGates, &r); err != nil || r.Gates != nil {
		t.Fatalf("gate-less edit: decode error %v, gates %v", err, r.Gates)
	}
	return map[string][]byte{"extra field": extra, "no gates": noGates}
}

// TestStoreEntryMustReencode: a checksummed store entry whose bytes are
// not this replica's encoding of their own decoding is quarantined
// (store_corrupt, moved aside) and the job is mapped afresh.
func TestStoreEntryMustReencode(t *testing.T) {
	opt := mapper.DefaultOptions()
	held, err := mapRequestLocal(t, "mux", report.SOI, opt)
	if err != nil {
		t.Fatal(err)
	}
	key := CacheKey(builtin.MustBuild("mux"), report.SOI.Key(), opt)
	for name, entry := range unservableEdits(t, held) {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			st, _, err := store.OpenResults(dir, false)
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Put(context.Background(), key, entry); err != nil {
				t.Fatal(err)
			}
			s := New(Config{Workers: 1, StateDir: dir, JournalFsync: "off"})
			defer shutdownNow(t, s)
			ts := newPersistHTTP(t, s)
			_, v := postMapURL(t, ts.URL, `{"circuit": "mux"}`)
			if v.State != JobDone || v.Attribution.CacheTier != TierMiss {
				t.Fatalf("state %s tier %s, want done by a fresh mapping", v.State, v.Attribution.CacheTier)
			}
			if got := mustEncode(t, v.Result); !bytes.Equal(got, held) {
				t.Fatalf("served bytes differ from a local mapping:\n%s", got)
			}
			if c, h := s.Counter("store_corrupt"), s.Counter("store_hits"); c != 1 || h != 0 {
				t.Errorf("store_corrupt %d, store_hits %d; want 1, 0", c, h)
			}
			if q, _ := os.ReadDir(filepath.Join(dir, "quarantine")); len(q) != 1 {
				t.Errorf("quarantine holds %d entries, want 1", len(q))
			}
		})
	}
}

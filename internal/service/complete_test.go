package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"strings"
	"testing"

	"soidomino/internal/faultpoint"
	"soidomino/internal/mapper"
	"soidomino/internal/store"
)

// TestTerminalBookkeeping pins what complete does for each tier that can
// answer a job. Every row submits one subject job to a journaling,
// logging server (after whatever setup the tier needs) and checks the
// subject's view, the server's terminal counters, and that exactly the
// jobs a worker ran — miss and peer — leave a terminal journal record
// and one "job finished" log line. Counters are totals over the row's
// setup and subject.
func TestTerminalBookkeeping(t *testing.T) {
	type counts struct{ done, failed, hits, peerHits int64 }
	mux := `{"circuit": "mux"}`
	for _, tc := range []struct {
		name   string
		tier   string
		state  JobState
		cached bool
		ran    bool
		want   counts
		// run starts the subject server from cfg, submits the subject
		// and returns both.
		run func(t *testing.T, cfg Config) (*Server, JobView)
	}{
		{"local hit", TierLocal, JobDone, true, false, counts{done: 2, hits: 1},
			func(t *testing.T, cfg Config) (*Server, JobView) {
				s, url := startPersist(t, cfg)
				postMapURL(t, url, mux)
				_, v := postMapURL(t, url, mux)
				return s, v
			}},
		{"store hit", TierStore, JobDone, true, false, counts{done: 3},
			func(t *testing.T, cfg Config) (*Server, JobView) {
				// A one-entry LRU: z4ml pushes mux out, and the store
				// answers. The one worker runs z4ml only after mux's
				// complete has persisted it.
				cfg.CacheEntries = 1
				s, url := startPersist(t, cfg)
				postMapURL(t, url, mux)
				postMapURL(t, url, `{"circuit": "z4ml"}`)
				_, v := postMapURL(t, url, mux)
				return s, v
			}},
		{"follower", TierCoalesced, JobDone, false, false, counts{done: 2},
			func(t *testing.T, cfg Config) (*Server, JobView) {
				s, url := startPersist(t, cfg)
				release := make(chan struct{})
				s.mapFn = blockUntil(release, s.mapFn)
				postMapURL(t, url, `{"circuit": "mux", "async": true}`)
				views := make(chan JobView)
				go func() {
					_, v := postMapURL(t, url, mux)
					views <- v
				}()
				waitFor(t, s, "jobs_coalesced", 1)
				close(release)
				return s, <-views
			}},
		{"peer hit", TierPeer, JobDone, true, true, counts{done: 1, peerHits: 1},
			func(t *testing.T, cfg Config) (*Server, JobView) {
				_, peer := newTestServer(t, Config{Workers: 1})
				postMap(t, peer, mux)
				cfg.Peers = []string{peer.URL}
				s, url := startPersist(t, cfg)
				_, v := postMapURL(t, url, mux)
				return s, v
			}},
		{"miss done", TierMiss, JobDone, false, true, counts{done: 1},
			func(t *testing.T, cfg Config) (*Server, JobView) {
				s, url := startPersist(t, cfg)
				_, v := postMapURL(t, url, mux)
				return s, v
			}},
		{"miss failed", TierMiss, JobFailed, false, true, counts{failed: 1},
			func(t *testing.T, cfg Config) (*Server, JobView) {
				s, url := startPersist(t, cfg)
				s.mapFn = func(context.Context, *job) (*MapResult, error) { return nil, errors.New("boom") }
				_, v := postMapURL(t, url, mux)
				return s, v
			}},
		{"panic", TierMiss, JobFailed, false, true, counts{failed: 1},
			func(t *testing.T, cfg Config) (*Server, JobView) {
				cfg.Faults = faultpoint.New(1)
				cfg.Faults.Arm(mapper.PointCombine, faultpoint.Fault{Kind: faultpoint.Panic, Prob: 1, Times: 1})
				s, url := startPersist(t, cfg)
				_, v := postMapURL(t, url, mux)
				return s, v
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var sink syncBuffer
			cfg := Config{Workers: 1, StateDir: t.TempDir(), JournalFsync: "off",
				Logger: slog.New(slog.NewTextHandler(&sink, nil))}
			s, v := tc.run(t, cfg)
			// Shutdown waits for the workers, so every worker-run job has
			// persisted, journaled and logged by the time it returns.
			shutdownNow(t, s)

			if v.State != tc.state || v.Cached != tc.cached ||
				v.Attribution == nil || v.Attribution.CacheTier != tc.tier {
				t.Fatalf("subject %s: state %s cached %t attribution %+v; want %s cached %t tier %s",
					v.ID, v.State, v.Cached, v.Attribution, tc.state, tc.cached, tc.tier)
			}
			got := counts{s.Counter("jobs_done"), s.Counter("jobs_failed"),
				s.Counter("cache_hits"), s.Counter("cluster_cache_peer_hits")}
			if got != tc.want {
				t.Errorf("done, failed, cache hits, peer hits = %+v, want %+v", got, tc.want)
			}

			want := 0
			if tc.ran {
				want = 1
			}
			jnl, rep, err := store.OpenJournal(cfg.StateDir, store.SyncOff)
			if err != nil {
				t.Fatal(err)
			}
			jnl.Close()
			records := 0
			for _, rec := range rep.Records {
				switch rec.Type {
				case store.RecDone, store.RecFailed, store.RecCanceled:
					if rec.ID == v.ID {
						records++
					}
				}
			}
			if records != want {
				t.Errorf("terminal journal records for %s = %d, want %d", v.ID, records, want)
			}
			lines := 0
			for _, line := range strings.Split(sink.String(), "\n") {
				if strings.Contains(line, `msg="job finished"`) && strings.Contains(line, fmt.Sprintf(" job_id=%s ", v.ID)) {
					lines++
				}
			}
			if lines != want {
				t.Errorf(`"job finished" lines for %s = %d, want %d:\n%s`, v.ID, lines, want, sink.String())
			}
		})
	}
}

// startPersist starts a server whose shutdown the caller owns and serves
// it over HTTP.
func startPersist(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	s := New(cfg)
	return s, newPersistHTTP(t, s).URL
}

package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	builtin "soidomino/internal/bench"
	"soidomino/internal/benchfmt"
	"soidomino/internal/mapper"
	"soidomino/internal/obs"
	"soidomino/internal/report"
)

// postKeyed submits body with key in KeyHeader (none when empty) and
// returns the status and the answer's bytes, checked against
// json.Encoder's layout.
func postKeyed(t *testing.T, ts *httptest.Server, body, key string) (int, []byte, JobView) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/map", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if key != "" {
		req.Header.Set(KeyHeader, key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b, checkEnvelope(t, b)
}

// timings matches the lines of a view that differ between two answers
// of one key: the job id and the wall-clock figures.
var timings = regexp.MustCompile(`(?m)^(  "id": |  "elapsed_ms": |    "wall_ms": ).*$`)

func normalizeView(b []byte) []byte { return timings.ReplaceAll(b, []byte("$1_")) }

// strashSeconds reads the strash phase time the server has charged for
// algo: every submission that strashes its source adds to it.
func strashSeconds(s *Server, algo string) time.Duration {
	st := s.metrics.engineSnapshot()[algo]
	return st.Phases.Strash
}

// forwardSources are the three kinds of submission source. The BLIF
// model name holds a '|', which the key cuts around by position.
func forwardSources(t *testing.T) map[string]MapRequest {
	t.Helper()
	var bench strings.Builder
	if err := benchfmt.Write(&bench, builtin.MustBuild("z4ml")); err != nil {
		t.Fatal(err)
	}
	return map[string]MapRequest{
		"registry": {Circuit: "mux"},
		"blif":     {BLIF: strings.Replace(blifTidy, ".model renamed", ".model a|b", 1)},
		"bench":    {Bench: bench.String()},
	}
}

// TestForwardedKeyHitMatchesResolvedHit: a hit found under the key a
// router forwarded answers byte for byte what the same hit resolved by
// parsing and strashing answers, ids and timings aside, and does so
// without strashing the source.
func TestForwardedKeyHitMatchesResolvedHit(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	for name, src := range forwardSources(t) {
		for _, algo := range []report.Algorithm{report.Domino, report.RS, report.RSDeep, report.SOI} {
			t.Run(name+"/"+algo.Key(), func(t *testing.T) {
				req := src
				req.Algorithm = algo.Key()
				b, err := json.Marshal(&req)
				if err != nil {
					t.Fatal(err)
				}
				body := string(b)
				key, err := RequestKey(context.Background(), &req)
				if err != nil {
					t.Fatal(err)
				}
				if code, _, v := postKeyed(t, ts, body, ""); code != http.StatusOK || v.State != JobDone {
					t.Fatalf("warm-up: code %d, state %s (%s)", code, v.State, v.Error)
				}
				_, resolved, rv := postKeyed(t, ts, body, "")
				strashed := strashSeconds(s, algo.Key())
				hits := s.Counter("cache_hits")
				_, forwarded, fv := postKeyed(t, ts, body, key)
				if !rv.Cached || !fv.Cached {
					t.Fatalf("cached: resolved %t, forwarded %t; want two hits", rv.Cached, fv.Cached)
				}
				if got, want := normalizeView(forwarded), normalizeView(resolved); !bytes.Equal(got, want) {
					t.Fatalf("forwarded-key hit:\n%s\nresolved hit:\n%s", got, want)
				}
				if d := strashSeconds(s, algo.Key()); d != strashed {
					t.Errorf("a forwarded-key hit strashed its source (%v -> %v)", strashed, d)
				}
				if n := s.Counter("cache_hits"); n != hits+1 {
					t.Errorf("cache_hits %d -> %d, want one more", hits, n)
				}
			})
		}
	}
	if n := s.Counter("key_mismatches"); n != 0 {
		t.Errorf("key_mismatches = %d, want 0", n)
	}
}

// TestForwardedKeyBadHeaders: a header the replica cannot take on trust
// is ignored — the submission resolves the slow way, is answered from
// its own key and is counted as a mismatch — and a forged key on a miss
// stores nothing under the forged key.
func TestForwardedKeyBadHeaders(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()
	muxKey, err := RequestKey(ctx, &MapRequest{Circuit: "mux"})
	if err != nil {
		t.Fatal(err)
	}
	if code, _, v := postKeyed(t, ts, `{"circuit": "mux"}`, ""); code != http.StatusOK || v.State != JobDone {
		t.Fatalf("warm-up: code %d, state %s (%s)", code, v.State, v.Error)
	}
	mismatches := int64(0)
	expectMismatch := func(t *testing.T) {
		t.Helper()
		mismatches++
		if n := s.Counter("key_mismatches"); n != mismatches {
			t.Fatalf("key_mismatches = %d, want %d", n, mismatches)
		}
	}

	t.Run("wrong options suffix", func(t *testing.T) {
		// The header names mux's default-options entry, the request asks
		// for Pareto: trusting the header would serve the wrong mapping.
		body := `{"circuit": "mux", "options": {"pareto": true}}`
		_, _, v := postKeyed(t, ts, body, muxKey)
		if v.State != JobDone || v.Cached || v.Attribution.CacheTier != TierMiss {
			t.Fatalf("state %s cached %t; want a fresh Pareto mapping", v.State, v.Cached)
		}
		_, _, again := postKeyed(t, ts, body, "")
		if !again.Cached || !bytes.Equal(mustEncode(t, v.Result), mustEncode(t, again.Result)) {
			t.Fatal("the Pareto answer is not what its own key caches")
		}
		expectMismatch(t)
	})

	t.Run("malformed", func(t *testing.T) {
		digest, rest, _ := strings.Cut(muxKey, "|")
		for _, bad := range []string{
			"not-a-key",
			strings.ToUpper(digest) + "|" + rest, // the digest is lower-case hex
			digest[:63] + "|" + rest,             // one digit short
			digest + "|",                         // no algorithm or options
			"g" + digest[1:] + "|" + rest,        // not hex
		} {
			_, _, v := postKeyed(t, ts, `{"circuit": "mux"}`, bad)
			if v.State != JobDone || !v.Cached || v.Attribution.CacheTier != TierLocal {
				t.Fatalf("header %q: state %s cached %t; want the slow-path hit", bad, v.State, v.Cached)
			}
			expectMismatch(t)
		}
	})

	t.Run("forged key on a miss", func(t *testing.T) {
		req := MapRequest{Circuit: "z4ml"}
		own, err := RequestKey(ctx, &req)
		if err != nil {
			t.Fatal(err)
		}
		_, rest, _ := strings.Cut(own, "|")
		forged := strings.Repeat("0", 64) + "|" + rest
		_, _, v := postKeyed(t, ts, `{"circuit": "z4ml"}`, forged)
		if v.State != JobDone || v.Cached {
			t.Fatalf("state %s cached %t; want a fresh mapping", v.State, v.Cached)
		}
		expectMismatch(t)
		for key, want := range map[string]int{forged: http.StatusNotFound, own: http.StatusOK} {
			resp, err := http.Get(ts.URL + "/v1/cache?key=" + url.QueryEscape(key))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != want {
				t.Errorf("GET /v1/cache?key=%s: %d, want %d", key, resp.StatusCode, want)
			}
		}
	})
}

// FuzzRelayView holds RelayView to the oracle checkEnvelope uses: decode
// the replica's view, rewrite its id, render it with json.Encoder. The
// relayed bytes must be exactly that, and the tier it reads must be the
// decoded view's, whatever the strings around them hold.
func FuzzRelayView(f *testing.F) {
	r, err := mapSubmission("mux", builtin.MustBuild("mux"), report.SOI, mapper.DefaultOptions())
	if err != nil {
		f.Fatal(err)
	}
	held := mustEncode(f, r)
	f.Add("j1", "mux", "", uint8(2), uint8(0), uint16(0x1f), 0)
	f.Add("j2", "mux", "", uint8(2), uint8(1), uint16(0x5f), 1)
	f.Add("j7\n  \"state\": \"x", "c\"880", "report: <SOI>  ", uint8(3), uint8(3), uint16(0x15), 12)
	f.Add("", "\n    \"cache_tier\": \"peer\"", "\n  \"attribution\": {", uint8(1), uint8(4), uint16(0x0c), 3)
	states := []JobState{JobQueued, JobRunning, JobDone, JobFailed, JobCanceled}
	tiers := []string{TierLocal, TierPeer, TierStore, TierMiss, TierCoalesced}
	f.Fuzz(func(t *testing.T, id, circuit, errMsg string, state, tier uint8, flags uint16, replica int) {
		// The oracle decodes, which would turn invalid UTF-8 into U+FFFD
		// and break the comparison for reasons that are not the relay's.
		id, circuit, errMsg = strings.ToValidUTF8(id, "?"), strings.ToValidUTF8(circuit, "?"), strings.ToValidUTF8(errMsg, "?")
		j := &job{id: id, circuit: circuit, algo: report.SOI, done: make(chan struct{})}
		j.state = states[int(state)%len(states)]
		j.coalesced, j.recovered = flags&1 != 0, flags&2 != 0
		if flags&4 != 0 {
			j.tc = obs.TraceContext{TraceID: obs.NewTraceID(), SpanID: obs.NewSpanID(), Sampled: true}
		}
		j.errMsg = errMsg
		// A job carries its attribution from the moment it is terminal.
		if j.state != JobQueued && j.state != JobRunning {
			st := &obs.Stats{TuplesGenerated: int64(flags)}
			if flags&8 != 0 {
				st = nil
			}
			j.attribution = NewAttribution(circuit, "", tiers[int(tier)%len(tiers)], time.Duration(flags)*time.Microsecond, 0, st)
		}
		if flags&16 != 0 && j.state == JobDone {
			j.result = held
		}
		rec := httptest.NewRecorder()
		writeView(rec, http.StatusOK, j)
		body := rec.Body.Bytes()
		// RelayView splices in place when its input has room to spare.
		in := bytes.Clone(body)
		if flags&64 != 0 {
			in = append(make([]byte, 0, len(body)+16), body...)
		}

		prefix := strconv.Itoa(replica&0xffff) + "."
		got, gotTier, err := RelayView(in, prefix)
		if err != nil {
			t.Fatalf("RelayView: %v\n%s", err, body)
		}
		var v JobView
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatal(err)
		}
		wantTier := ""
		if v.Attribution != nil {
			wantTier = v.Attribution.CacheTier
		}
		v.ID = prefix + v.ID
		if want := encoderJSON(t, v); !bytes.Equal(got, want) {
			t.Fatalf("relayed:\n%s\noracle:\n%s", got, want)
		}
		if gotTier != wantTier {
			t.Fatalf("read tier %q, want %q", gotTier, wantTier)
		}
	})
}

// TestRelayViewRejectsOtherBodies: an answer that is not a writeView
// envelope is an error, never relayed with a guessed id.
func TestRelayViewRejectsOtherBodies(t *testing.T) {
	for _, b := range []string{
		"",
		`{"id":"j1","state":"done"}`,
		"{\n  \"error\": \"x\"\n}\n",
		"{\n  \"id\": \"j1\",\n  \"circuit\": \"mux\"\n}\n",
	} {
		if _, _, err := RelayView([]byte(b), "0."); err == nil {
			t.Errorf("RelayView(%q) relayed a body that is no job view", b)
		}
	}
}

// TestForwardedKeyFollowsInFlightLeader: a submission whose forwarded
// key already has a leader queued or running rides that leader, as a
// hit is served, without resolving (no parse, no strash) and without
// queueing a DP run of its own; it ends with the leader's outcome.
func TestForwardedKeyFollowsInFlightLeader(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	key, err := RequestKey(context.Background(), &MapRequest{Circuit: "mux"})
	if err != nil {
		t.Fatal(err)
	}
	// A stand-in leader, never queued: only following it can end the
	// submission with its outcome.
	leader := &job{cacheKey: key, state: JobQueued, done: make(chan struct{})}
	s.mu.Lock()
	s.inflight[key] = leader
	s.mu.Unlock()
	strashed := strashSeconds(s, "soi")

	code, _, v := postKeyed(t, ts, `{"circuit": "mux", "async": true}`, key)
	if code != http.StatusAccepted || !v.Coalesced {
		t.Fatalf("code %d, coalesced %t; want 202 and a follower", code, v.Coalesced)
	}
	if d := strashSeconds(s, "soi"); d != strashed {
		t.Errorf("the follower strashed its source (%v -> %v)", strashed, d)
	}
	if n := s.Counter("jobs_coalesced"); n != 1 {
		t.Errorf("jobs_coalesced = %d, want 1", n)
	}
	s.mu.Lock()
	delete(s.inflight, key)
	s.mu.Unlock()
	leader.finish(JobFailed, nil, "stand-in leader failed", nil)
	if got := pollJob(t, ts.URL, v.ID, 5*time.Second); got.State != JobFailed || got.Error != "stand-in leader failed" {
		t.Fatalf("follower ended %s (%q), want the leader's failure", got.State, got.Error)
	}
}

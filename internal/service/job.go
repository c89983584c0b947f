package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"sync"
	"time"

	"soidomino/internal/logic"
	"soidomino/internal/mapper"
	"soidomino/internal/obs"
	"soidomino/internal/report"
	"soidomino/internal/strash"
)

// JobState is the lifecycle of a mapping job.
type JobState string

const (
	JobQueued   JobState = "queued"
	JobRunning  JobState = "running"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobCanceled JobState = "canceled" // deadline expired or server shut down
)

// job is one submitted mapping request. The immutable submission fields
// are written once by the handler; the mutable lifecycle fields are
// guarded by mu and published through view().
type job struct {
	// Submission (read-only after submit).
	id       string
	circuit  string // registry name, else the network's name
	algo     report.Algorithm
	src      *logic.Network
	opt      mapper.Options
	reqID    string // request id of the submitting HTTP request
	tc       obs.TraceContext
	deadline time.Time
	cacheKey string
	// strashed is the strash result cacheKey was derived from (nil when
	// the options opt out), and strashTime what deriving the key took.
	// Only a queued leader keeps src and strashed: the pipeline maps
	// strashed instead of strashing the submission again.
	strashed   *strash.Result
	strashTime time.Duration

	// coalesced marks a follower job that attached to an identical
	// in-flight leader instead of queueing its own DP run. Written before
	// the job is registered (published under the server mutex).
	coalesced bool

	// recovered marks a job re-created from the journal after a restart:
	// either re-served terminal from the durable store or re-admitted to
	// the queue. Written before the job is registered.
	recovered bool

	mu          sync.Mutex
	state       JobState
	submitted   time.Time
	started     time.Time
	finished    time.Time
	errMsg      string
	result      []byte       // the held encoding (EncodeJSON) of a done job's result
	attribution *Attribution // published by finish with the terminal state

	done chan struct{} // closed when the job reaches a terminal state
}

// JobView is the JSON envelope of a job returned by POST /v1/map and
// GET /v1/jobs/{id}. Result carries the shared MapResult encoding once
// the job is done. It is the clients' decode type; soimapd itself writes
// the same bytes with writeView, splicing in the result it holds encoded.
type JobView struct {
	ID        string   `json:"id"`
	State     JobState `json:"state"`
	Circuit   string   `json:"circuit"`
	Algorithm string   `json:"algorithm"`
	Cached    bool     `json:"cached"`
	// Coalesced marks a submission that rode an identical in-flight job
	// (the replica's in-flight table) instead of running its own.
	Coalesced bool `json:"coalesced,omitempty"`
	// Recovered marks a job this replica re-created from its journal
	// after a restart rather than receiving over HTTP.
	Recovered bool       `json:"recovered,omitempty"`
	ElapsedMS int64      `json:"elapsed_ms"`
	Error     string     `json:"error,omitempty"`
	Result    *MapResult `json:"result,omitempty"`
	// TraceID is set when the request was trace-sampled: the stitched
	// trace is at GET /v1/traces/{trace_id}.
	TraceID string `json:"trace_id,omitempty"`
	// Attribution is the per-request cost breakdown, set once the job is
	// terminal (also served standalone at GET /v1/jobs/{id}/explain).
	Attribution *Attribution `json:"attribution,omitempty"`
}

// view snapshots the job's envelope. A done job's result comes back as
// its held encoding, not in JobView.Result: writeView splices it in.
func (j *job) view() (JobView, []byte) {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:          j.id,
		State:       j.state,
		Circuit:     j.circuit,
		Algorithm:   j.algo.Key(),
		Coalesced:   j.coalesced,
		Recovered:   j.recovered,
		Error:       j.errMsg,
		Attribution: j.attribution,
	}
	if j.tc.Sampled {
		v.TraceID = j.tc.TraceID
	}
	if j.state == JobDone {
		// Cached means a cache tier answered: no DP run, no leader.
		switch j.attribution.CacheTier {
		case TierLocal, TierStore, TierPeer:
			v.Cached = true
		}
	}
	switch {
	case !j.finished.IsZero() && !j.started.IsZero():
		v.ElapsedMS = j.finished.Sub(j.started).Milliseconds()
	case !j.started.IsZero():
		v.ElapsedMS = time.Since(j.started).Milliseconds()
	}
	return v, j.result
}

// writeView answers with job j's JobView in writeJSON's layout. The
// envelope is written field by field and the held result bytes are
// spliced in, re-indented one level, so answering a done job never
// marshals its result again (TestJobViewEnvelope holds the bytes to
// json.Encoder's).
func writeView(w http.ResponseWriter, status int, j *job) {
	v, result := j.view()
	jw := newWriter()
	defer jw.release()
	jw.open('{')
	jw.str("id", v.ID)
	jw.str("state", string(v.State))
	jw.str("circuit", v.Circuit)
	jw.str("algorithm", v.Algorithm)
	jw.boolean("cached", v.Cached)
	jw.flag("coalesced", v.Coalesced)
	jw.flag("recovered", v.Recovered)
	jw.key("elapsed_ms")
	jw.b = strconv.AppendInt(jw.b, v.ElapsedMS, 10)
	if v.Error != "" {
		jw.str("error", v.Error)
	}
	if result != nil {
		jw.spliced("result", result)
	}
	if v.TraceID != "" {
		jw.str("trace_id", v.TraceID)
	}
	if v.Attribution != nil {
		a, err := json.MarshalIndent(v.Attribution, "  ", "  ")
		if err != nil {
			writeJSON(w, http.StatusInternalServerError, apiError{"encode: " + err.Error()})
			return
		}
		jw.key("attribution")
		jw.b = append(jw.b, a...)
	}
	jw.close('}')
	jw.b = append(jw.b, '\n')
	w.Header().Set("Content-Type", "application/json")
	// The length lets a relaying router read the view into one buffer.
	w.Header().Set("Content-Length", strconv.Itoa(len(jw.b)))
	w.WriteHeader(status)
	w.Write(jw.b)
}

// viewHead is how every writeView answer begins, up to the id's value.
const viewHead = "{\n  \"id\": \""

// RelayView readies a replica's writeView answer for relay through the
// router without decoding it: prefix (the router's "<replica>.") is
// spliced into the leading "id" value, and the attribution's cache tier
// is read off for the router's tier rollup ("" until the job is
// terminal). A body without the leading id or a state is no job view
// and an error. In writeView's layout, the lines that begin with two
// spaces and a quote are exactly the envelope's top-level keys: JSON
// strings hold no raw newline, and the result is indented deeper.
// Attribution, when present, is the last of them, with its own keys one
// level deeper. prefix must need no JSON escaping. The splice reuses
// b's storage when its capacity allows, so b must not be used after.
func RelayView(b []byte, prefix string) (out []byte, tier string, err error) {
	if !bytes.HasPrefix(b, []byte(viewHead)) {
		return nil, "", errors.New("relay: not a job view")
	}
	if _, ok := lineValue(b, "\n  \"state\": \""); !ok {
		return nil, "", errors.New("relay: job view has no state")
	}
	if i := bytes.LastIndex(b, []byte("\n  \"attribution\": {")); i >= 0 {
		tier, _ = lineValue(b[i:], "\n    \"cache_tier\": \"")
	}
	n := len(b)
	out = append(b, prefix...)
	copy(out[len(viewHead)+len(prefix):], b[len(viewHead):n])
	copy(out[len(viewHead):], prefix)
	return out, tier, nil
}

// lineValue returns the string value that follows the first occurrence
// of key (a line break, indentation, the quoted key and the value's
// opening quote): an escape-free identifier such as a state or a tier.
func lineValue(b []byte, key string) (string, bool) {
	i := bytes.Index(b, []byte(key))
	if i < 0 {
		return "", false
	}
	v := b[i+len(key):]
	n := bytes.IndexByte(v, '"')
	if n < 0 {
		return "", false
	}
	return string(v[:n]), true
}

func (j *job) setRunning() {
	j.mu.Lock()
	j.state = JobRunning
	j.started = time.Now()
	j.mu.Unlock()
}

// finish moves the job to a terminal state, publishing its attribution
// with it, and wakes synchronous waiters. It is idempotent — the
// panic-recovery path can race the normal one, and only the first caller
// may close done — and reports whether it won.
func (j *job) finish(state JobState, res []byte, errMsg string, a *Attribution) bool {
	j.mu.Lock()
	if j.state == JobDone || j.state == JobFailed || j.state == JobCanceled {
		j.mu.Unlock()
		return false
	}
	j.state = state
	j.result = res
	j.errMsg = errMsg
	j.attribution = a
	j.finished = time.Now()
	if j.started.IsZero() {
		j.started = j.finished // cache hits never run
	}
	j.mu.Unlock()
	close(j.done)
	return true
}

// outcome snapshots the job's terminal state for propagation to a
// coalesced follower. Call only after done is closed.
func (j *job) outcome() (JobState, []byte, string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.result, j.errMsg
}

// explain snapshots the job for GET /v1/jobs/{id}/explain.
func (j *job) explain() ExplainView {
	j.mu.Lock()
	defer j.mu.Unlock()
	return ExplainView{
		ID:          j.id,
		State:       j.state,
		Circuit:     j.circuit,
		Algorithm:   j.algo.Key(),
		Attribution: j.attribution,
	}
}

// terminalBefore reports whether the job reached a terminal state before
// cutoff — the janitor's eviction predicate.
func (j *job) terminalBefore(cutoff time.Time) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.state {
	case JobDone, JobFailed, JobCanceled:
		return j.finished.Before(cutoff)
	}
	return false
}

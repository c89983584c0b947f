package service

import (
	"sync"
	"time"

	"soidomino/internal/logic"
	"soidomino/internal/mapper"
	"soidomino/internal/obs"
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
	circuit  string // benchmark name or "inline"
	algo     string // request key: domino|rs|rsdeep|soi
	src      *logic.Network
	opt      mapper.Options
	reqID    string // request id of the submitting HTTP request
	tc       obs.TraceContext
	deadline time.Time
	cacheKey string
	// strashed is the strash result cacheKey was derived from, set only
	// on a job that is queued to run (nil when the options opt out). The
	// pipeline maps it instead of strashing the submission again.
	strashed *strash.Result

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
	cached      bool
	submitted   time.Time
	started     time.Time
	finished    time.Time
	errMsg      string
	result      *MapResult
	attribution *Attribution // set (complete) before finish publishes it

	done chan struct{} // closed when the job reaches a terminal state
}

// JobView is the JSON envelope of a job returned by POST /v1/map and
// GET /v1/jobs/{id}. Result carries the shared MapResult encoding once
// the job is done.
type JobView struct {
	ID        string   `json:"id"`
	State     JobState `json:"state"`
	Circuit   string   `json:"circuit"`
	Algorithm string   `json:"algorithm"`
	Cached    bool     `json:"cached"`
	// Coalesced marks a submission that rode an identical in-flight job
	// (the replica's singleflight layer) instead of running its own.
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

func (j *job) view() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:          j.id,
		State:       j.state,
		Circuit:     j.circuit,
		Algorithm:   j.algo,
		Cached:      j.cached,
		Coalesced:   j.coalesced,
		Recovered:   j.recovered,
		Error:       j.errMsg,
		Result:      j.result,
		Attribution: j.attribution,
	}
	if j.tc.Sampled {
		v.TraceID = j.tc.TraceID
	}
	switch {
	case !j.finished.IsZero() && !j.started.IsZero():
		v.ElapsedMS = j.finished.Sub(j.started).Milliseconds()
	case !j.started.IsZero():
		v.ElapsedMS = time.Since(j.started).Milliseconds()
	}
	return v
}

func (j *job) setRunning() {
	j.mu.Lock()
	j.state = JobRunning
	j.started = time.Now()
	j.mu.Unlock()
}

// finish moves the job to a terminal state and wakes synchronous waiters.
// It is idempotent — the panic-recovery path can race the normal one, and
// only the first caller may close done — and reports whether it won.
func (j *job) finish(state JobState, res *MapResult, errMsg string) bool {
	j.mu.Lock()
	if j.state == JobDone || j.state == JobFailed || j.state == JobCanceled {
		j.mu.Unlock()
		return false
	}
	j.state = state
	j.result = res
	j.errMsg = errMsg
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
func (j *job) outcome() (JobState, *MapResult, string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.result, j.errMsg
}

// setCached marks the job as answered without a mapping run (result
// cache or a peer replica's cache).
func (j *job) setCached() {
	j.mu.Lock()
	j.cached = true
	j.mu.Unlock()
}

// setAttribution records the job's cost breakdown. Call before finish:
// finish publishes the terminal state, and every reader that can see a
// terminal view must also see the attribution.
func (j *job) setAttribution(a *Attribution) {
	j.mu.Lock()
	j.attribution = a
	j.mu.Unlock()
}

// explain snapshots the job for GET /v1/jobs/{id}/explain.
func (j *job) explain() ExplainView {
	j.mu.Lock()
	defer j.mu.Unlock()
	return ExplainView{
		ID:          j.id,
		State:       j.state,
		Circuit:     j.circuit,
		Algorithm:   j.algo,
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

package service

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"soidomino/internal/obs"
)

// Cache tiers an answer can come from, as reported in Attribution.
// Exactly one applies per job: the replica's own LRU, its durable
// on-disk store, a peer replica's cache, a coalesced ride on an
// identical in-flight job, or a full mapping run ("miss").
const (
	TierLocal     = "local"
	TierPeer      = "peer"
	TierStore     = "store" // durable on-disk tier (also journal-recovered jobs)
	TierMiss      = "miss"
	TierCoalesced = "coalesced"
)

// Attribution is the per-request cost breakdown attached to a terminal
// job: where the answer came from and where its latency went. It lives
// on JobView (and GET /v1/jobs/{id}/explain), deliberately NOT on
// MapResult — MapResult's encoding is byte-compared by the determinism
// gates and cached/shared across replicas, so timing can never enter it.
type Attribution struct {
	// Replica identifies the process that answered (Config.ReplicaName,
	// "soimapd" unless set).
	Replica string `json:"replica,omitempty"`
	// TraceID links to GET /v1/traces/{id} when the request was sampled.
	TraceID string `json:"trace_id,omitempty"`
	// CacheTier is one of the Tier* constants.
	CacheTier string `json:"cache_tier"`
	// QueueWaitMS is time spent queued before a worker picked the job up
	// (zero for cache hits and coalesced followers — they never queue).
	QueueWaitMS float64 `json:"queue_wait_ms"`
	// WallMS is the job's run wall time (worker pickup to terminal state,
	// matching JobView.ElapsedMS); total latency at the replica is
	// QueueWaitMS + WallMS. For a coalesced follower it is the time spent
	// waiting on the leader.
	WallMS float64 `json:"wall_ms"`
	// PhasesMS breaks a mapped ("miss") run down by pipeline phase:
	// strash, decompose, unate, dp, traceback, audit.
	PhasesMS map[string]float64 `json:"phases_ms,omitempty"`
	// Strash front-end reduction counters for mapped runs.
	StrashMerged int64 `json:"strash_merged,omitempty"`
	StrashFolded int64 `json:"strash_folded,omitempty"`
	StrashDead   int64 `json:"strash_dead,omitempty"`
	// DPTuples is the number of tuples the DP generated.
	DPTuples int64 `json:"dp_tuples,omitempty"`
}

// ExplainView is the body of GET /v1/jobs/{id}/explain: the job's
// identity plus its attribution record (nil until the job is terminal).
type ExplainView struct {
	ID          string       `json:"id"`
	State       JobState     `json:"state"`
	Circuit     string       `json:"circuit"`
	Algorithm   string       `json:"algorithm"`
	Attribution *Attribution `json:"attribution,omitempty"`
}

// NewAttribution assembles a job's attribution. st may be nil (cache
// hits and coalesced followers have no run stats). Exported so soimap's
// local -explain mode renders the same table from its own run.
func NewAttribution(replica, traceID, tier string, queueWait, wall time.Duration, st *obs.Stats) *Attribution {
	a := &Attribution{
		Replica:     replica,
		TraceID:     traceID,
		CacheTier:   tier,
		QueueWaitMS: ms(queueWait),
		WallMS:      ms(wall),
	}
	if st != nil {
		a.PhasesMS = map[string]float64{
			"strash":    ms(st.Phases.Strash),
			"decompose": ms(st.Phases.Decompose),
			"unate":     ms(st.Phases.Unate),
			"dp":        ms(st.Phases.DP),
			"traceback": ms(st.Phases.Traceback),
			"audit":     ms(st.Phases.Audit),
		}
		a.StrashMerged = st.StrashMerged
		a.StrashFolded = st.StrashFolded
		a.StrashDead = st.StrashDead
		a.DPTuples = st.TuplesGenerated
	}
	return a
}

func ms(d time.Duration) float64 {
	if d < 0 {
		d = 0
	}
	return float64(d.Microseconds()) / 1000
}

// Table renders the attribution as the aligned block `soimap -explain`
// prints. Phases are sorted by descending cost with their share of the
// wall time.
func (a *Attribution) Table() string {
	if a == nil {
		return "attribution: unavailable"
	}
	var b strings.Builder
	b.WriteString("attribution:\n")
	if a.Replica != "" {
		fmt.Fprintf(&b, "  replica     %s\n", a.Replica)
	}
	if a.TraceID != "" {
		fmt.Fprintf(&b, "  trace       %s\n", a.TraceID)
	}
	fmt.Fprintf(&b, "  cache tier  %s\n", a.CacheTier)
	fmt.Fprintf(&b, "  queue wait  %.3fms\n", a.QueueWaitMS)
	fmt.Fprintf(&b, "  wall        %.3fms\n", a.WallMS)
	if len(a.PhasesMS) > 0 {
		type pc struct {
			name string
			ms   float64
		}
		phases := make([]pc, 0, len(a.PhasesMS))
		for n, v := range a.PhasesMS {
			phases = append(phases, pc{n, v})
		}
		sort.Slice(phases, func(i, j int) bool {
			if phases[i].ms != phases[j].ms {
				return phases[i].ms > phases[j].ms
			}
			return phases[i].name < phases[j].name
		})
		for _, p := range phases {
			share := 0.0
			if a.WallMS > 0 {
				share = 100 * p.ms / a.WallMS
			}
			fmt.Fprintf(&b, "  phase %-10s %10.3fms  %5.1f%%\n", p.name, p.ms, share)
		}
	}
	if a.CacheTier == TierMiss {
		fmt.Fprintf(&b, "  strash      %d merged, %d folded, %d dead\n",
			a.StrashMerged, a.StrashFolded, a.StrashDead)
		fmt.Fprintf(&b, "  dp tuples   %d\n", a.DPTuples)
	}
	return strings.TrimRight(b.String(), "\n")
}

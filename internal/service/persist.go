package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"soidomino/internal/report"
	"soidomino/internal/store"
)

// openState attaches the crash-safe persistence tier (internal/store)
// when Config.StateDir is set: the durable result store behind the LRU
// and the job journal. Persistence is strictly best-effort at this
// boundary — an unusable state dir logs an error and degrades the
// server to memory-only rather than failing New (cmd/soimapd
// pre-validates the directory so operators still get a hard error at
// boot). Bad records never prevent startup: the boot fsck quarantines
// them and the counters say so.
func (s *Server) openState() {
	if s.cfg.StateDir == "" {
		return
	}
	policy, err := store.ParseSyncPolicy(s.cfg.JournalFsync)
	if err != nil {
		s.logger.Error("persistence disabled", "error", err.Error())
		return
	}
	res, fsck, err := store.OpenResults(s.cfg.StateDir, policy != store.SyncOff)
	if err != nil {
		s.logger.Error("persistence disabled", "state_dir", s.cfg.StateDir, "error", err.Error())
		return
	}
	jnl, replay, err := store.OpenJournal(s.cfg.StateDir, policy)
	if err != nil {
		s.logger.Error("persistence disabled", "state_dir", s.cfg.StateDir, "error", err.Error())
		return
	}
	s.store, s.journal = res, jnl
	s.metrics.add("store_corrupt", int64(fsck.Quarantined+replay.TornRegions+replay.BadRecords))
	s.logger.Info("state dir opened",
		"state_dir", s.cfg.StateDir, "journal_fsync", policy.String(),
		"results", fsck.Entries, "quarantined", fsck.Quarantined,
		"journal_records", len(replay.Records), "journal_torn", replay.TornRegions)
	s.recoverJobs(replay.Records)
}

// closeState flushes and closes the journal on clean shutdown.
func (s *Server) closeState() {
	if s.journal != nil {
		s.journal.Close()
	}
}

// Abort is the crash-stop counterpart of Shutdown, for chaos harnesses
// that simulate a SIGKILL in-process: the journal stops cold (no final
// flush, no further appends — jobs in flight leave no terminal records,
// exactly as a killed process would), intake closes, running jobs are
// canceled, and Abort returns once the goroutines exit so the test can
// immediately reopen the state dir with a fresh Server.
func (s *Server) Abort() {
	s.draining.Store(true)
	if s.journal != nil {
		s.journal.Abort()
	}
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.queue)
		close(s.janitorStop)
	}
	s.mu.Unlock()
	s.baseCancel()
	s.wg.Wait()
	<-s.janitorDone
}

// RecoveredJobs lists the jobs this server re-created from its journal
// at boot, keyed by their original job id, with the requests that
// produced them. Exported for chaos harnesses: mapping is
// deterministic, so each recovered job's eventual response must
// byte-compare to a fresh local re-derivation of its request.
func (s *Server) RecoveredJobs() map[string]*MapRequest {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]*MapRequest, len(s.recovered))
	for id, req := range s.recovered {
		out[id] = req
	}
	return out
}

// storeGet consults the disk tier for key and returns the stored result
// bytes. Misses return nil; corrupt entries are quarantined by the store
// and counted, never served. A record whose checksum passes but whose
// bytes are not what this replica would encode — JSON that no longer
// decodes, or decodes and re-encodes differently (format skew across an
// upgrade, a field added or lost) — is dropped the same way.
func (s *Server) storeGet(key string) []byte {
	if s.store == nil {
		return nil
	}
	b, err := s.store.Get(key)
	if err != nil {
		s.metrics.add("store_corrupt", 1)
		s.metrics.add("store_misses", 1)
		s.logger.Warn("corrupt store entry quarantined", "key", key, "error", err.Error())
		return nil
	}
	if b == nil {
		s.metrics.add("store_misses", 1)
		return nil
	}
	if err := checkEncoding(b); err != nil {
		s.store.Drop(key)
		s.metrics.add("store_corrupt", 1)
		s.metrics.add("store_misses", 1)
		s.logger.Warn("unservable store entry quarantined", "key", key, "error", err.Error())
		return nil
	}
	s.metrics.add("store_hits", 1)
	return b
}

// persistResult writes a finished result's held bytes to the disk tier,
// write-behind: any failure (including injected fsync faults) is counted
// and logged but never fails the job — the client already has, or will
// get, the in-memory result.
func (s *Server) persistResult(ctx context.Context, key string, res []byte) {
	if s.store == nil {
		return
	}
	defer func() {
		if r := recover(); r != nil {
			s.metrics.add("store_write_errors", 1)
			s.logger.Error("result persist panicked", "key", key, "panic", fmt.Sprint(r))
		}
	}()
	if err := s.store.Put(ctx, key, res); err != nil {
		s.metrics.add("store_write_errors", 1)
		s.logger.Warn("result persist failed", "key", key, "error", err.Error())
	}
}

// journalAppend records one job-lifecycle event, write-behind like
// persistResult: journal trouble degrades durability, never service.
func (s *Server) journalAppend(ctx context.Context, rec store.JobRecord) {
	if s.journal == nil {
		return
	}
	defer func() {
		if r := recover(); r != nil {
			s.metrics.add("store_write_errors", 1)
			s.logger.Error("journal append panicked", "job_id", rec.ID, "panic", fmt.Sprint(r))
		}
	}()
	rec.UnixMS = time.Now().UnixMilli()
	if err := s.journal.Append(ctx, rec); err != nil {
		s.metrics.add("store_write_errors", 1)
		s.logger.Warn("journal append failed", "job_id", rec.ID, "type", rec.Type, "error", err.Error())
	}
}

// journalAccepted journals a freshly-enqueued leader job together with
// its request body as read — the bytes a future recovery replays
// through ParseRequest. Cache hits and coalesced followers are not
// journaled: they own no work to lose.
func (s *Server) journalAccepted(ctx context.Context, j *job, body []byte) {
	if s.journal == nil {
		return
	}
	s.journalAppend(ctx, store.JobRecord{Type: store.RecAccepted, ID: j.id, Key: j.cacheKey, Request: body})
}

// journalTerminal journals a job's terminal state.
func (s *Server) journalTerminal(ctx context.Context, j *job, state JobState, errMsg string) {
	typ := store.RecDone
	switch state {
	case JobFailed:
		typ = store.RecFailed
	case JobCanceled:
		typ = store.RecCanceled
	}
	s.journalAppend(ctx, store.JobRecord{Type: typ, ID: j.id, Key: j.cacheKey, Error: errMsg})
}

// recoveredJob summarizes one journaled job after folding its records.
type recoveredJob struct {
	id     string
	key    string
	req    *MapRequest
	last   string // the job's latest state record type
	errMsg string
}

// recoverJobs rebuilds the job table from a journal replay. Terminal
// jobs are re-created so pollers find them instead of a 404 — done jobs
// re-serve their result from the disk store; failed and canceled ones
// re-serve their error. Jobs that were accepted or running when the
// process died are re-admitted: mapping is deterministic, so re-running
// them yields byte-identical responses. Each re-admitted job keeps its
// original id and gets a fresh DefaultTimeout deadline (its original
// deadline budgeted for the old process's queue, not the crash).
func (s *Server) recoverJobs(records []store.JobRecord) {
	if len(records) == 0 {
		return
	}
	byID := make(map[string]*recoveredJob)
	var order []string
	maxID := 0
	for _, rec := range records {
		rj, ok := byID[rec.ID]
		if !ok {
			rj = &recoveredJob{id: rec.ID}
			byID[rec.ID] = rj
			order = append(order, rec.ID)
		}
		if rec.Key != "" {
			rj.key = rec.Key
		}
		if len(rec.Request) > 0 {
			if req, err := ParseRequest(rec.Request); err == nil {
				rj.req = req
			}
		}
		// An accepted record carries the request, not a state: the
		// handler appends it after the queue send, so it can land behind
		// the worker's terminal record. (Older journals also hold a
		// running record per job, which re-admits like accepted.)
		if rec.Type != store.RecAccepted || rj.last == "" {
			rj.last = rec.Type
			rj.errMsg = rec.Error
		}
		if n, err := strconv.Atoi(strings.TrimPrefix(rec.ID, "j")); err == nil && n > maxID {
			maxID = n
		}
	}
	s.mu.Lock()
	if maxID > s.nextID {
		// Recovered ids stay unique against new submissions.
		s.nextID = maxID
	}
	s.mu.Unlock()

	for _, id := range order {
		rj := byID[id]
		switch rj.last {
		case store.RecDone:
			if res, _ := s.lookupLocal(rj.key); res != nil {
				s.installRecovered(rj, JobDone, res, "")
				continue
			}
			// The journal says done but the result is gone (torn write,
			// eviction race, fsync loss). Deterministic mapping makes
			// re-admission a full substitute: same bytes, just recomputed.
			s.readmit(rj)
		case store.RecFailed:
			s.installRecovered(rj, JobFailed, nil, rj.errMsg)
		case store.RecCanceled:
			s.installRecovered(rj, JobCanceled, nil, rj.errMsg)
		default: // accepted or running: in flight at the crash
			s.readmit(rj)
		}
	}
}

// recoveredLabels gives a recovered job the circuit and algorithm labels
// the live job showed, read off its request and journaled key as
// keyLabel reads them ("recovered" when they do not resolve). A terminal
// job's result, when it has one, carries the authoritative circuit label.
func recoveredLabels(req *MapRequest, key string) (string, report.Algorithm) {
	if req != nil {
		if algo, opt, err := ResolveSpec(req); err == nil {
			if label, ok := keyLabel(req, key, algo, opt); ok {
				return label, algo
			}
		}
	}
	return "recovered", report.SOI
}

// installRecovered registers a terminal job rebuilt from the journal
// under its original id. It is a reconstruction, not a completion: the
// job's terminal bookkeeping ran in the process that crashed, so it
// counts jobs_recovered and journals nothing.
func (s *Server) installRecovered(rj *recoveredJob, state JobState, res []byte, errMsg string) {
	circuit, algo := recoveredLabels(rj.req, rj.key)
	if res != nil {
		// The result's own label; its bytes passed checkEncoding.
		var r struct {
			Circuit string `json:"circuit"`
		}
		if json.Unmarshal(res, &r) == nil {
			circuit = r.Circuit
		}
	}
	j := &job{
		id:        rj.id,
		circuit:   circuit,
		algo:      algo,
		cacheKey:  rj.key,
		recovered: true,
		state:     JobQueued,
		done:      make(chan struct{}),
	}
	j.submitted = time.Now()
	if res != nil {
		s.cache.Add(rj.key, res) // warm the LRU alongside the job table
	}
	j.finish(state, res, errMsg, s.attribute(j, TierStore, 0, 0, nil))

	s.mu.Lock()
	s.jobs[j.id] = j
	if rj.req != nil {
		s.recovered[j.id] = rj.req
	}
	s.mu.Unlock()
	s.metrics.add("jobs_recovered", 1)
	s.logger.Info("job recovered from journal", "job_id", j.id, "state", string(state))
}

// readmit re-enqueues a journaled job that never reached a terminal
// record, through the same resolve and admit as a live submission. The
// local cache tiers are consulted first — the result may have been
// persisted even though the terminal journal record was lost in the
// crash — and the queue is never blocked on: recovery runs inside New,
// and a queue full of re-admitted work fails the remainder rather than
// deadlocking startup.
func (s *Server) readmit(rj *recoveredJob) {
	if rj.req == nil {
		// No request bytes survived (torn accepted record): nothing to
		// replay. The id stays unknown; pollers get 404 as they would had
		// the accepted record never been written.
		s.logger.Warn("journaled job lost its request, not re-admitted", "job_id", rj.id)
		return
	}
	if res, _ := s.lookupLocal(rj.key); res != nil {
		s.installRecovered(rj, JobDone, res, "")
		return
	}
	j, _, err := resolve(s.faultCtx(s.baseCtx), rj.req, s.cfg.MaxNetworkNodes)
	if err == nil {
		j.id, j.recovered = rj.id, true
		j.deadline = time.Now().Add(s.cfg.DefaultTimeout)
		j.submitted = time.Now()
		if ref := s.admit(j); ref != nil {
			err = errors.New(ref.msg)
		}
	}
	if err != nil {
		s.installRecovered(rj, JobFailed, nil, "not re-admitted after restart: "+err.Error())
		return
	}
	s.mu.Lock()
	s.recovered[j.id] = rj.req
	s.mu.Unlock()
	s.metrics.add("jobs_readmitted", 1)
	s.logger.Info("job re-admitted from journal", "job_id", j.id, "circuit", j.circuit, "algorithm", j.algo.Key())
}

// compactState is the janitor's half of the durability contract: when
// terminal jobs leave the job table, their journal records and — once
// the disk tier outgrows StoreEntries — their oldest stored results go
// with them, so a long-lived state dir tracks the working set instead
// of growing without bound.
func (s *Server) compactState(evicted int) {
	if s.store == nil {
		return
	}
	if evicted > 0 && s.journal != nil {
		s.mu.Lock()
		live := make(map[string]bool, len(s.jobs))
		for id := range s.jobs {
			live[id] = true
		}
		s.mu.Unlock()
		dropped, err := s.journal.Compact(func(id string) bool { return live[id] })
		if err != nil {
			s.logger.Warn("journal compaction failed", "error", err.Error())
		} else if dropped > 0 {
			s.metrics.add("jobs_journal_compacted", int64(dropped))
			s.logger.Info("journal compacted", "records_dropped", dropped)
		}
	}
	if n, err := s.store.EvictOver(s.cfg.StoreEntries); err != nil {
		s.logger.Warn("store eviction failed", "error", err.Error())
	} else if n > 0 {
		s.metrics.add("store_evicted", int64(n))
	}
}

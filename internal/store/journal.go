package store

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"soidomino/internal/faultpoint"
)

// Record types of the job journal: a job's life is one accepted record
// and one terminal record (done, failed or canceled). RecRunning is no
// longer written, but older journals hold one per job between the two,
// and it replays like accepted. A job whose last record is non-terminal
// at replay was in flight when the process died and is re-admitted by
// the service.
const (
	RecAccepted = "accepted"
	RecRunning  = "running"
	RecDone     = "done"
	RecFailed   = "failed"
	RecCanceled = "canceled"
)

// JobRecord is one journal entry. Request rides only on accepted
// records (it is what re-admission replays); Error only on failed or
// canceled ones.
type JobRecord struct {
	Type    string          `json:"type"`
	ID      string          `json:"id"`
	Key     string          `json:"key,omitempty"`
	Request json.RawMessage `json:"request,omitempty"`
	Error   string          `json:"error,omitempty"`
	UnixMS  int64           `json:"unix_ms"`
}

// Terminal reports whether the record ends a job's life.
func (r JobRecord) Terminal() bool {
	return r.Type == RecDone || r.Type == RecFailed || r.Type == RecCanceled
}

// SyncPolicy selects the durability barrier applied to journal appends.
type SyncPolicy uint8

const (
	// SyncInterval fsyncs dirty journal bytes from a background ticker
	// (~100ms): bounded loss window, negligible append latency. The
	// default.
	SyncInterval SyncPolicy = iota
	// SyncAlways fsyncs every append before it returns.
	SyncAlways
	// SyncOff never fsyncs; the OS flushes when it pleases.
	SyncOff
)

// ParseSyncPolicy maps the -journal-fsync flag values to a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "interval", "":
		return SyncInterval, nil
	case "always":
		return SyncAlways, nil
	case "off":
		return SyncOff, nil
	}
	return SyncInterval, fmt.Errorf("unknown journal fsync policy %q (want always, interval or off)", s)
}

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncOff:
		return "off"
	}
	return "interval"
}

const (
	journalName     = "journal.soij"
	journalTornName = "journal.torn"
	syncEvery       = 100 * time.Millisecond
)

// Journal is the append-only job journal at <state-dir>/journal.soij.
// Appends are framed and checksummed; replay survives a torn tail or a
// mid-file tear by resynchronizing on the record marker.
type Journal struct {
	path   string
	policy SyncPolicy

	mu      sync.Mutex
	f       *os.File
	dirty   bool
	aborted bool

	syncStop chan struct{}
	syncDone chan struct{}
	stopOnce sync.Once
}

// Replay is what a journal held when it was opened.
type Replay struct {
	// Records are the valid records in append order.
	Records []JobRecord
	// TornRegions counts spans of unreadable bytes skipped by marker
	// resync; TornBytes is their total size. Torn bytes are preserved at
	// <state-dir>/journal.torn for postmortems.
	TornRegions int
	TornBytes   int
	// BadRecords counts frames whose checksum passed but whose JSON
	// payload did not decode — format skew, not a torn write.
	BadRecords int
}

// OpenJournal opens (creating as needed) the journal under root,
// replays it, and — if the replay found tears or bad records — rewrites
// it compacted so damage is paid for once, not on every boot. Like the
// result store it refuses to start only on an unusable file, never on
// bad records.
func OpenJournal(root string, policy SyncPolicy) (*Journal, *Replay, error) {
	j := &Journal{
		path:   filepath.Join(root, journalName),
		policy: policy,
	}
	rep := &Replay{}

	b, err := os.ReadFile(j.path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		// Fresh journal.
	case err != nil:
		return nil, nil, err
	case len(b) > 0:
		if err := checkHeader(b, kindJournal); err != nil {
			// The whole file is unreadable; preserve it and start over.
			rep.TornRegions++
			rep.TornBytes = len(b)
			os.Rename(j.path, filepath.Join(root, journalTornName))
		} else {
			var torn []byte
			regions, bytes := scanFrames(b[headerLen:], func(p []byte) {
				var rec JobRecord
				if json.Unmarshal(p, &rec) != nil || rec.ID == "" {
					rep.BadRecords++
					return
				}
				rep.Records = append(rep.Records, rec)
			})
			rep.TornRegions, rep.TornBytes = regions, bytes
			if regions > 0 {
				torn = b // keep the damaged original whole for postmortems
			}
			if regions > 0 || rep.BadRecords > 0 {
				if torn != nil {
					os.WriteFile(filepath.Join(root, journalTornName), torn, 0o644)
				}
				if err := rewriteJournal(j.path, rep.Records); err != nil {
					return nil, nil, err
				}
			}
		}
	}

	f, err := os.OpenFile(j.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	j.f = f
	if info, err := f.Stat(); err == nil && info.Size() == 0 {
		if _, err := f.Write(fileHeader(kindJournal)); err != nil {
			f.Close()
			return nil, nil, err
		}
	}

	if policy == SyncInterval {
		j.syncStop = make(chan struct{})
		j.syncDone = make(chan struct{})
		go j.syncLoop()
	}
	return j, rep, nil
}

// rewriteJournal atomically replaces the journal file with just the
// given records.
func rewriteJournal(path string, recs []JobRecord) error {
	data := fileHeader(kindJournal)
	for _, rec := range recs {
		p, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		data = appendFrame(data, p)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// syncLoop flushes dirty appends on a ticker under SyncInterval.
func (j *Journal) syncLoop() {
	defer close(j.syncDone)
	t := time.NewTicker(syncEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			j.mu.Lock()
			if j.dirty && !j.aborted {
				j.f.Sync()
				j.dirty = false
			}
			j.mu.Unlock()
		case <-j.syncStop:
			return
		}
	}
}

// Append writes one record. A fired store.journal-partial flip writes
// only a prefix of the frame — the crash-shaped tear that replay's
// marker resync exists to survive. After Abort, appends are silent
// no-ops: a crash-stopped process writes nothing more.
func (j *Journal) Append(ctx context.Context, rec JobRecord) error {
	p, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	frame := appendFrame(nil, p)

	reg := faultpoint.From(ctx)
	if reg.Flip(PointJournalPartial) {
		frame = frame[:len(frame)/2]
	}

	j.mu.Lock()
	defer j.mu.Unlock()
	if j.aborted {
		return nil
	}
	if _, err := j.f.Write(frame); err != nil {
		return err
	}
	switch j.policy {
	case SyncAlways:
		if err := reg.Check(ctx, PointFsyncFail); err != nil {
			return fmt.Errorf("%w: %v", ErrSync, err)
		}
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("%w: %v", ErrSync, err)
		}
	case SyncInterval:
		j.dirty = true
	}
	return nil
}

// Compact rewrites the journal keeping only records of jobs the live
// predicate admits, returning how many records were dropped. The
// retention janitor calls this after evicting terminal jobs so the
// journal tracks the job table instead of growing without bound.
func (j *Journal) Compact(live func(id string) bool) (dropped int, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.aborted || j.f == nil {
		return 0, nil
	}
	if err := j.f.Sync(); err != nil && j.policy != SyncOff {
		return 0, err
	}
	b, err := os.ReadFile(j.path)
	if err != nil {
		return 0, err
	}
	var keep []JobRecord
	total := 0
	if len(b) >= headerLen {
		scanFrames(b[headerLen:], func(p []byte) {
			var rec JobRecord
			if json.Unmarshal(p, &rec) != nil {
				total++ // undecodable records are dropped too
				return
			}
			total++
			if live(rec.ID) {
				keep = append(keep, rec)
			}
		})
	}
	dropped = total - len(keep)
	if dropped == 0 {
		return 0, nil
	}
	if err := rewriteJournal(j.path, keep); err != nil {
		return 0, err
	}
	f, err := os.OpenFile(j.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return 0, err
	}
	j.f.Close()
	j.f = f
	j.dirty = false
	return dropped, nil
}

// Close stops the sync loop, flushes, and closes the file.
func (j *Journal) Close() error {
	j.stopSyncLoop()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil || j.aborted {
		return nil
	}
	if j.policy != SyncOff {
		j.f.Sync()
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// Abort is the crash-stop close used by chaos harnesses: no final
// flush, and every later Append is a no-op, so the on-disk journal
// looks exactly as it would had the process been SIGKILLed at this
// instant.
func (j *Journal) Abort() {
	j.mu.Lock()
	if j.aborted {
		j.mu.Unlock()
		return
	}
	j.aborted = true
	if j.f != nil {
		j.f.Close()
		j.f = nil
	}
	j.mu.Unlock()
	j.stopSyncLoop()
}

func (j *Journal) stopSyncLoop() {
	if j.syncStop == nil {
		return
	}
	j.stopOnce.Do(func() { close(j.syncStop) })
	<-j.syncDone
}

// Package store is the crash-safe persistence tier under the mapping
// service: a durable on-disk result store backing the in-memory LRU as
// a write-behind second tier, and an append-only job journal that lets
// a restarted daemon re-admit unfinished jobs and re-serve terminal
// ones instead of 404ing pollers.
//
// Both surfaces share one on-disk record discipline (see record.go):
// every file starts with a versioned header, every record is framed
// with a sync marker, an explicit length and a CRC32 checksum, and
// result entries are written to a temp file and renamed into place so a
// reader can never observe a half-written entry under its final name.
// A record that fails validation — torn by a crash, bitrotted, or
// written by a future format version — is detected on read, moved to
// the quarantine directory and reported, never served: the mapping DP
// re-derives byte-identical results, so losing a cache entry is always
// safe and serving a wrong one never is.
//
// The package deals in opaque keys and bytes; it knows nothing about
// MapResults or job views. internal/service owns the encoding on both
// sides of the boundary.
package store

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"soidomino/internal/faultpoint"
)

// The store's fault-injection points. The two torn-write points are
// Flip-kind: they corrupt this process's on-disk copy of a record —
// exactly what a crash mid-write leaves behind — without ever touching
// the bytes served to a client, so chaos campaigns can arm them under
// the byte-compare oracle. The fsync point is Check-kind and models a
// failing or lying disk at the durability barrier.
var (
	PointWriteTorn = faultpoint.Define("store.write-torn",
		"flip: truncate a result-store entry mid-write, simulating a crash between rename and flush")
	PointFsyncFail = faultpoint.Define("store.fsync-fail",
		"before fsyncing a result-store entry or journal append")
	PointJournalPartial = faultpoint.Define("store.journal-partial",
		"flip: append only a prefix of a journal record, simulating a crash mid-append")
)

// ErrCorrupt marks a record that failed validation (bad header, torn
// frame, checksum mismatch or key skew) and was quarantined.
var ErrCorrupt = errors.New("corrupt store record")

// ErrSync marks a write that landed but whose durability barrier
// (fsync) failed: the entry is readable, it just may not survive a
// power loss. Callers count it and carry on.
var ErrSync = errors.New("store fsync failed")

const (
	resultsDirName    = "results"
	quarantineDirName = "quarantine"
	resultExt         = ".res"
	tmpPrefix         = ".tmp-"
)

// Results is the durable result store: one checksummed file per cache
// key under <state-dir>/results, content-addressed by a hash of the
// key. All methods are safe for concurrent use.
type Results struct {
	dir   string // <root>/results
	qdir  string // <root>/quarantine
	fsync bool

	// mu serializes eviction against itself; Put/Get are per-file atomic
	// and need no lock.
	mu sync.Mutex

	qseq func() int64 // quarantine name uniquifier; replaceable in tests
}

// FsckReport is the outcome of the boot-time scan of a result store.
type FsckReport struct {
	// Entries counts the valid records found.
	Entries int
	// Quarantined counts corrupt or torn entries moved to quarantine.
	Quarantined int
	// TempRemoved counts abandoned temp files (a crash mid-write before
	// the rename) that were deleted.
	TempRemoved int
}

// OpenResults opens (creating as needed) the result store under root
// and fscks every entry: corrupt records are quarantined, abandoned
// temp files removed. It refuses to start only on an unusable
// directory, never on bad records. fsync selects a durability barrier
// on every Put.
func OpenResults(root string, fsync bool) (*Results, FsckReport, error) {
	s := &Results{
		dir:   filepath.Join(root, resultsDirName),
		qdir:  filepath.Join(root, quarantineDirName),
		fsync: fsync,
		qseq:  func() int64 { return time.Now().UnixNano() },
	}
	for _, d := range []string{s.dir, s.qdir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, FsckReport{}, err
		}
	}
	rep, err := s.fsck()
	if err != nil {
		return nil, rep, err
	}
	return s, rep, nil
}

// fsck scans the results directory, validating every entry end to end.
func (s *Results) fsck() (FsckReport, error) {
	var rep FsckReport
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return rep, err
	}
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		path := filepath.Join(s.dir, name)
		if filepath.Ext(name) != resultExt {
			// Anything else is a leftover temp file or foreign junk; temp
			// files are the expected debris of a crash mid-write.
			os.Remove(path)
			rep.TempRemoved++
			continue
		}
		if _, _, err := readResultFile(path); err != nil {
			s.quarantine(path)
			rep.Quarantined++
			continue
		}
		rep.Entries++
	}
	return rep, nil
}

// keyPath maps a cache key to its content-addressed file path.
func (s *Results) keyPath(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(s.dir, hex.EncodeToString(sum[:20])+resultExt)
}

// quarantine moves a bad file out of the store, preserving its bytes
// for postmortems under a unique name. Removal is the fallback when the
// rename itself fails: a corrupt record must never be read twice.
func (s *Results) quarantine(path string) {
	dst := filepath.Join(s.qdir, fmt.Sprintf("%s.%d", filepath.Base(path), s.qseq()))
	if err := os.Rename(path, dst); err != nil {
		os.Remove(path)
	}
}

// Put stores val under key: the record is written to a temp file in the
// same directory and renamed into place, so concurrent readers see
// either the old complete entry or the new complete one, never a
// partial write. A fired store.write-torn flip truncates the record
// before the rename — the crash-shaped state the checksum exists to
// catch. A failed fsync abandons the write and returns ErrSync.
func (s *Results) Put(ctx context.Context, key string, val []byte) error {
	data := fileHeader(kindResult)
	data = appendFrame(data, encodeResultPayload(key, val))

	reg := faultpoint.From(ctx)
	if reg.Flip(PointWriteTorn) {
		// Torn write: header intact, frame cut mid-payload. The rename
		// below still lands it under the final name, which is exactly what
		// a crash after rename but before writeback looks like.
		data = data[:headerLen+(len(data)-headerLen)/2]
	}

	f, err := os.CreateTemp(s.dir, tmpPrefix)
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if s.fsync {
		err := reg.Check(ctx, PointFsyncFail)
		if err == nil {
			err = f.Sync()
		}
		if err != nil {
			f.Close()
			os.Remove(tmp)
			return fmt.Errorf("%w: %v", ErrSync, err)
		}
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, s.keyPath(key))
}

// Get returns the bytes stored under key. A miss is (nil, nil); a
// corrupt or torn entry is quarantined and reported as ErrCorrupt,
// never returned as data.
func (s *Results) Get(key string) ([]byte, error) {
	path := s.keyPath(key)
	gotKey, val, err := readResultFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err == nil && gotKey != key {
		// A hash-prefix collision or a foreign file under our name: the
		// stored record answers a different question.
		err = fmt.Errorf("%w: key mismatch", ErrCorrupt)
	}
	if err != nil {
		s.quarantine(path)
		if !errors.Is(err, ErrCorrupt) {
			err = fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		return nil, err
	}
	return val, nil
}

// Drop removes the entry stored under key, quarantining rather than
// deleting it so the bytes stay inspectable. Used when a record passes
// the checksum but fails a higher layer's decoding (format skew).
func (s *Results) Drop(key string) {
	s.quarantine(s.keyPath(key))
}

// Len counts the entries currently in the store.
func (s *Results) Len() int {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range ents {
		if !e.IsDir() && filepath.Ext(e.Name()) == resultExt {
			n++
		}
	}
	return n
}

// Stored is Len of the store under root, which it does not open.
func Stored(root string) int {
	return (&Results{dir: filepath.Join(root, resultsDirName)}).Len()
}

// EvictOver removes the oldest entries (by modification time) until at
// most max remain, returning how many went. The disk tier outlives the
// LRU but must not outlive the disk.
func (s *Results) EvictOver(max int) (int, error) {
	if max <= 0 {
		return 0, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return 0, err
	}
	type aged struct {
		path string
		mod  time.Time
	}
	var files []aged
	for _, e := range ents {
		if e.IsDir() || filepath.Ext(e.Name()) != resultExt {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		files = append(files, aged{filepath.Join(s.dir, e.Name()), info.ModTime()})
	}
	if len(files) <= max {
		return 0, nil
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mod.Before(files[j].mod) })
	n := 0
	for _, f := range files[:len(files)-max] {
		if os.Remove(f.path) == nil {
			n++
		}
	}
	return n, nil
}

// encodeResultPayload frames a result entry's payload: the key (length-
// prefixed) followed by the value bytes. Keeping the full key inside the
// record lets Get detect content-address collisions and lets fsck and
// postmortems name what a file held.
func encodeResultPayload(key string, val []byte) []byte {
	p := make([]byte, 0, 4+len(key)+len(val))
	p = binary.BigEndian.AppendUint32(p, uint32(len(key)))
	p = append(p, key...)
	p = append(p, val...)
	return p
}

// decodeResultPayload splits a validated payload back into key and value.
func decodeResultPayload(p []byte) (string, []byte, error) {
	if len(p) < 4 {
		return "", nil, fmt.Errorf("%w: payload too short", ErrCorrupt)
	}
	klen := binary.BigEndian.Uint32(p)
	if int(klen) > len(p)-4 {
		return "", nil, fmt.Errorf("%w: key length out of range", ErrCorrupt)
	}
	return string(p[4 : 4+klen]), p[4+klen:], nil
}

// readResultFile reads and fully validates one result entry.
func readResultFile(path string) (key string, val []byte, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return "", nil, err
	}
	if err := checkHeader(b, kindResult); err != nil {
		return "", nil, err
	}
	payload, n, err := readFrame(b[headerLen:])
	if err != nil {
		return "", nil, err
	}
	_ = n // trailing bytes after the first valid frame are tolerated (forward compat)
	return decodeResultPayload(payload)
}

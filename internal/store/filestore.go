package store

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/metrics"
)

// File-store metric names (registered when FileOptions.Metrics is set).
const (
	// MetricJobs is the number of records currently held (gauge).
	MetricJobs = "store.jobs"
	// MetricWALAppends counts WAL records appended this incarnation;
	// MetricWALReplayed the WAL records replayed at open.
	MetricWALAppends  = "store.wal_appends"
	MetricWALReplayed = "store.wal_replayed"
	// MetricFsyncs counts fsync calls (the durability points).
	MetricFsyncs = "store.fsyncs"
	// MetricCompactions counts snapshot+truncate cycles.
	MetricCompactions = "store.compactions"
)

// WAL and snapshot file names inside the store directory. Both hold
// binary records (see wal.go).
const (
	walName      = "wal.bin"
	snapshotName = "snapshot.bin"
)

// walOp is one WAL record: a logical mutation, replayed in order at open.
// Ops are appended only after their in-memory application succeeded, so
// replay applies them without re-checking the CAS conditions. The JSON
// tags name the fields of a binary record's metadata section and of the
// legacy JSONL WAL.
type walOp struct {
	Op string `json:"op"` // put | state | result | del
	// put
	Rec *JobRecord `json:"rec,omitempty"`
	// state / result / del
	ID string `json:"id,omitempty"`
	// state
	To State `json:"to,omitempty"`
	// result
	Res *Result `json:"res,omitempty"`
	Err string  `json:"err,omitempty"`
}

// FileOptions tune a file store.
type FileOptions struct {
	// Fsync syncs the WAL on every Put — the accept-durability guarantee.
	// State/result appends are flushed but not individually synced (a crash
	// may lose the latest transitions; replay then re-runs those jobs, which
	// the terminal CAS keeps exactly-once).
	Fsync bool
	// Metrics receives the store.* metrics; nil disables instrumentation.
	Metrics *metrics.Registry
}

// fileStore is the durable backend: an in-memory map of records, an
// append-only WAL of binary records capturing every mutation, and a
// snapshot of full-record puts written at Compact. Open replays snapshot +
// WAL; a torn final WAL record (crash mid append) is discarded and cut off
// the file.
type fileStore struct {
	dir  string
	opts FileOptions

	mu     sync.Mutex
	m      map[string]JobRecord
	wal    *os.File
	walW   *bufio.Writer
	enc    *recordEncoder
	halted bool
	closed bool

	mJobs        *metrics.Gauge
	mAppends     *metrics.Counter
	mFsyncs      *metrics.Counter
	mCompactions *metrics.Counter
}

// FileStore is the file-backed JobStore. Beyond the interface it exposes
// Compact (snapshot + WAL truncation, run at graceful drain) and Halt (stop
// touching the files — the crash-simulation hook used by the recovery
// tests and safe teardown).
type FileStore interface {
	JobStore
	// Compact writes a snapshot of the current state and truncates the WAL.
	Compact() error
	// Halt makes every subsequent write fail with ErrHalted without
	// touching the files — from the on-disk state's point of view the
	// process died at the moment of the call.
	Halt()
	// Dir returns the store directory.
	Dir() string
}

// NewFile opens (or creates) the file store in dir, replaying any snapshot
// and WAL found there. A directory written by an earlier build, in the
// JSONL format, is read once, compacted into the binary files and its
// JSON files removed; binary state found beside JSON files that an older
// build wrote after a migration refuses to open. The caller owns the directory; two live processes
// must not share one.
func NewFile(dir string, opts FileOptions) (FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create dir: %w", err)
	}
	s := &fileStore{
		dir:          dir,
		opts:         opts,
		m:            map[string]JobRecord{},
		enc:          newRecordEncoder(),
		mJobs:        opts.Metrics.Gauge(MetricJobs),
		mAppends:     opts.Metrics.Counter(MetricWALAppends),
		mFsyncs:      opts.Metrics.Counter(MetricFsyncs),
		mCompactions: opts.Metrics.Counter(MetricCompactions),
	}
	legacy, err := s.loadLegacy()
	if err == nil && legacy {
		err = s.checkLegacy()
	}
	if err != nil {
		return nil, err
	}
	if err := s.load(); err != nil {
		return nil, err
	}
	wal, err := os.OpenFile(s.walPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open wal: %w", err)
	}
	s.wal = wal
	s.walW = bufio.NewWriterSize(wal, 2*recordChunk)
	s.mJobs.Set(float64(len(s.m)))
	if legacy {
		err = s.migrate()
	} else {
		// A crash after the JSON files went but before the marker did.
		err = removeSynced(dir, migratingName)
	}
	if err != nil {
		wal.Close()
		return nil, err
	}
	return s, nil
}

func (s *fileStore) walPath() string      { return filepath.Join(s.dir, walName) }
func (s *fileStore) snapshotPath() string { return filepath.Join(s.dir, snapshotName) }

// load rebuilds the in-memory state: snapshot first, then the WAL ops in
// append order. A torn trailing WAL record is discarded (the mutation it
// described was never acknowledged) and truncated away, so the next
// append starts on a record boundary. The snapshot is installed by rename
// and is never torn; a torn snapshot is corruption.
func (s *fileStore) load() error {
	if _, torn, err := s.replay(s.snapshotPath()); err != nil {
		return fmt.Errorf("%w (snapshot %s)", err, s.snapshotPath())
	} else if torn > 0 {
		return fmt.Errorf("store: corrupt snapshot %s: %d-byte torn tail", s.snapshotPath(), torn)
	}
	replayed, torn, err := s.replay(s.walPath())
	if err != nil {
		return fmt.Errorf("%w (wal %s)", err, s.walPath())
	}
	if torn > 0 {
		fi, err := os.Stat(s.walPath())
		if err == nil {
			err = os.Truncate(s.walPath(), fi.Size()-torn)
		}
		if err != nil {
			return fmt.Errorf("store: cut torn wal tail: %w", err)
		}
	}
	s.opts.Metrics.Counter(MetricWALReplayed).Add(int64(replayed))
	return nil
}

// replay applies the records of one file (absent counts as empty).
func (s *fileStore) replay(path string) (replayed int, torn int64, err error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, 0, nil
	}
	if err != nil {
		return 0, 0, fmt.Errorf("store: open %s: %w", path, err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, 0, fmt.Errorf("store: stat %s: %w", path, err)
	}
	return decodeWAL(bufio.NewReaderSize(f, 2*recordChunk), fi.Size(), s.apply)
}

// apply replays one WAL op against the in-memory map. Ops were validated
// before they were appended, so replay is unconditional; records that have
// since been deleted are skipped.
func (s *fileStore) apply(op walOp) {
	switch op.Op {
	case "put":
		if op.Rec != nil {
			s.m[op.Rec.ID] = *op.Rec
		}
	case "state":
		if rec, ok := s.m[op.ID]; ok {
			rec.State = op.To
			s.m[op.ID] = rec
		}
	case "result":
		if rec, ok := s.m[op.ID]; ok {
			if next, err := finishRecord(rec, op.Res, op.Err); err == nil {
				s.m[op.ID] = next
			}
		}
	case "del":
		delete(s.m, op.ID)
	}
}

// append writes one WAL op and flushes it to the OS; sync additionally
// fsyncs (the durability point). Callers hold s.mu.
func (s *fileStore) append(op walOp, sync bool) error {
	if err := s.enc.encode(s.walW, op); err != nil {
		return fmt.Errorf("store: append wal: %w", err)
	}
	if err := s.walW.Flush(); err != nil {
		return fmt.Errorf("store: flush wal: %w", err)
	}
	s.mAppends.Inc()
	if sync && s.opts.Fsync {
		if err := s.wal.Sync(); err != nil {
			return fmt.Errorf("store: fsync wal: %w", err)
		}
		s.mFsyncs.Inc()
	}
	return nil
}

func (s *fileStore) Put(rec JobRecord) error {
	if !rec.State.Valid() {
		return fmt.Errorf("store: put %q: invalid state %q", rec.ID, rec.State)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.halted {
		return ErrHalted
	}
	if _, ok := s.m[rec.ID]; ok {
		return fmt.Errorf("%w: %q", ErrDuplicate, rec.ID)
	}
	rec = cloneRecord(rec)
	if err := s.append(walOp{Op: "put", Rec: &rec}, true); err != nil {
		return err
	}
	s.m[rec.ID] = rec
	s.mJobs.Set(float64(len(s.m)))
	return nil
}

func (s *fileStore) Get(id string) (JobRecord, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.m[id]
	if !ok {
		return JobRecord{}, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return cloneRecord(rec), nil
}

func (s *fileStore) List() ([]JobRecord, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return listRecords(s.m), nil
}

func (s *fileStore) MarkState(id string, from, to State) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.halted {
		return ErrHalted
	}
	rec, ok := s.m[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	next, err := transition(rec, from, to)
	if err != nil {
		return err
	}
	if err := s.append(walOp{Op: "state", ID: id, To: to}, false); err != nil {
		return err
	}
	s.m[id] = next
	return nil
}

func (s *fileStore) SetResult(id string, res *Result, errMsg string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.halted {
		return ErrHalted
	}
	rec, ok := s.m[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	next, err := finishRecord(rec, res, errMsg)
	if err != nil {
		return err
	}
	if err := s.append(walOp{Op: "result", ID: id, Res: next.Result, Err: errMsg}, false); err != nil {
		return err
	}
	s.m[id] = next
	return nil
}

func (s *fileStore) Delete(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.halted {
		return ErrHalted
	}
	if _, ok := s.m[id]; !ok {
		return nil
	}
	if err := s.append(walOp{Op: "del", ID: id}, false); err != nil {
		return err
	}
	delete(s.m, id)
	s.mJobs.Set(float64(len(s.m)))
	return nil
}

// Sync forces the WAL to stable storage. The flush+fsync happen under
// s.mu by design: durability requires that no later append reorder ahead
// of the fsync, and the mutex is the store's write-ordering point.
//
//qr:allow lockhold fsync under the store mutex IS the durability contract (fsync-before-ack)
func (s *fileStore) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.halted {
		return ErrHalted
	}
	if err := s.walW.Flush(); err != nil {
		return fmt.Errorf("store: flush wal: %w", err)
	}
	if err := s.wal.Sync(); err != nil {
		return fmt.Errorf("store: fsync wal: %w", err)
	}
	s.mFsyncs.Inc()
	return nil
}

// Compact checkpoints the current state into the snapshot — one put record
// per job — and truncates the WAL: recovery cost becomes proportional to
// the live job set, not to the lifetime mutation count. Runs at graceful
// drain and is safe at any time. The whole write-rename-truncate sequence
// holds s.mu: a concurrent append between snapshot and truncation would be
// lost forever.
//
//qr:allow lockhold snapshot+WAL-truncate must be atomic w.r.t. writers; the mutex is what makes it so
func (s *fileStore) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.halted {
		return ErrHalted
	}
	// Write-rename so a crash mid-compaction leaves the old snapshot (and
	// the old WAL — it is only truncated after the rename) fully intact.
	tmp := s.snapshotPath() + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: write snapshot: %w", err)
	}
	if err := s.writeSnapshot(f); err != nil {
		f.Close()
		return fmt.Errorf("store: write snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: close snapshot: %w", err)
	}
	if err := os.Rename(tmp, s.snapshotPath()); err != nil {
		return fmt.Errorf("store: install snapshot: %w", err)
	}
	s.mFsyncs.Inc()
	// Truncate the WAL: everything it held is now in the snapshot.
	if err := s.walW.Flush(); err != nil {
		return fmt.Errorf("store: flush wal: %w", err)
	}
	if err := s.wal.Truncate(0); err != nil {
		return fmt.Errorf("store: truncate wal: %w", err)
	}
	if _, err := s.wal.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("store: rewind wal: %w", err)
	}
	s.walW.Reset(s.wal)
	s.mCompactions.Inc()
	return nil
}

// writeSnapshot writes every record to f as a full-record put, in List
// order, and fsyncs it. Callers hold s.mu.
func (s *fileStore) writeSnapshot(f *os.File) error {
	recs := make([]JobRecord, 0, len(s.m))
	for _, rec := range s.m {
		recs = append(recs, rec)
	}
	sortRecords(recs)
	w := bufio.NewWriterSize(f, 2*recordChunk)
	for i := range recs {
		if err := s.enc.encode(w, walOp{Op: "put", Rec: &recs[i]}); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Sync()
}

func (s *fileStore) Halt() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.halted = true
}

func (s *fileStore) Dir() string { return s.dir }

// Close flushes and fsyncs the WAL before releasing it, under s.mu so no
// write can slip in after the final fsync.
//
//qr:allow lockhold final flush+fsync must exclude concurrent writers
func (s *fileStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.halted {
		// A halted store simulated its death already; closing must not
		// flush the writes it pretended to lose.
		return s.wal.Close()
	}
	s.halted = true
	if err := s.walW.Flush(); err != nil {
		s.wal.Close()
		return fmt.Errorf("store: flush wal: %w", err)
	}
	if err := s.wal.Sync(); err != nil {
		s.wal.Close()
		return fmt.Errorf("store: fsync wal: %w", err)
	}
	return s.wal.Close()
}

// Package store is the durability layer under the serving subsystem: a
// small JobStore interface that persists accepted factorization jobs and
// their outcomes, so a process restart loses nothing that was ever
// acknowledged to a client.
//
// The contract is deliberately narrow — Put/Get/List plus two
// compare-and-swap state transitions (MarkState for the non-terminal moves,
// SetResult for the single terminal move) — so backends stay simple and the
// serving layer cannot express a lifecycle the store cannot replay. The
// terminal CAS is the exactly-once guarantee: a job record reaches done or
// failed at most once, whichever process incarnation gets there first.
//
// Two backends ship with the repository and keep go.mod dependency-free:
//
//   - Mem: a mutex-guarded map, the zero-cost default for tests and for
//     deployments that accept restart amnesia.
//   - File: an append-only write-ahead log (wal.bin) plus periodic
//     snapshot (snapshot.bin) in a directory, with optional fsync on accept
//     (the durability point: Submit does not acknowledge a job until its
//     record is on stable storage). See NewFile.
//
// The file backend writes length-prefixed binary records: a header with
// section lengths and its own CRC-32C, the op's JSON metadata, the input
// matrix and R as raw little-endian float64s, an opaque Body as raw bytes,
// and a CRC-32C of the whole record. The snapshot is a sequence of the
// same records, one full-record put per job. A torn final WAL record is
// discarded at open; any other damage refuses to open. A directory written
// by an earlier build (wal.jsonl, snapshot.json) is read once at open,
// compacted into the binary files, and its JSON files removed. Binary
// state found beside JSON files that an older build wrote after such a
// migration refuses to open.
package store

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// State is a persisted job's lifecycle position. The values are stable
// strings (they appear in WAL records on disk), not ints, so a snapshot
// written by one build stays readable by the next.
type State string

const (
	// StateAccepted: admitted and durable, waiting for execution. Jobs in
	// this state are replayed on restart.
	StateAccepted State = "accepted"
	// StateRunning: picked up by an executor. Still replayed on restart —
	// a crash mid-execution leaves the record here.
	StateRunning State = "running"
	// StateDone / StateFailed: terminal. Never replayed.
	StateDone   State = "done"
	StateFailed State = "failed"
)

// Terminal reports whether the state is an end state.
func (s State) Terminal() bool { return s == StateDone || s == StateFailed }

// Valid reports whether s is one of the four lifecycle states.
func (s State) Valid() bool {
	switch s {
	case StateAccepted, StateRunning, StateDone, StateFailed:
		return true
	}
	return false
}

// Typed store errors, tested with errors.Is.
var (
	// ErrNotFound: no record with that ID.
	ErrNotFound = errors.New("store: job not found")
	// ErrDuplicate: Put on an ID that already has a record — the load-bearing
	// half of idempotency keys (serve maps it to HTTP 409).
	ErrDuplicate = errors.New("store: duplicate job id")
	// ErrConflict: a compare-and-swap lost — the record's state was not the
	// expected "from". A SetResult conflict means some other path already
	// finished the job; callers must not publish a second outcome.
	ErrConflict = errors.New("store: state conflict")
	// ErrHalted: the store was halted (crash simulation / read-only teardown)
	// and refuses writes.
	ErrHalted = errors.New("store: halted")
)

// Result is a persisted factorization outcome: the R factor, row-major.
// (Q lives implicitly in the Householder reflectors and is not persisted —
// the HTTP result endpoint serves R, and replayed jobs recompute in full.)
type Result struct {
	Rows int       `json:"rows"`
	Cols int       `json:"cols"`
	Data []float64 `json:"data"`
}

// JobRecord is one persisted job. Everything needed to re-admit the job
// after a restart rides in the record: the input (dense payload or its
// generator seed), the shape/tile/tree that key its size class, the trace
// id (so a job keeps one identity across incarnations), and the absolute
// deadline (so a restart cannot extend a job's budget).
type JobRecord struct {
	// ID keys the record: the client-supplied idempotency key when one was
	// given, otherwise the server-assigned id under its own namespace
	// ("srv-<n>"), so a numeric client key can never collide with the
	// server's counter.
	ID string `json:"id"`
	// NumID is the server-assigned numeric id at first acceptance; restarts
	// seed their id counter past the stored maximum so ids never collide.
	NumID    uint64 `json:"numID"`
	ClientID string `json:"clientID,omitempty"`
	TraceID  string `json:"traceID,omitempty"`
	Class    string `json:"class,omitempty"`

	Rows int    `json:"rows"`
	Cols int    `json:"cols"`
	Tile int    `json:"tile"`
	Tree string `json:"tree,omitempty"`

	// SeedOnly marks a reproducible input: Data is omitted and the matrix is
	// regenerated from Seed on replay (workload.Uniform). Otherwise Data is
	// the row-major dense payload.
	SeedOnly bool      `json:"seedOnly,omitempty"`
	Seed     int64     `json:"seed,omitempty"`
	Data     []float64 `json:"data,omitempty"`

	// Body is an opaque payload for stores that journal requests rather
	// than decoded jobs (the router's dispatch journal keeps the exact
	// submission bytes here so a restart can re-post them verbatim).
	Body []byte `json:"body,omitempty"`

	Accepted time.Time `json:"accepted"`
	// Deadline is the job's absolute deadline (zero = none). Replay honours
	// the remainder; an already-expired record is marked failed, not rerun.
	Deadline time.Time `json:"deadline,omitempty"`

	State State  `json:"state"`
	Error string `json:"error,omitempty"`
	// Result is set when State is StateDone.
	Result *Result `json:"result,omitempty"`
}

// JobStore persists accepted jobs and their outcomes. Implementations are
// safe for concurrent use.
type JobStore interface {
	// Put inserts a new record (ErrDuplicate if the ID exists). The record
	// must be durable when Put returns — this is the accept fsync point.
	Put(rec JobRecord) error
	// Get returns the record with the given ID (ErrNotFound otherwise).
	Get(id string) (JobRecord, error)
	// List returns every record, ordered by NumID.
	List() ([]JobRecord, error)
	// MarkState is the non-terminal CAS: it moves a record from "from" to
	// "to" (to must be accepted or running). from == "" matches any
	// non-terminal state. ErrConflict when the record is elsewhere.
	MarkState(id string, from, to State) error
	// SetResult is the terminal CAS: it moves a non-terminal record to done
	// (errMsg == "", res may carry the R factor) or failed (errMsg != "").
	// ErrConflict when the record is already terminal — the caller lost the
	// exactly-once race and must discard its outcome.
	SetResult(id string, res *Result, errMsg string) error
	// Delete removes a record (no error if absent) — used to roll back a
	// Put whose admission ultimately failed (queue overflow after the
	// durability point).
	Delete(id string) error
	// Sync flushes buffered writes to stable storage.
	Sync() error
	// Close releases resources; the store refuses writes afterwards.
	Close() error
}

// mem is the in-memory backend. See NewMem.
type mem struct {
	mu   sync.Mutex
	m    map[string]JobRecord
	halt bool
}

// NewMem returns the in-memory JobStore: full interface semantics, no
// durability. The default when serving without -store.
func NewMem() JobStore { return &mem{m: map[string]JobRecord{}} }

func (s *mem) Put(rec JobRecord) error {
	if !rec.State.Valid() {
		return fmt.Errorf("store: put %q: invalid state %q", rec.ID, rec.State)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.halt {
		return ErrHalted
	}
	if _, ok := s.m[rec.ID]; ok {
		return fmt.Errorf("%w: %q", ErrDuplicate, rec.ID)
	}
	s.m[rec.ID] = cloneRecord(rec)
	return nil
}

func (s *mem) Get(id string) (JobRecord, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.m[id]
	if !ok {
		return JobRecord{}, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return cloneRecord(rec), nil
}

func (s *mem) List() ([]JobRecord, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return listRecords(s.m), nil
}

func (s *mem) MarkState(id string, from, to State) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.halt {
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
	s.m[id] = next
	return nil
}

func (s *mem) SetResult(id string, res *Result, errMsg string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.halt {
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
	s.m[id] = next
	return nil
}

func (s *mem) Delete(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.halt {
		return ErrHalted
	}
	delete(s.m, id)
	return nil
}

func (s *mem) Sync() error { return nil }

func (s *mem) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.halt = true
	return nil
}

// transition applies the MarkState CAS rules to a copy of rec.
func transition(rec JobRecord, from, to State) (JobRecord, error) {
	if to != StateAccepted && to != StateRunning {
		return rec, fmt.Errorf("store: mark %q: %q is not a non-terminal state", rec.ID, to)
	}
	if rec.State.Terminal() {
		return rec, fmt.Errorf("%w: job %q already %s", ErrConflict, rec.ID, rec.State)
	}
	if from != "" && rec.State != from {
		return rec, fmt.Errorf("%w: job %q is %s, not %s", ErrConflict, rec.ID, rec.State, from)
	}
	rec.State = to
	return rec, nil
}

// finishRecord applies the SetResult terminal CAS to a copy of rec.
func finishRecord(rec JobRecord, res *Result, errMsg string) (JobRecord, error) {
	if rec.State.Terminal() {
		return rec, fmt.Errorf("%w: job %q already %s", ErrConflict, rec.ID, rec.State)
	}
	if errMsg != "" {
		rec.State = StateFailed
		rec.Error = errMsg
		rec.Result = nil
	} else {
		rec.State = StateDone
		rec.Error = ""
		rec.Result = cloneResult(res)
	}
	return rec, nil
}

// listRecords snapshots a record map ordered by NumID (ties by ID).
func listRecords(m map[string]JobRecord) []JobRecord {
	out := make([]JobRecord, 0, len(m))
	for _, rec := range m {
		out = append(out, cloneRecord(rec))
	}
	sortRecords(out)
	return out
}

// sortRecords orders records by NumID, ties by ID.
func sortRecords(recs []JobRecord) {
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].NumID != recs[j].NumID {
			return recs[i].NumID < recs[j].NumID
		}
		return recs[i].ID < recs[j].ID
	})
}

func cloneRecord(rec JobRecord) JobRecord {
	if rec.Data != nil {
		rec.Data = append([]float64(nil), rec.Data...)
	}
	if rec.Body != nil {
		rec.Body = append([]byte(nil), rec.Body...)
	}
	rec.Result = cloneResult(rec.Result)
	return rec
}

func cloneResult(res *Result) *Result {
	if res == nil {
		return nil
	}
	out := *res
	if res.Data != nil {
		out.Data = append([]float64(nil), res.Data...)
	}
	return &out
}

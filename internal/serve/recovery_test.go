package serve

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/runtime"
	"repro/internal/store"
	"repro/internal/workload"
)

// TestSubmitDuplicateClientID: a client-supplied job id is an idempotency
// key — the second submission is rejected, never silently overwritten.
func TestSubmitDuplicateClientID(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	a := workload.Uniform(1, 32, 32)
	j1, err := s.Submit(context.Background(), a, SubmitOptions{ClientID: "key-1"})
	if err != nil {
		t.Fatalf("first submit: %v", err)
	}
	if _, err := s.Submit(context.Background(), workload.Uniform(2, 32, 32), SubmitOptions{ClientID: "key-1"}); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("second submit: got %v, want ErrDuplicateID", err)
	}
	if got, ok := s.LookupClientID("key-1"); !ok || got != j1 {
		t.Fatal("client id does not resolve to the first job")
	}
	if _, err := j1.Wait(waitCtx(t)); err != nil {
		t.Fatalf("first job: %v", err)
	}
	// A different key is unaffected.
	if _, err := s.Submit(context.Background(), workload.Uniform(3, 32, 32), SubmitOptions{ClientID: "key-2"}); err != nil {
		t.Fatalf("distinct key rejected: %v", err)
	}
}

// TestSubmitDuplicateClientIDAcrossRestart: with a store, the idempotency
// check survives the process — a key accepted before the restart stays
// taken afterwards, even when the job already finished.
func TestSubmitDuplicateClientIDAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	fs1, err := store.NewFile(dir, store.FileOptions{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	s1 := New(Config{Store: fs1})
	j, err := s1.Submit(context.Background(), workload.Uniform(7, 32, 32),
		SubmitOptions{ClientID: "once", Seed: 7, SeedOnly: true})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if _, err := j.Wait(waitCtx(t)); err != nil {
		t.Fatalf("wait: %v", err)
	}
	s1.Close()
	fs1.Close()

	fs2, err := store.NewFile(dir, store.FileOptions{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	s2 := New(Config{Store: fs2})
	defer func() { s2.Close(); fs2.Close() }()
	if len(s2.RecoveredJobs()) != 0 {
		t.Fatalf("terminal job was replayed: %d recovered", len(s2.RecoveredJobs()))
	}
	if _, err := s2.Submit(context.Background(), workload.Uniform(8, 32, 32), SubmitOptions{ClientID: "once"}); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("resubmit after restart: got %v, want ErrDuplicateID", err)
	}
	// The finished job's result is still fetchable through the store.
	rec, ok := s2.Record("once")
	if !ok || rec.State != store.StateDone || rec.Result == nil {
		t.Fatalf("record after restart = %+v, want done with result", rec)
	}
}

// TestCrashRecoveryMidBatch is the kill-and-restart acceptance test: a
// server is "killed" mid-batch (the test-only hook halts the file store
// after the batch's jobs are marked running, so every later write is lost
// exactly as in a crash), a second server reopens the same directory, and
// every accepted job must reach a terminal state exactly once with the
// bit-identical result a direct factorization produces.
func TestCrashRecoveryMidBatch(t *testing.T) {
	dir := t.TempDir()
	fs1, err := store.NewFile(dir, store.FileOptions{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	const tile = 16
	var crash atomic.Bool
	// accepted closes once every phase-B job is durably accepted; the crash
	// waits for it, so no phase-B submit can meet the halted store.
	accepted := make(chan struct{})
	cfg := Config{
		Store:           fs1,
		Executors:       1,
		MaxBatch:        4,
		DefaultTileSize: tile,
		Metrics:         metrics.NewRegistry(),
		testMidBatch: func() {
			if crash.Load() {
				<-accepted
				fs1.Halt()
			}
		},
	}
	s1 := New(cfg)

	// Phase A: jobs that complete (and persist) before the crash.
	type sub struct {
		cid  string
		seed int64
	}
	var phaseA, phaseB []sub
	for i := 0; i < 4; i++ {
		phaseA = append(phaseA, sub{fmt.Sprintf("pre-%d", i), int64(100 + i)})
	}
	for i := 0; i < 6; i++ {
		phaseB = append(phaseB, sub{fmt.Sprintf("mid-%d", i), int64(200 + i)})
	}
	for _, p := range phaseA {
		j, err := s1.Submit(context.Background(), workload.Uniform(p.seed, 64, 64),
			SubmitOptions{ClientID: p.cid, Seed: p.seed, SeedOnly: true})
		if err != nil {
			t.Fatalf("submit %s: %v", p.cid, err)
		}
		if _, err := j.Wait(waitCtx(t)); err != nil {
			t.Fatalf("wait %s: %v", p.cid, err)
		}
	}
	// Capture phase A's persisted results — after recovery they must be
	// untouched (a replay overwriting them would be a double completion).
	preResults := map[string][]float64{}
	preTraces := map[string]string{}
	for _, p := range phaseA {
		// Wait returns once the job is done in memory; the executor
		// persists its outcome just after, so poll for the terminal record.
		rec, err := fs1.Get(p.cid)
		for deadline := time.Now().Add(5 * time.Second); err == nil &&
			rec.State != store.StateDone && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
			rec, err = fs1.Get(p.cid)
		}
		if err != nil || rec.State != store.StateDone || rec.Result == nil {
			t.Fatalf("phase A record %s = %+v (%v)", p.cid, rec, err)
		}
		preResults[p.cid] = rec.Result.Data
		preTraces[p.cid] = rec.TraceID
	}

	// Phase B: the crash lands mid-batch — jobs are durably accepted and
	// marked running, then the store dies before any result lands.
	crash.Store(true)
	var phaseBTraces = map[string]string{}
	var jobsB []*Job
	for _, p := range phaseB {
		j, err := s1.Submit(context.Background(), workload.Uniform(p.seed, 64, 64),
			SubmitOptions{ClientID: p.cid, Seed: p.seed, SeedOnly: true})
		if err != nil {
			t.Fatalf("submit %s: %v", p.cid, err)
		}
		phaseBTraces[p.cid] = j.TraceID()
		jobsB = append(jobsB, j)
	}
	close(accepted)
	for _, j := range jobsB {
		// The in-memory server still completes the jobs; the disk does not
		// hear about it — that asymmetry is the crash.
		if _, err := j.Wait(waitCtx(t)); err != nil {
			t.Fatalf("phase B wait: %v", err)
		}
	}
	s1.Close()
	fs1.Close()

	// Restart on the same directory.
	fs2, err := store.NewFile(dir, store.FileOptions{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	reg2 := metrics.NewRegistry()
	s2 := New(Config{Store: fs2, DefaultTileSize: tile, Metrics: reg2})
	defer func() { s2.Close(); fs2.Close() }()

	recovered := s2.RecoveredJobs()
	if len(recovered) != len(phaseB) {
		t.Fatalf("recovered %d jobs, want %d (phase A must not replay)", len(recovered), len(phaseB))
	}
	if got := reg2.Snapshot().Counters[MetricRecovered]; got != int64(len(phaseB)) {
		t.Fatalf("%s = %d, want %d", MetricRecovered, got, len(phaseB))
	}
	for _, j := range recovered {
		if !j.Recovered() {
			t.Fatalf("job %d not marked recovered", j.ID())
		}
		// Trace ids survive the restart: the replayed job keeps the identity
		// the client was given at first acceptance.
		if want := phaseBTraces[j.ClientID()]; j.TraceID() != want {
			t.Fatalf("job %s trace id %q, want %q (must survive restart)", j.ClientID(), j.TraceID(), want)
		}
		if _, err := j.Wait(waitCtx(t)); err != nil {
			t.Fatalf("recovered job %s: %v", j.ClientID(), err)
		}
	}

	// Every accepted job is terminal exactly once, with bit-identical
	// results: phase A's records are byte-for-byte what they were before
	// the crash, phase B's match a direct factorization of the same input.
	all := append(append([]sub(nil), phaseA...), phaseB...)
	for _, p := range all {
		rec, err := fs2.Get(p.cid)
		if err != nil {
			t.Fatalf("record %s: %v", p.cid, err)
		}
		if rec.State != store.StateDone || rec.Result == nil {
			t.Fatalf("record %s = %s (%s), want done", p.cid, rec.State, rec.Error)
		}
		direct, err := runtime.Factor(workload.Uniform(p.seed, 64, 64), runtime.Options{TileSize: tile})
		if err != nil {
			t.Fatalf("direct factor: %v", err)
		}
		want := flattenMatrix(direct.R())
		if len(rec.Result.Data) != len(want) {
			t.Fatalf("record %s result length %d, want %d", p.cid, len(rec.Result.Data), len(want))
		}
		for i := range want {
			if rec.Result.Data[i] != want[i] {
				t.Fatalf("record %s result[%d] = %v, want %v (bit-identical)", p.cid, i, rec.Result.Data[i], want[i])
			}
		}
	}
	for _, p := range phaseA {
		rec, _ := fs2.Get(p.cid)
		if rec.TraceID != preTraces[p.cid] {
			t.Fatalf("phase A record %s trace id changed across restart", p.cid)
		}
		for i, v := range preResults[p.cid] {
			if rec.Result.Data[i] != v {
				t.Fatalf("phase A record %s result mutated by recovery (double completion)", p.cid)
			}
		}
	}
	// The terminal CAS still guards every record: no second completion can
	// ever land.
	for _, p := range all {
		if err := fs2.SetResult(p.cid, nil, "again"); !errors.Is(err, store.ErrConflict) {
			t.Fatalf("record %s accepted a second terminal write: %v", p.cid, err)
		}
	}
}

// TestRecoveryExpiredDeadline: a stored job whose absolute deadline passed
// while the process was down is failed in place, not re-executed with a
// fresh budget.
func TestRecoveryExpiredDeadline(t *testing.T) {
	dir := t.TempDir()
	fs1, err := store.NewFile(dir, store.FileOptions{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	rec := store.JobRecord{
		ID: "late", NumID: 1, TraceID: "trace-late", Class: "64x64/b16/flat-ts",
		Rows: 64, Cols: 64, Tile: 16, Tree: "flat-ts",
		SeedOnly: true, Seed: 5,
		Accepted: time.Now().Add(-time.Hour),
		Deadline: time.Now().Add(-time.Minute),
		State:    store.StateRunning,
	}
	if err := fs1.Put(rec); err != nil {
		t.Fatal(err)
	}
	fs1.Close()

	fs2, err := store.NewFile(dir, store.FileOptions{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Store: fs2})
	defer func() { s.Close(); fs2.Close() }()
	if n := len(s.RecoveredJobs()); n != 0 {
		t.Fatalf("expired job was replayed (%d recovered)", n)
	}
	got, err := fs2.Get("late")
	if err != nil || got.State != store.StateFailed {
		t.Fatalf("expired record = %+v (%v), want failed", got, err)
	}
}

// TestServerStoreKeysNamespacedFromClientIDs: jobs without a client id are
// keyed under the srv- store namespace, and the two wire namespaces are kept
// disjoint at admission — client keys may not impersonate server-assigned ids
// (purely numeric, previously a client holding id "2" made the second id-less
// submission bounce with a spurious 409) or srv- store keys.
func TestServerStoreKeysNamespacedFromClientIDs(t *testing.T) {
	st := store.NewMem()
	s := New(Config{Store: st})
	defer s.Close()
	ctx := context.Background()
	// Bare decimals are the wire names of server-assigned ids: refused as
	// client keys, so GET /jobs/{n} can never be ambiguous.
	if _, err := s.Submit(ctx, workload.Uniform(1, 32, 32), SubmitOptions{ClientID: "2"}); err == nil {
		t.Fatal("purely-numeric client id accepted")
	}
	// Id-less submissions own the decimal namespace outright.
	for i := 0; i < 3; i++ {
		if _, err := s.Submit(ctx, workload.Uniform(int64(i), 32, 32), SubmitOptions{}); err != nil {
			t.Fatalf("id-less submission %d: %v", i, err)
		}
	}
	// The store namespace itself is reserved too: a client key that could
	// shadow a server-assigned store key is refused at admission.
	if _, err := s.Submit(ctx, workload.Uniform(9, 32, 32), SubmitOptions{ClientID: "srv-1"}); err == nil {
		t.Fatal("reserved-prefix client id accepted")
	}
	// Non-numeric keys with digits in them are ordinary idempotency keys.
	if _, err := s.Submit(ctx, workload.Uniform(9, 32, 32), SubmitOptions{ClientID: "job-2"}); err != nil {
		t.Fatalf("ordinary client id refused: %v", err)
	}
}

package store

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/metrics"
)

func openFile(t *testing.T, dir string) FileStore {
	t.Helper()
	s, err := NewFile(dir, FileOptions{Fsync: true})
	if err != nil {
		t.Fatalf("NewFile(%s): %v", dir, err)
	}
	return s
}

func TestFileStoreReopenReplaysWAL(t *testing.T) {
	dir := t.TempDir()
	s := openFile(t, dir)
	if err := s.Put(rec("a", 1)); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := s.Put(rec("b", 2)); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := s.MarkState("a", StateAccepted, StateRunning); err != nil {
		t.Fatalf("MarkState: %v", err)
	}
	if err := s.SetResult("b", &Result{Rows: 1, Cols: 1, Data: []float64{7}}, ""); err != nil {
		t.Fatalf("SetResult: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	re := openFile(t, dir)
	defer re.Close()
	a, err := re.Get("a")
	if err != nil || a.State != StateRunning {
		t.Fatalf("replayed a = %+v (%v), want running", a, err)
	}
	b, err := re.Get("b")
	if err != nil || b.State != StateDone || b.Result == nil || b.Result.Data[0] != 7 {
		t.Fatalf("replayed b = %+v (%v), want done with result", b, err)
	}
	// The terminal CAS survives the restart: b cannot finish twice.
	if err := re.SetResult("b", nil, "again"); !errors.Is(err, ErrConflict) {
		t.Fatalf("SetResult after replay: got %v, want ErrConflict", err)
	}
}

// walSize returns the WAL's current length.
func walSize(t *testing.T, dir string) int64 {
	t.Helper()
	fi, err := os.Stat(filepath.Join(dir, walName))
	if err != nil {
		t.Fatalf("stat wal: %v", err)
	}
	return fi.Size()
}

// tornTailWAL writes a WAL holding a put with Data, a result with R and a
// router-style put with Body, and returns its bytes and the offset where
// the final record (the router put) starts.
func tornTailWAL(t *testing.T) (wal []byte, finalStart int) {
	dir := t.TempDir()
	s, err := NewFile(dir, FileOptions{})
	if err != nil {
		t.Fatalf("NewFile: %v", err)
	}
	a := rec("a", 1)
	a.SeedOnly, a.Rows, a.Cols, a.Data = false, 2, 3, []float64{1, -2, 3.5, 0, 5e-324, 6}
	if err := s.Put(a); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := s.SetResult("a", &Result{Rows: 3, Cols: 3, Data: []float64{9, 8, 7, 0, 6, 5, 0, 0, 4}}, ""); err != nil {
		t.Fatalf("SetResult: %v", err)
	}
	finalStart = int(walSize(t, dir))
	body := make([]byte, 97)
	for i := range body {
		body[i] = byte(i * 37)
	}
	if err := s.Put(JobRecord{ID: "rt-1", NumID: 2, Class: "2x3/t2", Body: body, State: StateAccepted}); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	wal, err = os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatalf("read wal: %v", err)
	}
	return wal, finalStart
}

// TestFileStoreToleratesTornTail cuts the WAL at every byte offset of its
// final record — a crash mid-append — and checks that replay keeps exactly
// the earlier records, drops the torn one, and that the store stays
// writable across another restart.
func TestFileStoreToleratesTornTail(t *testing.T) {
	wal, finalStart := tornTailWAL(t)
	for cut := finalStart; cut < len(wal); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walName), wal[:cut], 0o644); err != nil {
			t.Fatalf("write wal: %v", err)
		}
		re, err := NewFile(dir, FileOptions{})
		if err != nil {
			t.Fatalf("cut at %d/%d: NewFile: %v", cut, len(wal), err)
		}
		a, err := re.Get("a")
		if err != nil || a.State != StateDone || a.Result == nil || len(a.Result.Data) != 9 || len(a.Data) != 6 {
			t.Fatalf("cut at %d/%d: record before the torn tail = %+v (%v)", cut, len(wal), a, err)
		}
		if _, err := re.Get("rt-1"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("cut at %d/%d: torn record visible: %v", cut, len(wal), err)
		}
		// The store stays writable after discarding the tail, and what it
		// writes next survives another restart.
		if err := re.Put(rec("c", 3)); err != nil {
			t.Fatalf("cut at %d/%d: Put after torn tail: %v", cut, len(wal), err)
		}
		if err := re.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		again, err := NewFile(dir, FileOptions{})
		if err != nil {
			t.Fatalf("cut at %d/%d: reopen after writing past a torn tail: %v", cut, len(wal), err)
		}
		list, _ := again.List()
		if len(list) != 2 || list[0].ID != "a" || list[1].ID != "c" {
			t.Fatalf("cut at %d/%d: reopened records %v, want [a c]", cut, len(wal), list)
		}
		again.Close()
	}
}

// TestFileStoreRejectsCorruptMiddle damages a record that has another one
// after it: a flipped payload byte, a flipped magic byte, and a flipped
// length that points past the end of the file must each make the store
// refuse to open rather than skip the record or cut the file there.
func TestFileStoreRejectsCorruptMiddle(t *testing.T) {
	ops := fuzzOps()
	stateStart := len(walStream(t, ops[0]))
	resultEnd := len(walStream(t, ops[:3]...))
	wal := walStream(t, ops...)
	for name, off := range map[string]int{
		"payload":     resultEnd - recordCRCLen - 3, // inside the result op's R
		"magic":       stateStart + 1,               // the state op's header
		"meta-length": stateStart + 8 + 2,           // the state op's metaLen, +4 MiB
		"data-length": 12 + 2,                       // the first put's nData, +4Mi floats
	} {
		t.Run(name, func(t *testing.T) {
			bad := append([]byte(nil), wal...)
			bad[off] ^= 0x40
			dir := t.TempDir()
			path := filepath.Join(dir, walName)
			if err := os.WriteFile(path, bad, 0o644); err != nil {
				t.Fatalf("write wal: %v", err)
			}
			if _, err := NewFile(dir, FileOptions{}); !errors.Is(err, errCorrupt) {
				t.Fatalf("NewFile on a WAL with a corrupt middle record: %v, want corruption", err)
			}
			if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, bad) {
				t.Fatalf("refused open changed the WAL: %d bytes, want %d (%v)", len(got), len(bad), err)
			}
		})
	}
}

// TestFileStoreReopensOversizedRecord stores a job whose input and R would
// each make a JSON WAL line longer than 64 MiB — a 2000x2000 inline job,
// well inside the router's body limit — and checks the store reopens with
// both intact.
func TestFileStoreReopensOversizedRecord(t *testing.T) {
	const n = 2000
	dir := t.TempDir()
	s := openFile(t, dir)
	big := rec("big", 1)
	big.SeedOnly, big.Rows, big.Cols = false, n, n
	big.Data = make([]float64, n*n)
	r := make([]float64, n*n)
	for i := range big.Data {
		big.Data[i] = 1/float64(i+3) - 0.123456789
		r[i] = -big.Data[i] / 7
	}
	if err := s.Put(big); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := s.SetResult("big", &Result{Rows: n, Cols: n, Data: r}, ""); err != nil {
		t.Fatalf("SetResult: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	re := openFile(t, dir)
	defer re.Close()
	got, err := re.Get("big")
	if err != nil || got.State != StateDone || got.Result == nil {
		t.Fatalf("reopened record = %v, want done", err)
	}
	if !sameBits(got.Data, big.Data) || !sameBits(got.Result.Data, r) {
		t.Fatal("oversized record changed across reopen")
	}
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestFileStoreBitIdentity checks that payloads survive the WAL, a
// compaction and both reopens bit for bit: signed zeros, NaN payloads,
// subnormals and infinities in Data and R, and every byte value in Body.
func TestFileStoreBitIdentity(t *testing.T) {
	odd := []float64{
		math.Copysign(0, -1), 0, math.Float64frombits(0x7ff8dead00000001), math.Float64frombits(0xfff0000000000abc),
		5e-324, -math.SmallestNonzeroFloat64 * 77, math.Inf(-1), math.MaxFloat64, 1.0 / 3,
	}
	body := make([]byte, 512)
	for i := range body {
		body[i] = byte(i)
	}
	in := rec("in", 1)
	in.SeedOnly, in.Rows, in.Cols, in.Data = false, 3, 3, odd
	routed := JobRecord{ID: "rt-9", NumID: 2, TraceID: "t-rt", Body: body, State: StateAccepted, Accepted: in.Accepted}
	r := make([]float64, len(odd))
	for i := range odd {
		r[i] = odd[len(odd)-1-i]
	}
	check := func(stage string, s FileStore) {
		t.Helper()
		got, err := s.Get("in")
		if err != nil || got.Result == nil || !sameBits(got.Data, odd) || !sameBits(got.Result.Data, r) {
			t.Fatalf("%s: input or R changed: %+v (%v)", stage, got, err)
		}
		if !got.Accepted.Equal(in.Accepted) {
			t.Fatalf("%s: accepted %v, want %v", stage, got.Accepted, in.Accepted)
		}
		gotRT, err := s.Get("rt-9")
		if err != nil || !bytes.Equal(gotRT.Body, body) || gotRT.TraceID != "t-rt" {
			t.Fatalf("%s: body record changed: %+v (%v)", stage, gotRT, err)
		}
	}
	dir := t.TempDir()
	s := openFile(t, dir)
	if err := s.Put(in); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := s.Put(routed); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := s.SetResult("in", &Result{Rows: 3, Cols: 3, Data: r}, ""); err != nil {
		t.Fatalf("SetResult: %v", err)
	}
	check("live", s)
	s.Close()
	s = openFile(t, dir)
	check("WAL replay", s)
	if err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	check("compacted", s)
	s.Close()
	s = openFile(t, dir)
	defer s.Close()
	check("snapshot replay", s)
}

// TestFileStoreMigratesLegacyJSONL opens a store directory in the JSONL
// format of earlier builds (testdata/jsonl-store: a JSON snapshot holding a
// done job with R, and a WAL with a live job, a failed job and a
// router-style record with a Body). The store must serve the same records,
// leave only the binary files behind, and keep serving them after a
// restart.
func TestFileStoreMigratesLegacyJSONL(t *testing.T) {
	dir := t.TempDir()
	copyLegacyStore(t, dir)
	at := time.Date(2026, 10, 1, 12, 0, 0, 0, time.UTC)
	check := func(stage string, s FileStore) {
		t.Helper()
		list, err := s.List()
		if err != nil || len(list) != 4 {
			t.Fatalf("%s: List = %d records (%v), want 4", stage, len(list), err)
		}
		done, live, failed, routed := list[0], list[1], list[2], list[3]
		if done.ID != "srv-1" || done.State != StateDone || done.TraceID != "t-done" || !done.SeedOnly || done.Seed != 7 ||
			done.Result == nil || done.Result.Rows != 3 ||
			!sameBits(done.Result.Data, []float64{-1.25, 0.5, 3e-310, 0, 2.75, 0, 0, 0, 1.0 / 3}) {
			t.Fatalf("%s: done job = %+v", stage, done)
		}
		if live.ID != "order-17" || live.State != StateRunning || live.ClientID != "order-17" ||
			!live.Accepted.Equal(at.Add(time.Second)) || !live.Deadline.Equal(at.Add(time.Hour)) ||
			!sameBits(live.Data, []float64{1.5, 0, 5e-324, -7}) {
			t.Fatalf("%s: live job = %+v", stage, live)
		}
		if failed.ID != "srv-3" || failed.State != StateFailed || failed.Error != "deadline exceeded" || failed.Result != nil {
			t.Fatalf("%s: failed job = %+v", stage, failed)
		}
		if routed.ID != "rt-5f3a-4" || routed.State != StateAccepted ||
			!bytes.Equal(routed.Body, []byte("QRMX\x01\x00\x00\x00\xff\x00binary body")) {
			t.Fatalf("%s: routed record = %+v", stage, routed)
		}
		for _, name := range []string{legacySnapshotName, legacyWALName, migratingName} {
			if _, err := os.Stat(filepath.Join(dir, name)); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("%s: %s left behind (%v)", stage, name, err)
			}
		}
	}
	s := openFile(t, dir)
	check("migrated", s)
	// The live job still finishes exactly once.
	if err := s.SetResult("order-17", &Result{Rows: 2, Cols: 2, Data: []float64{1, 2, 0, 3}}, ""); err != nil {
		t.Fatalf("SetResult on a migrated job: %v", err)
	}
	if err := s.SetResult("srv-1", nil, "again"); !errors.Is(err, ErrConflict) {
		t.Fatalf("SetResult on a migrated done job: %v, want ErrConflict", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	re := openFile(t, dir)
	defer re.Close()
	if live, err := re.Get("order-17"); err != nil || live.State != StateDone {
		t.Fatalf("live job after restart = %+v (%v), want done", live, err)
	}
	if err := re.MarkState("order-17", "", StateRunning); !errors.Is(err, ErrConflict) {
		t.Fatalf("MarkState on a finished migrated job: %v, want ErrConflict", err)
	}
}

// copyLegacyStore copies testdata/jsonl-store's JSON files into dir.
func copyLegacyStore(t *testing.T, dir string) {
	t.Helper()
	for _, name := range []string{legacySnapshotName, legacyWALName} {
		b, err := os.ReadFile(filepath.Join("testdata", "jsonl-store", name))
		if err != nil {
			t.Fatalf("read testdata: %v", err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatalf("copy testdata: %v", err)
		}
	}
}

// dirFiles returns the contents of every file in dir, by name.
func dirFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read dir: %v", err)
	}
	files := map[string]string{}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("read %s: %v", e.Name(), err)
		}
		files[e.Name()] = string(b)
	}
	return files
}

// TestFileStoreLegacyBesideBinary covers JSON store files found beside
// binary state. After a migration that crashed before removing the JSON
// files, the binary snapshot restates them and the store opens and
// finishes the migration. After a rollback — an older build ran on a
// migrated directory and wrote JSON files of its own — the binary state is
// the older one, and the store must refuse to open, touching no file,
// rather than replay it over the newer state.
func TestFileStoreLegacyBesideBinary(t *testing.T) {
	t.Run("interrupted-migration", func(t *testing.T) {
		dir := t.TempDir()
		copyLegacyStore(t, dir)
		s := openFile(t, dir)
		want, _ := s.List()
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		// What a crash after the migration's compaction leaves behind.
		copyLegacyStore(t, dir)
		if err := os.WriteFile(filepath.Join(dir, migratingName), nil, 0o644); err != nil {
			t.Fatalf("write marker: %v", err)
		}
		re := openFile(t, dir)
		defer re.Close()
		got, _ := re.List()
		if len(got) != len(want) {
			t.Fatalf("resumed migration holds %d records, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i].ID != want[i].ID || got[i].State != want[i].State {
				t.Fatalf("record %d = %s/%s, want %s/%s", i, got[i].ID, got[i].State, want[i].ID, want[i].State)
			}
		}
		for _, name := range []string{legacySnapshotName, legacyWALName, migratingName} {
			if _, err := os.Stat(filepath.Join(dir, name)); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("%s left behind (%v)", name, err)
			}
		}
	})
	for _, compact := range []bool{false, true} {
		name := "rollback-wal"
		if compact {
			name = "rollback-snapshot"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s := openFile(t, dir)
			if err := s.Put(rec("a", 1)); err != nil {
				t.Fatalf("Put: %v", err)
			}
			if compact {
				if err := s.Compact(); err != nil {
					t.Fatalf("Compact: %v", err)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			// An older build starts without the binary state and
			// journals a job of its own.
			line := `{"op":"put","rec":{"id":"b","numID":2,"state":"accepted"}}` + "\n"
			if err := os.WriteFile(filepath.Join(dir, legacyWALName), []byte(line), 0o644); err != nil {
				t.Fatalf("write legacy wal: %v", err)
			}
			before := dirFiles(t, dir)
			if re, err := NewFile(dir, FileOptions{}); err == nil {
				re.Close()
				t.Fatal("NewFile replayed binary state older than the JSON files beside it")
			}
			after := dirFiles(t, dir)
			if len(after) != len(before) {
				t.Fatalf("refused open changed the directory: %d files, want %d", len(after), len(before))
			}
			for name, b := range before {
				if after[name] != b {
					t.Fatalf("refused open changed %s", name)
				}
			}
		})
	}
}

func TestFileStoreCompact(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.NewRegistry()
	s, err := NewFile(dir, FileOptions{Fsync: true, Metrics: reg})
	if err != nil {
		t.Fatalf("NewFile: %v", err)
	}
	for i, id := range []string{"a", "b", "c"} {
		if err := s.Put(rec(id, uint64(i+1))); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if err := s.SetResult("a", nil, ""); err != nil {
		t.Fatalf("SetResult: %v", err)
	}
	if err := s.Delete("c"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	// The WAL is empty after compaction; the snapshot carries the state.
	if fi, err := os.Stat(filepath.Join(dir, walName)); err != nil || fi.Size() != 0 {
		t.Fatalf("wal after compact: size=%v err=%v, want empty", fi.Size(), err)
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotName)); err != nil {
		t.Fatalf("snapshot missing after compact: %v", err)
	}
	// Post-compaction writes land in the fresh WAL and everything reopens.
	if err := s.Put(rec("d", 4)); err != nil {
		t.Fatalf("Put after compact: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	re := openFile(t, dir)
	defer re.Close()
	list, err := re.List()
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	var ids []string
	for _, r := range list {
		ids = append(ids, r.ID)
	}
	if len(ids) != 3 || ids[0] != "a" || ids[1] != "b" || ids[2] != "d" {
		t.Fatalf("reopened ids = %v, want [a b d]", ids)
	}
	if a, _ := re.Get("a"); a.State != StateDone {
		t.Fatalf("a.State = %s after compact+reopen, want done", a.State)
	}
	if got := reg.Snapshot().Counters[MetricCompactions]; got != 1 {
		t.Fatalf("%s = %d, want 1", MetricCompactions, got)
	}
}

func TestFileStoreHaltLosesUnwrittenState(t *testing.T) {
	// Halt simulates the process dying: mutations after it never reach the
	// files, so a reopen sees the pre-halt state — exactly what crash
	// recovery must handle.
	dir := t.TempDir()
	s := openFile(t, dir)
	if err := s.Put(rec("a", 1)); err != nil {
		t.Fatalf("Put: %v", err)
	}
	s.Halt()
	if err := s.SetResult("a", nil, ""); !errors.Is(err, ErrHalted) {
		t.Fatalf("SetResult after halt: got %v, want ErrHalted", err)
	}
	if err := s.Put(rec("b", 2)); !errors.Is(err, ErrHalted) {
		t.Fatalf("Put after halt: got %v, want ErrHalted", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	re := openFile(t, dir)
	defer re.Close()
	a, err := re.Get("a")
	if err != nil || a.State != StateAccepted {
		t.Fatalf("a after halt+reopen = %+v (%v), want accepted", a, err)
	}
	if _, err := re.Get("b"); !errors.Is(err, ErrNotFound) {
		t.Fatal("post-halt Put reached the files")
	}
}

// TestDecodeWALReportsShortRead: a file that ends before the size it was
// opened at (changed underneath the reader) is a read error, not a torn
// tail and not corruption.
func TestDecodeWALReportsShortRead(t *testing.T) {
	wal := walStream(t, fuzzOps()...)
	for _, cut := range []int{len(wal) - 2, len(wal) - recordCRCLen - 9} {
		_, torn, err := decodeWAL(bytes.NewReader(wal[:cut]), int64(len(wal)), func(walOp) {})
		if err == nil || errors.Is(err, errCorrupt) || torn != 0 {
			t.Fatalf("stream cut at %d/%d: torn %d, err %v; want a read error", cut, len(wal), torn, err)
		}
	}
}

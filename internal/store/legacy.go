package store

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// Earlier builds kept the store as a JSONL WAL and an indented JSON
// snapshot ({"jobs": [...]}). NewFile reads such a directory once, folds it
// into the binary files and removes the JSON ones. migratingName marks a
// migration under way: the binary files it leaves beside the JSON ones
// restate the JSON state. Binary state beside JSON files without it was
// written before them — an older build ran on a migrated directory — and
// replaying it over them would undo that build's work.
const (
	legacyWALName      = "wal.jsonl"
	legacySnapshotName = "snapshot.json"
	migratingName      = "migrating"
)

// loadLegacy applies the JSON snapshot and then the JSONL WAL, when either
// is present, and reports whether it found one. It runs before the binary
// files are replayed: after a crash mid-migration the binary snapshot's
// full-record puts restate every job the JSON files hold.
func (s *fileStore) loadLegacy() (found bool, err error) {
	snapPath := filepath.Join(s.dir, legacySnapshotName)
	if b, err := os.ReadFile(snapPath); err == nil {
		found = true
		var snap struct {
			Jobs []JobRecord `json:"jobs"`
		}
		if err := json.Unmarshal(b, &snap); err != nil {
			return found, fmt.Errorf("store: corrupt snapshot %s: %w", snapPath, err)
		}
		for _, rec := range snap.Jobs {
			s.m[rec.ID] = rec
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return found, fmt.Errorf("store: read snapshot: %w", err)
	}
	f, err := os.Open(filepath.Join(s.dir, legacyWALName))
	if errors.Is(err, os.ErrNotExist) {
		return found, nil
	}
	if err != nil {
		return found, fmt.Errorf("store: read wal: %w", err)
	}
	defer f.Close()
	replayed, err := decodeLegacyWAL(f, s.apply)
	if err != nil {
		return found, err
	}
	s.opts.Metrics.Counter(MetricWALReplayed).Add(int64(replayed))
	return true, nil
}

// checkLegacy refuses a directory whose binary files hold state that no
// migration left there, when JSON files are present too.
func (s *fileStore) checkLegacy() error {
	if _, err := os.Stat(filepath.Join(s.dir, migratingName)); err == nil {
		return nil
	} else if !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("store: stat migration marker: %w", err)
	}
	for _, name := range []string{snapshotName, walName} {
		fi, err := os.Stat(filepath.Join(s.dir, name))
		if errors.Is(err, os.ErrNotExist) || (err == nil && fi.Size() == 0) {
			continue
		}
		if err != nil {
			return fmt.Errorf("store: stat %s: %w", name, err)
		}
		return fmt.Errorf("store: %s holds binary state (%s) beside the %s/%s of an older build, which wrote them later; "+
			"remove the binary files to keep the older build's state, or the JSON files to keep this one's",
			s.dir, name, legacySnapshotName, legacyWALName)
	}
	return nil
}

// migrate marks the directory, compacts the loaded state into the binary
// snapshot, then removes the JSON files, the snapshot first: a JSONL WAL
// left behind by a crash only re-puts jobs the binary snapshot restates,
// while a JSON snapshot without its WAL could revive deleted jobs. The
// marker goes last.
func (s *fileStore) migrate() error {
	marker := filepath.Join(s.dir, migratingName)
	if err := os.WriteFile(marker, nil, 0o644); err != nil {
		return fmt.Errorf("store: migrate %s: %w", s.dir, err)
	}
	if err := syncDir(s.dir); err != nil {
		return fmt.Errorf("store: migrate %s: %w", s.dir, err)
	}
	if err := s.Compact(); err != nil {
		return fmt.Errorf("store: migrate %s: %w", s.dir, err)
	}
	return removeSynced(s.dir, legacySnapshotName, legacyWALName, migratingName)
}

// removeSynced removes the named files of dir in order, skipping absent
// ones, and makes each removal durable before the next.
func removeSynced(dir string, names ...string) error {
	for _, name := range names {
		err := os.Remove(filepath.Join(dir, name))
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err == nil {
			err = syncDir(dir)
		}
		if err != nil {
			return fmt.Errorf("store: remove %s: %w", name, err)
		}
	}
	return nil
}

// syncDir makes the directory's entries (a removal) durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// decodeLegacyWAL replays a JSONL WAL stream in append order, invoking
// apply for every intact record, and returns how many were applied. A torn
// final line — the artifact of a crash mid-append — is tolerated and
// discarded. An unparsable record anywhere else is corruption. Lines have
// no length cap: a dense job's payload makes a line of any size.
func decodeLegacyWAL(r io.Reader, apply func(walOp)) (replayed int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), math.MaxInt)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var op walOp
		if uerr := json.Unmarshal(line, &op); uerr != nil {
			if sc.Scan() {
				return replayed, fmt.Errorf("store: corrupt wal record (not at tail): %w", uerr)
			}
			return replayed, nil
		}
		apply(op)
		replayed++
	}
	if err := sc.Err(); err != nil {
		return replayed, fmt.Errorf("store: scan wal: %w", err)
	}
	return replayed, nil
}

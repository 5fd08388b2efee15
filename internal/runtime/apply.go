package runtime

import (
	"errors"
	"fmt"

	"repro/internal/fault"
	"repro/internal/kernels"
	"repro/internal/matrix"
	"repro/internal/tiled"
)

// applyTask is one Q-application step together with the row blocks of the
// target matrix it mutates.
type applyTask struct {
	op   tiled.Op
	rows []int
}

// buildApplyDAG derives the dependency structure of applying Q (or Qᵀ) to a
// dense matrix: factorization ops touch one or two row blocks of the
// target, and two ops conflict iff they share a row block. Update ops carry
// no transform and are skipped.
func buildApplyDAG(f *tiled.Factorization, reverse bool) (tasks []applyTask, deps [][]int, succs [][]int) {
	journal := f.Journal
	for idx := range journal {
		op := journal[idx]
		if reverse {
			op = journal[len(journal)-1-idx]
		}
		switch op.Kind {
		case tiled.KindGEQRT:
			tasks = append(tasks, applyTask{op: op, rows: []int{op.Row}})
		case tiled.KindTSQRT, tiled.KindTTQRT:
			tasks = append(tasks, applyTask{op: op, rows: []int{op.Top, op.Row}})
		}
	}
	deps = make([][]int, len(tasks))
	succs = make([][]int, len(tasks))
	last := map[int]int{} // row block → last task index touching it
	for i, t := range tasks {
		seen := map[int]bool{}
		for _, r := range t.rows {
			if p, ok := last[r]; ok && !seen[p] {
				seen[p] = true
				deps[i] = append(deps[i], p)
				succs[p] = append(succs[p], i)
			}
			last[r] = i
		}
	}
	return tasks, deps, succs
}

// ApplyQT overwrites c with Qᵀ·c in parallel using the factorization's
// reflector storage. It is the parallel counterpart of
// Factorization.ApplyQT; results are bitwise identical because the row
// dependencies serialize exactly the operations that do not commute.
func ApplyQT(f *tiled.Factorization, c *matrix.Matrix, workers int) {
	applyParallel(f, c, workers, false)
}

// ApplyQ overwrites c with Q·c in parallel.
func ApplyQ(f *tiled.Factorization, c *matrix.Matrix, workers int) {
	applyParallel(f, c, workers, true)
}

// FormQ builds the explicit orthogonal factor in parallel (full M×M, or the
// thin M×min(M,N) factor).
func FormQ(f *tiled.Factorization, full bool, workers int) *matrix.Matrix {
	m := f.A.M
	k := m
	if !full {
		k = f.A.N
		if m < k {
			k = m
		}
	}
	q := matrix.New(m, k)
	for i := 0; i < k; i++ {
		q.Set(i, i, 1)
	}
	ApplyQ(f, q, workers)
	return q
}

// applyParallel runs the apply DAG on the runtime's manager loop. A
// contained kernel panic is re-raised on the caller's goroutine, since the
// apply API has no error return; c is then partially updated.
func applyParallel(f *tiled.Factorization, c *matrix.Matrix, workers int, reverse bool) {
	if c.Rows != f.A.M {
		panic(fmt.Sprintf("runtime: apply needs %d rows, got %d", f.A.M, c.Rows))
	}
	tasks, deps, succs := buildApplyDAG(f, reverse)
	workers = poolSize(workers, len(tasks))
	wss := make([]*kernels.Workspace, workers)
	trans := !reverse
	g := Graph{Deps: deps, Succs: succs, Label: func(i int) (string, string) {
		return tasks[i].op.String(), tasks[i].op.Kind.Step()
	}}
	err := Run(g, workers, func(w, id int) error {
		f.ApplyFactorOpToWs(tasks[id].op, c, trans, workspace(wss, w))
		return nil
	})
	var kp *fault.KernelPanicError
	if errors.As(err, &kp) {
		panic(kp)
	}
}

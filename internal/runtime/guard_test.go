package runtime

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/tiled"
	"repro/internal/workload"
)

// recoverKernelPanic runs fn and asserts it panics with a contained
// *fault.KernelPanicError on the calling goroutine. Before the worker
// recover barrier existed, a kernel panic fired on a worker goroutine and
// killed the whole test binary — this helper could not have caught it.
func recoverKernelPanic(t *testing.T, fn func()) (err *fault.KernelPanicError) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected a contained kernel panic, got a clean return")
		}
		var ok bool
		err, ok = r.(*fault.KernelPanicError)
		if !ok {
			t.Fatalf("panic value is %T (%v), want *fault.KernelPanicError", r, r)
		}
	}()
	fn()
	return nil
}

// loopCases runs the executor under every pool size and dispatch order the
// containment tests cover.
var loopCases = []struct {
	name     string
	workers  int
	priority Priority
}{
	{"fifo-1", 1, FIFO},
	{"fifo-4", 4, FIFO},
	{"critical-path-1", 1, CriticalPath},
	{"critical-path-4", 4, CriticalPath},
}

// runLoop runs task over g once on the manager loop.
func runLoop(g Graph, workers int, p Priority, task func(worker, id int) error) error {
	errs, _ := execute(&g, make([]BatchItem, 1), BatchOptions{Workers: workers, Priority: p}, nil,
		func(w, id, _ int) error { return task(w, id) })
	return errs[0]
}

// qrGraph is the operation DAG of a 4×4-tile QR factorization, and failAt
// an operation in its middle that has successors.
func qrGraph() (g Graph, failAt int) {
	dag := tiled.BuildDAG(tiled.NewLayout(32, 32, 8), tiled.FlatTS{})
	for i, op := range dag.Ops {
		if op.Kind == tiled.KindTSQRT {
			return *graphOf(dag), i
		}
	}
	panic("no TSQRT in the DAG")
}

// descendants returns every task reachable from id through Succs.
func descendants(g Graph, id int) map[int]bool {
	seen := map[int]bool{}
	stack := append([]int(nil), g.Succs[id]...)
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !seen[s] {
			seen[s] = true
			stack = append(stack, g.Succs[s]...)
		}
	}
	return seen
}

func TestLoopContainsTaskPanic(t *testing.T) {
	g, failAt := qrGraph()
	for _, tc := range loopCases {
		t.Run(tc.name, func(t *testing.T) {
			err := runLoop(g, tc.workers, tc.priority, func(_, id int) error {
				if id == failAt {
					panic("boom")
				}
				return nil
			})
			var kp *fault.KernelPanicError
			if !errors.As(err, &kp) {
				t.Fatalf("want a *fault.KernelPanicError, got %v", err)
			}
			if op, step := g.Label(failAt); kp.Op != op || kp.Step != step {
				t.Errorf("panic attributed to %q/%q, want %q/%q", kp.Op, kp.Step, op, step)
			}
			if kp.Worker < 0 || kp.Worker >= tc.workers {
				t.Errorf("contained panic has worker %d, want 0..%d", kp.Worker, tc.workers-1)
			}
			if kp.Value != "boom" || kp.Injected {
				t.Errorf("panic value %v (injected %v), want the real panic", kp.Value, kp.Injected)
			}
		})
	}
}

func TestLoopTaskErrorSkipsSuccessors(t *testing.T) {
	g, failAt := qrGraph()
	below := descendants(g, failAt)
	errBad := errors.New("bad tile")
	for _, tc := range loopCases {
		t.Run(tc.name, func(t *testing.T) {
			ran := make([]atomic.Bool, len(g.Deps))
			err := runLoop(g, tc.workers, tc.priority, func(_, id int) error {
				ran[id].Store(true)
				if id == failAt {
					return errBad
				}
				return nil
			})
			if !errors.Is(err, errBad) {
				t.Fatalf("want the task's error, got %v", err)
			}
			for s := range below {
				if ran[s].Load() {
					t.Errorf("successor %d of failed task %d ran", s, failAt)
				}
			}
		})
	}
}

func TestLoopEmptyAndOversizedPoolReturn(t *testing.T) {
	one := Graph{Deps: [][]int{nil}, Succs: [][]int{nil}}
	for _, tc := range []struct {
		name    string
		g       Graph
		workers int
		want    int
	}{
		{"empty graph", Graph{}, 4, 0},
		{"more workers than tasks", one, 16, 1},
		{"no workers", one, 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var calls atomic.Int32
			done := make(chan error, 1)
			go func() {
				done <- Run(tc.g, tc.workers, func(int, int) error {
					calls.Add(1)
					return nil
				})
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("executor hung")
			}
			if int(calls.Load()) != tc.want {
				t.Fatalf("ran %d tasks, want %d", calls.Load(), tc.want)
			}
		})
	}
}

func TestApplyParallelContainsWorkerPanic(t *testing.T) {
	const tile = 8
	a := workload.Uniform(12, 32, 32)
	f, ferr := Factor(a, Options{TileSize: tile, Workers: 2})
	if ferr != nil {
		t.Fatal(ferr)
	}
	// Corrupt the journal the apply DAG is built from: the first
	// triangulation op now names a row block far outside the target.
	for i := range f.Journal {
		if f.Journal[i].Kind == tiled.KindGEQRT {
			f.Journal[i].Row = 1 << 20
			break
		}
	}
	c := workload.Uniform(13, 32, 4)
	err := recoverKernelPanic(t, func() { ApplyQT(f, c, 4) })
	if err.Op == "" {
		t.Errorf("contained panic lost op attribution: %+v", err)
	}
}

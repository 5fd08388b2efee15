package runtime

import (
	"math"
	"testing"

	"repro/internal/lapack"
	"repro/internal/matrix"
	"repro/internal/tiled"
	"repro/internal/trace"
	"repro/internal/workload"
)

const tol = 1e-10

func TestParallelFactorCorrect(t *testing.T) {
	a := workload.Uniform(1, 48, 48)
	for _, workers := range []int{1, 2, 4, 8} {
		f, err := Factor(a, Options{TileSize: 8, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if res := f.Residual(a); res > tol {
			t.Fatalf("workers=%d: residual %g", workers, res)
		}
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	a := workload.Normal(2, 40, 32)
	seq := tiled.Factor(a, 8, tiled.FlatTS{})
	par, err := Factor(a, Options{TileSize: 8, Workers: 6})
	if err != nil {
		t.Fatal(err)
	}
	if d := par.A.ToDense().MaxAbsDiff(seq.A.ToDense()); d > tol {
		t.Fatalf("parallel result differs from sequential by %g", d)
	}
}

func TestParallelAllTrees(t *testing.T) {
	a := workload.Uniform(3, 36, 36)
	for _, name := range []string{"flat-ts", "flat-tt", "binary-tt", "greedy-tt"} {
		tree, err := tiled.TreeByName(name)
		if err != nil {
			t.Fatal(err)
		}
		f, err := Factor(a, Options{TileSize: 6, Workers: 4, Tree: tree})
		if err != nil {
			t.Fatal(err)
		}
		if res := f.Residual(a); res > tol {
			t.Fatalf("%s: residual %g", name, res)
		}
	}
}

func TestParallelRagged(t *testing.T) {
	a := workload.Uniform(4, 37, 29)
	f, err := Factor(a, Options{TileSize: 8, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res := f.Residual(a); res > tol {
		t.Fatalf("residual %g", res)
	}
}

func TestParallelRepeatedRunsDeterministicResult(t *testing.T) {
	// Different interleavings execute the same DAG, so the bit pattern of
	// the result must be identical run to run (each tile's op sequence is
	// totally ordered by dependencies).
	a := workload.Normal(5, 32, 32)
	first, err := Factor(a, Options{TileSize: 4, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	want := first.A.ToDense()
	for run := 0; run < 5; run++ {
		f, err := Factor(a, Options{TileSize: 4, Workers: 8})
		if err != nil {
			t.Fatal(err)
		}
		if !f.A.ToDense().Equal(want) {
			t.Fatalf("run %d: result not bitwise reproducible", run)
		}
	}
}

func TestParallelSolve(t *testing.T) {
	n := 30
	a := workload.Normal(6, n, n)
	xWant := workload.Vector(7, n)
	xm := matrix.New(n, 1)
	xm.SetCol(0, xWant)
	b := matrix.Mul(a, xm).Col(0)
	f, err := Factor(a, Options{TileSize: 7, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	x, err := f.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range xWant {
		if math.Abs(x[i]-xWant[i]) > 1e-8 {
			t.Fatalf("x[%d] = %v want %v", i, x[i], xWant[i])
		}
	}
}

func TestOptionsValidation(t *testing.T) {
	a := workload.Normal(8, 8, 8)
	if _, err := Factor(a, Options{TileSize: 0}); err == nil {
		t.Fatal("tile size 0 must error")
	}
	if _, err := Factor(a, Options{TileSize: 4, Workers: -1}); err == nil {
		t.Fatal("negative workers must error")
	}
}

func TestDefaultsApplied(t *testing.T) {
	a := workload.Normal(9, 16, 16)
	f, err := Factor(a, Options{TileSize: 4}) // Workers=0, Tree=nil
	if err != nil {
		t.Fatal(err)
	}
	if f.Tree != "flat-ts" {
		t.Fatalf("default tree = %s", f.Tree)
	}
	if res := f.Residual(a); res > tol {
		t.Fatalf("residual %g", res)
	}
}

func TestTraceRecordsAllOps(t *testing.T) {
	a := workload.Normal(10, 24, 24)
	rec := trace.NewRecorder()
	f, err := Factor(a, Options{TileSize: 6, Workers: 3, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	events := rec.Events()
	if len(events) != len(f.Journal) {
		t.Fatalf("traced %d events, journal has %d ops", len(events), len(f.Journal))
	}
	stats := rec.Summarize()
	for _, step := range []string{"T", "UT", "E", "UE"} {
		if stats.ByStep[step] <= 0 {
			t.Fatalf("no busy time recorded for step %s", step)
		}
	}
	if stats.Makespan <= 0 {
		t.Fatal("zero makespan")
	}
	if g := rec.Gantt(40); g == "" {
		t.Fatal("empty gantt")
	}
}

func TestExecuteEmptyDAGNoHang(t *testing.T) {
	l := tiled.NewLayout(4, 4, 4)
	dag := tiled.BuildDAG(l, tiled.FlatTS{})
	f := tiled.NewFactorization(tiled.NewTiled(l), tiled.FlatTS{})
	// 1 op (single tile) — exercise the workers>ops clamp.
	if errs, _ := ExecuteBatch(dag, []BatchItem{{F: f}}, BatchOptions{Workers: 16}); errs[0] != nil {
		t.Fatal(errs[0])
	}
}

func TestParallelMatchesReferenceUnblocked(t *testing.T) {
	a := workload.Normal(11, 25, 25)
	f, err := Factor(a, Options{TileSize: 8, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	ref := a.Clone()
	lapack.QR2(ref)
	rt := f.R()
	for i := 0; i < 25; i++ {
		for j := i; j < 25; j++ {
			if math.Abs(math.Abs(rt.At(i, j))-math.Abs(ref.At(i, j))) > tol {
				t.Fatalf("(%d,%d): |R| differs", i, j)
			}
		}
	}
}

func TestCriticalPathPriorityCorrect(t *testing.T) {
	a := workload.Uniform(12, 48, 48)
	for _, workers := range []int{1, 3, 8} {
		f, err := Factor(a, Options{TileSize: 8, Workers: workers, Priority: CriticalPath})
		if err != nil {
			t.Fatal(err)
		}
		if res := f.Residual(a); res > tol {
			t.Fatalf("workers=%d: residual %g", workers, res)
		}
	}
}

func TestPriorityResultsIdenticalAcrossPolicies(t *testing.T) {
	a := workload.Normal(13, 40, 40)
	fifo, err := Factor(a, Options{TileSize: 8, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	cp, err := Factor(a, Options{TileSize: 8, Workers: 4, Priority: CriticalPath})
	if err != nil {
		t.Fatal(err)
	}
	if !fifo.A.ToDense().Equal(cp.A.ToDense()) {
		t.Fatal("dispatch policy must not change the arithmetic")
	}
}

func TestRemainingDepthMatchesCriticalPath(t *testing.T) {
	l := tiled.NewLayout(40, 40, 8)
	dag := tiled.BuildDAG(l, tiled.FlatTS{})
	depth := remainingDepth(dag.Succs)
	best := 0
	for _, d := range depth {
		if d > best {
			best = d
		}
	}
	if best != dag.CriticalPathLen() {
		t.Fatalf("max remaining depth %d != critical path %d", best, dag.CriticalPathLen())
	}
	// Sources (no deps) must carry the longest chains on a fresh DAG.
	for i, deps := range dag.Deps {
		if len(deps) == 0 && depth[i] == best {
			return
		}
	}
	t.Fatal("no source op carries the critical path")
}

func TestPriorityString(t *testing.T) {
	if FIFO.String() != "fifo" || CriticalPath.String() != "critical-path" {
		t.Fatal("priority names wrong")
	}
}

func TestParallelApplyQTMatchesSequential(t *testing.T) {
	a := workload.Normal(20, 48, 40)
	f, err := Factor(a, Options{TileSize: 8, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	c := workload.Normal(21, 48, 5)
	seq := c.Clone()
	f.ApplyQT(seq)
	for _, workers := range []int{1, 2, 8} {
		par := c.Clone()
		ApplyQT(f, par, workers)
		if !par.Equal(seq) {
			t.Fatalf("workers=%d: parallel ApplyQT not bitwise identical", workers)
		}
	}
}

func TestParallelApplyQRoundTrip(t *testing.T) {
	a := workload.Normal(22, 40, 40)
	f, err := Factor(a, Options{TileSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	c := workload.Normal(23, 40, 3)
	got := c.Clone()
	ApplyQT(f, got, 4)
	ApplyQ(f, got, 4)
	if d := got.MaxAbsDiff(c); d > tol {
		t.Fatalf("Q·Qᵀ·C != C: %g", d)
	}
}

func TestParallelFormQ(t *testing.T) {
	a := workload.Normal(24, 40, 24)
	f, err := Factor(a, Options{TileSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	q := FormQ(f, false, 4)
	if q.Rows != 40 || q.Cols != 24 {
		t.Fatalf("thin Q is %dx%d", q.Rows, q.Cols)
	}
	if !q.Equal(f.FormQ(false)) {
		t.Fatal("parallel FormQ differs from sequential")
	}
	if e := matrix.OrthogonalityError(q); e > tol {
		t.Fatalf("orthogonality %g", e)
	}
}

func TestParallelApplyAllTrees(t *testing.T) {
	a := workload.Normal(25, 36, 36)
	for _, name := range []string{"flat-tt", "binary-tt", "greedy-tt"} {
		tree, err := tiled.TreeByName(name)
		if err != nil {
			t.Fatal(err)
		}
		f, err := Factor(a, Options{TileSize: 6, Tree: tree})
		if err != nil {
			t.Fatal(err)
		}
		c := a.Clone()
		ApplyQT(f, c, 6)
		if d := c.MaxAbsDiff(f.R()); d > tol {
			t.Fatalf("%s: QᵀA != R (%g)", name, d)
		}
	}
}

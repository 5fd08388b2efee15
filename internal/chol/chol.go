// Package chol implements tiled Cholesky factorization and the tiled
// CholeskyQR method. The paper's background section names Cholesky as the
// other standard route to QR ("There are several types of QR decomposition,
// such as the Householder or Cholesky methods"); this package provides that
// baseline at tile granularity on the same DAG executor as the Householder
// path (internal/runtime): POTRF / TRSM / SYRK / GEMM tile kernels with a
// last-writer dependency graph.
package chol

import (
	"fmt"

	"repro/internal/lapack"
	"repro/internal/matrix"
	"repro/internal/runtime"
	"repro/internal/tiled"
)

// Kind identifies a tiled-Cholesky operation.
type Kind uint8

const (
	// KindPOTRF factors the diagonal tile: A_kk = L_kk·L_kkᵀ.
	KindPOTRF Kind = iota
	// KindTRSM computes the panel tile L_ik = A_ik·L_kk⁻ᵀ.
	KindTRSM
	// KindSYRK updates a diagonal tile: A_ii −= L_ik·L_ikᵀ.
	KindSYRK
	// KindGEMM updates an off-diagonal tile: A_ij −= L_ik·L_jkᵀ.
	KindGEMM
)

// String returns the BLAS/LAPACK kernel name.
func (k Kind) String() string {
	switch k {
	case KindPOTRF:
		return "POTRF"
	case KindTRSM:
		return "TRSM"
	case KindSYRK:
		return "SYRK"
	default:
		return "GEMM"
	}
}

// Op is one tiled-Cholesky operation (i ≥ j > k conventions as in the
// right-looking algorithm).
type Op struct {
	Kind Kind
	K    int // panel index
	I, J int // target tile (I ≥ J)
}

// String formats the op with its panel and target tile, e.g. "GEMM(k=0, i=3, j=1)".
func (o Op) String() string {
	return fmt.Sprintf("%s(k=%d, i=%d, j=%d)", o.Kind, o.K, o.I, o.J)
}

// tiles the op reads/modifies, for dependency construction.
func (o Op) tiles() [][2]int {
	switch o.Kind {
	case KindPOTRF:
		return [][2]int{{o.K, o.K}}
	case KindTRSM:
		return [][2]int{{o.I, o.K}, {o.K, o.K}}
	case KindSYRK:
		return [][2]int{{o.I, o.I}, {o.I, o.K}}
	default:
		return [][2]int{{o.I, o.J}, {o.I, o.K}, {o.J, o.K}}
	}
}

func (o Op) writes() [2]int {
	switch o.Kind {
	case KindPOTRF:
		return [2]int{o.K, o.K}
	case KindTRSM:
		return [2]int{o.I, o.K}
	case KindSYRK:
		return [2]int{o.I, o.I}
	default:
		return [2]int{o.I, o.J}
	}
}

// BuildOps generates the right-looking tiled Cholesky schedule for an
// nt×nt tile grid.
func BuildOps(nt int) []Op {
	var ops []Op
	for k := 0; k < nt; k++ {
		ops = append(ops, Op{Kind: KindPOTRF, K: k})
		for i := k + 1; i < nt; i++ {
			ops = append(ops, Op{Kind: KindTRSM, K: k, I: i})
		}
		for i := k + 1; i < nt; i++ {
			ops = append(ops, Op{Kind: KindSYRK, K: k, I: i})
			for j := k + 1; j < i; j++ {
				ops = append(ops, Op{Kind: KindGEMM, K: k, I: i, J: j})
			}
		}
	}
	return ops
}

// buildDeps derives the dependency lists with the same last-writer rule the
// QR DAG uses.
func buildDeps(ops []Op) (deps, succs [][]int) {
	deps = make([][]int, len(ops))
	succs = make([][]int, len(ops))
	last := map[[2]int]int{}
	for i, op := range ops {
		seen := map[int]bool{}
		for _, tl := range op.tiles() {
			if w, ok := last[tl]; ok && !seen[w] {
				seen[w] = true
				deps[i] = append(deps[i], w)
				succs[w] = append(succs[w], i)
			}
		}
		last[op.writes()] = i
	}
	return deps, succs
}

// Factorization is a completed tiled Cholesky: the lower-triangular factor
// L stored tile-wise (upper tiles are unreferenced).
type Factorization struct {
	A *tiled.TiledMatrix
}

// applyOp executes one kernel against the tiled matrix.
func applyOp(a *tiled.TiledMatrix, op Op) error {
	switch op.Kind {
	case KindPOTRF:
		t := a.Tile(op.K, op.K)
		u, err := lapack.Cholesky(t)
		if err != nil {
			return fmt.Errorf("chol: tile (%d,%d): %w", op.K, op.K, err)
		}
		t.CopyFrom(u.T()) // store the lower factor L = Uᵀ
	case KindTRSM:
		// A_ik ← A_ik · L_kk⁻ᵀ  ⇔  L_kk · Xᵀ = A_ikᵀ.
		l := a.Tile(op.K, op.K)
		t := a.Tile(op.I, op.K)
		xt := t.T()
		matrix.TrsmLowerLeft(l, xt)
		t.CopyFrom(xt.T())
	case KindSYRK:
		l := a.Tile(op.I, op.K)
		matrix.GemmTB(-1, l, l, 1, a.Tile(op.I, op.I))
	case KindGEMM:
		matrix.GemmTB(-1, a.Tile(op.I, op.K), a.Tile(op.J, op.K), 1, a.Tile(op.I, op.J))
	}
	return nil
}

// Factor computes the tiled Cholesky factorization A = L·Lᵀ of a symmetric
// positive-definite matrix with tile size b, executing the DAG on `workers`
// goroutines (0 = serial) through the runtime's manager loop. The input is
// not modified. n must be a multiple of b for the symmetric tiling (general
// SPD sizes can pad). The parallel path dispatches nothing after the first
// failed kernel, and a kernel panic comes back as an error wrapping a
// *fault.KernelPanicError.
func Factor(a *matrix.Matrix, b, workers int) (*Factorization, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("chol: matrix is %dx%d, need square", a.Rows, a.Cols)
	}
	if a.Rows%b != 0 {
		return nil, fmt.Errorf("chol: size %d not a multiple of tile %d", a.Rows, b)
	}
	tm := tiled.FromDense(a, b)
	ops := BuildOps(tm.Nt)
	if workers <= 1 {
		for _, op := range ops {
			if err := applyOp(tm, op); err != nil {
				return nil, err
			}
		}
		return &Factorization{A: tm}, nil
	}
	deps, succs := buildDeps(ops)
	g := runtime.Graph{Deps: deps, Succs: succs, Label: func(i int) (string, string) {
		return ops[i].String(), ops[i].Kind.String()
	}}
	if err := runtime.Run(g, workers, func(_, id int) error { return applyOp(tm, ops[id]) }); err != nil {
		return nil, err
	}
	return &Factorization{A: tm}, nil
}

// L assembles the dense lower-triangular factor.
func (f *Factorization) L() *matrix.Matrix {
	a := f.A
	out := matrix.New(a.M, a.N)
	for i := 0; i < a.Mt; i++ {
		for j := 0; j <= i; j++ {
			src := a.Tile(i, j)
			dst := out.SubMatrix(i*a.B, j*a.B, a.TileRows(i), a.TileCols(j))
			if i == j {
				dst.CopyFrom(matrix.LowerTriangular(src))
			} else {
				dst.CopyFrom(src)
			}
		}
	}
	return out
}

// Solve solves A·x = b via the factorization: L·y = b then Lᵀ·x = y.
func (f *Factorization) Solve(b []float64) ([]float64, error) {
	n := f.A.N
	if len(b) != n {
		return nil, fmt.Errorf("chol: rhs length %d, want %d", len(b), n)
	}
	l := f.L()
	x := matrix.New(n, 1)
	x.SetCol(0, b)
	matrix.TrsmLowerLeft(l, x)
	matrix.TrsmUpperLeft(l.T(), x)
	return x.Col(0), nil
}

// QRFactor computes a QR factorization of a tall matrix by the tiled
// CholeskyQR method: G = AᵀA (tile-parallel), G = L·Lᵀ, R = Lᵀ, Q = A·L⁻ᵀ.
// Cheap and embarrassingly parallel — and numerically fragile for
// ill-conditioned inputs, which is why the paper builds on Householder.
// cols must be a multiple of b.
func QRFactor(a *matrix.Matrix, b, workers int) (q, r *matrix.Matrix, err error) {
	if a.Rows < a.Cols {
		return nil, nil, fmt.Errorf("chol: QRFactor needs rows ≥ cols, got %dx%d", a.Rows, a.Cols)
	}
	gram := matrix.New(a.Cols, a.Cols)
	matrix.GemmTAParallel(1, a, a, 0, gram, workers)
	f, err := Factor(gram, b, workers)
	if err != nil {
		return nil, nil, err
	}
	l := f.L()
	// Q = A·L⁻ᵀ  ⇔  L·Qᵀ = Aᵀ.
	qt := a.T()
	matrix.TrsmLowerLeft(l, qt)
	return qt.T(), l.T(), nil
}

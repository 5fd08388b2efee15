package main

import (
	"fmt"
	"math"

	"repro/internal/matrix"
	"repro/internal/runtime"
	"repro/internal/workload"
)

// tileSize is the tile edge of every job (the paper's and the services'
// default).
const tileSize = 16

// input is one matrix a workload may submit, with its reference R.
type input struct {
	rows, cols int
	// seed generates the matrix (workload.Uniform); seed-only service jobs
	// send only this and the worker regenerates the same matrix.
	seed   int64
	inline bool
	a      *matrix.Matrix
	ref    *matrix.Matrix
}

// spec describes a workload: the shapes of its input pool (rows, cols and
// how many distinct matrices of that shape), how the service receives
// them, and how many closed-loop callers drive it.
type spec struct {
	name    string
	service bool
	inline  bool
	clients int
	shapes  [][3]int
	why     string
}

var specs = []spec{
	{
		name: "svc-small", service: true, inline: true, clients: 2,
		shapes: [][3]int{{64, 64, 4}, {96, 96, 4}, {128, 64, 4}, {128, 128, 4}},
		why:    "Inline 64x64 to 128x128 jobs, 2 clients: request JSON, router hop and journal, WAL fsync, batching and polling dominate; client, router, serve, store, tiled, sched move latency here",
	},
	{
		name: "svc-large", service: true, clients: 2,
		// Two 256×256 jobs per 384×256 one, so the latency median lies
		// inside the faster shape's mode rather than in the gap between
		// the two modes.
		shapes: [][3]int{{256, 256, 4}, {384, 256, 2}},
		why:    "Seed-only 256x256 and 384x256 jobs, 2 clients: tiny requests, big R relayed as JSON; kernels, executor and result encode dominate; runtime, kernels, result codec move jobs_per_s here",
	},
	{
		name: "lib-factor", clients: 1,
		shapes: [][3]int{{512, 512, 2}},
		why:    "hetqr.Factor on 512x512, GOMAXPROCS workers, no client/router/serve/store: kernels and the DAG executor do all the work; runtime and kernel changes move jobs_per_s most here",
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// buildInputs generates the workload's input pool from seed and computes
// every input's reference R with runtime.Factor, checking the reference
// factorization once by its residual.
func buildInputs(sp spec, seed int64) ([]*input, error) {
	var pool []*input
	for _, sh := range sp.shapes {
		for k := 0; k < sh[2]; k++ {
			in := &input{rows: sh[0], cols: sh[1], seed: seed*1000 + int64(len(pool)), inline: sp.inline}
			in.a = workload.Uniform(in.seed, in.rows, in.cols)
			f, err := runtime.Factor(in.a, runtime.Options{TileSize: tileSize})
			if err != nil {
				return nil, fmt.Errorf("reference %dx%d: %w", in.rows, in.cols, err)
			}
			if res := f.Residual(in.a); !(res < 1e-10) {
				return nil, fmt.Errorf("reference %dx%d: residual %g", in.rows, in.cols, res)
			}
			in.ref = f.R()
			pool = append(pool, in)
		}
	}
	return pool, nil
}

// checkRows compares a delivered R, row by row, with the reference: same
// shape and bit-identical elements, the invariant the service's selftests
// hold for a fixed tile size and tree.
func checkRows(rows [][]float64, ref *matrix.Matrix) error {
	if len(rows) != ref.Rows {
		return fmt.Errorf("R has %d rows, want %d", len(rows), ref.Rows)
	}
	for i, row := range rows {
		if len(row) != ref.Cols {
			return fmt.Errorf("R row %d has %d columns, want %d", i, len(row), ref.Cols)
		}
		for j, v := range row {
			if math.Float64bits(v) != math.Float64bits(ref.At(i, j)) {
				return fmt.Errorf("R(%d,%d) = %v, reference %v", i, j, v, ref.At(i, j))
			}
		}
	}
	return nil
}

// checkMatrix is checkRows for a dense result.
func checkMatrix(r, ref *matrix.Matrix) error {
	rows := make([][]float64, r.Rows)
	for i := range rows {
		rows[i] = r.Row(i)
	}
	return checkRows(rows, ref)
}

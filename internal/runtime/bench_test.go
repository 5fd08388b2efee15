package runtime

import (
	"fmt"
	"testing"

	"repro/internal/tiled"
	"repro/internal/workload"
)

// BenchmarkWorkerScaling measures the host runtime's strong scaling on one
// matrix — the real-hardware analogue of the paper's Fig. 8.
func BenchmarkWorkerScaling(b *testing.B) {
	a := workload.Uniform(42, 384, 384)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Factor(a, Options{TileSize: 32, Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExecuteOverhead isolates the manager/dispatch overhead by
// running a DAG of trivial single-element tiles.
func BenchmarkExecuteOverhead(b *testing.B) {
	a := workload.Uniform(43, 48, 48)
	l := tiled.NewLayout(48, 48, 4)
	dag := tiled.BuildDAG(l, tiled.FlatTS{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := tiled.NewFactorization(tiled.FromDense(a, 4), tiled.FlatTS{})
		ExecuteBatch(dag, []BatchItem{{F: f}}, BatchOptions{Workers: 4})
	}
}

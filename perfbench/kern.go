package main

import (
	"time"

	"repro/internal/device"
	"repro/internal/kernels"
	"repro/internal/matrix"
	"repro/internal/runtime"
	"repro/internal/sched"
	"repro/internal/tiled"
	"repro/internal/workload"
)

// steps are the paper's step classes in report order.
var steps = []string{"T", "UT", "E", "UE"}

// stepTiles is how many b×b tiles one kernel of each step class reads plus
// writes (its T factor counted as a tile): GEQRT reads and writes A and
// writes T; UNMQR reads V and T and updates C; TSQRT updates R and A and
// writes T; TSMQR reads V and T and updates C1 and C2.
var stepTiles = map[string]float64{"T": 3, "UT": 4, "E": 5, "UE": 6}

// jobWork is the computed kernel work of one factorization of a shape with
// the flat-TS tree: kernel calls per step class, flops (tiled.FlopCount)
// and tile bytes moved.
type jobWork struct {
	calls map[string]float64
	flops float64
	bytes float64
}

func workOf(rows, cols int) jobWork {
	l := tiled.NewLayout(rows, cols, tileSize)
	w := jobWork{calls: map[string]float64{}, flops: tiled.FlopCount(l, tiled.FlatTS{})["total"]}
	for _, op := range tiled.BuildOps(l, tiled.FlatTS{}) {
		s := op.Kind.Step()
		w.calls[s]++
		w.bytes += stepTiles[s] * 8 * tileSize * tileSize
	}
	return w
}

// perCallFlops is the flop count of one kernel call of each step class on
// full b×b tiles, from the repository's own flop model: a 2×2-tile flat-TS
// factorization runs every class on full tiles.
func perCallFlops() map[string]float64 {
	l := tiled.NewLayout(2*tileSize, 2*tileSize, tileSize)
	flops := tiled.FlopCount(l, tiled.FlatTS{})
	calls := workOf(2*tileSize, 2*tileSize).calls
	out := map[string]float64{}
	for _, s := range steps {
		out[s] = flops[s] / calls[s]
	}
	return out
}

// isolatedKernelUS times each step class's Ws kernel called alone on b×b
// tiles, single-threaded, in µs per call. Kernels that factor in place get
// their inputs restored before every call; the restore is timed on its own
// and subtracted.
func isolatedKernelUS() map[string]float64 {
	b := tileSize
	ws := kernels.NewWorkspace()
	tile := func(seed int64) *matrix.Matrix { return workload.Uniform(seed, b, b) }
	a0, c0, c1, c2 := tile(11), tile(12), tile(13), tile(14)

	// Reflectors for the update kernels: V/T from GEQRT (UT) and from TSQRT
	// (UE).
	v, t := a0.Clone(), matrix.New(b, b)
	kernels.GEQRTWs(v, t, ws)
	r0 := v.Clone() // its upper triangle is an R factor for TSQRT
	v2, t2 := tile(15), matrix.New(b, b)
	kernels.TSQRTWs(r0.Clone(), v2, t2, ws)

	a, r, c, d1, d2, tt := a0.Clone(), r0.Clone(), c0.Clone(), c1.Clone(), c2.Clone(), matrix.New(b, b)
	type kcase struct{ restore, call func() }
	cases := map[string]kcase{
		"T":  {func() { a.CopyFrom(a0) }, func() { kernels.GEQRTWs(a, tt, ws) }},
		"UT": {func() { c.CopyFrom(c0) }, func() { kernels.UNMQRWs(v, t, c, true, ws) }},
		"E":  {func() { r.CopyFrom(r0); a.CopyFrom(a0) }, func() { kernels.TSQRTWs(r, a, tt, ws) }},
		"UE": {func() { d1.CopyFrom(c1); d2.CopyFrom(c2) }, func() { kernels.TSMQRWs(v2, t2, d1, d2, true, ws) }},
	}
	out := map[string]float64{}
	for _, s := range steps {
		k := cases[s]
		both := perCallUS(func() { k.restore(); k.call() })
		only := perCallUS(k.restore)
		out[s] = max(both-only, 1e-3)
	}
	return out
}

// perCallUS is the median over rounds of the mean µs per call of f, each
// round calling f in batches until 20 ms have passed.
func perCallUS(f func()) float64 {
	const rounds, batch = 7, 32
	var per []float64
	for r := 0; r < rounds; r++ {
		n := 0
		start := time.Now()
		for time.Since(start) < 20*time.Millisecond {
			for i := 0; i < batch; i++ {
				f()
			}
			n += batch
		}
		per = append(per, float64(time.Since(start))/float64(time.Microsecond)/float64(n))
	}
	return median(per)
}

// shapeTimes are standalone timings, in ms, of the tiled and sched calls a
// job of one shape makes: tiling (FromDense), DAG construction, R
// extraction and the per-class scheduling plan.
type shapeTimes struct {
	tile, dag, rExtract, plan float64
}

func timeShape(in *input) shapeTimes {
	f, err := runtime.Factor(in.a, runtime.Options{TileSize: tileSize})
	if err != nil {
		panic(err) // the same input factored cleanly for its reference
	}
	l := tiled.NewLayout(in.rows, in.cols, tileSize)
	plat := device.PaperPlatform()
	return shapeTimes{
		tile:     medianMS(func() { tiled.FromDense(in.a, tileSize) }),
		dag:      medianMS(func() { tiled.BuildDAG(l, tiled.FlatTS{}) }),
		rExtract: medianMS(func() { f.R() }),
		plan:     medianMS(func() { sched.BuildPlan(plat, sched.NewProblem(in.rows, in.cols, tileSize)) }),
	}
}

// medianMS is the median duration of up to 25 calls of f, stopping after
// 100 ms.
func medianMS(f func()) float64 {
	var xs []float64
	start := time.Now()
	for len(xs) < 25 && (len(xs) < 3 || time.Since(start) < 100*time.Millisecond) {
		t0 := time.Now()
		f()
		xs = append(xs, ms(time.Since(t0)))
	}
	return median(xs)
}

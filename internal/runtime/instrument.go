package runtime

import (
	"context"
	"fmt"
	gometrics "runtime/metrics"
	"runtime/pprof"
	"time"

	"repro/internal/kernels"
	"repro/internal/metrics"
	"repro/internal/tiled"
)

// Metric names exported by the runtime. Step-labelled metrics use the
// paper's four-step classification (T, UT, E, UE) as the `step` label;
// worker-labelled metrics use the goroutine name (`worker-0`, ...) as the
// `worker` label.
const (
	// MetricOps counts executed tile kernels per step class:
	// `runtime.ops{step=T}` etc. Summed over the four classes it equals
	// len(dag.Ops) for a completed execution.
	MetricOps = "runtime.ops"
	// MetricOpUS is the per-kernel latency histogram (µs) per step class.
	MetricOpUS = "runtime.op_us"
	// MetricWorkerBusyUS accumulates per-worker kernel time (µs).
	MetricWorkerBusyUS = "runtime.worker_busy_us"
	// MetricWorkerIdleUS is the per-worker idle time (µs): the execution
	// wall clock minus the worker's busy time, set once at completion.
	MetricWorkerIdleUS = "runtime.worker_idle_us"
	// MetricQueueDepth is the manager's ready-queue depth, sampled at every
	// completion; MetricQueuePeak is its high-water mark.
	MetricQueueDepth = "runtime.queue_depth"
	MetricQueuePeak  = "runtime.queue_peak"
	// MetricWallUS is the wall-clock of each execution — one Factor or
	// ExecuteBatch call (µs, histogram).
	MetricWallUS = "runtime.wall_us"
	// MetricWorkers and MetricDagOps record the latest execution's
	// configuration (gauges).
	MetricWorkers = "runtime.workers"
	MetricDagOps  = "runtime.dag_ops"
	// MetricFactors counts Factor calls; MetricFactorUS is the end-to-end
	// Factor latency histogram (µs), including tiling and DAG construction.
	MetricFactors  = "runtime.factors"
	MetricFactorUS = "runtime.factor_us"
	// MetricExecAllocObjects is the number of heap objects allocated
	// process-wide during the latest execution (gauge, from the runtime's
	// /gc/heap/allocs:objects counter). With workspace-owning workers the
	// kernel loop contributes nothing, so on an otherwise-quiet process this
	// stays at the small fixed cost of the manager's own bookkeeping
	// regardless of DAG size — the observable form of the zero-alloc hot
	// path. Concurrent non-runtime activity inflates it.
	MetricExecAllocObjects = "runtime.exec_alloc_objects"
)

// stepNames indexes the paper's step classes in a fixed order so the hot
// path can use array lookups instead of map+format on every kernel.
var stepNames = [...]string{"T", "UT", "E", "UE"}

func stepIndex(k tiled.Kind) int {
	switch k.Step() {
	case "T":
		return 0
	case "UT":
		return 1
	case "E":
		return 2
	default:
		return 3
	}
}

// instr caches metric handles for one execution so the worker loop's
// per-kernel cost is a handful of atomic adds. A nil *instr disables
// everything (and is what a nil Options.Metrics produces).
type instr struct {
	reg       *metrics.Registry
	ops       [len(stepNames)]*metrics.Counter
	lat       [len(stepNames)]*metrics.Histogram
	names     []string         // per worker
	busy      []*metrics.Gauge // per worker
	depth     *metrics.Gauge
	peak      *metrics.Gauge
	start     time.Time
	allocs0   uint64                           // heap objects allocated at start, for the exec gauge
	labelSets [len(stepNames)][]pprof.LabelSet // [step][worker]
}

// allocObjects samples the runtime's cumulative heap-object allocation
// counter (cheaper than runtime.ReadMemStats, which stops the world).
func allocObjects() uint64 {
	s := []gometrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	gometrics.Read(s)
	if s[0].Value.Kind() == gometrics.KindUint64 {
		return s[0].Value.Uint64()
	}
	return 0
}

// newInstr resolves all handles up front for workers with the given
// names. Returns nil when reg is nil.
func newInstr(reg *metrics.Registry, names []string) *instr {
	if reg == nil {
		return nil
	}
	workers := len(names)
	in := &instr{reg: reg, names: names, depth: reg.Gauge(MetricQueueDepth), peak: reg.Gauge(MetricQueuePeak), start: time.Now(), allocs0: allocObjects()}
	for s, name := range stepNames {
		in.ops[s] = reg.Counter(metrics.With(MetricOps, "step", name))
		in.lat[s] = reg.Histogram(metrics.With(MetricOpUS, "step", name))
		in.labelSets[s] = make([]pprof.LabelSet, workers)
	}
	in.busy = make([]*metrics.Gauge, workers)
	for w, name := range names {
		// Busy/idle gauges describe the latest execution, so each run
		// starts them from zero (counters and histograms accumulate).
		in.busy[w] = reg.Gauge(metrics.With(MetricWorkerBusyUS, "worker", name))
		in.busy[w].Set(0)
		for s, step := range stepNames {
			// Pre-built pprof label sets: CPU profile samples taken inside a
			// kernel carry qr_worker and qr_step, so `go tool pprof` can
			// aggregate by kernel class (-tagfocus qr_step=UE etc.).
			in.labelSets[s][w] = pprof.Labels("qr_worker", name, "qr_step", step)
		}
	}
	in.peak.Set(0)
	in.depth.Set(0)
	return in
}

func workerName(id int) string { return fmt.Sprintf("worker-%d", id) }

// applyOp executes one kernel with instrumentation: pprof labels scoped to
// the kernel body, latency observation, per-step count, per-worker busy
// accounting. The Workspace is the calling worker's own (one per worker, so
// the kernel runs allocation-free). With a nil instr it is a plain
// ApplyOpWs.
func (in *instr) applyOp(f *tiled.Factorization, op tiled.Op, worker int, ws *kernels.Workspace) {
	if in == nil {
		f.ApplyOpWs(op, ws)
		return
	}
	s := stepIndex(op.Kind)
	t0 := time.Now()
	//qr:allow ctxdiscipline pprof label root only: the ctx carries profiler labels, never a deadline, and dies with the call
	pprof.Do(context.Background(), in.labelSets[s][worker], func(context.Context) {
		f.ApplyOpWs(op, ws)
	})
	d := time.Since(t0)
	us := float64(d) / float64(time.Microsecond)
	in.ops[s].Inc()
	in.lat[s].Observe(us)
	in.busy[worker].Add(us)
}

// queueDepth publishes the manager's current ready-queue depth.
func (in *instr) queueDepth(n int) {
	if in == nil {
		return
	}
	in.depth.Set(float64(n))
	in.peak.SetMax(float64(n))
}

// finish records the execution-wide figures: wall clock, per-worker idle
// time, and the run configuration.
func (in *instr) finish(dagOps int) {
	if in == nil {
		return
	}
	wallUS := float64(time.Since(in.start)) / float64(time.Microsecond)
	in.reg.Histogram(MetricWallUS).Observe(wallUS)
	in.reg.Gauge(MetricExecAllocObjects).Set(float64(allocObjects() - in.allocs0))
	in.reg.Gauge(MetricWorkers).Set(float64(len(in.names)))
	in.reg.Gauge(MetricDagOps).Set(float64(dagOps))
	for w, name := range in.names {
		idle := wallUS - in.busy[w].Value()
		if idle < 0 {
			idle = 0
		}
		in.reg.Gauge(metrics.With(MetricWorkerIdleUS, "worker", name)).Set(idle)
	}
}

// Package runtime executes the tiled QR operation DAG in parallel on the
// host CPU. Its structure mirrors the paper's implementation (Section V,
// Fig. 7): a manager goroutine tracks dependencies and dispatches ready
// operations; computing worker goroutines apply the tile kernels.
//
// There is one such manager loop (exec.go). Factor, FactorContext and
// ExecuteBatch run QR factorizations on it; ApplyQT, ApplyQ and FormQ run
// the Q-application DAG on it; other packages (tiled Cholesky, the
// heterogeneous placement engine) reach it through Run or Factor.
//
// On a CUDA machine the computing threads would drive GPUs; here every
// worker is a host goroutine, which is exactly the configuration the paper
// uses for its CPU (PLASMA-based) device. The heterogeneous multi-device
// behaviour is reproduced by internal/sim on top of calibrated device
// models.
//
// Observability: pass a metrics.Registry in Options.Metrics to get
// per-kernel-class operation counts and latency histograms, per-worker
// busy/idle accounting, manager queue-depth gauges, and pprof labels
// (qr_worker, qr_step) on every kernel so CPU profiles attribute samples
// to kernel classes. See instrument.go for the metric names.
package runtime

import (
	"context"
	"fmt"
	"runtime"

	"repro/internal/fault"
	"repro/internal/matrix"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/tiled"
	"repro/internal/trace"
)

// Options configures a parallel factorization.
type Options struct {
	// TileSize is the square tile edge; the paper uses 16. Must be ≥ 1.
	TileSize int
	// Workers is the number of computing goroutines; 0 selects GOMAXPROCS.
	Workers int
	// Tree selects the elimination order; nil selects the paper's flat TS.
	Tree tiled.Tree
	// Recorder, when non-nil, receives one event per executed operation.
	Recorder *trace.Recorder
	// Priority selects the manager's dispatch order (FIFO default, or
	// CriticalPath to favour the panel chain).
	Priority Priority
	// Metrics, when non-nil, receives the runtime.* metrics and enables
	// pprof kernel labels. Nil disables all instrumentation.
	Metrics *metrics.Registry
	// Faults, when non-nil, injects seeded faults (panics, transient
	// errors, latency, NaN corruption, worker drops) into the execution;
	// see internal/fault.
	Faults *fault.Injector
	// Retry bounds task-level retries of retryable injected failures; the
	// zero value selects fault.DefaultRetryPolicy when Faults is set.
	Retry fault.RetryPolicy
	// Verify re-scans the factored tiles for NaN/Inf before returning,
	// failing with an error wrapping ErrNonFinite on corruption.
	Verify bool
	// Trace, when non-nil, records the factorization as an end-to-end span
	// tree (plan, execute, per-kernel children) into the given job trace;
	// see internal/obs. The caller finalizes and stores the trace.
	Trace *obs.Trace
}

// Normalize validates the options and fills defaults in place; Factor
// calls it automatically.
func (o *Options) Normalize() error {
	if o.TileSize < 1 {
		return fmt.Errorf("runtime: tile size %d out of range", o.TileSize)
	}
	if o.Workers < 0 {
		return fmt.Errorf("runtime: negative worker count %d", o.Workers)
	}
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Tree == nil {
		o.Tree = tiled.FlatTS{}
	}
	return nil
}

// Factor computes the tiled QR factorization of a in parallel. The input is
// not modified; the returned factorization exposes R, Q application, and
// solves exactly as the sequential engine does. Factor is FactorContext
// with context.Background(): it cannot be cancelled.
func Factor(a *matrix.Matrix, opts Options) (*tiled.Factorization, error) {
	//qr:allow ctxdiscipline Factor is the documented uncancellable wrapper; cancellable callers use FactorContext
	return FactorContext(context.Background(), a, opts)
}

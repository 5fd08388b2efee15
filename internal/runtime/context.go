package runtime

import (
	"context"
	"fmt"
	"log/slog"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/kernels"
	"repro/internal/matrix"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/tiled"
	"repro/internal/trace"
)

// FactorContext is Factor with cancellation and containment: the manager
// checks ctx at every task-dispatch point, so a cancelled or
// deadline-expired context stops the factorization after at most the
// kernels already in flight, and every kernel runs behind a recover
// barrier, so a panicking kernel fails the factorization with a typed
// *fault.KernelPanicError instead of crashing the process. The returned
// error wraps ctx.Err() on cancellation (errors.Is against
// context.Canceled or context.DeadlineExceeded works); the partial
// factorization is discarded.
//
// Inputs are pre-scanned: a NaN or Inf element fails fast with an error
// wrapping ErrNonFinite rather than silently factoring garbage. With
// Options.Verify the factored tiles are re-scanned on the way out, which
// catches data corruption the kernels cannot (e.g. an injected NaN).
//
// With Options.Faults set, injected faults are applied during execution
// and task-retryable failures are retried under Options.Retry.
func FactorContext(ctx context.Context, a *matrix.Matrix, opts Options) (*tiled.Factorization, error) {
	if err := opts.Normalize(); err != nil {
		return nil, err
	}
	if ctx == nil {
		//qr:allow ctxdiscipline nil-ctx compatibility fallback for pre-context callers
		ctx = context.Background()
	}
	if i, j, ok := a.FindNonFinite(); ok {
		return nil, fmt.Errorf("runtime: input element (%d,%d): %w", i, j, ErrNonFinite)
	}
	stop := opts.Metrics.StartTimer(MetricFactorUS)
	opts.Metrics.Counter(MetricFactors).Inc()
	tr := opts.Trace
	planSpan := tr.Start(tr.Root(), obs.SpanPlan)
	l := tiled.NewLayout(a.Rows, a.Cols, opts.TileSize)
	dag := tiled.BuildDAG(l, opts.Tree)
	f := tiled.NewFactorization(tiled.FromDense(a, opts.TileSize), opts.Tree)
	tr.End(planSpan)
	execSpan := tr.Start(tr.Root(), obs.SpanExecute)
	errs, _ := ExecuteBatch(dag, []BatchItem{{Ctx: ctx, F: f, Trace: tr, Span: execSpan}}, BatchOptions{
		Workers: opts.Workers, Priority: opts.Priority,
		Recorder: opts.Recorder, Metrics: opts.Metrics,
		Faults: opts.Faults, Retry: opts.Retry,
	})
	tr.EndErr(execSpan, errs[0])
	stop()
	if tr != nil && errs[0] == nil {
		tr.SetCriticalPath(tr.ComputeCriticalPath(dag.Deps))
	}
	if errs[0] != nil {
		return nil, errs[0]
	}
	if opts.Verify {
		if err := verifyFinite(f); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// BatchItem is one factorization in an ExecuteBatch call: a pre-tiled
// factorization plus its (optional) cancellation context.
type BatchItem struct {
	// Ctx cancels this item only; nil means never cancelled.
	Ctx context.Context
	// F is the factorization the DAG's operations are applied to. Its
	// layout must match the DAG's.
	F *tiled.Factorization
	// Trace, when non-nil, receives one kernel span per executed attempt
	// of this item's operations (span name = op string, step class, worker,
	// DAG index, attempt number, error), parented under Span — the
	// end-to-end job tracing hook of internal/obs.
	Trace *obs.Trace
	// Span is the parent span id for this item's kernel spans (typically
	// the job's execute-phase span). Ignored when Trace is nil.
	Span obs.SpanID
}

// BatchOptions configure one ExecuteBatch call.
type BatchOptions struct {
	// Workers is the computing goroutine count (min 1, capped at the
	// total operation count).
	Workers int
	// Priority selects the dispatch order (FIFO or CriticalPath).
	Priority Priority
	// Recorder, when non-nil, receives one trace event per executed kernel.
	Recorder *trace.Recorder
	// Metrics, when non-nil, receives runtime.* and fault.* metrics.
	Metrics *metrics.Registry
	// Faults, when non-nil, injects faults into kernel executions and may
	// drop a worker mid-batch (see internal/fault).
	Faults *fault.Injector
	// Retry bounds task-level retries of retryable kernel failures. The
	// zero value selects fault.DefaultRetryPolicy when Faults is set and
	// disables retries otherwise (real panics are never task-retried
	// regardless — see fault.TaskRetryable).
	Retry fault.RetryPolicy
	// Logger, when non-nil, receives structured lifecycle events (kernel
	// retries, worker drops, terminal item failures) tagged with each
	// item's trace id, so service logs correlate with /traces/{id}.
	Logger *slog.Logger
}

// BatchReport summarizes the fault activity of one batch execution.
type BatchReport struct {
	// Injected is the number of kernel-site faults injected (panic,
	// transient, latency, NaN — not drops).
	Injected int64
	// Retries is the number of task retries dispatched; Recovered the
	// number of operations that failed at least once and then completed.
	Retries   int
	Recovered int
	// Exhausted counts items failed on an exhausted retry budget.
	Exhausted int
	// WorkerDrops counts workers lost mid-batch; each one shrank the pool
	// and redistributed the remaining work over the survivors.
	// DroppedWorkers lists their worker ids, in drop order — callers that
	// model workers as devices (internal/serve) map these to device indices
	// when replanning.
	WorkerDrops    int
	DroppedWorkers []int
}

// ExecuteBatch runs one dependency DAG over several same-shape
// factorizations in a single manager loop: all items' operations share one
// ready pool and one worker set, so a batch of small matrices fills the
// workers the way one large matrix would. This is the micro-batching
// engine behind internal/serve, and FactorContext runs a batch of one.
//
// The returned slice has one entry per item: nil on success, or an error
// wrapping the item's ctx.Err() if its context fired before the item's
// last operation was dispatched (remaining operations of a cancelled item
// are skipped, other items are unaffected), or a typed fault error if one
// of its kernels failed terminally. Operations of one item execute in a
// DAG-legal order with deterministic kernels, so each successful item's
// result is bit-identical to a direct Factor of the same input. The report
// summarizes the batch's fault activity.
func ExecuteBatch(dag *tiled.DAG, items []BatchItem, opt BatchOptions) ([]error, *BatchReport) {
	n := len(dag.Ops)
	if n*len(items) == 0 {
		return make([]error, len(items)), &BatchReport{}
	}
	workers := poolSize(opt.Workers, n*len(items))
	rec, reg, inj := opt.Recorder, opt.Metrics, opt.Faults
	g := graphOf(dag)
	names := make([]string, workers)
	for w := range names {
		names[w] = workerName(w)
	}
	in := newInstr(reg, names)
	wss := make([]*kernels.Workspace, workers)
	var injected atomic.Int64
	// The QR task: one kernel attempt with its fault injection, kernel span
	// and Recorder event. Each worker owns its Workspace, so the kernel
	// runs allocation-free.
	task := func(w, gid, attempt int) error {
		ws := workspace(wss, w)
		op := dag.Ops[gid%n]
		it := &items[gid/n]
		start := rec.Now()
		sp := it.Trace.StartKernel(it.Span, op.String(), op.Kind.Step(), names[w], gid%n, attempt)
		err := applyProtected(in, inj, reg, it.F, op, w, gid/n, gid%n, attempt, &injected, ws)
		it.Trace.EndErr(sp, err)
		if rec != nil && err == nil {
			rec.Add(trace.Event{
				Label: op.String(), Step: op.Kind.Step(),
				Worker: names[w], Start: start, End: rec.Now(),
			})
		}
		return err
	}
	errs, rep := execute(g, items, opt, in, task)
	rep.Injected = injected.Load()
	return errs, rep
}

// workspace returns worker w's Workspace, allocating it on first use. The
// worker allocates its own, so the workers' Workspaces — whose view headers
// every kernel call rewrites — do not come out of one allocation burst
// next to each other and share cache lines.
func workspace(wss []*kernels.Workspace, w int) *kernels.Workspace {
	if wss[w] == nil {
		wss[w] = kernels.NewWorkspace()
	}
	return wss[w]
}

// traceID names the item in log records ("" when the item is untraced).
func (it *BatchItem) traceID() string {
	if it.Trace == nil {
		return ""
	}
	return string(it.Trace.ID)
}

// injectedPanic is the sentinel the injector's panic fault throws; the
// recover barrier uses it to tell safe-to-retry injected panics from real
// kernel panics (which may have left partial tile state).
type injectedPanic struct{}

// applyProtected runs one kernel attempt of a QR task: injected faults
// fire first (panic, transient, latency), the kernel runs under pprof
// labels and latency accounting, and an injected NaN corrupts the first
// output tile afterwards. Any panic — injected or real — is recovered here,
// inside the task, into a typed *fault.KernelPanicError that marks injected
// panics as retryable, so the attempt's kernel span still closes with the
// error; the manager loop's own barrier (runTask) never sees it.
//
//qr:containedexec
func applyProtected(in *instr, inj *fault.Injector, reg *metrics.Registry,
	f *tiled.Factorization, op tiled.Op, worker, item, local, attempt int,
	injected *atomic.Int64, ws *kernels.Workspace) (err error) {
	defer func() {
		if r := recover(); r != nil {
			_, isInjected := r.(injectedPanic)
			val := r
			if isInjected {
				val = any("injected")
			}
			err = &fault.KernelPanicError{
				Op: op.String(), Step: op.Kind.Step(),
				Worker: worker, Value: val, Injected: isInjected,
			}
		}
	}()
	d := inj.Kernel(item, local, attempt)
	if d.Kind != fault.KindNone {
		injected.Add(1)
		reg.Counter(metrics.With(fault.MetricInjected, "kind", d.Kind.String())).Inc()
	}
	switch d.Kind {
	case fault.KindPanic:
		panic(injectedPanic{})
	case fault.KindTransient:
		return &fault.TransientError{Op: op.String(), Worker: worker}
	case fault.KindLatency:
		time.Sleep(d.Sleep)
	}
	in.applyOp(f, op, worker, ws)
	if d.Kind == fault.KindNaN {
		c := op.Tiles()[0]
		f.A.Tile(c[0], c[1]).Data[0] = math.NaN()
	}
	return nil
}

package runtime

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/tiled"
)

// Graph is a task dependency DAG: task i may start once every task in
// Deps[i] has finished, and finishing i unblocks the tasks in Succs[i].
// Dependencies point from later to earlier indices.
type Graph struct {
	Deps, Succs [][]int
	// Label, when non-nil, names task i (operation and step class) in
	// contained panics and failure errors.
	Label func(i int) (op, step string)
}

// graphOf adapts a tiled-QR operation DAG.
func graphOf(dag *tiled.DAG) *Graph {
	return &Graph{Deps: dag.Deps, Succs: dag.Succs, Label: func(i int) (string, string) {
		op := dag.Ops[i]
		return op.String(), op.Kind.Step()
	}}
}

// name labels task i for errors and logs.
func (g *Graph) name(i int) string {
	if g.Label == nil {
		return fmt.Sprintf("task %d", i)
	}
	op, _ := g.Label(i)
	return op
}

// taskFunc runs attempt number attempt of global task gid on a worker.
type taskFunc func(worker, gid, attempt int) error

// Run executes every task of g once on workers goroutines (at least one,
// at most one per task), dispatching ready tasks in FIFO order. Every call
// runs behind the recover barrier, so a panicking task becomes a
// *fault.KernelPanicError instead of crashing the process. After the first
// failed task nothing more is dispatched; Run waits for the tasks in
// flight and returns that failure.
func Run(g Graph, workers int, task func(worker, id int) error) error {
	errs, _ := execute(&g, make([]BatchItem, 1), BatchOptions{Workers: workers}, nil,
		func(w, id, _ int) error { return task(w, id) })
	return errs[0]
}

// poolSize clamps a worker count to [1, tasks].
func poolSize(workers, tasks int) int {
	if workers > tasks {
		workers = tasks
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// runTask calls task behind the executor's recover barrier: a panic fails
// the task with a *fault.KernelPanicError naming the task and the worker.
//
//qr:containedexec
func runTask(g *Graph, task taskFunc, worker, gid, attempt int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			kp := &fault.KernelPanicError{Worker: worker, Value: r}
			if g.Label != nil {
				kp.Op, kp.Step = g.Label(gid % len(g.Deps))
			}
			err = kp
		}
	}()
	return task(worker, gid, attempt)
}

// dispatchQueue orders ready tasks: a FIFO ring by default, or a
// critical-path max-heap (opHeap) when the caller asked for priority
// dispatch.
type dispatchQueue interface {
	push(id int)
	pop() int
	Len() int
}

type fifoQueue struct {
	ids  []int
	head int
}

func (q *fifoQueue) push(id int) { q.ids = append(q.ids, id) }
func (q *fifoQueue) pop() int {
	id := q.ids[q.head]
	q.head++
	if q.head == len(q.ids) {
		q.ids = q.ids[:0]
		q.head = 0
	}
	return id
}
func (q *fifoQueue) Len() int { return len(q.ids) - q.head }

// dispatchMsg hands one task attempt to a worker.
type dispatchMsg struct {
	gid     int
	attempt int
}

// opResult reports one finished attempt back to the manager. dropped marks
// the worker's exit: the attempt completed, then the device died.
type opResult struct {
	gid     int
	worker  int
	attempt int
	err     error
	dropped bool
}

// execute is the runtime's one manager loop — the paper's manager thread
// (Section V, Fig. 7) handing ready tile operations to computing threads.
// It runs g once per item: global task id gid = item*len(g.Deps) + local
// task, dependency structure replicated per item, state tracked flat. All
// items share one ready queue and one worker pool. task does the work;
// opt supplies the pool size, dispatch order, retry policy, worker-drop
// injection (opt.Faults), fault metrics and the logger; in, when non-nil,
// receives queue-depth samples and the execution-wide figures.
//
// Dispatch is gated (at most one queued task per idle worker) so a
// cancellation takes effect after the tasks currently in flight, not after
// everything already pushed to a buffered channel.
//
// Failure handling: a task-retryable failure (injected transient or
// injected panic — both fire before the kernel touches tiles) is re-queued
// after a capped-exponential backoff until its attempt cap or the item's
// retry budget runs out; any other failure, or an exhausted budget, fails
// the item (remaining tasks are skipped, other items proceed). A worker
// that drops mid-batch shrinks the pool and the shared ready queue
// redistributes its work over the survivors; if the last worker drops, one
// is respawned under the same id (the injector fires each drop once) so
// the batch always finishes.
func execute(g *Graph, items []BatchItem, opt BatchOptions, in *instr, task taskFunc) ([]error, *BatchReport) {
	n := len(g.Deps)
	k := len(items)
	errs := make([]error, k)
	rep := &BatchReport{}
	total := n * k
	if total == 0 {
		return errs, rep
	}
	workers := poolSize(opt.Workers, total)
	reg, inj := opt.Metrics, opt.Faults
	retry := opt.Retry
	if inj != nil && retry == (fault.RetryPolicy{}) {
		retry = fault.DefaultRetryPolicy()
	}

	ready := make(chan dispatchMsg)
	done := make(chan opResult, total)
	// Retry deliveries come from time.AfterFunc goroutines, which may block
	// on a full channel without holding anything up; a small buffer absorbs
	// the common case.
	retryc := make(chan int, 64)
	var wg sync.WaitGroup

	spawn := func(id int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for msg := range ready {
				err := runTask(g, task, id, msg.gid, msg.attempt)
				dropped := inj.KernelDrop()
				done <- opResult{gid: msg.gid, worker: id, attempt: msg.attempt, err: err, dropped: dropped}
				if dropped {
					return
				}
			}
		}()
	}
	for w := 0; w < workers; w++ {
		spawn(w)
	}
	alive := workers

	remaining := make([]int, total)
	for j := 0; j < k; j++ {
		base := j * n
		for i := range g.Deps {
			remaining[base+i] = len(g.Deps[i])
		}
	}
	var q dispatchQueue
	if opt.Priority == CriticalPath {
		depth := remainingDepth(g.Succs)
		all := make([]int, total)
		for gid := range all {
			all[gid] = depth[gid%n]
		}
		q = &opHeap{depth: all}
	} else {
		q = &fifoQueue{}
	}
	for gid, r := range remaining {
		if r == 0 {
			q.push(gid)
		}
	}

	// aborted reports (and latches) whether item j has failed — its context
	// fired or one of its tasks failed terminally. This is the
	// task-dispatch-point check: it runs once per task, before the task is
	// handed to a worker.
	executed := make([]int, k)
	aborted := func(j int) bool {
		if errs[j] != nil {
			return true
		}
		ctx := items[j].Ctx
		if ctx == nil {
			return false
		}
		if err := ctx.Err(); err != nil {
			errs[j] = fmt.Errorf("runtime: factorization aborted after %d of %d ops: %w", executed[j], n, err)
			return true
		}
		return false
	}
	// release marks gid complete and unblocks its successors (same item).
	release := func(gid int) {
		base := gid - gid%n
		for _, s := range g.Succs[gid%n] {
			t := base + s
			remaining[t]--
			if remaining[t] == 0 {
				q.push(t)
			}
		}
	}
	// attempts[gid] is how many retries task gid has consumed; budget[j]
	// how many retries item j has spent across all its tasks.
	attempts := make([]int, total)
	budget := make([]int, k)

	inFlight, completed := 0, 0
	for completed < total {
		for inFlight < alive && q.Len() > 0 {
			gid := q.pop()
			if aborted(gid / n) {
				// Skip the task but keep the bookkeeping: successors are
				// released so the loop still terminates and other items in
				// the batch proceed undisturbed.
				completed++
				release(gid)
				continue
			}
			executed[gid/n]++
			ready <- dispatchMsg{gid: gid, attempt: attempts[gid]}
			inFlight++
		}
		if completed == total {
			break
		}
		in.queueDepth(q.Len())
		select {
		case res := <-done:
			inFlight--
			if res.dropped {
				alive--
				rep.WorkerDrops++
				rep.DroppedWorkers = append(rep.DroppedWorkers, res.worker)
				reg.Counter(metrics.With(fault.MetricInjected, "kind", fault.KindDrop.String())).Inc()
				reg.Counter(metrics.With(fault.MetricReplans, "layer", "runtime")).Inc()
				if opt.Logger != nil {
					opt.Logger.Warn("runtime: worker dropped mid-batch",
						"worker", res.worker, "alive", alive)
				}
				if alive == 0 {
					// The pool must never die with work outstanding; the
					// injector's once-latch keeps the respawn alive.
					spawn(res.worker)
					alive = 1
				}
			}
			j := res.gid / n
			if res.err == nil {
				if attempts[res.gid] > 0 {
					rep.Recovered++
					reg.Counter(fault.MetricRecovered).Inc()
				}
				completed++
				release(res.gid)
				continue
			}
			if errs[j] == nil && fault.TaskRetryable(res.err) &&
				attempts[res.gid]+1 < retry.MaxAttempts && budget[j] < retry.Budget {
				attempts[res.gid]++
				budget[j]++
				rep.Retries++
				delay := retry.Backoff(res.gid, attempts[res.gid])
				reg.Histogram(fault.MetricRetryWaitUS).Observe(float64(delay) / float64(time.Microsecond))
				if opt.Logger != nil {
					opt.Logger.Warn("runtime: kernel retry scheduled",
						"trace_id", items[j].traceID(), "op", g.name(res.gid%n),
						"attempt", attempts[res.gid], "delay", delay, "err", res.err)
				}
				gid := res.gid
				time.AfterFunc(delay, func() { retryc <- gid })
				continue
			}
			if errs[j] == nil {
				if fault.TaskRetryable(res.err) {
					errs[j] = &fault.BudgetExhaustedError{Op: g.name(res.gid % n), Retries: attempts[res.gid], Err: res.err}
					rep.Exhausted++
					reg.Counter(fault.MetricExhausted).Inc()
				} else {
					errs[j] = fmt.Errorf("runtime: %s failed: %w", g.name(res.gid%n), res.err)
				}
				if opt.Logger != nil {
					opt.Logger.Error("runtime: item failed terminally",
						"trace_id", items[j].traceID(), "op", g.name(res.gid%n),
						"err", errs[j])
				}
			}
			completed++
			release(res.gid)
		case gid := <-retryc:
			// A task coming back from backoff re-enters the ready queue; if
			// its item aborted meanwhile, dispatch will skip it.
			q.push(gid)
		}
	}
	close(ready)
	// Drain the pool before returning: every worker has exited, so callers
	// (and the goroutine-leak tests) observe no stragglers.
	wg.Wait()
	in.finish(total)
	return errs, rep
}

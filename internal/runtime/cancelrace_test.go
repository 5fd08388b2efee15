package runtime

import (
	"context"
	"errors"
	"math/rand"
	stdruntime "runtime"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/tiled"
	"repro/internal/workload"
)

// checkNoGoroutineLeak fails the test if the goroutine count does not
// settle back to (near) its pre-test baseline. The engine drains its
// worker pool with wg.Wait before returning, so the only slack needed is
// for runtime-internal goroutines (timer scavenger etc.) that may come and
// go; a short retry loop absorbs those.
func checkNoGoroutineLeak(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := stdruntime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			buf = buf[:stdruntime.Stack(buf, true)]
			t.Fatalf("goroutine leak: %d goroutines, baseline %d\n%s", n, base, buf)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Cancellation racing in-flight kernels must never corrupt a completed
// result, never hang, and never leak worker goroutines. Run with -race and
// -count=5: the cancel point is randomized per run so repeated runs probe
// different interleavings.
func TestFactorContextCancelRaceNoLeak(t *testing.T) {
	base := stdruntime.NumGoroutine()
	a := workload.Uniform(61, 192, 192)
	want, err := Factor(a, Options{TileSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	for i := 0; i < 8; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		delay := time.Duration(rng.Intn(1500)) * time.Microsecond
		go func() {
			time.Sleep(delay)
			cancel()
		}()
		f, err := FactorContext(ctx, a, Options{TileSize: 16, Workers: 4})
		switch {
		case err == nil:
			if d := f.R().MaxAbsDiff(want.R()); d != 0 {
				t.Fatalf("iter %d (cancel after %v): completed result differs by %g", i, delay, d)
			}
		case errors.Is(err, context.Canceled):
			if f != nil {
				t.Fatalf("iter %d: cancelled factorization returned non-nil", i)
			}
		default:
			t.Fatalf("iter %d: unexpected error %v", i, err)
		}
		cancel()
	}
	checkNoGoroutineLeak(t, base)
}

// Per-item cancellation racing a shared batch: random items cancel at
// random times while the rest must complete bit-identically, with the
// worker pool fully drained afterwards.
func TestExecuteBatchCancelRaceNoLeak(t *testing.T) {
	base := stdruntime.NumGoroutine()
	tile := 16
	tree := tiled.FlatTS{}
	dag := tiled.BuildDAG(tiled.NewLayout(96, 96, tile), tree)
	rng := rand.New(rand.NewSource(time.Now().UnixNano() + 1))

	const items = 6
	batch := make([]BatchItem, items)
	cancels := make([]context.CancelFunc, items)
	for i := range batch {
		f := tiled.NewFactorization(tiled.FromDense(workload.Uniform(int64(70+i), 96, 96), tile), tree)
		ctx, cancel := context.WithCancel(context.Background())
		batch[i] = BatchItem{Ctx: ctx, F: f}
		cancels[i] = cancel
	}
	racing := map[int]bool{}
	for _, i := range rng.Perm(items)[:items/2] {
		racing[i] = true
		cancel := cancels[i]
		delay := time.Duration(rng.Intn(2000)) * time.Microsecond
		go func() {
			time.Sleep(delay)
			cancel()
		}()
	}
	errs, _ := ExecuteBatch(dag, batch, BatchOptions{Workers: 4})
	for i, err := range errs {
		if racing[i] {
			if err != nil && !errors.Is(err, context.Canceled) {
				t.Fatalf("racing item %d: unexpected error %v", i, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("un-cancelled item %d failed: %v", i, err)
		}
		direct, ferr := Factor(workload.Uniform(int64(70+i), 96, 96), Options{TileSize: tile})
		if ferr != nil {
			t.Fatal(ferr)
		}
		if d := batch[i].F.R().MaxAbsDiff(direct.R()); d != 0 {
			t.Fatalf("item %d perturbed by cancelled neighbours: diff %g", i, d)
		}
	}
	for _, cancel := range cancels {
		cancel()
	}
	checkNoGoroutineLeak(t, base)
}

// Cancellation racing retries: an item whose ops are being retried under
// backoff must still terminate promptly when cancelled (pending retries
// are skipped at dispatch, not executed), and the pool must drain.
func TestCancelDuringRetriesNoLeak(t *testing.T) {
	base := stdruntime.NumGoroutine()
	tile := 16
	tree := tiled.FlatTS{}
	dag := tiled.BuildDAG(tiled.NewLayout(64, 64, tile), tree)
	a := workload.Uniform(81, 64, 64)
	for i := 0; i < 4; i++ {
		f := tiled.NewFactorization(tiled.FromDense(a, tile), tree)
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(time.Duration(200+100*i) * time.Microsecond)
			cancel()
		}()
		// Heavy transient rate with long backoffs: retries are very likely
		// pending at cancel time.
		errs, _ := ExecuteBatch(dag, []BatchItem{{Ctx: ctx, F: f}}, BatchOptions{
			Workers: 2,
			Faults:  fault.New(fault.Config{Seed: int64(90 + i), TransientRate: 0.6}),
			Retry: fault.RetryPolicy{
				MaxAttempts: 4,
				BaseDelay:   500 * time.Microsecond,
				MaxDelay:    4 * time.Millisecond,
				Budget:      256,
			},
		})
		err := errs[0]
		if err != nil && !errors.Is(err, context.Canceled) && !fault.IsRetryable(err) {
			t.Fatalf("iter %d: unexpected error %v", i, err)
		}
		cancel()
	}
	checkNoGoroutineLeak(t, base)
}

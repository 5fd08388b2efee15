package runtime

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/tiled"
	"repro/internal/workload"
)

// generousRetry is a policy wide enough that every injected retryable
// fault recovers at the rates used in these tests (the injector is
// deterministic, so these tests cannot flake — the margin just keeps them
// robust to changing seeds or shapes).
var generousRetry = fault.RetryPolicy{
	MaxAttempts: 6,
	BaseDelay:   10 * time.Microsecond,
	MaxDelay:    200 * time.Microsecond,
	Budget:      128,
}

// Non-corrupting faults (transient, injected panic, latency) must recover
// into a bit-identical factorization: injection happens before the kernel
// touches its tiles, so a retry reproduces the fault-free result exactly.
func TestFactorBitIdenticalUnderNonCorruptingFaults(t *testing.T) {
	a := workload.Uniform(42, 96, 64)
	want, err := Factor(a, Options{TileSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		cfg  fault.Config
	}{
		{"transient", fault.Config{Seed: 1, TransientRate: 0.2}},
		{"panic", fault.Config{Seed: 2, PanicRate: 0.2}},
		{"latency", fault.Config{Seed: 3, LatencyRate: 0.3, Latency: 20 * time.Microsecond}},
		{"mixed", fault.Config{Seed: 4, PanicRate: 0.05, TransientRate: 0.1, LatencyRate: 0.1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := metrics.NewRegistry()
			inj := fault.New(tc.cfg)
			got, err := Factor(a, Options{
				TileSize: 16, Workers: 4, Metrics: reg,
				Faults: inj, Retry: generousRetry,
			})
			if err != nil {
				t.Fatalf("factor under %s faults: %v", tc.name, err)
			}
			if d := got.R().MaxAbsDiff(want.R()); d != 0 {
				t.Fatalf("R differs from fault-free Factor by %g", d)
			}
			snap := reg.Snapshot()
			if inj.InjectedTotal() == 0 {
				t.Fatal("no faults injected — rates or seed make the test vacuous")
			}
			if got := snap.SumCounters(fault.MetricInjected + "{"); got != inj.InjectedTotal() {
				t.Fatalf("fault.injected metric %d, injector says %d", got, inj.InjectedTotal())
			}
			if tc.name != "latency" && snap.Counters[fault.MetricRecovered] == 0 {
				t.Fatal("faults injected but none recovered")
			}
		})
	}
}

// Every attempt failing must exhaust the budget into a typed, job-level
// retryable BudgetExhaustedError — not hang, not crash.
func TestRetryBudgetExhausted(t *testing.T) {
	a := workload.Uniform(7, 64, 64)
	reg := metrics.NewRegistry()
	_, err := Factor(a, Options{
		TileSize: 16, Metrics: reg,
		Faults: fault.New(fault.Config{Seed: 9, TransientRate: 1}),
		Retry:  fault.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Microsecond, MaxDelay: 10 * time.Microsecond, Budget: 4},
	})
	var be *fault.BudgetExhaustedError
	if !errors.As(err, &be) {
		t.Fatalf("want BudgetExhaustedError, got %v", err)
	}
	if !fault.IsRetryable(err) {
		t.Fatal("exhausted budget must be job-retryable")
	}
	if fault.TaskRetryable(err) {
		t.Fatal("exhausted budget must not be task-retryable")
	}
	if reg.Snapshot().Counters[fault.MetricExhausted] == 0 {
		t.Fatal("fault.budget_exhausted not recorded")
	}
}

// A real (non-injected) kernel panic must be contained into a typed error
// with the op identity — never retried in place, never crashing the
// process — while other items in the batch complete untouched.
func TestRealKernelPanicContained(t *testing.T) {
	tile := 16
	tree := tiled.FlatTS{}
	dag := tiled.BuildDAG(tiled.NewLayout(64, 64, tile), tree)
	aGood := workload.Uniform(11, 64, 64)
	batch := []BatchItem{
		// Wrong shape for this DAG: ops referencing tile row 3 panic.
		{F: tiled.NewFactorization(tiled.FromDense(workload.Uniform(10, 48, 64), tile), tree)},
		{F: tiled.NewFactorization(tiled.FromDense(aGood, tile), tree)},
	}
	errs, rep := ExecuteBatch(dag, batch, BatchOptions{Workers: 2, Retry: generousRetry})
	var pe *fault.KernelPanicError
	if !errors.As(errs[0], &pe) {
		t.Fatalf("want KernelPanicError, got %v", errs[0])
	}
	if pe.Injected {
		t.Fatal("real panic reported as injected")
	}
	if pe.Op == "" || pe.Step == "" {
		t.Fatalf("panic error lost op identity: %+v", pe)
	}
	if fault.TaskRetryable(errs[0]) {
		t.Fatal("real panic must not be task-retryable")
	}
	if rep.Retries != 0 {
		t.Fatalf("real panic was retried %d times", rep.Retries)
	}
	if errs[1] != nil {
		t.Fatalf("healthy neighbour failed: %v", errs[1])
	}
	direct, err := Factor(aGood, Options{TileSize: tile})
	if err != nil {
		t.Fatal(err)
	}
	if d := batch[1].F.R().MaxAbsDiff(direct.R()); d != 0 {
		t.Fatalf("healthy neighbour perturbed by panicking item: diff %g", d)
	}
}

// A worker drop mid-batch must shrink the pool, redistribute the work, and
// still produce bit-identical results — the recorded replan is the
// degradation, not the outcome.
func TestWorkerDropReplans(t *testing.T) {
	a := workload.Uniform(21, 96, 96)
	want, err := Factor(a, Options{TileSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	inj := fault.New(fault.Config{Seed: 5, DropAfter: 2})
	got, err := Factor(a, Options{TileSize: 16, Workers: 4, Metrics: reg, Faults: inj})
	if err != nil {
		t.Fatalf("factor under device drop: %v", err)
	}
	if d := got.R().MaxAbsDiff(want.R()); d != 0 {
		t.Fatalf("R differs after worker drop by %g", d)
	}
	if inj.Injected(fault.KindDrop) != 1 {
		t.Fatalf("drop count %d, want 1", inj.Injected(fault.KindDrop))
	}
	snap := reg.Snapshot()
	if snap.Counters[metrics.With(fault.MetricReplans, "layer", "runtime")] != 1 {
		t.Fatal("fault.replans{layer=runtime} not recorded")
	}
}

// Losing the last worker must respawn one (the injector drop latch fires
// once), so even Workers=1 under a drop finishes the factorization.
func TestLastWorkerDropRespawns(t *testing.T) {
	a := workload.Uniform(23, 64, 64)
	want, err := Factor(a, Options{TileSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.New(fault.Config{Seed: 6, DropAfter: 1})
	got, err := Factor(a, Options{TileSize: 16, Workers: 1, Faults: inj})
	if err != nil {
		t.Fatalf("factor surviving last-worker drop: %v", err)
	}
	if d := got.R().MaxAbsDiff(want.R()); d != 0 {
		t.Fatalf("R differs by %g", d)
	}
	if inj.Injected(fault.KindDrop) != 1 {
		t.Fatal("drop did not fire")
	}
}

// NaN corruption is the one fault kind kernels cannot detect; only the
// Verify post-check catches it, with an error wrapping ErrNonFinite.
func TestNaNInjectionCaughtByVerify(t *testing.T) {
	a := workload.Uniform(31, 64, 64)
	inj := fault.New(fault.Config{Seed: 8, NaNRate: 0.5})
	_, err := Factor(a, Options{TileSize: 16, Faults: inj, Verify: true})
	if !errors.Is(err, ErrNonFinite) {
		t.Fatalf("verify under NaN injection: want ErrNonFinite, got %v", err)
	}
	if inj.Injected(fault.KindNaN) == 0 {
		t.Fatal("no NaN injected — test vacuous")
	}
}

// The input pre-scan must reject NaN and Inf with ErrNonFinite before any
// kernel runs, for both Factor and FactorContext.
func TestInputPreScanNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		a := workload.Uniform(41, 48, 48)
		a.Set(17, 31, bad)
		if _, err := Factor(a, Options{TileSize: 16}); !errors.Is(err, ErrNonFinite) {
			t.Fatalf("Factor(%v input): want ErrNonFinite, got %v", bad, err)
		}
		if _, err := FactorContext(context.Background(), a, Options{TileSize: 16}); !errors.Is(err, ErrNonFinite) {
			t.Fatalf("FactorContext(%v input): want ErrNonFinite, got %v", bad, err)
		}
	}
}

// Verify on a healthy factorization must pass and change nothing.
func TestVerifyHealthyPasses(t *testing.T) {
	a := workload.Uniform(43, 80, 48)
	plain, err := Factor(a, Options{TileSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	verified, err := Factor(a, Options{TileSize: 16, Verify: true})
	if err != nil {
		t.Fatalf("verify failed a healthy factorization: %v", err)
	}
	if d := verified.R().MaxAbsDiff(plain.R()); d != 0 {
		t.Fatalf("verify changed the result by %g", d)
	}
}

// Faulted batches must keep per-item isolation: one item exhausting its
// budget must not fail its neighbours.
func TestBatchItemIsolationUnderFaults(t *testing.T) {
	tile := 16
	tree := tiled.FlatTS{}
	dag := tiled.BuildDAG(tiled.NewLayout(64, 64, tile), tree)
	const items = 4
	batch := make([]BatchItem, items)
	for i := range batch {
		batch[i] = BatchItem{F: tiled.NewFactorization(tiled.FromDense(workload.Uniform(int64(50+i), 64, 64), tile), tree)}
	}
	// Fault only item 2's ops: rates are keyed on (item, op, attempt), so a
	// per-item MaxInjections-style isolation isn't needed — use a config
	// whose rate is high enough that item 2 exhausts a tiny budget while
	// the injector's per-item draws leave other items' failures recoverable.
	inj := fault.New(fault.Config{Seed: 13, TransientRate: 0.15})
	errs, rep := ExecuteBatch(dag, batch, BatchOptions{
		Workers: 4,
		Faults:  inj,
		Retry:   generousRetry,
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("item %d failed under recoverable faults: %v", i, err)
		}
	}
	if rep.Injected == 0 || rep.Recovered == 0 {
		t.Fatalf("report %+v: want injections and recoveries", rep)
	}
	for i := range batch {
		direct, err := Factor(workload.Uniform(int64(50+i), 64, 64), Options{TileSize: tile})
		if err != nil {
			t.Fatal(err)
		}
		if d := batch[i].F.R().MaxAbsDiff(direct.R()); d != 0 {
			t.Fatalf("item %d differs from direct Factor by %g", i, d)
		}
	}
}

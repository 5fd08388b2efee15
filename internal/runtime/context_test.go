package runtime

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/matrix"
	"repro/internal/metrics"
	"repro/internal/tiled"
	"repro/internal/workload"
)

func TestFactorContextBackgroundMatchesFactor(t *testing.T) {
	a := workload.Uniform(3, 96, 64)
	want, err := Factor(a, Options{TileSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	got, err := FactorContext(context.Background(), a, Options{TileSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	if d := got.R().MaxAbsDiff(want.R()); d != 0 {
		t.Fatalf("FactorContext R differs from Factor by %g", d)
	}
}

func TestFactorContextNilContext(t *testing.T) {
	a := workload.Uniform(4, 48, 48)
	f, err := FactorContext(nil, a, Options{TileSize: 16}) //nolint:staticcheck // nil ctx is part of the contract
	if err != nil || f == nil {
		t.Fatalf("FactorContext(nil) = %v, %v", f, err)
	}
}

func TestFactorContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a := workload.Uniform(5, 128, 128)
	f, err := FactorContext(ctx, a, Options{TileSize: 16})
	if f != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("want wrapped context.Canceled, got f=%v err=%v", f, err)
	}
}

func TestFactorContextDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond) // ensure the deadline has passed
	a := workload.Uniform(6, 128, 128)
	f, err := FactorContext(ctx, a, Options{TileSize: 16})
	if f != nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want wrapped context.DeadlineExceeded, got f=%v err=%v", f, err)
	}
}

func TestFactorContextCancelMidFlight(t *testing.T) {
	// Cancel concurrently with execution; whatever the race outcome, the
	// call must either complete fully or report the cancellation — and it
	// must return promptly either way.
	a := workload.Uniform(7, 256, 256)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(500 * time.Microsecond)
		cancel()
	}()
	f, err := FactorContext(ctx, a, Options{TileSize: 16, Workers: 2})
	if err == nil {
		if d := f.Residual(a); d > 1e-12 {
			t.Fatalf("completed factorization has residual %g", d)
		}
	} else if !errors.Is(err, context.Canceled) {
		t.Fatalf("unexpected error: %v", err)
	} else if f != nil {
		t.Fatal("cancelled factorization must not be returned")
	}
}

func TestFactorContextPriorityCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a := workload.Uniform(8, 96, 96)
	_, err := FactorContext(ctx, a, Options{TileSize: 16, Priority: CriticalPath})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("priority path: want context.Canceled, got %v", err)
	}
}

func TestExecuteBatchMatchesDirectFactor(t *testing.T) {
	const items = 5
	tile := 16
	tree := tiled.FlatTS{}
	l := tiled.NewLayout(64, 48, tile)
	dag := tiled.BuildDAG(l, tree)

	batch := make([]BatchItem, items)
	inputs := make([]*workloadMatrix, items)
	for i := range batch {
		a := workload.Uniform(int64(100+i), 64, 48)
		inputs[i] = &workloadMatrix{a: a}
		batch[i] = BatchItem{F: tiled.NewFactorization(tiled.FromDense(a, tile), tree)}
	}
	reg := metrics.NewRegistry()
	errs, _ := ExecuteBatch(dag, batch, BatchOptions{Workers: 4, Metrics: reg})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("item %d: %v", i, err)
		}
		direct, err := Factor(inputs[i].a, Options{TileSize: tile})
		if err != nil {
			t.Fatal(err)
		}
		if d := batch[i].F.R().MaxAbsDiff(direct.R()); d != 0 {
			t.Fatalf("item %d: batched R differs from direct Factor by %g", i, d)
		}
	}
	snap := reg.Snapshot()
	if got, want := snap.SumCounters(MetricOps+"{"), int64(items*len(dag.Ops)); got != want {
		t.Fatalf("batch op count = %d, want %d", got, want)
	}
}

func TestExecuteBatchPerItemCancellation(t *testing.T) {
	tile := 16
	tree := tiled.FlatTS{}
	l := tiled.NewLayout(64, 64, tile)
	dag := tiled.BuildDAG(l, tree)

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	mk := func(seed int64) *tiled.Factorization {
		return tiled.NewFactorization(tiled.FromDense(workload.Uniform(seed, 64, 64), tile), tree)
	}
	aLive := workload.Uniform(201, 64, 64)
	batch := []BatchItem{
		{Ctx: cancelled, F: mk(200)},
		{Ctx: context.Background(), F: tiled.NewFactorization(tiled.FromDense(aLive, tile), tree)},
		{F: mk(202)}, // nil ctx: never cancelled
	}
	errs, _ := ExecuteBatch(dag, batch, BatchOptions{Workers: 2})
	if !errors.Is(errs[0], context.Canceled) {
		t.Fatalf("item 0: want context.Canceled, got %v", errs[0])
	}
	if errs[1] != nil || errs[2] != nil {
		t.Fatalf("live items must succeed: %v, %v", errs[1], errs[2])
	}
	direct, err := Factor(aLive, Options{TileSize: tile})
	if err != nil {
		t.Fatal(err)
	}
	if d := batch[1].F.R().MaxAbsDiff(direct.R()); d != 0 {
		t.Fatalf("live item perturbed by cancelled neighbour: diff %g", d)
	}
}

func TestExecuteBatchEmpty(t *testing.T) {
	l := tiled.NewLayout(32, 32, 16)
	dag := tiled.BuildDAG(l, tiled.FlatTS{})
	if errs, _ := ExecuteBatch(dag, nil, BatchOptions{Workers: 4}); len(errs) != 0 {
		t.Fatalf("empty batch: %v", errs)
	}
}

// workloadMatrix keeps the original dense input alongside its batch item.
type workloadMatrix struct{ a *matrix.Matrix }

package core

import (
	"testing"

	"repro/internal/device"
	"repro/internal/sched"
	"repro/internal/tiled"
	"repro/internal/workload"
)

const tol = 1e-10

func planFor(pl *device.Platform, m, n, b int) *sched.Plan {
	return sched.PlanWith(pl, sched.NewProblem(m, n, b), 1, []int{1, 2, 3}, sched.DistGuide)
}

func TestHeteroFactorCorrect(t *testing.T) {
	pl := device.PaperPlatform()
	a := workload.Uniform(1, 96, 96)
	plan := planFor(pl, 96, 96, 16)
	f, stats, err := Factor(a, Config{Platform: pl, Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	if res := f.Residual(a); res > tol {
		t.Fatalf("residual %g", res)
	}
	total := 0
	for _, c := range stats.OpsPerDevice {
		total += c
	}
	if total != len(f.Journal) {
		t.Fatalf("placed %d ops, journal has %d", total, len(f.Journal))
	}
}

func TestHeteroFactorMatchesSequential(t *testing.T) {
	pl := device.PaperPlatform()
	a := workload.Normal(2, 80, 64)
	plan := planFor(pl, 80, 64, 16)
	f, _, err := Factor(a, Config{Platform: pl, Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	seq := tiled.Factor(a, 16, tiled.FlatTS{})
	if !f.A.ToDense().Equal(seq.A.ToDense()) {
		t.Fatal("heterogeneous execution must be bitwise identical to sequential")
	}
}

func TestPanelOpsStayOnMain(t *testing.T) {
	pl := device.PaperPlatform()
	plan := planFor(pl, 96, 96, 16)
	l := tiled.NewLayout(96, 96, 16)
	for _, op := range tiled.BuildOps(l, tiled.FlatTS{}) {
		dev := placement(plan, op)
		if !op.Kind.IsUpdate() && dev != 0 {
			t.Fatalf("%v placed on device %d, want main", op, dev)
		}
		if op.Kind.IsUpdate() {
			want := plan.ColumnOwner[op.Col]
			if dev != want {
				t.Fatalf("%v placed on %d, want column owner %d", op, dev, want)
			}
		}
	}
}

func TestTransferAccounting(t *testing.T) {
	pl := device.PaperPlatform()
	a := workload.Uniform(3, 96, 96)

	// Single participant: everything is resident on one device — no traffic.
	solo := sched.PlanWith(pl, sched.NewProblem(96, 96, 16), 1, []int{1}, sched.DistGuide)
	_, st, err := Factor(a, Config{Platform: pl, Plan: solo})
	if err != nil {
		t.Fatal(err)
	}
	if st.Transfers != 0 || st.TransferBytes != 0 {
		t.Fatalf("single device moved %d tiles", st.Transfers)
	}

	// Three participants: the panel/update split forces PCIe traffic.
	multi := planFor(pl, 96, 96, 16)
	_, st, err = Factor(a, Config{Platform: pl, Plan: multi})
	if err != nil {
		t.Fatal(err)
	}
	if st.Transfers == 0 {
		t.Fatal("multi-device run reported no transfers")
	}
	if st.TransferBytes != int64(st.Transfers)*16*16*int64(pl.ElemBytes) {
		t.Fatalf("bytes %d inconsistent with %d transfers", st.TransferBytes, st.Transfers)
	}
}

func TestOpsPerStepMatchesTable1Totals(t *testing.T) {
	pl := device.PaperPlatform()
	a := workload.Uniform(4, 96, 96) // 6×6 tiles
	_, st, err := Factor(a, Config{Platform: pl, Plan: planFor(pl, 96, 96, 16)})
	if err != nil {
		t.Fatal(err)
	}
	// Flat tree per panel k (m = 6−k): T ops 1, E ops m−1, UT ops n−1,
	// UE ops (m−1)(n−1).
	wantT, wantE, wantUT, wantUE := 0, 0, 0, 0
	for k := 0; k < 6; k++ {
		m := 6 - k
		wantT++
		wantE += m - 1
		wantUT += m - 1 // square: n−1 == m−1
		wantUE += (m - 1) * (m - 1)
	}
	if st.OpsPerStep["T"] != wantT || st.OpsPerStep["E"] != wantE ||
		st.OpsPerStep["UT"] != wantUT || st.OpsPerStep["UE"] != wantUE {
		t.Fatalf("step counts %v, want T=%d E=%d UT=%d UE=%d",
			st.OpsPerStep, wantT, wantE, wantUT, wantUE)
	}
}

func TestHeteroFactorWithTrees(t *testing.T) {
	pl := device.PaperPlatform()
	a := workload.Uniform(5, 80, 80)
	plan := planFor(pl, 80, 80, 16)
	for _, name := range []string{"flat-tt", "binary-tt", "greedy-tt"} {
		tree, err := tiled.TreeByName(name)
		if err != nil {
			t.Fatal(err)
		}
		f, _, err := Factor(a, Config{Platform: pl, Plan: plan, Tree: tree})
		if err != nil {
			t.Fatal(err)
		}
		if res := f.Residual(a); res > tol {
			t.Fatalf("%s: residual %g", name, res)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	pl := device.PaperPlatform()
	a := workload.Uniform(6, 32, 32)
	if _, _, err := Factor(a, Config{}); err == nil {
		t.Fatal("missing platform/plan must error")
	}
	wrong := planFor(pl, 64, 64, 16) // grid mismatch
	if _, _, err := Factor(a, Config{Platform: pl, Plan: wrong}); err == nil {
		t.Fatal("grid mismatch must error")
	}
}

func TestWorkStealingCorrectAndBalanced(t *testing.T) {
	pl := device.PaperPlatform()
	a := workload.Uniform(8, 96, 96)
	plan := planFor(pl, 96, 96, 16)
	f, st, err := Factor(a, Config{Platform: pl, Plan: plan, WorkStealing: true})
	if err != nil {
		t.Fatal(err)
	}
	if res := f.Residual(a); res > tol {
		t.Fatalf("residual %g", res)
	}
	// Update ops are spread evenly (round-robin): counts within one of each
	// other once the main's panel ops are subtracted.
	_, stStatic, err := Factor(a, Config{Platform: pl, Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	// Stealing changes placement, hence traffic; both verified numerically.
	if st.Transfers == stStatic.Transfers {
		t.Log("stealing produced identical traffic (possible but unusual)")
	}
	min, max := st.OpsPerDevice[1], st.OpsPerDevice[1]
	for _, c := range st.OpsPerDevice[1:] {
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	if max-min > 1 {
		t.Fatalf("stolen update ops unbalanced: %v", st.OpsPerDevice)
	}
}

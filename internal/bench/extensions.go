package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/tiled"
	"repro/internal/tune"
	"repro/internal/workload"
)

// Extension exhibits: experiments beyond the paper's evaluation, covering
// its stated future work (other accelerators, multi-node operation) and the
// design alternatives DESIGN.md calls out for ablation.

// ExtPipeline compares the paper's bulk-synchronous per-iteration execution
// against a dynamic-DAG pipelined runtime (the scheduling style of the
// paper's related work [11], Agullo et al.), on the same platform and plan.
func ExtPipeline() Table {
	pl := device.PaperPlatform()
	t := Table{
		ID:     "ext-pipeline",
		Title:  "Extension: bulk-synchronous (paper) vs pipelined DAG runtime (s)",
		Header: []string{"Matrix size", "Bulk-sync", "Pipelined", "Speedup"},
		Notes:  "Pipelining lets the next panel start after its own column's updates, hiding panel time.",
	}
	parts := []int{1, 2, 3}
	for _, s := range largeSizes() {
		plan := sched.PlanWith(pl, prob(s), 1, parts, sched.DistGuide)
		bulk := sim.Run(sim.Config{Platform: pl, Plan: plan}).Seconds()
		pipe := sim.Run(sim.Config{Platform: pl, Plan: plan, Pipelined: true}).Seconds()
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", s),
			fmt.Sprintf("%.2f", bulk), fmt.Sprintf("%.2f", pipe),
			fmt.Sprintf("%.2fx", bulk/pipe),
		})
	}
	return t
}

// ExtPhi runs the full optimization pipeline on the paper platform extended
// with a Xeon Phi — the "other computing devices" future work. It reports
// the scheduling decisions and whether the extra accelerator pays off.
func ExtPhi() Table {
	base := device.PaperPlatform()
	phi := device.PhiPlatform()
	t := Table{
		ID:     "ext-phi",
		Title:  "Extension: platform with a Xeon Phi coprocessor (s)",
		Header: []string{"Matrix size", "Paper platform", "+XeonPhi", "main", "p(+phi)", "phi used"},
		Notes:  "Algorithms 2-4 rerun unchanged on the extended device set.",
	}
	for _, s := range []int{1600, 3200, 6400, 12800} {
		probm := prob(s)
		basePlan := sched.BuildPlan(base, probm)
		phiPlan := sched.BuildPlan(phi, probm)
		baseT := sim.Run(sim.Config{Platform: base, Plan: basePlan}).Seconds()
		phiT := sim.Run(sim.Config{Platform: phi, Plan: phiPlan}).Seconds()
		used := "no"
		for _, idx := range phiPlan.Participants() {
			if phi.Devices[idx].Kind == "phi" {
				used = "yes"
			}
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", s),
			fmt.Sprintf("%.2f", baseT), fmt.Sprintf("%.2f", phiT),
			phi.Devices[phiPlan.Main].Name,
			fmt.Sprintf("%d", phiPlan.P), used,
		})
	}
	return t
}

// ExtMultiNode extends the tradeoff of Algorithm 3 across node boundaries:
// a second identical node adds update throughput but its broadcasts cross
// 10 GbE instead of PCIe, pushing the profitable crossover far out — the
// paper's "multi node environment" future work.
func ExtMultiNode() Table {
	one := device.MultiNodePlatform(1)
	two := device.MultiNodePlatform(2)
	t := Table{
		ID:     "ext-multinode",
		Title:  "Extension: one node vs two nodes over 10 GbE (s)",
		Header: []string{"Matrix size", "1 node (3 GPUs)", "2 nodes (6 GPUs)", "winner"},
		Notes:  "Inter-node broadcasts use the Network link; Eq. 11 generalizes per-pair.",
	}
	// Node 0 GPUs are devices 1..3; node 1 GPUs are 5..7.
	oneParts := []int{1, 2, 3}
	twoParts := []int{1, 2, 3, 5, 6, 7}
	for _, s := range []int{1600, 3200, 6400, 12800, 25600} {
		probm := prob(s)
		t1 := sim.Run(sim.Config{Platform: one,
			Plan: sched.PlanWith(one, probm, 1, oneParts, sched.DistGuide)}).Seconds()
		t2 := sim.Run(sim.Config{Platform: two,
			Plan: sched.PlanWith(two, probm, 1, twoParts, sched.DistGuide)}).Seconds()
		winner := "1 node"
		if t2 < t1 {
			winner = "2 nodes"
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", s), fmt.Sprintf("%.2f", t1), fmt.Sprintf("%.2f", t2), winner,
		})
	}
	return t
}

// ExtTrees compares elimination trees on the simulator's panel-bound
// tall-skinny regime, the design choice DESIGN.md calls out (the paper's
// reference [6] studies these orders in depth).
func ExtTrees() Table {
	t := Table{
		ID:     "ext-trees",
		Title:  "Extension: elimination-tree critical paths (ops) for tall-skinny panels",
		Header: []string{"Row tiles", "flat-ts", "flat-tt", "binary-tt", "greedy-tt"},
		Notes:  "Critical path of the operation DAG for an Mt x 1 tile column; see BenchmarkAblationTrees for wall-clock.",
	}
	t.Rows = append(t.Rows, treeRows()...)
	return t
}

// Extended returns the extension exhibits.
func Extended() []Table {
	return []Table{ExtPipeline(), ExtPhi(), ExtMultiNode(), ExtTrees(), ExtTileSize(),
		ExtPlacement(), ExtAdaptive(), ExtFig4Host(), ExtFidelity()}
}

func treeRows() [][]string {
	trees := []tiled.Tree{tiled.FlatTS{}, tiled.FlatTT{}, tiled.BinaryTT{}, tiled.GreedyTT{}}
	var rows [][]string
	for _, mt := range []int{4, 16, 64, 256} {
		row := []string{fmt.Sprintf("%d", mt)}
		for _, tr := range trees {
			l := tiled.NewLayout(mt*tileSize, tileSize, tileSize)
			row = append(row, fmt.Sprintf("%d", tiled.BuildDAG(l, tr).CriticalPathLen()))
		}
		rows = append(rows, row)
	}
	return rows
}

// ExtTileSize reruns the full pipeline across tile sizes — the auto-tuning
// dimension of Song et al. (the paper's related work [7]) that the paper
// trades for fixed-size tile-count balancing.
func ExtTileSize() Table {
	pl := device.PaperPlatform()
	t := Table{
		ID:     "ext-tilesize",
		Title:  "Extension: tile-size auto-tuning on the simulated platform",
		Header: []string{"Matrix size", "b=8", "b=16", "b=24", "b=32", "b=48", "b=64", "best b"},
		Notes:  "Simulated seconds per tile size; the paper fixes b=16. The cost model's bulk throughput is tile-size-invariant, so it under-penalizes small tiles relative to real GPU kernels — the host-runtime BenchmarkAblationTileSize shows the opposite pressure.",
	}
	for _, s := range []int{1600, 3200, 6400, 12800} {
		res, err := tune.TileSize(pl, s, s, nil)
		if err != nil {
			continue
		}
		cells := []string{fmt.Sprintf("%d", s)}
		for _, c := range res.All {
			cells = append(cells, fmt.Sprintf("%.2f", c.MakespanUS/1e6))
		}
		cells = append(cells, fmt.Sprintf("%d", res.Best.TileSize))
		t.Rows = append(t.Rows, cells)
	}
	return t
}

// ExtPlacement exercises the heterogeneous engine (internal/core) on a real
// factorization: for each distribution strategy it reports how the tile
// operations were placed and how many tiles crossed device boundaries —
// the real-arithmetic counterpart of the simulator's communication model.
func ExtPlacement() Table {
	pl := device.PaperPlatform()
	t := Table{
		ID:    "ext-placement",
		Title: "Extension: real-factorization op placement & PCIe traffic (256x256, b=16)",
		Header: []string{"Distribution", "main ops", "680#1 ops", "680#2 ops",
			"tiles moved", "KB moved", "residual ok"},
		Notes: "internal/core accounts placement on the schedule; the real kernels run on the host runtime.",
	}
	a := workload.Uniform(99, 256, 256)
	for _, dist := range []sched.Distribution{sched.DistGuide, sched.DistCores, sched.DistEven} {
		plan := sched.PlanWith(pl, sched.NewProblem(256, 256, 16), 1, []int{1, 2, 3}, dist)
		f, st, err := core.Factor(a, core.Config{Platform: pl, Plan: plan})
		if err != nil {
			continue
		}
		ok := "yes"
		if f.Residual(a) > 1e-10 {
			ok = "no"
		}
		t.Rows = append(t.Rows, []string{
			dist.String(),
			fmt.Sprintf("%d", st.OpsPerDevice[0]),
			fmt.Sprintf("%d", st.OpsPerDevice[1]),
			fmt.Sprintf("%d", st.OpsPerDevice[2]),
			fmt.Sprintf("%d", st.Transfers),
			fmt.Sprintf("%.0f", float64(st.TransferBytes)/1024),
			ok,
		})
	}
	return t
}

// ExtAdaptive compares the paper's static device-count decision against an
// adaptive scheduler that re-runs Algorithm 3 on the remaining problem
// every iteration and retires devices whose communication cost stops
// paying (charging the column migration when they go).
func ExtAdaptive() Table {
	pl := device.PaperPlatform()
	t := Table{
		ID:     "ext-adaptive",
		Title:  "Extension: static vs adaptive device count (ms)",
		Header: []string{"Matrix size", "Static 3G", "Adaptive", "Gain"},
		Notes:  "Adaptive mode retires GPUs as the trailing matrix shrinks past the Algorithm 3 crossovers.",
	}
	for _, s := range []int{960, 1280, 1600, 2560, 3200, 6400} {
		plan := sched.PlanWith(pl, prob(s), 1, []int{1, 2, 3}, sched.DistGuide)
		static := sim.Run(sim.Config{Platform: pl, Plan: plan}).MakespanUS / 1000
		adaptive := sim.Run(sim.Config{Platform: pl,
			Plan:     sched.PlanWith(pl, prob(s), 1, []int{1, 2, 3}, sched.DistGuide),
			Adaptive: true}).MakespanUS / 1000
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", s),
			fmt.Sprintf("%.2f", static), fmt.Sprintf("%.2f", adaptive),
			fmt.Sprintf("%+.1f%%", 100*(static-adaptive)/static),
		})
	}
	return t
}

// ExtFig4Host measures the real Go tile kernels the way the paper's Fig. 4
// measures CUDA kernels: single-tile wall time per step per tile size. The
// per-tile flop ordering differs from the paper's GPU measurements — on a
// serial core the pair-update TSMQR (4b³ flops) outweighs GEQRT ((4/3)b³),
// whereas the paper's GPUs hide the update flops behind tile-level
// parallelism. This exhibit documents that contrast with live numbers.
func ExtFig4Host() Table {
	t := Table{
		ID:     "ext-fig4host",
		Title:  "Extension: measured Go kernel times (µs per single tile)",
		Header: []string{"Tilesize", "GEQRT (T)", "TSQRT (E)", "UNMQR (UT)", "TSMQR (UE)"},
		Notes:  "Host-measured medians of 5; contrast with the calibrated GPU model of fig4.",
	}
	for _, b := range []int{4, 8, 16, 28} {
		t.Rows = append(t.Rows, measureKernelRow(b))
	}
	return t
}

// ExtFidelity cross-validates the two simulators: the phase-level model
// (bulk-synchronous, used for every paper exhibit) against the
// operation-level model (full DAG, list-scheduled slots). Agreement within
// a small factor — with the phase model consistently the pessimistic one —
// is evidence the reproduced shapes are not artifacts of either
// approximation.
func ExtFidelity() Table {
	pl := device.PaperPlatform()
	t := Table{
		ID:     "ext-fidelity",
		Title:  "Extension: phase-level vs operation-level simulator (ms)",
		Header: []string{"Matrix size", "GPUs", "Phase", "Op-level", "Ratio"},
		Notes:  "The bulk-synchronous phase model bounds the pipelined op-level model from above.",
	}
	for _, s := range []int{320, 640, 1280, 2560} {
		for _, p := range []int{1, 3} {
			plan := gpuPlan(pl, s, p)
			phase := sim.Run(sim.Config{Platform: pl, Plan: plan}).MakespanUS / 1000
			op := sim.RunOpLevel(sim.Config{Platform: pl, Plan: plan}, nil).MakespanUS / 1000
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", s), fmt.Sprintf("%d", p),
				fmt.Sprintf("%.2f", phase), fmt.Sprintf("%.2f", op),
				fmt.Sprintf("%.2f", phase/op),
			})
		}
	}
	return t
}

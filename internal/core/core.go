// Package core is the heterogeneous tiled-QR engine — the paper's system
// in executable form. It factors real matrices under a scheduling Plan
// (main-device selection, device count, guide-array distribution from
// internal/sched). Placement is accounted on the schedule: a walk of the
// operation order places every operation on the device the paper's rules
// assign it to and counts every tile that crosses a device boundary as
// PCIe traffic. The numerics run on the host runtime (internal/runtime),
// whose workers are host goroutines just as every device here would be.
//
// This engine is where the reproduction's two halves meet: the numerics
// are bit-identical to the sequential reference (the DAG fixes the
// floating-point reduction order), while the placement and communication
// volumes are exactly what the discrete-event simulator (internal/sim)
// prices — so the schedules the paper optimizes are exercised end-to-end
// against real arithmetic.
package core

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/matrix"
	"repro/internal/runtime"
	"repro/internal/sched"
	"repro/internal/tiled"
)

// PlacementStats reports where the work went and what crossed PCIe.
type PlacementStats struct {
	// OpsPerDevice counts the tile operations placed on each participant,
	// indexed like Plan.Order[:P].
	OpsPerDevice []int
	// OpsPerStep counts operations per paper step class (T, E, UT, UE).
	OpsPerStep map[string]int
	// Transfers is the number of tiles that moved between devices because
	// an operation consumed a tile last written on a different device.
	Transfers int
	// TransferBytes is the corresponding volume at the platform's element
	// width.
	TransferBytes int64
}

// Config configures a heterogeneous factorization.
type Config struct {
	Platform *device.Platform
	Plan     *sched.Plan
	// Tree selects the elimination order; nil uses the paper's flat TS.
	Tree tiled.Tree
	// WorkStealing lets idle devices execute ready update operations that
	// belong to other devices' columns — the dynamic tile-migration policy
	// of the paper's related work [11] (Agullo et al.), in contrast to the
	// paper's static guide-array placement. Stolen operations move their
	// tiles, which the transfer accounting charges.
	WorkStealing bool
}

// placement returns the participant position that must execute op,
// following the paper's rules: panel steps (T, E) run on the main
// computing device; update steps run on the owner of the column they
// modify. For TT trees the panel triangulations of non-diagonal rows are
// still panel work and stay on the main device.
func placement(plan *sched.Plan, op tiled.Op) int {
	if op.Kind.IsUpdate() {
		if op.Col < len(plan.ColumnOwner) {
			if o := plan.ColumnOwner[op.Col]; o >= 0 && o < plan.P {
				return o
			}
		}
	}
	return 0 // main computing device position
}

// Factor computes the tiled QR factorization of a under the plan's
// placement and returns the factorization with placement statistics.
// The input matrix is not modified.
func Factor(a *matrix.Matrix, cfg Config) (*tiled.Factorization, PlacementStats, error) {
	if cfg.Platform == nil || cfg.Plan == nil {
		return nil, PlacementStats{}, fmt.Errorf("core: platform and plan are required")
	}
	tree := cfg.Tree
	if tree == nil {
		tree = tiled.FlatTS{}
	}
	plan := cfg.Plan
	b := plan.Problem.B
	l := tiled.NewLayout(a.Rows, a.Cols, b)
	if l.Mt != plan.Problem.Mt || l.Nt != plan.Problem.Nt {
		return nil, PlacementStats{}, fmt.Errorf(
			"core: plan is for a %dx%d tile grid, matrix needs %dx%d",
			plan.Problem.Mt, plan.Problem.Nt, l.Mt, l.Nt)
	}
	stats := PlacementStats{
		OpsPerDevice: make([]int, plan.P),
		OpsPerStep:   map[string]int{},
	}
	// Tile residency for transfer accounting: the device that last wrote
	// each tile. Tiles start wherever their column lives (the manager
	// distributes columns up front, Section V).
	where := make(map[[2]int]int, l.Mt*l.Nt)
	for i := 0; i < l.Mt; i++ {
		for j := 0; j < l.Nt; j++ {
			owner := 0
			if j < len(plan.ColumnOwner) && plan.ColumnOwner[j] < plan.P {
				owner = plan.ColumnOwner[j]
			}
			where[[2]int{i, j}] = owner
		}
	}
	tileBytes := int64(b) * int64(b) * int64(cfg.Platform.ElemBytes)

	// Account transfers by walking the schedule order (the DAG's sequential
	// order is a valid execution; transfer volume is order-independent
	// because residency only changes at writes). Work stealing balances
	// update ops round-robin across participants instead of honouring
	// column ownership.
	steal := 0
	for _, op := range tiled.BuildOps(l, tree) {
		dev := placement(plan, op)
		if cfg.WorkStealing && op.Kind.IsUpdate() {
			dev = steal % plan.P
			steal++
		}
		for _, tl := range op.Tiles() {
			if where[tl] != dev {
				stats.Transfers++
				stats.TransferBytes += tileBytes
				where[tl] = dev
			}
		}
		stats.OpsPerDevice[dev]++
		stats.OpsPerStep[op.Kind.Step()]++
	}

	// Every device is host goroutines here, and the DAG fixes the
	// floating-point reduction order, so the numerics run on the host
	// runtime: the factor is the same whichever worker applies an op.
	f, err := runtime.Factor(a, runtime.Options{TileSize: b, Tree: tree})
	if err != nil {
		return nil, PlacementStats{}, err
	}
	return f, stats, nil
}

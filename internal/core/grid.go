package core

import (
	"context"

	"repro/internal/geom"
)

// Grid is the partition-and-prune baseline of §3: the space is divided
// into a regular K×K grid; for every cell a COUNT query is posted to both
// servers, empty cells are pruned, and the rest are joined on the device
// (splitting recursively when a cell does not fit in memory). It is
// oblivious to data distribution and never considers NLSJ.
type Grid struct {
	// K is the grid dimension; 0 means the default of 4.
	K int
}

// Name implements Algorithm.
func (g Grid) Name() string { return "grid" }

// Run implements Algorithm.
func (g Grid) Run(ctx context.Context, env *Env, spec Spec) (*Result, error) {
	k := g.K
	if k <= 0 {
		k = 4
	}
	x, err := newExec(ctx, env, spec, "grid")
	if err != nil {
		return nil, err
	}
	defer x.close()
	// Phase one observes: one R COUNT per cell, then one S COUNT per cell
	// R left non-empty, each a probe group — so batched, the K²(+) count
	// round trips become ⌈cells/BatchSize⌉ envelopes per side. Phase two
	// transfers: every surviving cell joins via doHBSJ.
	cells := x.window.Grid(k)
	nr, err := x.countAll(sideR, cells)
	if err != nil {
		return nil, err
	}
	var alive []geom.Rect
	var aliveR []int
	for i, n := range nr {
		if n == 0 {
			x.dec.pruned.Add(1)
		} else {
			alive = append(alive, cells[i])
			aliveR = append(aliveR, n)
		}
	}
	x.emit(PhaseObserve, "observe/grid-counts-r", x.window, 0, 0,
		float64(len(cells))*x.bytesModel().Taq(), "")
	if len(alive) == 0 {
		return x.finish(), nil
	}
	ns, err := x.countAll(sideS, alive)
	if err != nil {
		return nil, err
	}
	x.emit(PhaseObserve, "observe/grid-counts-s", x.window, 0, 0,
		float64(len(alive))*x.bytesModel().Taq(), "")
	err = x.fanoutSiblings(len(alive), func(i int) error {
		if ns[i] == 0 {
			x.dec.pruned.Add(1)
			return nil
		}
		return x.doHBSJ(alive[i], exact(aliveR[i]), exact(ns[i]), 1)
	})
	if err != nil {
		return nil, err
	}
	return x.finish(), nil
}

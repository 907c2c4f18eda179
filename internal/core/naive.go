package core

import (
	"context"

	"repro/internal/geom"
)

// Naive downloads both datasets entirely and joins them on the device —
// the strawman of §3. It respects the buffer by recursively splitting
// windows that do not fit, but performs no pruning: window queries are
// issued for every partition even when one side is empty, so the
// transfer cost is always at least the size of both datasets.
type Naive struct{}

// Name implements Algorithm.
func (Naive) Name() string { return "naive" }

// Run implements Algorithm.
func (Naive) Run(ctx context.Context, env *Env, spec Spec) (*Result, error) {
	x, err := newExec(ctx, env, spec, "naive")
	if err != nil {
		return nil, err
	}
	defer x.close()
	if err := naiveWindow(x, x.window, 0); err != nil {
		return nil, err
	}
	return x.finish(), nil
}

func naiveWindow(x *exec, w geom.Rect, depth int) error {
	// COUNT queries are needed for memory safety only (deciding whether
	// the downloads fit); they never prune. Both sides are always counted,
	// so the two queries overlap under a parallel environment.
	cr, cs, err := x.countBoth(w)
	if err != nil {
		return err
	}
	nr, ns := cr.n, cs.n
	if !x.env.Device.CanHold(nr+ns) && !x.splittable(w, depth) {
		// Degenerate window denser than the buffer: stream probes to stay
		// memory-honest instead of overflowing the device.
		outer := sideS
		if nr < ns {
			outer = sideR
		}
		return x.doNLSJ(w, outer, exact(nr), exact(ns))
	}
	if !x.env.Device.CanHold(nr+ns) && depth < maxDepth {
		x.dec.repart.Add(1)
		quads := w.Quadrants()
		return x.fanoutSiblings(4, func(i int) error {
			return naiveWindow(x, quads[i], depth+1)
		})
	}
	// Leaf: download both windows unconditionally (no emptiness pruning)
	// and join on the device.
	x.dec.hbsj.Add(1)
	return x.downloadJoin(w)
}

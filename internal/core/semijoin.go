package core

import (
	"context"
	"fmt"

	"repro/internal/bufpool"
	"repro/internal/geom"
)

// SemiJoin is the distributed indexed-join comparator of §5.3, adapted
// from Tan, Ooi and Abel [16]. It requires both servers to publish their
// R-tree metadata (server.PublishIndex) and works as follows, with the
// PDA acting as the mediator between the two non-cooperating servers:
//
//  1. Identify the smaller dataset from the advertised cardinalities;
//     call it the target and the other the source.
//  2. Download one level of the source's R-tree MBRs (the second-to-last
//     level, as in the paper's experiments) and upload them to the
//     target server.
//  3. The target returns its objects that fall inside (or within ε of)
//     any of those MBRs; the PDA relays them to the source server.
//  4. The source joins the uploaded objects against its dataset and
//     returns the qualifying pairs to the PDA.
//
// Every hop crosses the PDA's metered links, so the reported byte counts
// include both the downloads and the uploads, as in the paper.
type SemiJoin struct{}

// Name implements Algorithm.
func (SemiJoin) Name() string { return "semiJoin" }

// Run implements Algorithm.
func (SemiJoin) Run(ctx context.Context, env *Env, spec Spec) (*Result, error) {
	if spec.Kind == IcebergSemi {
		return nil, fmt.Errorf("core: semiJoin does not support iceberg semantics")
	}
	x, err := newExec(ctx, env, spec, "semiJoin")
	if err != nil {
		return nil, err
	}
	defer x.close()
	if err := semiJoinRun(x); err != nil {
		return nil, err
	}
	return x.finish(), nil
}

// semiJoinRun is the three-phase semi-join body, shared between the fixed
// SemiJoin algorithm and the online planner's OpSemiJoin delegation:
// level download, MBR match, upload join — each an observable transfer
// phase.
func semiJoinRun(x *exec) error {
	env, spec := x.env, x.spec
	infoR, infoS := env.infoR, env.infoS
	if infoR.TreeHeight == 0 || infoS.TreeHeight == 0 {
		return fmt.Errorf("core: semiJoin requires both servers to publish their index")
	}
	// SemiJoin moves whole-dataset structure, so it evaluates the join
	// over the entire data space; restricted query windows would need
	// object geometry the protocol does not relay.
	if !env.Window.Contains(infoR.Bounds.Union(infoS.Bounds)) {
		return fmt.Errorf("core: semiJoin supports whole-space windows only")
	}

	// The source contributes the MBR level; it is the *larger* dataset
	// (its objects never cross the link — only its MBRs and, at the end,
	// the result pairs). The smaller (target) dataset's objects are
	// relayed through the PDA.
	source, target := sideS, sideR
	sourceInfo := infoS
	if infoR.Count > infoS.Count {
		source, target = sideR, sideS
		sourceInfo = infoR
	}

	// Second-to-last level: one above the leaves, or the leaves when the
	// tree is a single level.
	level := 1
	if sourceInfo.TreeHeight < 2 {
		level = 0
	}
	mbrs, err := x.remote(source).LevelMBRs(x.ctx, level)
	if err != nil {
		return err
	}
	x.emit(PhaseTransfer, "transfer/semijoin-mbrs", x.window, 0, 0, 0, "level MBRs downloaded")

	// Relay the MBRs to the target: the upload is metered as part of the
	// MBR-MATCH request, whose response is the qualifying target objects.
	targetObjs, err := x.remote(target).MBRMatch(x.ctx, mbrs, spec.Eps)
	if err != nil {
		return err
	}
	x.emit(PhaseTransfer, "transfer/semijoin-match", x.window, 0, 0, 0, "MBR match relayed")

	// Relay the qualifying objects to the source for the final join.
	pairs, err := x.remote(source).UploadJoin(x.ctx, targetObjs, spec.Eps)
	bufpool.Objects.Put(targetObjs)
	if err != nil {
		return err
	}
	x.emit(PhaseTransfer, "transfer/semijoin-upload", x.window, 0, 0, 0, "upload join done")

	// UploadJoin returns pairs with the uploaded (target) ID first;
	// normalize so RID is always the R-side object.
	norm := make([]geom.Pair, 0, len(pairs))
	for _, p := range pairs {
		if target == sideR {
			norm = append(norm, geom.Pair{RID: p.RID, SID: p.SID})
		} else {
			norm = append(norm, geom.Pair{RID: p.SID, SID: p.RID})
		}
	}

	// No R geometry to hand over: the semi-join never serves iceberg runs.
	x.addPairs(norm, nil)
	return nil
}

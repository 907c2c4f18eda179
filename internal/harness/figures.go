package harness

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
)

// spec returns the distance-join spec used by the synthetic experiments.
func (cfg Config) spec() core.Spec {
	return core.Spec{Kind: core.Distance, Eps: cfg.Eps}
}

// Fig6a reproduces Figure 6(a): total bytes of UpJoin across cluster
// counts for α ∈ {0.15, 0.20, 0.25, 0.30}.
func Fig6a(cfg Config) (*Table, error) {
	t := &Table{ID: "fig6a", Title: "Parameter α for UpJoin", XName: "clusters"}
	alphas := []float64{0.15, 0.20, 0.25, 0.30}
	var xs []string
	for _, k := range Clusters {
		xs = append(xs, fmt.Sprint(k))
	}
	for _, alpha := range alphas {
		alg := core.UpJoin{Alpha: alpha}
		for _, k := range Clusters {
			k := k
			cell, err := averageOver(cfg, func(run int) (core.Stats, int, error) {
				robjs, sobjs := synthPair(cfg, k, run)
				return runOnce(alg, cfg.fleet(robjs, sobjs, int64(run)), cfg.spec())
			})
			if err != nil {
				return nil, err
			}
			cell.Algorithm = fmt.Sprintf("α=%.2f", alpha)
			cell.X = fmt.Sprint(k)
			t.Cells = append(t.Cells, cell)
		}
	}
	sortCells(t.Cells, xs)
	return t, nil
}

// Fig6b reproduces Figure 6(b): total bytes of SrJoin across cluster
// counts for ρ ∈ {30%, 50%, 100%, 200%, 350%} of the average density.
func Fig6b(cfg Config) (*Table, error) {
	t := &Table{ID: "fig6b", Title: "Parameter ρ for SrJoin", XName: "clusters"}
	rhos := []float64{0.30, 0.50, 1.00, 2.00, 3.50}
	var xs []string
	for _, k := range Clusters {
		xs = append(xs, fmt.Sprint(k))
	}
	for _, rho := range rhos {
		alg := core.SrJoin{Rho: rho}
		for _, k := range Clusters {
			k := k
			cell, err := averageOver(cfg, func(run int) (core.Stats, int, error) {
				robjs, sobjs := synthPair(cfg, k, run)
				return runOnce(alg, cfg.fleet(robjs, sobjs, int64(run)), cfg.spec())
			})
			if err != nil {
				return nil, err
			}
			cell.Algorithm = fmt.Sprintf("ρ=%.0f%%", rho*100)
			cell.X = fmt.Sprint(k)
			t.Cells = append(t.Cells, cell)
		}
	}
	sortCells(t.Cells, xs)
	return t, nil
}

// threeWay runs srJoin/upJoin/mobiJoin across cluster counts with the
// given buffer — the shape of Figures 7(a) and 7(b).
func threeWay(cfg Config, id, title string) (*Table, error) {
	t := &Table{ID: id, Title: title, XName: "clusters"}
	algs := []core.Algorithm{core.SrJoin{}, core.UpJoin{}, core.MobiJoin{}}
	var xs []string
	for _, k := range Clusters {
		xs = append(xs, fmt.Sprint(k))
	}
	for _, alg := range algs {
		for _, k := range Clusters {
			k := k
			cell, err := averageOver(cfg, func(run int) (core.Stats, int, error) {
				robjs, sobjs := synthPair(cfg, k, run)
				return runOnce(alg, cfg.fleet(robjs, sobjs, int64(run)), cfg.spec())
			})
			if err != nil {
				return nil, err
			}
			cell.Algorithm = alg.Name()
			cell.X = fmt.Sprint(k)
			t.Cells = append(t.Cells, cell)
		}
	}
	sortCells(t.Cells, xs)
	return t, nil
}

// Fig7a reproduces Figure 7(a): the three algorithms with a 100-object
// buffer.
func Fig7a(cfg Config) (*Table, error) {
	cfg.Buffer = 100
	return threeWay(cfg, "fig7a", "srJoin vs upJoin vs mobiJoin, buffer=100")
}

// Fig7b reproduces Figure 7(b): the three algorithms with an 800-object
// buffer.
func Fig7b(cfg Config) (*Table, error) {
	cfg.Buffer = 800
	return threeWay(cfg, "fig7b", "srJoin vs upJoin vs mobiJoin, buffer=800")
}

// realDataEps is the distance threshold of the real-data experiments:
// a third of the synthetic default, because ε-range probes against the
// dense 35K-segment railway return ~2·ε/segmentLength segments each, and
// the paper's "hotels near railways" queries use city-scale radii that
// match only a handful of segments.
func realDataEps(cfg Config) float64 {
	return dataset.World.Width() * 0.0025
}

// railway returns the shared large dataset for the real-data experiments
// (~35K segments; cached across calls because generation is costly).
var railwayCache = map[int64][]geom.Object{}

func railwayData(seed int64) []geom.Object {
	if objs, ok := railwayCache[seed]; ok {
		return objs
	}
	objs := dataset.Railway(dataset.DefaultRailway(), seed)
	railwayCache[seed] = objs
	return objs
}

// Fig8a reproduces Figure 8(a): the bucket versions of the three
// algorithms joining the railway dataset (as R) with a 1000-point
// synthetic dataset (as S), varying the synthetic skew.
func Fig8a(cfg Config) (*Table, error) {
	cfg.Bucket = true
	cfg.Eps = realDataEps(cfg)
	t := &Table{ID: "fig8a", Title: "Real data: srJoin/upJoin vs mobiJoin (bucket versions)", XName: "clusters"}
	algs := []core.Algorithm{core.SrJoin{}, core.UpJoin{}, core.MobiJoin{}}
	rail := railwayData(cfg.BaseSeed)
	var xs []string
	for _, k := range Clusters {
		xs = append(xs, fmt.Sprint(k))
	}
	for _, alg := range algs {
		for _, k := range Clusters {
			k := k
			cell, err := averageOver(cfg, func(run int) (core.Stats, int, error) {
				_, sobjs := synthPair(cfg, k, run)
				return runOnce(alg, cfg.fleet(rail, sobjs, int64(run)), cfg.spec())
			})
			if err != nil {
				return nil, err
			}
			cell.Algorithm = alg.Name()
			cell.X = fmt.Sprint(k)
			t.Cells = append(t.Cells, cell)
		}
	}
	sortCells(t.Cells, xs)
	return t, nil
}

// Fig8b reproduces Figure 8(b): bucket upJoin and srJoin against the
// index-publishing SemiJoin on the railway ⋈ synthetic workload.
func Fig8b(cfg Config) (*Table, error) {
	cfg.Bucket = true
	cfg.Eps = realDataEps(cfg)
	t := &Table{ID: "fig8b", Title: "Real data: upJoin/srJoin vs semiJoin", XName: "clusters"}
	algs := []core.Algorithm{core.UpJoin{}, core.SrJoin{}, core.SemiJoin{}}
	rail := railwayData(cfg.BaseSeed)
	var xs []string
	for _, k := range Clusters {
		xs = append(xs, fmt.Sprint(k))
	}
	for _, alg := range algs {
		for _, k := range Clusters {
			k := k
			cell, err := averageOver(cfg, func(run int) (core.Stats, int, error) {
				_, sobjs := synthPair(cfg, k, run)
				fc := cfg.fleet(rail, sobjs, int64(run))
				fc.PublishIndexes = true
				return runOnce(alg, fc, cfg.spec())
			})
			if err != nil {
				return nil, err
			}
			cell.Algorithm = alg.Name()
			cell.X = fmt.Sprint(k)
			t.Cells = append(t.Cells, cell)
		}
	}
	sortCells(t.Cells, xs)
	return t, nil
}

// All runs every figure; the map keys are the experiment ids of
// DESIGN.md §6.
var All = map[string]func(Config) (*Table, error){
	"6a": Fig6a,
	"6b": Fig6b,
	"7a": Fig7a,
	"7b": Fig7b,
	"8a": Fig8a,
	"8b": Fig8b,
}

// Package harness defines and runs the paper's experiments: for every
// figure of the evaluation section (§5) it builds the workload, executes
// the competing algorithms over fresh in-process servers, averages the
// metered byte counts over several seeded runs, and renders the series
// the paper plots. It also replays the declarative chaos scenarios
// (chaos.go). Neither assembles a stack: Config.fleet and Scenario.fleet
// map their inputs onto a fleet.Config and fleet.Serve builds it.
package harness

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fleet"
	"repro/internal/geom"
)

// Clusters is the x-axis of all synthetic experiments (paper Figs. 6-8).
var Clusters = []int{1, 2, 4, 8, 16, 128}

// Config controls one experiment run.
type Config struct {
	// Runs is the number of seeded repetitions averaged per point; the
	// paper uses 10.
	Runs int
	// BaseSeed offsets the dataset seeds, for sensitivity checks.
	BaseSeed int64
	// Points is the synthetic dataset cardinality (paper: 1000).
	Points int
	// Sigma is the Gaussian cluster spread.
	Sigma float64
	// Eps is the distance-join threshold.
	Eps float64
	// Buffer is the device capacity in objects.
	Buffer int
	// Bucket enables bucket query submission.
	Bucket bool
}

// Defaults mirror §5: 1000-point datasets, buffer 800 (40% of total),
// averaged over 10 runs. Sigma and Eps are our calibration (DESIGN.md
// §6): σ = 2.5% of the world side keeps k=1 clusters compact while
// k=128 approaches uniformity; ε = 0.75% of the side yields non-trivial
// result sets without the ε-expansion dominating partition cells.
func Defaults() Config {
	return Config{
		Runs:     10,
		BaseSeed: 1,
		Points:   1000,
		Sigma:    dataset.World.Width() * 0.025,
		Eps:      dataset.World.Width() * 0.0075,
		Buffer:   800,
	}
}

// Cell is one measured data point.
type Cell struct {
	Algorithm string
	X         string  // x-axis label (cluster count, α value, ...)
	Bytes     float64 // mean total wire bytes
	Queries   float64 // mean query count
	Pairs     float64 // mean result cardinality (sanity)
}

// Table is a named collection of cells, one experiment's output.
type Table struct {
	ID    string // e.g. "fig7a"
	Title string
	XName string
	Cells []Cell
}

// Series returns the ordered distinct series names (algorithms).
func (t *Table) Series() []string {
	seen := map[string]bool{}
	var out []string
	for _, c := range t.Cells {
		if !seen[c.Algorithm] {
			seen[c.Algorithm] = true
			out = append(out, c.Algorithm)
		}
	}
	return out
}

// XValues returns the ordered distinct x labels.
func (t *Table) XValues() []string {
	seen := map[string]bool{}
	var out []string
	for _, c := range t.Cells {
		if !seen[c.X] {
			seen[c.X] = true
			out = append(out, c.X)
		}
	}
	return out
}

// Get returns the cell for (algorithm, x), if present.
func (t *Table) Get(alg, x string) (Cell, bool) {
	for _, c := range t.Cells {
		if c.Algorithm == alg && c.X == x {
			return c, true
		}
	}
	return Cell{}, false
}

// Render writes the table as fixed-width text, one row per x value and
// one column per algorithm — the same layout as the paper's plots.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "%s — %s (mean total bytes)\n", strings.ToUpper(t.ID), t.Title)
	series := t.Series()
	fmt.Fprintf(w, "%-10s", t.XName)
	for _, s := range series {
		fmt.Fprintf(w, "%14s", s)
	}
	fmt.Fprintln(w)
	for _, x := range t.XValues() {
		fmt.Fprintf(w, "%-10s", x)
		for _, s := range series {
			if c, ok := t.Get(s, x); ok {
				fmt.Fprintf(w, "%14.0f", c.Bytes)
			} else {
				fmt.Fprintf(w, "%14s", "-")
			}
		}
		fmt.Fprintln(w)
	}
}

// fleet is the experiment as the one builder takes it: the paper's
// topology (one server per relation, WiFi link, unit tariffs) over the
// given datasets, joined across the whole data space.
func (cfg Config) fleet(robjs, sobjs []geom.Object, seed int64) fleet.Config {
	return fleet.Config{
		R: robjs, S: sobjs, Buffer: cfg.Buffer, Bucket: cfg.Bucket,
		Window: dataset.World, Seed: seed,
	}
}

// runOnce executes one algorithm over freshly served datasets and returns
// its stats and result size, counting the result rather than listing it.
func runOnce(alg core.Algorithm, fc fleet.Config, spec core.Spec) (core.Stats, int, error) {
	f, err := fleet.Serve(fc, nil)
	if err != nil {
		return core.Stats{}, 0, err
	}
	defer f.Close()
	spec.CountOnly = true
	res, err := alg.Run(context.Background(), f.NewEnv(f.R, f.S), spec)
	if err != nil {
		return core.Stats{}, 0, fmt.Errorf("%s: %w", alg.Name(), err)
	}
	return res.Stats, res.Count, nil
}

// synthPair generates the run's two synthetic datasets with independent
// cluster centers, as in §5 ("clustered around k randomly selected
// centers").
func synthPair(cfg Config, k int, run int) (robjs, sobjs []geom.Object) {
	seedR := cfg.BaseSeed + int64(run)*1000 + int64(k)*2
	seedS := seedR + 1
	robjs = dataset.GaussianClusters(cfg.Points, k, cfg.Sigma, dataset.World, seedR)
	sobjs = dataset.GaussianClusters(cfg.Points, k, cfg.Sigma, dataset.World, seedS)
	return robjs, sobjs
}

// averageOver runs f Runs times and returns mean stats/pairs.
func averageOver(cfg Config, f func(run int) (core.Stats, int, error)) (Cell, error) {
	var bytes, queries, pairs float64
	for run := 0; run < cfg.Runs; run++ {
		st, n, err := f(run)
		if err != nil {
			return Cell{}, err
		}
		bytes += float64(st.TotalBytes())
		queries += float64(st.TotalQueries())
		pairs += float64(n)
	}
	r := float64(cfg.Runs)
	return Cell{Bytes: bytes / r, Queries: queries / r, Pairs: pairs / r}, nil
}

// sortCells orders cells by series then x for stable output.
func sortCells(cells []Cell, xs []string) {
	rank := map[string]int{}
	for i, x := range xs {
		rank[x] = i
	}
	sort.SliceStable(cells, func(i, j int) bool {
		if cells[i].Algorithm != cells[j].Algorithm {
			return cells[i].Algorithm < cells[j].Algorithm
		}
		return rank[cells[i].X] < rank[cells[j].X]
	})
}

package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
)

// header records what the numbers below it were measured on.
type header struct {
	Nproc         int     `json:"nproc"`
	Gomaxprocs    int     `json:"gomaxprocs"`
	GoVersion     string  `json:"go_version"`
	Commit        string  `json:"commit"`
	Seed          int64   `json:"seed"`
	Reps          int     `json:"reps"`
	WarmupSeconds float64 `json:"warmup_seconds"`
	RunSeconds    float64 `json:"run_seconds"`
	TraceSeconds  float64 `json:"trace_seconds"`
	SetupsPerRun  int     `json:"setups_per_run"`
	LoadModel     string  `json:"load_model"`
	Network       string  `json:"network"`
}

// workloadReport is everything measured on one workload.
type workloadReport struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// EndToEnd holds, per metric, one value per end-to-end run.
	EndToEnd map[string][]float64 `json:"end_to_end"`
	// Samples is, per run, the number of joins behind the latency
	// percentiles.
	Samples   []int                  `json:"samples"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	FirstErr  string                 `json:"first_error,omitempty"`
	PerLayer  map[string]metricValue `json:"per_layer,omitempty"`
}

func (w *workloadReport) addRun(res e2eResult) {
	for name, v := range res.metrics {
		w.EndToEnd[name] = append(w.EndToEnd[name], v)
	}
	w.Samples = append(w.Samples, res.samples)
	w.Attempted += res.attempted
	w.Failed += res.failed
	if res.err != nil && w.FirstErr == "" {
		w.FirstErr = res.err.Error()
	}
}

func (w *workloadReport) failedShare() float64 {
	if w.Attempted == 0 {
		return 0
	}
	return float64(w.Failed) / float64(w.Attempted)
}

// report is the full result of one invocation.
type report struct {
	Header    header            `json:"header"`
	Workloads []*workloadReport `json:"workloads"`
}

// print writes every metric by name and unit.
func (r report) print(w io.Writer) {
	h := r.Header
	fmt.Fprintf(w, "# nproc=%d GOMAXPROCS=%d %s commit=%s seed=%d reps=%d warm-up=%gs run=%gs traced=%gs set-ups/run=%d\n",
		h.Nproc, h.Gomaxprocs, h.GoVersion, h.Commit, h.Seed, h.Reps, h.WarmupSeconds, h.RunSeconds, h.TraceSeconds, h.SetupsPerRun)
	fmt.Fprintf(w, "# %s\n# %s\n", h.LoadModel, h.Network)
	for _, wl := range r.Workloads {
		fmt.Fprintf(w, "\n%s — %s\n", wl.Name, wl.Why)
		if len(wl.Samples) > 0 {
			for _, d := range endToEnd {
				v := wl.EndToEnd[d.Name]
				fmt.Fprintf(w, "  %-38s %14.4f %-6s", d.Name, median(v), d.Unit)
				if len(v) > 1 {
					fmt.Fprintf(w, " (median of %d runs, spread %.1f%%)", len(v), 100*spread(v))
				}
				fmt.Fprintln(w)
			}
			fmt.Fprintf(w, "  %-38s %14.4f %-6s (%d of %d joins)\n", "failed_share", wl.failedShare(), "ratio", wl.Failed, wl.Attempted)
			n := slices.Min(wl.Samples)
			fmt.Fprintf(w, "  latency percentiles over n=%d joins; highest percentile with 10 samples beyond it: p%g\n", n, tailPercentile(n))
			if wl.FirstErr != "" {
				fmt.Fprintf(w, "  FAILED: %s\n", wl.FirstErr)
			}
		}
		for _, d := range perLayer {
			if mv, ok := wl.PerLayer[d.Name]; ok {
				fmt.Fprintf(w, "  %-38s %14.4f %s\n", d.Name, mv.Value, mv.Unit)
			}
		}
	}
}

// resultLine is the contract's last line for a single-workload run.
func (w *workloadReport) resultLine(trace int) map[string]any {
	ms := w.PerLayer
	if trace == 0 {
		m := map[string]float64{}
		for name, v := range w.EndToEnd {
			m[name] = median(v)
		}
		ms = values(endToEnd, m)
	}
	return map[string]any{
		"correct":   w.Failed == 0,
		"attempted": max(w.Attempted, 1),
		"failed":    w.Failed,
		"metrics":   ms,
	}
}

// --- compare ---------------------------------------------------------------

// spec is the part of BENCHMARK.json compare needs: the bounds.
type spec struct {
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

func loadSpec() (spec, error) {
	var sp spec
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		data, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		return sp, json.Unmarshal(data, &sp)
	}
	return sp, errors.New("BENCHMARK.json not found here or one directory up")
}

func loadReport(path string) (report, error) {
	var r report
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	return r, json.Unmarshal(data, &r)
}

// verdict judges one metric of run set b against run set a under bound.
// A move is a regression when b's median is worse than a's by more than
// the bound. When either side's own run-to-run spread exceeds the bound
// the row is unresolved, not unchanged — unless every run of b reads
// better than every run of a.
func verdict(a, b []float64, better string, bound float64) (worse float64, v string) {
	ma, mb := median(a), median(b)
	if ma == 0 {
		return 0, "ok"
	}
	worse = (mb - ma) / ma
	allBetter := slices.Max(b) < slices.Min(a)
	if better == "higher" {
		worse = -worse
		allBetter = slices.Min(b) > slices.Max(a)
	}
	switch {
	case max(spread(a), spread(b)) > bound && !allBetter:
		return worse, "unresolved"
	case worse > bound:
		return worse, "REGRESSION"
	}
	return worse, "ok"
}

// compareMain prints one row per workload × end-to-end metric and
// returns the exit code: 1 when any row regressed.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare a.json b.json")
		return 2
	}
	sp, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	a, err := loadReport(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	b, err := loadReport(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	code := 0
	fmt.Printf("%-15s %-20s %14s %14s %8s %7s %7s  %s\n", "workload", "metric", "a", "b", "worse", "bound", "spread", "verdict")
	for _, wa := range a.Workloads {
		i := slices.IndexFunc(b.Workloads, func(w *workloadReport) bool { return w.Name == wa.Name })
		if i < 0 {
			continue
		}
		wb := b.Workloads[i]
		for _, d := range sp.EndToEnd {
			va, vb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			worse, v := verdict(va, vb, d.Better, d.Bound)
			if v == "REGRESSION" {
				code = 1
			}
			fmt.Printf("%-15s %-20s %14.4f %14.4f %+7.1f%% %6.0f%% %6.1f%%  %s\n", wa.Name, d.Name,
				median(va), median(vb), 100*worse, 100*d.Bound, 100*max(spread(va), spread(vb)), v)
		}
		// failed_share has bound 0: any failure on b that a did not have.
		v := "ok"
		if wb.failedShare() > wa.failedShare() {
			v, code = "REGRESSION", 1
		}
		fmt.Printf("%-15s %-20s %14.4f %14.4f %8s %6.0f%% %7s  %s\n", wa.Name, "failed_share", wa.failedShare(), wb.failedShare(), "", 0.0, "", v)
	}
	return code
}

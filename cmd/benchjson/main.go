// Command benchjson converts `go test -bench -benchmem` output on stdin
// into a stable JSON document on stdout, aggregating repeated -count
// samples per benchmark by median. It backs `make bench`, which records
// the repository's performance trajectory as BENCH_<date>.json files
// (see docs/PERFORMANCE.md). It takes no flags and gates nothing: the
// regression gate is `make bench-compare`, a paired A/B run against the
// parent commit (scripts/abgate.sh).
//
//	go test -run '^$' -bench . -benchmem -count 6 ./bench | benchjson
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Result is the aggregated record of one benchmark.
type Result struct {
	Name    string  `json:"name"`
	Samples int     `json:"samples"`
	NsPerOp float64 `json:"ns_per_op"`
	// BPerOp and AllocsPerOp are present when -benchmem was on.
	BPerOp      *float64 `json:"b_per_op,omitempty"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
	// Metrics holds any extra b.ReportMetric columns (e.g. "bytes").
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Report is the top-level JSON document.
type Report struct {
	Date       string   `json:"date"`
	Goos       string   `json:"goos,omitempty"`
	Goarch     string   `json:"goarch,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	Pkg        string   `json:"pkg,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(.*)$`)

func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func main() {
	if len(os.Args) > 1 {
		fmt.Fprintln(os.Stderr, "usage: benchjson < go-test-bench-output > report.json")
		os.Exit(2)
	}
	report := Report{Date: time.Now().UTC().Format("2006-01-02")}
	samples := map[string]map[string][]float64{} // name -> unit -> values
	var order []string

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			report.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			report.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			report.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			report.Pkg = strings.TrimPrefix(line, "pkg: ")
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		name := m[1]
		if _, seen := samples[name]; !seen {
			samples[name] = map[string][]float64{}
			order = append(order, name)
		}
		// The tail is value/unit pairs: "1234 ns/op  56 B/op  7 allocs/op".
		fields := strings.Fields(m[2])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			samples[name][fields[i+1]] = append(samples[name][fields[i+1]], v)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}

	for _, name := range order {
		units := samples[name]
		r := Result{Name: name, NsPerOp: median(units["ns/op"])}
		r.Samples = len(units["ns/op"])
		if vs, ok := units["B/op"]; ok {
			v := median(vs)
			r.BPerOp = &v
		}
		if vs, ok := units["allocs/op"]; ok {
			v := median(vs)
			r.AllocsPerOp = &v
		}
		for unit, vs := range units {
			switch unit {
			case "ns/op", "B/op", "allocs/op":
			default:
				if r.Metrics == nil {
					r.Metrics = map[string]float64{}
				}
				r.Metrics[unit] = median(vs)
			}
		}
		report.Benchmarks = append(report.Benchmarks, r)
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}

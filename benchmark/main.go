// Command benchmark is the repository's performance ledger: five
// end-to-end workloads measured with tracing off, and a second, traced
// pass that splits each join's time by layer from outside the program.
// See README.md in this directory.
//
//	go run . -seed 1 -out result.json          # every workload, both passes
//	go run . compare a.json b.json             # judge b against a
//	bash benchmark/run.sh --workload device-probe --seed 1 --seconds 15 --trace 0
//
// The last form is the one BENCHMARK.json names; it ends with a single
// JSON line carrying the run's metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"strings"
	"sync"
	"syscall"
)

// Clean-up that must happen however the process ends: temporary
// directories removed, spawned daemons killed and reaped.
var (
	exitMu    sync.Mutex
	exitFuncs []func()
)

func onExit(f func()) {
	exitMu.Lock()
	exitFuncs = append(exitFuncs, f)
	exitMu.Unlock()
}

func cleanup() {
	exitMu.Lock()
	defer exitMu.Unlock()
	for i := len(exitFuncs) - 1; i >= 0; i-- {
		exitFuncs[i]()
	}
	exitFuncs = nil
}

func exit(code int) {
	cleanup()
	os.Exit(code)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	exit(1)
}

const (
	loadModel = "closed loop: each client sends its next join when the previous one returns; at most 2 clients, so no queue builds"
	network   = "TCP is the host's loopback interface, not a real link; RTT, where a workload has one, is simulated by netsim"
)

func main() {
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		exit(130)
	}()

	if len(os.Args) > 1 && os.Args[1] == "compare" {
		exit(compareMain(os.Args[2:]))
	}
	var (
		workload = flag.String("workload", "", "run only this workload (default: all five)")
		seed     = flag.Int64("seed", 1, "workload seed: the inputs are a function of it alone")
		seconds  = flag.Float64("seconds", 15, "measured seconds per end-to-end run (after a 2 s warm-up), and the budget of a traced pass")
		trace    = flag.Int("trace", -1, "0: end-to-end pass only; 1: traced pass only; -1: both")
		reps     = flag.Int("reps", 1, "end-to-end runs per workload, on seeds seed, seed+1, …; compare reads the spread off them")
		out      = flag.String("out", "", "write the full result as JSON to this file")
		spans    = flag.String("spans", "", "write the traced pass's retained spans to <spans>.<workload>.json")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	selected := scenarios
	if *workload != "" {
		sc, ok := findScenario(*workload)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		selected = []scenario{sc}
	}
	work, err := workDir()
	if err != nil {
		fatal(err)
	}

	rep := report{Header: newHeader(*seed, *reps, *seconds)}
	for _, sc := range selected {
		rep.Workloads = append(rep.Workloads, &workloadReport{Name: sc.Name, Why: sc.Why, EndToEnd: map[string][]float64{}})
	}
	if *trace != 1 {
		for i := 0; i < *reps; i++ {
			for j, sc := range selected {
				fmt.Fprintf(os.Stderr, "== %s: end-to-end run %d/%d, seed %d\n", sc.Name, i+1, *reps, *seed+int64(i))
				res, err := runE2E(sc, *seed+int64(i), lengths(*seconds), work)
				if err != nil {
					fatal(err)
				}
				rep.Workloads[j].addRun(res)
			}
		}
	}
	if *trace != 0 {
		for j, sc := range selected {
			fmt.Fprintf(os.Stderr, "== %s: traced pass, seed %d\n", sc.Name, *seed)
			path := ""
			if *spans != "" {
				path = *spans + "." + sc.Name + ".json"
			}
			m, err := runTraced(sc, *seed, *seconds, work, path)
			if err != nil {
				fatal(err)
			}
			rep.Workloads[j].PerLayer = values(perLayer, m)
		}
	}

	rep.print(os.Stdout)
	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}
	failed := false
	for _, w := range rep.Workloads {
		failed = failed || w.Failed > 0
	}
	if len(selected) == 1 && *trace >= 0 {
		// The contract's result line: the last line of standard output.
		line, err := json.Marshal(rep.Workloads[0].resultLine(*trace))
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
	}
	if failed {
		exit(1)
	}
	exit(0)
}

func newHeader(seed int64, reps int, seconds float64) header {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	rl := lengths(seconds)
	return header{
		Nproc: runtime.NumCPU(), Gomaxprocs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: commit,
		Seed: seed, Reps: reps, WarmupSeconds: rl.warm.Seconds(), RunSeconds: rl.measure.Seconds(), TraceSeconds: seconds,
		SetupsPerRun: rl.setups, LoadModel: loadModel, Network: network,
	}
}

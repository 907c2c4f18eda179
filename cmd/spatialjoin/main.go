// Command spatialjoin runs a spatial join between two live spatialserve
// servers from the "mobile device", printing the result size and the
// byte bill. It is the CLI face of the library's core loop.
//
// Usage:
//
//	spatialjoin -r 127.0.0.1:7001 -s 127.0.0.1:7002 \
//	    -alg upjoin -kind distance -eps 150 -buffer 800 [-bucket] \
//	    [-window minx,miny,maxx,maxy] [-m 10] [-pairs] [-parallel 4] [-batch 16]
//
// A relation served by several shard servers (spatialserve -shard i/N) is
// addressed with a comma-separated list instead of -r / -s:
//
//	spatialjoin -shards-r 127.0.0.1:7001,127.0.0.1:7002 \
//	    -shards-s 127.0.0.1:7003,127.0.0.1:7004 -alg upjoin -kind distance -eps 150
//
// The device then scatter–gathers every query across the shard links
// (COUNTs sum, window replies merge) and the join result is identical to
// the unsharded run. With -tree-fanout N (N >= 2) the shard endpoints
// stack under a hierarchical aggregation tree: interior nodes partially
// merge replies so the root link carries O(N) frames per query instead
// of O(shards) — same results, per-level byte breakdown printed when the
// tree is deeper than one level.
//
// -breakers arms circuit breakers on a+b replica groups, -budget bounds
// each logical query end-to-end, and -allow-partial turns a run with
// unreachable shards into a degraded success: the result is a lower
// bound, a completeness report is printed, and the process exits 3.
//
// With -connect the command is a thin client of a spatialjoind daemon
// instead of a device: the join request (same -alg/-kind/-eps/-m/-pairs
// flags) is submitted over the daemon's JSON-lines protocol on behalf of
// -tenant, runs on the daemon's shared fleet under its admission and
// scheduling policy, and the reply prints the tenant's attributed byte
// bill. A tenant whose fleet-wide byte quota is exhausted is rejected
// with the daemon's typed quota error and exit code 4.
//
// Exit codes: 0 — exact result; 1 — failure; 2 — usage error;
// 3 — partial result (only with -allow-partial; the printed completeness
// report lists the unreachable shards); 4 — tenant over byte quota
// (only with -connect).
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/geom"
)

func parseWindow(s string) (geom.Rect, error) {
	if s == "" {
		return geom.Rect{}, nil
	}
	parts := strings.Split(s, ",")
	if len(parts) != 4 {
		return geom.Rect{}, fmt.Errorf("window needs 4 comma-separated numbers")
	}
	var v [4]float64
	for i, p := range parts {
		f, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return geom.Rect{}, err
		}
		v[i] = f
	}
	return geom.R(v[0], v[1], v[2], v[3]), nil
}

func main() {
	var (
		rAddr    = flag.String("r", "", "address of the R server (required unless -shards-r)")
		sAddr    = flag.String("s", "", "address of the S server (required unless -shards-s)")
		rShards  = flag.String("shards-r", "", "comma-separated shard server addresses for R (overrides -r; a+b lists replicas of one shard)")
		sShards  = flag.String("shards-s", "", "comma-separated shard server addresses for S (overrides -s; a+b lists replicas of one shard)")
		alg      = flag.String("alg", "upjoin", "naive, grid, mobijoin, upjoin, srjoin, semijoin, auto")
		algAlias = flag.String("algo", "", "alias for -alg")
		explain  = flag.Bool("explain", false, "print the planner's phase-by-phase report (candidate table, estimated vs metered bytes, re-plans); richest with -alg auto")
		kind     = flag.String("kind", "distance", "intersection, distance, iceberg")
		eps      = flag.Float64("eps", 150, "distance threshold")
		m        = flag.Int("m", 10, "iceberg minimum matches")
		buffer   = flag.Int("buffer", 800, "device buffer in objects")
		bucket   = flag.Bool("bucket", false, "use bucket query submission")
		priceR   = flag.Float64("price-r", 1, "per-byte tariff for R")
		priceS   = flag.Float64("price-s", 1, "per-byte tariff for S")
		window   = flag.String("window", "", "query window minx,miny,maxx,maxy (default: whole space)")
		pairs    = flag.Bool("pairs", false, "print the result pairs/objects")
		parallel = flag.Int("parallel", 1, "max in-flight requests (1 = the paper's sequential device)")
		batch    = flag.Int("batch", 1, "multiplex up to this many probes per frame (1 = one frame per probe)")
		timeout  = flag.Duration("timeout", 0, "overall join deadline (0 = none)")
		tryTO    = flag.Duration("try-timeout", 0, "per-query attempt deadline (0 = none)")
		retries  = flag.Int("retries", 4, "max attempts per query over the real, lossy link (1 = fail fast)")
		hedgePct = flag.Float64("hedge-pct", 0, "hedge a probe past this latency percentile of its replica set (0 = off; needs a+b replica groups)")
		budget   = flag.Duration("budget", 0, "per-query deadline budget shared by retries, hedges and failovers (0 = none)")
		breakers = flag.Bool("breakers", false, "arm circuit breakers on a+b replica groups: skip open-circuit replicas before probing, recover via background INFO probes")
		fanout   = flag.Int("tree-fanout", 0, "stack shard endpoints under a hierarchical aggregation tree with this fanout per interior node (0 = flat scatter; needs -shards-r/-shards-s)")
		partial  = flag.Bool("allow-partial", false, "return a lower-bound result when shards stay unreachable, with a completeness report and exit code 3")
		connect  = flag.String("connect", "", "submit the join to a spatialjoind daemon at this address instead of acting as the device (needs -tenant)")
		tenant   = flag.String("tenant", "", "tenant to run as on the daemon (with -connect)")
	)
	flag.Parse()
	if *connect != "" {
		runDaemonClient(*connect, *tenant, *alg, *algAlias, *kind, *eps, *m, *pairs)
		return
	}
	if (*rAddr == "" && *rShards == "") || (*sAddr == "" && *sShards == "") {
		fmt.Fprintln(os.Stderr, "spatialjoin: -r/-shards-r and -s/-shards-s are required")
		os.Exit(2)
	}

	// ^C / SIGTERM cancels the join mid-flight instead of leaving the
	// servers with half-written frames.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	algName := *alg
	if *algAlias != "" {
		algName = *algAlias
	}
	a, err := core.ParseAlgorithm(algName)
	fatal(err)
	win, err := parseWindow(*window)
	fatal(err)
	spec, err := core.ParseSpec(*kind, *eps, *m)
	fatal(err)
	spec.CountOnly = !*pairs

	// The flags fill the one fleet configuration; fleet.Dial turns the
	// address lists ("a+b,c+d": shards of replica groups) into the same
	// stack a session builds in-process.
	addrsR, addrsS := *rShards, *sShards
	if addrsR == "" {
		addrsR = *rAddr
	}
	if addrsS == "" {
		addrsS = *sAddr
	}
	f, err := fleet.Dial(fleet.Config{
		Buffer: *buffer, Bucket: *bucket, Window: win,
		PriceR: *priceR, PriceS: *priceS,
		Parallelism: *parallel, BatchSize: *batch,
		Retry:       client.RetryPolicy{MaxAttempts: *retries, Backoff: 5 * time.Millisecond, PerTryTimeout: *tryTO},
		QueryBudget: *budget, HedgePct: *hedgePct, Breakers: *breakers,
		TreeFanout: *fanout, AllowPartial: *partial,
	}, addrsR, addrsS)
	fatal(err)
	defer f.Close()
	env := f.NewEnv(f.R, f.S)

	// -explain with a fixed algorithm streams the phase events live (the
	// fixed algorithms build no Explain of their own); Auto's structured
	// report prints after the run either way.
	var phaseMu sync.Mutex
	if *explain {
		env.Observer = func(e core.PhaseEvent) {
			phaseMu.Lock()
			defer phaseMu.Unlock()
			fmt.Printf("phase %-8s %-28s nr=%-6d ns=%-6d est=%-10.0f wire=%-10d %s\n",
				e.Kind, e.Name, e.NR, e.NS, e.EstBytes, e.WireBytes, e.Note)
		}
	}

	res, err := a.Run(ctx, env, spec)
	fatal(err)

	if *explain && res.Explain != nil {
		res.Explain.Render(os.Stdout)
	}

	st := res.Stats
	if spec.Kind == core.IcebergSemi {
		fmt.Printf("%s: %d qualifying R objects\n", a.Name(), len(res.Objects))
		if *pairs {
			for _, o := range res.Objects {
				fmt.Printf("  %d %v\n", o.ID, o.MBR)
			}
		}
	} else {
		fmt.Printf("%s: %d pairs\n", a.Name(), res.Count)
		if *pairs {
			for _, p := range res.Pairs {
				fmt.Printf("  (%d, %d)\n", p.RID, p.SID)
			}
		}
	}
	fmt.Printf("wire bytes: %d total (R %d / S %d), %d queries (%d aggregate)\n",
		st.TotalBytes(), st.R.WireBytes, st.S.WireBytes, st.TotalQueries(), st.AggQueries)
	fmt.Printf("decisions: HBSJ %d, NLSJ %d, repartitions %d, pruned %d\n",
		st.HBSJ, st.NLSJ, st.Repartitions, st.Pruned)
	fmt.Printf("monetary cost: %.6f\n", st.MoneyCost)
	if len(st.RLevels) > 1 || len(st.SLevels) > 1 {
		fmt.Printf("tree levels (wire bytes, root first): R %v / S %v\n", st.RLevels, st.SLevels)
	}
	if n := f.R.Retries() + f.S.Retries(); n > 0 {
		fmt.Printf("retries: %d re-issued requests (retransmissions metered)\n", n)
	}
	if h := st.R.HedgedWireBytes + st.S.HedgedWireBytes; h > 0 {
		fmt.Printf("hedged: %d speculative frames, %d wire bytes (included in the totals)\n",
			st.R.HedgedMessages+st.S.HedgedMessages, h)
	}
	if o, k := st.R.BreakerOpens+st.S.BreakerOpens, st.R.BreakerSkips+st.S.BreakerSkips; o+k > 0 {
		fmt.Printf("breakers: %d circuit(s) opened, %d probe(s) skipped proactively\n", o, k)
	}
	if comp := res.Completeness; comp != nil && !comp.Complete() {
		// The pairs above are a lower bound: every reported pair is real,
		// but contributions from the listed shards are missing. Exit 3
		// distinguishes a degraded success from a failure (1).
		fmt.Printf("completeness: %d/%d shards answered — the result is a lower bound\n",
			comp.ShardsAnswered, comp.ShardsTotal)
		for _, g := range comp.Gaps {
			fmt.Printf("  missing %s/%s: ≤%d objects unaccounted, %d queries absorbed: %s\n",
				g.Relation, g.Shard, g.Count, g.Queries, g.Reason)
		}
		os.Exit(3)
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "spatialjoin: %v\n", err)
		os.Exit(1)
	}
}

// runDaemonClient submits one join to a spatialjoind daemon over its
// JSON-lines protocol (repro.JoinRequest / repro.JoinReply) and prints
// the reply in the same shape as a local run. Quota rejections exit 4 so
// scripts can tell "over budget" from "broken".
func runDaemonClient(addr, tenant, alg, algAlias, kind string, eps float64, m int, pairs bool) {
	if tenant == "" {
		fmt.Fprintln(os.Stderr, "spatialjoin: -connect needs -tenant")
		os.Exit(2)
	}
	if algAlias != "" {
		alg = algAlias
	}
	spec, err := core.ParseSpec(kind, eps, m)
	fatal(err)
	conn, err := net.Dial("tcp", addr)
	fatal(err)
	defer conn.Close()
	req := repro.JoinRequest{Tenant: tenant, Alg: alg, Kind: kind, Eps: eps, MinMatches: m, Pairs: pairs}
	fatal(json.NewEncoder(conn).Encode(req))
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 64<<10), repro.MaxLine)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			fatal(fmt.Errorf("reading the reply of the daemon at %s: %w", addr, err))
		}
		fatal(fmt.Errorf("daemon at %s closed the connection without a reply", addr))
	}
	var rep repro.JoinReply
	fatal(json.Unmarshal(sc.Bytes(), &rep))
	if rep.Err != "" {
		fmt.Fprintf(os.Stderr, "spatialjoin: daemon: %s\n", rep.Err)
		if rep.ErrKind == "quota" {
			fmt.Fprintf(os.Stderr, "spatialjoin: tenant %q over byte quota (spent %d of %d)\n",
				tenant, rep.Spent, rep.Quota)
			os.Exit(4)
		}
		os.Exit(1)
	}
	// The shape follows the kind that was asked for, not the counts: an
	// iceberg join nothing qualifies for is still an object list.
	if spec.Kind == core.IcebergSemi {
		fmt.Printf("%s: %d qualifying R objects\n", rep.Alg, rep.Objects)
		for _, id := range rep.ObjectList {
			fmt.Printf("  %d\n", id)
		}
	} else {
		fmt.Printf("%s: %d pairs\n", rep.Alg, rep.Pairs)
		for _, p := range rep.PairList {
			fmt.Printf("  (%d, %d)\n", p[0], p[1])
		}
	}
	fmt.Printf("wire bytes: %d total (R %d / S %d)\n", rep.TotalBytes, rep.WireR, rep.WireS)
	fmt.Printf("monetary cost: %.6f\n", rep.Money)
	fmt.Printf("tenant %s: %d bytes spent fleet-wide\n", tenant, rep.Spent)
}

// Command spatialserve serves one spatial dataset over TCP with the
// repository's wire protocol, playing the role of one of the paper's
// non-cooperative servers.
//
// Usage:
//
//	spatialserve -data hotels.spd -addr 127.0.0.1:7001 [-publish-index] [-shard i/N] [-replica r/M]
//
// -publish-index enables the cooperative SemiJoin message types; leave it
// off to model the paper's default non-cooperative server.
//
// -shard i/N serves only the i-th of N horizontal shards of the dataset
// (1-based), using the deterministic assignment of internal/shard — the
// same partitioning the spatialjoin router expects. Boot N such processes
// (i = 1..N) and point spatialjoin's -shards-r/-shards-s at all of them
// to serve one relation from many servers.
//
// -replica r/M is a purely diagnostic label: replicas of one shard serve
// *identical* data (that is what makes probes idempotent and hedging and
// failover safe), so the flag only tags the server name — logs and the
// spatialjoin per-shard accounting then show which replica answered.
// Boot M identically-sharded processes with r = 1..M and join their
// addresses with "+" in spatialjoin's -shards-r/-shards-s.
//
// On SIGINT or SIGTERM the server drains: it stops accepting connections,
// finishes the requests already read off the sockets, and exits 0 once
// everything is flushed (or exits 1 when -drain-timeout passes first). A
// second signal forces an immediate exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/dataset"
	"repro/internal/netsim"
	"repro/internal/server"
	"repro/internal/shard"
)

// parseShard parses "i/N" (a 1-based index out of N), the shared syntax
// of -shard and -replica.
func parseShard(s string) (i, n int, err error) {
	a, b, ok := strings.Cut(s, "/")
	if ok {
		i, err = strconv.Atoi(strings.TrimSpace(a))
		if err == nil {
			n, err = strconv.Atoi(strings.TrimSpace(b))
		}
	}
	if !ok || err != nil || n < 1 || i < 1 || i > n {
		return 0, 0, fmt.Errorf("invalid index %q: want i/N with 1 <= i <= N", s)
	}
	return i, n, nil
}

// stallHandler makes a seeded fraction of requests sleep for d before
// being served, drawn under a lock (deterministic for a sequential
// client) and slept unlocked. Only HandleAppend, the one method the
// serving loops call, stalls: the server keeps its pooled replies.
type stallHandler struct {
	netsim.AppendHandler
	prob float64
	d    time.Duration
	mu   sync.Mutex
	rng  *rand.Rand
}

func (s *stallHandler) HandleAppend(req, dst []byte) []byte {
	s.mu.Lock()
	stall := s.rng.Float64() < s.prob
	s.mu.Unlock()
	if stall {
		time.Sleep(s.d)
	}
	return s.AppendHandler.HandleAppend(req, dst)
}

func main() {
	var (
		data    = flag.String("data", "", "dataset file from datagen (required)")
		addr    = flag.String("addr", "127.0.0.1:0", "listen address")
		publish = flag.Bool("publish-index", false, "expose R-tree internals (SemiJoin support)")
		name    = flag.String("name", "", "server name (defaults to the data file)")
		drain   = flag.Duration("drain-timeout", 10*time.Second, "max time to drain in-flight requests on shutdown")
		shardNo = flag.String("shard", "", "serve shard i of N of the dataset, as \"i/N\" (1-based; default: whole dataset)")
		replica = flag.String("replica", "", "label this process replica r of M of its shard, as \"r/M\" (name-only: replicas serve identical data)")

		// Chaos drills against live TCP servers: stall a seeded fraction
		// of requests before answering. Combined with the client's
		// -try-timeout/-budget/-breakers this exercises hedging, failover
		// and breaker trips over real sockets (frame drops and severs are
		// modeled client-side by the chaos harness).
		chaosProb  = flag.Float64("chaos-delay-prob", 0, "stall this fraction of requests by -chaos-delay (0 = off)")
		chaosDelay = flag.Duration("chaos-delay", 0, "how long a stalled request sleeps before being served")
		chaosSeed  = flag.Int64("chaos-seed", 1, "seed for the stall schedule")
	)
	flag.Parse()
	if *data == "" {
		fmt.Fprintln(os.Stderr, "spatialserve: -data is required")
		os.Exit(2)
	}
	objs, err := dataset.LoadFile(*data)
	if err != nil {
		fmt.Fprintf(os.Stderr, "spatialserve: %v\n", err)
		os.Exit(1)
	}
	if *name == "" {
		*name = *data
	}
	if *shardNo != "" {
		i, n, err := parseShard(*shardNo)
		if err != nil {
			fmt.Fprintf(os.Stderr, "spatialserve: -shard: %v\n", err)
			os.Exit(2)
		}
		objs = shard.Assign(objs, n)[i-1]
		*name = fmt.Sprintf("%s[%d/%d]", *name, i, n)
	}
	if *replica != "" {
		r, m, err := parseShard(*replica)
		if err != nil {
			fmt.Fprintf(os.Stderr, "spatialserve: -replica: %v\n", err)
			os.Exit(2)
		}
		*name = fmt.Sprintf("%s-r%d/%d", *name, r, m)
	}
	var opts []server.Option
	if *publish {
		opts = append(opts, server.PublishIndex())
	}
	ds := server.New(*name, objs, opts...)
	if *shardNo != "" {
		// What routers prune on; across a relation's N processes the
		// lines show the layout, and a mismatched build stands out.
		fmt.Printf("shard %s holds %d objects, bounds %v\n", *shardNo, len(objs), ds.Tree().Bounds())
	}
	var h netsim.AppendHandler = ds
	if *chaosProb > 0 && *chaosDelay > 0 {
		h = &stallHandler{AppendHandler: ds, prob: *chaosProb, d: *chaosDelay, rng: rand.New(rand.NewSource(*chaosSeed))}
	}
	srv, err := netsim.ListenAndServe(*addr, h)
	if err != nil {
		fmt.Fprintf(os.Stderr, "spatialserve: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("serving %d objects from %s on %s (publish-index=%v)\n",
		len(objs), *data, srv.Addr(), *publish)

	// SIGINT covers ^C; SIGTERM is what container runtimes and process
	// managers send first — both must drain, not kill.
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	first := <-sig
	fmt.Printf("received %v; draining (send again to force exit)\n", first)
	go func() {
		second := <-sig
		fmt.Fprintf(os.Stderr, "spatialserve: received %v during drain; forcing exit\n", second)
		os.Exit(1)
	}()

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "spatialserve: drain incomplete: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("drained cleanly")
}

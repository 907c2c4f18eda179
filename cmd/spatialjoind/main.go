// Command spatialjoind is the multi-tenant join service daemon: it owns
// one shared serving fleet (both relations, metered links, batching,
// optional sharding knobs of the embedded library) and admits join
// requests from many tenants over a line-oriented JSON protocol on TCP.
// Tenants are declared up front with a service class — strict scheduling
// priority, deficit-round-robin weight, fleet-wide byte quota, and a
// concurrency cap — and every probe a tenant's join issues is scheduled
// into the shared links' envelopes under that policy and attributed to
// the tenant on the meters, so each tenant is billed its exact Eq. (1)
// slice.
//
// Usage:
//
//	spatialjoind -data-r r.spd -data-s s.spd -addr 127.0.0.1:7500 \
//	    -tenants "fast:prio=10;bulk:weight=1,quota=50000000,conc=4" \
//	    [-buffer 800] [-parallel 4] [-batch 16] [-rtt 2ms]
//
// The tenant spec is a semicolon-separated list of name:key=value pairs
// with keys prio (strict tier, higher first), weight (DRR weight within
// a tier, ≥1), quota (fleet-wide wire-byte budget, 0 = unlimited), and
// conc (max concurrent joins, 0 = unlimited). A bare name declares a
// default-class tenant.
//
// Protocol (repro.JoinRequest / repro.JoinReply, served by
// repro.Server.Serve): one JSON object per line. Request:
//
//	{"tenant":"fast","alg":"upjoin","kind":"distance","eps":75,"pairs":true}
//
// Reply (one line): result counts, the tenant's attributed byte bill,
// and on failure an err string plus err_kind ∈ {bad-request,
// unknown-tenant, quota, run}. "quota" rejections carry the tenant's
// spent/quota counters; the spatialjoin client maps them to exit code 4.
//
// On SIGINT/SIGTERM the daemon stops accepting, cancels in-flight runs,
// ends idle connections and exits 0 — or 1 if a connection is still
// open five seconds later.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"repro"
	"repro/internal/dataset"
)

// parseTenants parses the -tenants spec: "name[:k=v[,k=v...]][;...]".
func parseTenants(spec string) (map[repro.TenantID]repro.TenantConfig, error) {
	out := make(map[repro.TenantID]repro.TenantConfig)
	for _, entry := range strings.Split(spec, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, attrs, _ := strings.Cut(entry, ":")
		name = strings.TrimSpace(name)
		if name == "" {
			return nil, fmt.Errorf("tenant entry %q has no name", entry)
		}
		var tc repro.TenantConfig
		if attrs != "" {
			for _, kv := range strings.Split(attrs, ",") {
				k, v, ok := strings.Cut(kv, "=")
				if !ok {
					return nil, fmt.Errorf("tenant %s: attribute %q is not key=value", name, kv)
				}
				k, v = strings.TrimSpace(k), strings.TrimSpace(v)
				n, err := strconv.ParseInt(v, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("tenant %s: %s=%q is not a number", name, k, v)
				}
				switch k {
				case "prio", "priority":
					tc.Priority = int(n)
				case "weight":
					tc.Weight = int(n)
				case "quota":
					tc.ByteQuota = n
				case "conc":
					tc.MaxConcurrent = int(n)
				default:
					return nil, fmt.Errorf("tenant %s: unknown attribute %q (want prio, weight, quota, conc)", name, k)
				}
			}
		}
		if _, dup := out[repro.TenantID(name)]; dup {
			return nil, fmt.Errorf("tenant %s declared twice", name)
		}
		out[repro.TenantID(name)] = tc
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no tenants declared")
	}
	return out, nil
}

func main() {
	var (
		dataR    = flag.String("data-r", "", "dataset file for relation R (required)")
		dataS    = flag.String("data-s", "", "dataset file for relation S (required)")
		addr     = flag.String("addr", "127.0.0.1:0", "listen address")
		tenants  = flag.String("tenants", "", "tenant classes, \"name:prio=P,weight=W,quota=Q,conc=C;...\" (required)")
		buffer   = flag.Int("buffer", 800, "device buffer in objects")
		parallel = flag.Int("parallel", 4, "per-run parallelism and fleet worker pool size")
		batch    = flag.Int("batch", 16, "multiplex up to this many probes per link envelope (the scheduler's injection point)")
		rtt      = flag.Duration("rtt", 0, "simulated link RTT on the fleet's metered links (0 = none)")
		bucket   = flag.Bool("bucket", false, "use bucket query submission")
	)
	flag.Parse()
	if *dataR == "" || *dataS == "" {
		fmt.Fprintln(os.Stderr, "spatialjoind: -data-r and -data-s are required")
		os.Exit(2)
	}
	if *tenants == "" {
		fmt.Fprintln(os.Stderr, "spatialjoind: -tenants is required")
		os.Exit(2)
	}
	tcs, err := parseTenants(*tenants)
	if err != nil {
		fmt.Fprintf(os.Stderr, "spatialjoind: -tenants: %v\n", err)
		os.Exit(2)
	}
	r, err := dataset.LoadFile(*dataR)
	fatal(err)
	s, err := dataset.LoadFile(*dataS)
	fatal(err)

	link := repro.DefaultLink()
	link.RTT = *rtt
	srv, err := repro.NewServer(repro.ServerConfig{
		Fleet: repro.SessionConfig{
			R: r, S: s,
			Buffer:      *buffer,
			Parallelism: *parallel,
			BatchSize:   *batch,
			Bucket:      *bucket,
			Link:        link,
		},
		Tenants: tcs,
	})
	fatal(err)
	defer srv.Close()

	ln, err := net.Listen("tcp", *addr)
	fatal(err)
	fmt.Printf("serving %d+%d objects to %d tenants on %s (batch=%d parallel=%d)\n",
		len(r), len(s), len(tcs), ln.Addr(), *batch, *parallel)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := srv.Serve(ctx, ln); err != nil {
		fmt.Fprintf(os.Stderr, "spatialjoind: drain incomplete: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("drained cleanly")
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "spatialjoind: %v\n", err)
		os.Exit(1)
	}
}

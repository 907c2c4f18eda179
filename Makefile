# Development entry points. CI runs the same commands (.github/workflows).

GO ?= go
DATE := $(shell date +%Y-%m-%d)

.PHONY: all build test race bench bench-module bench-smoke bench-compare fuzz smoke cover test-flaky chaos loc fmt vet lint lint-seams

all: build test bench-module

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench-module vets and tests the nested benchmark module (the perf
# ledger BENCHMARK.json runs). It has its own go.mod, so the ./...
# patterns above never reach it; it compiles against internal/ APIs, so
# it must be built whenever they change.
bench-module:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# bench runs the tracked hot-path benchmarks (bench/) with -benchmem and
# records the medians as BENCH_<date>.json, a point of the performance
# trajectory (docs/PERFORMANCE.md). It gates nothing: bench-compare does.
# Two steps, not a pipeline: a failing benchmark run must fail make
# instead of feeding partial output to benchjson.
bench:
	$(GO) test -run '^$$' -bench . -benchmem -count 6 ./bench > bench.out.tmp
	$(GO) run ./cmd/benchjson < bench.out.tmp > BENCH_$(DATE).json
	@rm -f bench.out.tmp
	@echo wrote BENCH_$(DATE).json

# bench-smoke is the CI guard: every benchmark in the repository must at
# least execute (one iteration), so bit-rotted benchmarks fail the build.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# bench-compare is the regression gate CI runs: the benchmarks of bench/
# of the working tree against those of the commit PARENT, both built and
# run on this machine, in ten alternated pairs of 0.2 s passes. It is
# scripts/abgate.sh's paired rule, the one every end-to-end claim is
# judged by: a benchmark's ns/op or allocs/op reads worse when the
# change lost at least 9 of the 10 pairs and its median gap exceeds the
# parent's interquartile range, and the target exits 1 when such a gap
# is above 10 % of the parent median, or rises from a median of 0 (a
# zero-allocation benchmark that starts allocating). No baseline file,
# no threshold knob, no exemption: hedged benchmarks are judged against
# their own parent run like the rest. About 4.5 minutes on a 2-CPU box.
PARENT ?= HEAD~1
bench-compare:
	bash scripts/abgate.sh bench 1-10 0.2 $(PARENT)

# fuzz runs every fuzz target briefly — the hardening pass CI runs on
# each push over the surfaces that parse bytes from outside: the wire
# codec with the server handler, the TCP serving loop's frame stream, and
# the daemon's JSON-lines protocol in the root package — plus the meter's
# tenant split (its columns must sum to the link totals whatever shares a
# context names) and the device's join kernels (GridCount must count
# exactly the pairs GridJoin lists). Longer local campaigns: go test
# -fuzz <Target> -fuzztime 5m.
fuzz:
	@for pkg in ./internal/wire ./internal/server ./internal/netsim ./internal/memjoin .; do \
	  for f in $$($(GO) test -list 'Fuzz.*' $$pkg | grep '^Fuzz'); do \
	    echo "== $$pkg $$f"; \
	    $(GO) test -run '^$$' -fuzz "^$$f$$" -fuzztime 10s $$pkg || exit 1; \
	  done; \
	done

# smoke is the end-to-end check CI runs: real binaries, real TCP, real
# signals (boot spatialserve fleets — unsharded and 2×2 sharded — join,
# SIGTERM drain).
smoke:
	./scripts/smoke.sh

# test-flaky hammers the chaos and replica batteries — the suites whose
# failures would be schedule-dependent if the failover/hedging plumbing
# ever raced — under the race detector, five times each. Any flake here
# is a real ordering bug, not noise: the suites are seeded and
# deterministic by construction.
test-flaky:
	$(GO) test -race -count 5 -run 'TestReplicated|TestReplica|TestShardedChaos|TestShardedKill|TestShardedLinkOrder' . ./internal/shard

# chaos replays every committed chaos scenario file
# (internal/harness/testdata/scenarios/*.json) under the race detector
# and asserts each scenario's declared expectations: completeness (exact
# vs. which shards may be missing), oracle equivalence, wall-time bounds,
# proactive breaker skips, breaker re-close after revival, and zero
# goroutine leaks. New scenario = new JSON file, not new code — see
# docs/CHAOS.md for the format. It also fails unless the replay reached
# (*Remote).pipeline in internal/client, the path every unbatched probe
# group takes over an unreplicated link without a per-try timeout or a
# budget (flapping-flat.json), so faults cannot drift off it unnoticed.
chaos:
	$(GO) test -race -count 1 -run 'TestChaos' -coverpkg=repro/internal/client -coverprofile=chaos.cover.tmp ./internal/harness
	@$(GO) tool cover -func=chaos.cover.tmp | awk '$$1 ~ /\/group\.go:/ && $$2 == "pipeline" && $$3 + 0 > 0 { ok = 1 } END { exit !ok }'; \
	  status=$$?; rm -f chaos.cover.tmp; \
	  if [ $$status -ne 0 ]; then echo "chaos: no scenario reached (*Remote).pipeline"; exit 1; fi

# cover is the coverage gate CI runs: the full test suite with
# -coverprofile, failing when total statement coverage drops below the
# baseline floor (override with COVER_FLOOR=NN.N).
cover:
	./scripts/coverage.sh

# loc prints the size metric ROADMAP aim 2 tracks — lines of non-test Go
# outside benchmark/ — per package directory and in total. Quote it
# before and after in any PR that claims to delete code.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' -exec wc -l {} + \
	  | awk '$$2 != "total" { sub(/\/[^\/]*$$/, "", $$2); n[$$2] += $$1 } END { for (d in n) printf "%7d %s\n", n[d], d }' \
	  | sort -k2 | awk '{ print; t += $$1 } END { printf "%7d total\n", t }'

fmt:
	gofmt -l .

vet:
	$(GO) vet ./...

# lint-seams needs no tool: no probe waits on a clock (the batcher owns no
# timer and never sleeps), the engine sizes its pools from configuration
# and never from a clock (parallel.go does not so much as import time),
# no probe-stack seam grows a Flush back — a queued probe is sent by
# whoever sends or waits for it — an unbatched GoBatch spawns nothing: its
# group (group.go) runs on its waiter's stack — and core has one probe
# path: it never picks a framing (no batching()), and reads Env.BatchSize
# in the pool rule (parallel.go) alone. The field's declarations and a
# write of it into a link's Env are not reads. Every per-link number has
# one home, the link's netsim.Meter: no internal/client struct holds a
# *netsim.Ledger, and NewScheduler takes no ledger.
# There is one slice free list: outside internal/bufpool no sync.Pool
# hands out new([]…) — a pooled slice is a bufpool.Pool instance. There
# is one ε test: outside internal/geom no DistToPoint, MaxDistToPoint or
# MinDist result is compared with eps — server, router and device decide
# with geom's squared predicates (WithinDistOfPoint, InsideDistOfPoint,
# WithinDist), never with a rounded square root. Pairs are born unique:
# every device join names the cell whose reference points it owns, so
# outside Oracle (the reference) and tests internal/core calls no
# DedupPairs and builds no memjoin.Options{} literal — result assembly
# only sorts. Each fleet layer has one executor, GoBatch, whose one-
# request case is Do: outside tests internal/shard holds exactly one go
# statement, the hedge race of ReplicaSet.race. A scatter sends every
# sub-call and then receives them on its caller's stack: internal/client
# declares no Call.Start, starting or runStarted, and no product file
# imports internal/gostack. Nothing in internal/shard asks a remote
# whether it batches (no
# BatchEnabled), no Router.fan or Router.send sends a plan a second way,
# and no RouterOption or WithParallelism is declared — the router takes
# no options and bounds no scatter. A
# routed list crosses the router as bytes: outside tests and Assign's
# boot-time k-d split (shard.go), internal/shard decodes no object, pair
# or rect reply and sorts nothing. An aggregation-tree node is a Router
# with a metered uplink, not a layer around one: outside tests
# internal/shard declares no Aggregator struct, no NewAggregator, no
# method on *Aggregator and no leafGapper (Aggregator is an alias). The
# in-process link is a function call: internal/netsim/channel.go holds no
# go statement and no chan — the handler runs on its caller's goroutine —
# and outside tests no code line names NonBlocking, ErrFrameRetained or
# RetainFrame: no transport reads a frame once its round trip returned.
lint-seams:
	@if grep -nE 'time\.(AfterFunc|NewTimer|Sleep)' internal/client/batch.go; then \
	  echo "lint: internal/client/batch.go must not wait on a clock"; exit 1; fi
	@if grep -nE '\btime\.|"time"' internal/core/parallel.go; then \
	  echo "lint: internal/core/parallel.go must not read a clock"; exit 1; fi
	@if sed -n '/^type Probe interface/,/^}/p' internal/core/env.go | grep -n 'Flush()' || \
	    sed -n '/^type Endpoint interface/,/^}/p' internal/shard/router.go | grep -n 'Flush()'; then \
	  echo "lint: core.Probe and shard.Endpoint have no Flush"; exit 1; fi
	@if sed -n '/^func (r \*Remote) GoBatch/,/^}/p' internal/client/batch.go | grep -nE '^[[:space:]]*go ' || \
	    grep -nE '^[[:space:]]*go ' internal/client/group.go; then \
	  echo "lint: Remote.GoBatch and the unbatched group spawn no goroutine"; exit 1; fi
	@if grep -Hn 'batching()' internal/core/*.go || \
	    grep -Hnw 'BatchSize' $$(ls internal/core/*.go | grep -vE '_test\.go$$|/parallel\.go$$') \
	      | grep -vE '^[^:]+:[0-9]+:[[:space:]]*(//|BatchSize[[:space:]]+int)' | grep -v '\.BatchSize = '; then \
	  echo "lint: core picks no framing (no batching()) and reads Env.BatchSize in parallel.go alone"; exit 1; fi
	@if grep -Hnw 'Pipeliner' $$(ls internal/client/*.go | grep -v '_test\.go$$'); then \
	  echo "lint: internal/client picks no group path by transport (no Pipeliner)"; exit 1; fi
	@if grep -HnE '^[[:space:]]+([[:alnum:]_, ]+[[:space:]])?\*netsim\.Ledger([^[:alnum:]_]|$$)' \
	      $$(ls internal/client/*.go | grep -v '_test\.go$$'); then \
	  echo "lint: a link's ledger lives in its netsim.Meter, not in an internal/client field"; exit 1; fi
	@if grep -HnE 'func NewScheduler\([^)]' internal/client/*.go; then \
	  echo "lint: NewScheduler takes no argument (quotas are the meter's ledger)"; exit 1; fi
	@if grep -rHnF --include='*.go' --exclude='*_test.go' 'new([]' *.go bench cmd examples internal | grep -v '^internal/bufpool/'; then \
	  echo "lint: slice free lists are bufpool.Pool instances (no sync.Pool of new([]...) outside internal/bufpool)"; exit 1; fi
	@if grep -rHnE --include='*.go' --exclude='*_test.go' '(DistToPoint|MaxDistToPoint|MinDist)\(' *.go bench cmd examples internal \
	      | grep -v '^internal/geom/' | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' | grep -E '[<>]' | grep -iw 'eps'; then \
	  echo "lint: an ε decision is geom.Rect.WithinDistOfPoint/InsideDistOfPoint/WithinDist, not a distance compared with eps"; exit 1; fi
	@if awk '/^func Oracle\(/ { o = 1 } !o && /DedupPairs\(|memjoin\.Options\{\}/ { print FILENAME ":" FNR ": " $$0; f = 1 } o && /^}/ { o = 0 } END { exit !f }' \
	      $$(ls internal/core/*.go | grep -v '_test\.go$$'); then \
	  echo "lint: pairs are born unique in core: every device join names its cell (no memjoin.Options{}), result assembly only sorts (no DedupPairs)"; exit 1; fi
	@if awk 'FNR == 1 { fn = "" } /^func / { fn = $$0 } /^[[:space:]]+go[[:space:]]/ { n++ } /^[[:space:]]+go[[:space:]]/ && fn !~ /^func \(rs \*ReplicaSet\) race\(/ { print FILENAME ":" FNR ": " $$0; f = 1 } END { if (n != 1) { print "internal/shard: " n + 0 " go statements"; f = 1 } exit !f }' \
	      $$(ls internal/shard/*.go | grep -v '_test\.go$$'); then \
	  echo "lint: one executor per fleet layer: internal/shard's one go statement is ReplicaSet.race's hedge race"; exit 1; fi
	@if grep -HnE '^func \(c \*Call\) Start\(|^(var|func)[[:space:]]+(starting|runStarted)\b' $$(ls internal/client/*.go | grep -v '_test\.go$$') || \
	    grep -rHnF --include='*.go' --exclude='*_test.go' '"repro/internal/gostack"' *.go bench cmd examples internal; then \
	  echo "lint: a scatter sends its sub-calls on its caller's stack (Call.Send): no Call.Start, starting, runStarted or internal/gostack"; exit 1; fi
	@if grep -HnE 'BatchEnabled|^func \(r \*Router\) (fan|send)\(' $$(ls internal/shard/*.go | grep -v '_test\.go$$'); then \
	  echo "lint: one executor per fleet layer: no path picked by BatchEnabled, no Router.fan or Router.send"; exit 1; fi
	@if grep -HnE 'wire\.Decode(Objects|BucketObjects|Pairs|Rects)|slices\.Sort' $$(ls internal/shard/*.go | grep -vE '_test\.go$$|/shard\.go$$'); then \
	  echo "lint: a routed list crosses the router as bytes: no object, pair or rect decode and no sort in internal/shard (wire.AppendList, wire.BucketGroups)"; exit 1; fi
	@if grep -HnE '^(type|func)[[:space:]]+(RouterOption|WithParallelism)\b' $$(ls internal/shard/*.go | grep -v '_test\.go$$'); then \
	  echo "lint: the shard router takes no options and bounds no scatter (no RouterOption, no WithParallelism)"; exit 1; fi
	@if grep -HnE 'type[[:space:]]+Aggregator[[:space:]]+struct|NewAggregator|^func[[:space:]]*\([[:alnum:]_]*[[:space:]]*\*Aggregator\)|leafGapper' \
	      $$(ls internal/shard/*.go | grep -v '_test\.go$$'); then \
	  echo "lint: an aggregation-tree node is a Router with a metered uplink (no Aggregator struct, NewAggregator, *Aggregator method or leafGapper)"; exit 1; fi
	@if grep -nE '^[[:space:]]*go[[:space:]]|\bchan\b' internal/netsim/channel.go || \
	    grep -rHnwE --include='*.go' --exclude='*_test.go' 'NonBlocking|ErrFrameRetained|RetainFrame' *.go bench cmd examples internal \
	      | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//'; then \
	  echo "lint: the in-process link is a function call (no go statement or chan in internal/netsim/channel.go, no NonBlocking, ErrFrameRetained or RetainFrame)"; exit 1; fi

# lint runs the static analyzers CI enforces (staticcheck, govulncheck).
# Locally the tools may be absent — this target never installs anything;
# it skips gracefully with a note so offline machines stay green, while
# the CI jobs install pinned versions and fail for real.
lint: lint-seams
	@if command -v staticcheck >/dev/null 2>&1; then \
	  staticcheck ./...; \
	else \
	  echo "lint: staticcheck not installed, skipping (CI runs it)"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
	  govulncheck ./...; \
	else \
	  echo "lint: govulncheck not installed, skipping (CI runs it)"; \
	fi

#!/usr/bin/env bash
# Coverage gate: run the full test suite with -coverprofile and fail when
# total statement coverage drops below the baseline floor. The floor is a
# couple of points under the measured baseline (81% when the replicated
# serving layer and its battery landed; the failure-domain layer held the
# total at ~79-80% while adding two CLI surfaces) so timing-dependent
# branches (retry backoffs, batch linger, fault injection, hedge timers,
# breaker probes) cannot flake the build, while any real coverage
# regression — a new subsystem landing without tests — still fails.
#
# New packages additionally get their own floor: a subsystem whose tests
# rot away should fail this gate even if the repository total happens to
# stay above the global bar.
set -euo pipefail

cd "$(dirname "$0")/.."
floor="${COVER_FLOOR:-79.0}"

# Only packages that have tests are measured: since Go 1.22 a package
# without test files is reported at 0% instead of being left out, which
# would count the command-line front ends (cmd/, examples/ — exercised by
# scripts/smoke.sh, not by go test) against the library's floor.
pkgs=$(go list -f '{{if or .TestGoFiles .XTestGoFiles}}{{.ImportPath}}{{end}}' ./...)
go test -coverprofile=cover.out $pkgs | tee cover.txt

check() { # check <label> <observed> <floor>
  echo "$1 statement coverage: $2% (floor $3%)"
  if ! awk -v t="$2" -v f="$3" 'BEGIN { exit (t + 0 >= f + 0) ? 0 : 1 }'; then
    echo "$1 coverage $2% fell below the $3% floor" >&2
    rm -f cover.out cover.txt
    exit 1
  fi
}

total=$(go tool cover -func=cover.out | tail -1 | awk '{print $3}' | tr -d '%')
check "total" "$total" "$floor"

# Per-package floors for the newest subsystems and for the shard layer
# (assignment and routing decide what every sharded probe costs), parsed
# from the test run's own "ok <pkg> ... coverage: NN.N%" lines.
for gate in "repro/internal/health:82.0" "repro/internal/harness:80.0" "repro/internal/memjoin:90.0" "repro/internal/fleet:85.0" "repro/internal/shard:83.0"; do
  pkg="${gate%%:*}"
  pfloor="${gate##*:}"
  pct=$(awk -v p="$pkg" '$1 == "ok" && $2 == p { for (i = 1; i <= NF; i++) if ($i == "coverage:") { sub(/%.*/, "", $(i + 1)); print $(i + 1) } }' cover.txt)
  check "$pkg" "${pct:-0}" "$pfloor"
done

rm -f cover.out cover.txt

#!/usr/bin/env bash
# Paired A/B gate: the working tree (the change) against a parent
# commit, both measured by the same command, one pair per workload and
# seed, the order rotated per pair so neither side always runs first on
# a warm or a cold machine.
#
#   scripts/abgate.sh [--parent-dir DIR] WORKLOADS SEEDS SECONDS PARENT_REF
#
# WORKLOADS is a comma-separated list of workload names, or all for
# every workload BENCHMARK.json declares; the report has one block per
# workload. A BENCHMARK.json workload runs bash benchmark/run.sh
# --workload W --seed N --seconds SECONDS --trace 0. The workload bench
# runs the micro-benchmarks of bench/: each tree's go test -c binary,
# built once, makes one -benchtime SECONDS s pass a pair from its own
# tree's bench/ directory, and every benchmark's ns/op and allocs/op is
# a metric (the seed only numbers the pair). SEEDS is a comma-separated
# list of seeds or ranges, e.g. 1-10 or 1,2,5-7. The parent is
# extracted with git archive into a temporary directory removed on
# exit; --parent-dir runs an existing checkout of the parent instead.
#
# For every metric the script reports each side's per-seed readings,
# median and interquartile range, the pairs the change won (ties count
# for neither side) and a verdict: better only when the change won at
# least nine tenths of at least ten pairs and the medians differ by more
# than the parent's IQR; worse by the same rule the other way round;
# identical when every pair tied; unresolved otherwise. A metric read on
# one side only is listed as new or gone and takes no verdict. The
# output is markdown.
#
# Exit status: 1 when a bench metric reads worse by more than gate_pct
# percent of the parent's median, or reads worse up from a parent
# median of 0 (a zero-allocation benchmark that starts allocating);
# 2 when a run fails or the arguments are wrong; 0 otherwise. The
# end-to-end workloads only report.
set -euo pipefail

# gate_pct is the smallest median gap a worse bench metric fails on:
# the tightest bound BENCHMARK.json sets on an end-to-end metric
# (wire_bytes_per_join, 0.1). A few percent of drift that survives the
# pair rule does not fail; a slowdown a change would have to defend does.
gate_pct=10

usage() {
  echo "usage: $0 [--parent-dir DIR] WORKLOADS SEEDS SECONDS PARENT_REF" >&2
  exit 2
}

parent_dir=""
if [ "${1:-}" = "--parent-dir" ]; then
  [ $# -ge 2 ] || usage
  parent_dir=$2
  shift 2
fi
[ $# -eq 4 ] || usage
workloadspec=$1 seedspec=$2 seconds=$3 ref=$4

root=$(cd "$(dirname "$0")/.." && pwd)
sha=$(git -C "$root" rev-parse --verify "$ref^{commit}")
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
trap 'exit 130' INT TERM

if [ -z "$parent_dir" ]; then
  parent_dir="$work/parent"
  mkdir "$parent_dir"
  git -C "$root" archive "$sha" | tar -x -C "$parent_dir"
fi
parent_dir=$(cd "$parent_dir" && pwd)

seeds=()
IFS=, read -ra parts <<<"$seedspec"
for p in "${parts[@]}"; do
  if [[ $p =~ ^([0-9]+)-([0-9]+)$ ]]; then
    for ((s = BASH_REMATCH[1]; s <= BASH_REMATCH[2]; s++)); do seeds+=("$s"); done
  elif [[ $p =~ ^[0-9]+$ ]]; then
    seeds+=("$p")
  else
    usage
  fi
done
[ ${#seeds[@]} -gt 0 ] || usage

if [ "$workloadspec" = all ]; then
  # The names of BENCHMARK.json's "workloads" array, one a line.
  mapfile -t workloads < <(awk '
    /"workloads"[[:space:]]*:/ { on = 1; next }
    on && /^[[:space:]]*\]/ { exit }
    on && match($0, /"name"[[:space:]]*:[[:space:]]*"[^"]+"/) {
      s = substr($0, RSTART, RLENGTH); sub(/^"name"[[:space:]]*:[[:space:]]*"/, "", s); sub(/"$/, "", s); print s
    }' "$root/BENCHMARK.json")
else
  IFS=, read -ra workloads <<<"$workloadspec"
fi
[ ${#workloads[@]} -gt 0 ] || usage

# run WORKLOAD SIDE DIR SEED appends "side seed metric value" lines to
# the workload's readings: for bench, every benchmark's ns/op and
# allocs/op (the GOMAXPROCS suffix cut off its name); otherwise the
# end-to-end metrics and the failed-join count of the JSON line the
# benchmark prints last.
run() {
  if [ "$1" = bench ]; then
    if ! (cd "$3/bench" && "$work/$2.bench.test" -test.run '^$' -test.bench . -test.benchmem \
      -test.count 1 -test.benchtime "${seconds}s" -test.timeout 10m) >"$work/log" 2>&1; then
      cat "$work/log" >&2
      echo "abgate: the $2 bench pass of pair $4 failed" >&2
      exit 2
    fi
    awk -v side="$2" -v seed="$4" '/^Benchmark/ {
      name = $1; sub(/-[0-9]+$/, "", name)
      for (i = 3; i < NF; i += 2) if ($(i+1) == "ns/op" || $(i+1) == "allocs/op") print side, seed, name ":" $(i+1), $i
    }' "$work/log" >>"$work/readings.$1"
    return
  fi
  local line
  line=$(cd "$3" && bash benchmark/run.sh --workload "$1" --seed "$4" --seconds "$seconds" --trace 0 2>"$work/log" | grep '^{' | tail -n 1) || true
  if [ -z "$line" ]; then
    cat "$work/log" >&2
    echo "abgate: the $2 run of $1 seed $4 printed no result" >&2
    exit 2
  fi
  echo "$line" | grep -oE '"[a-z0-9_]+":\{"value":[-0-9.eE+]+' |
    sed -E 's/^"([a-z0-9_]+)":\{"value":(.*)$/\1 \2/' |
    while read -r metric value; do echo "$2 $4 $metric $value"; done >>"$work/readings.$1"
  echo "$2 $4 failed $(echo "$line" | grep -oE '"failed":[0-9]+' | cut -d: -f2)" >>"$work/readings.$1"
}

cpu=$(grep -m1 'model name' /proc/cpuinfo 2>/dev/null | cut -d: -f2- | sed 's/^ *//' || true)
echo "# abgate: ${workloads[*]}; seeds $seedspec, ${seconds} s a run"
echo "# parent $ref ($(git -C "$root" rev-parse --short "$sha")) vs change: the working tree at $(git -C "$root" rev-parse --short HEAD)"
echo "# cpu: ${cpu:-unknown}; nproc $(nproc); $(go version)"
echo

# build_bench SIDE DIR compiles DIR's bench/ into the side's test binary.
build_bench() {
  if ! (cd "$2" && go test -c -o "$work/$1.bench.test" ./bench) >"$work/log" 2>&1; then
    cat "$work/log" >&2
    echo "abgate: building the $1 tree's bench/ failed" >&2
    exit 2
  fi
}

pair=0
for w in "${workloads[@]}"; do
  : >"$work/readings.$w"
  if [ "$w" = bench ]; then
    build_bench parent "$parent_dir"
    build_bench change "$root"
  fi
  for s in "${seeds[@]}"; do
    if ((pair % 2 == 0)); then
      run "$w" parent "$parent_dir" "$s"
      run "$w" change "$root" "$s"
    else
      run "$w" change "$root" "$s"
      run "$w" parent "$parent_dir" "$s"
    fi
    pair=$((pair + 1))
    echo "pair $pair/$((${#workloads[@]} * ${#seeds[@]})) ($w seed $s) done" >&2
  done
done

# report WORKLOAD prints the workload's block from its readings and, for
# bench, exits 1 when a metric fails the gate.
report() {
awk -v seeds="${seeds[*]}" -v bench="$([ "$1" = bench ] && echo 1 || echo 0)" -v gate_pct="$gate_pct" '
function num(x) { return (x >= 1000 || x <= -1000) ? sprintf("%.0f", x) : sprintf("%.4g", x) }
function sortn(a, n,    i, j, t) {
  for (i = 2; i <= n; i++) for (j = i; j > 1 && a[j-1] > a[j]; j--) { t = a[j]; a[j] = a[j-1]; a[j-1] = t }
}
# q returns the p-quantile of the sorted a[1..n], interpolating linearly.
function q(a, n, p,    h, lo) {
  h = (n - 1) * p + 1; lo = int(h)
  return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo+1] - a[lo])
}
function stats(side, m,    a, k, n) {
  n = 0
  for (k = 1; k <= ns; k++) if ((side, S[k], m) in v) a[++n] = v[side, S[k], m]
  sortn(a, n)
  med[side] = q(a, n, 0.5); iqr[side] = q(a, n, 0.75) - q(a, n, 0.25)
}
{ v[$1, $2, $3] = $4; on[$1, $3] = 1; if (!($3 in seen)) { seen[$3] = 1; order[++nm] = $3 } }
END {
  ns = split(seeds, S, " ")
  for (x = 1; x <= nm; x++) {
    m = order[x]
    if (m == "failed") continue
    if (!(("parent", m) in on) || !(("change", m) in on)) {
      printf "### %s: %s\n\n", m, (("change", m) in on) ? "new (the change alone reads it)" : "gone (the parent alone reads it)"
      continue
    }
    higher = (m ~ /_per_s$/)
    printf "### %s (%s is better)\n\n| side |", m, higher ? "higher" : "lower"
    for (k = 1; k <= ns; k++) printf " s%s |", S[k]
    printf " median | IQR |\n|---|"
    for (k = 1; k <= ns + 2; k++) printf "---|"
    printf "\n"
    for (side = 0; side < 2; side++) {
      name = side ? "change" : "parent"
      printf "| %s |", name
      for (k = 1; k <= ns; k++) printf " %s |", num(v[name, S[k], m])
      stats(name, m)
      printf " %s | %s |\n", num(med[name]), num(iqr[name])
    }
    won = lost = 0
    for (k = 1; k <= ns; k++) {
      d = v["change", S[k], m] - v["parent", S[k], m]
      if (higher) d = -d
      if (d < 0) won++; else if (d > 0) lost++
    }
    gap = med["change"] - med["parent"]; mag = gap < 0 ? -gap : gap
    good = higher ? gap > 0 : gap < 0
    verdict = won + lost == 0 ? "identical" : "unresolved"
    if (ns >= 10 && mag > iqr["parent"]) {
      if (good && won * 10 >= 9 * ns) verdict = "better"
      else if (!good && lost * 10 >= 9 * ns) verdict = "worse"
    }
    pct = med["parent"] != 0 ? sprintf("%+.2f %%", 100 * gap / med["parent"]) : "from 0"
    gated = ""
    if (bench && verdict == "worse" && (med["parent"] == 0 || mag * 100 > gate_pct * med["parent"])) {
      gated = med["parent"] == 0 ? ", up from 0: fails the gate" : ", past " gate_pct " %: fails the gate"
      fails++
    }
    printf "\npairs won by the change: %d of %d (%d lost, %d tied); median gap %s (%s) against the parent IQR %s: **%s**%s\n\n", \
      won, ns, lost, ns - won - lost, (gap > 0 ? "+" : "") num(gap), pct, num(iqr["parent"]), verdict, gated
  }
  if (bench) {
    printf "bench gate: %d metric(s) worse past %d %% of the parent median (or up from 0)\n\n", fails, gate_pct
    exit (fails > 0)
  }
  for (side = 0; side < 2; side++) {
    name = side ? "change" : "parent"; f = 0
    for (k = 1; k <= ns; k++) f += v[name, S[k], "failed"]
    printf "failed joins, %s: %d\n", name, f
  }
  printf "\n"
}' "$work/readings.$1"
}

status=0
for w in "${workloads[@]}"; do
  printf '## %s\n\n' "$w"
  report "$w" || status=1
done
exit $status

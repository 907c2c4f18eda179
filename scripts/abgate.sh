#!/usr/bin/env bash
# Paired A/B gate for one benchmark workload: the working tree (the
# change) against a parent commit, both run with the same benchmark
# command (bash benchmark/run.sh --workload W --seed N --seconds S
# --trace 0), one pair per seed, the order rotated per seed so neither
# side always runs first on a warm or a cold machine.
#
#   scripts/abgate.sh [--parent-dir DIR] WORKLOAD SEEDS SECONDS PARENT_REF
#
# SEEDS is a comma-separated list of seeds or ranges, e.g. 1-10 or
# 1,2,5-7. The parent is checked out with git worktree add in a
# temporary directory that is removed on exit; --parent-dir runs an
# existing checkout of the parent instead. For every end-to-end metric
# the benchmark prints, the script reports each side's per-seed
# readings, median and interquartile range, the pairs the change won
# (ties count for neither side) and a verdict: better only when the
# change won at least nine tenths of at least ten pairs and the medians
# differ by more than the parent's IQR; worse by the same rule the other
# way round; identical when every pair tied; unresolved otherwise. The
# output is markdown.
set -euo pipefail

usage() {
  echo "usage: $0 [--parent-dir DIR] WORKLOAD SEEDS SECONDS PARENT_REF" >&2
  exit 2
}

parent_dir=""
if [ "${1:-}" = "--parent-dir" ]; then
  [ $# -ge 2 ] || usage
  parent_dir=$2
  shift 2
fi
[ $# -eq 4 ] || usage
workload=$1 seedspec=$2 seconds=$3 ref=$4

root=$(cd "$(dirname "$0")/.." && pwd)
sha=$(git -C "$root" rev-parse --verify "$ref^{commit}")
work=$(mktemp -d)
worktree=""
cleanup() {
  if [ -n "$worktree" ]; then
    git -C "$root" worktree remove --force "$worktree" >/dev/null 2>&1 || true
  fi
  rm -rf "$work"
}
trap cleanup EXIT
trap 'exit 130' INT TERM

if [ -z "$parent_dir" ]; then
  worktree="$work/parent"
  git -C "$root" worktree add --detach "$worktree" "$sha" >/dev/null
  parent_dir=$worktree
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

# run SIDE DIR SEED appends "side seed metric value" lines to the
# readings, from the JSON line the benchmark prints last.
readings="$work/readings"
: >"$readings"
run() {
  local line
  line=$(cd "$2" && bash benchmark/run.sh --workload "$workload" --seed "$3" --seconds "$seconds" --trace 0 2>"$work/log" | grep '^{' | tail -n 1) || true
  if [ -z "$line" ]; then
    cat "$work/log" >&2
    echo "abgate: the $1 run of seed $3 printed no result" >&2
    exit 1
  fi
  echo "$line" | grep -oE '"[a-z0-9_]+":\{"value":[-0-9.eE+]+' |
    sed -E 's/^"([a-z0-9_]+)":\{"value":(.*)$/\1 \2/' |
    while read -r metric value; do echo "$1 $3 $metric $value"; done >>"$readings"
  echo "$1 $3 failed $(echo "$line" | grep -oE '"failed":[0-9]+' | cut -d: -f2)" >>"$readings"
}

cpu=$(grep -m1 'model name' /proc/cpuinfo 2>/dev/null | cut -d: -f2- | sed 's/^ *//' || true)
echo "# abgate: $workload, seeds $seedspec, ${seconds} s a run"
echo "# parent $ref ($(git -C "$root" rev-parse --short "$sha")) vs change: the working tree at $(git -C "$root" rev-parse --short HEAD)"
echo "# cpu: ${cpu:-unknown}; nproc $(nproc); $(go version)"
echo

for i in "${!seeds[@]}"; do
  s=${seeds[$i]}
  if ((i % 2 == 0)); then
    run parent "$parent_dir" "$s"
    run change "$root" "$s"
  else
    run change "$root" "$s"
    run parent "$parent_dir" "$s"
  fi
  echo "pair $((i + 1))/${#seeds[@]} (seed $s) done" >&2
done

awk -v seeds="${seeds[*]}" '
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
{ v[$1, $2, $3] = $4; if (!($3 in seen)) { seen[$3] = 1; order[++nm] = $3 } }
END {
  ns = split(seeds, S, " ")
  for (x = 1; x <= nm; x++) {
    m = order[x]
    if (m == "failed") continue
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
    pct = med["parent"] != 0 ? 100 * gap / med["parent"] : 0
    printf "\npairs won by the change: %d of %d (%d lost, %d tied); median gap %s (%+.2f %%) against the parent IQR %s: **%s**\n\n", \
      won, ns, lost, ns - won - lost, (gap > 0 ? "+" : "") num(gap), pct, num(iqr["parent"]), verdict
  }
  for (side = 0; side < 2; side++) {
    name = side ? "change" : "parent"; f = 0
    for (k = 1; k <= ns; k++) f += v[name, S[k], "failed"]
    printf "failed joins, %s: %d\n", name, f
  }
}' "$readings"

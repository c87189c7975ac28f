#!/usr/bin/env bash
# A/B pairs of springbench runs: a parent tree against a change tree.
#
#   scripts/ab_pairs.sh PARENT_TREE CHANGE_TREE WORKLOAD [PAIRS=10] [SECONDS=20] [SEED0=1000]
#
# Builds benchmark/springbench.exe in each tree, then runs PAIRS pairs of
# `springbench --workload WORKLOAD --seconds SECONDS --seed S`, pair i
# (1-based) with seed SEED0+i on both sides.  Odd pairs run the parent
# first, even pairs the change, so drift in the machine's load falls on
# both sides alike.  Each run's stdout is kept under $AB_OUT (default: a
# fresh directory from mktemp).
#
# The simulation is deterministic per seed, so both sides of a pair must
# print the same BENCH line (status, workload, seed, errors, digest; the
# op count is left out, as it grows with the rounds a run fits in its
# wall-time budget).  If they differ the script stops with exit 1.
#
# For every end-to-end metric (the METRIC lines of `--trace 0`) it prints
# each side's median and quartiles, the pairs the change won by the
# metric's own `better` direction (ties count for neither side), and
# gain=yes|no: yes when the change won at least nine tenths of the pairs
# and its median is better than the parent's by more than the parent's
# interquartile range.  Quartiles are the medians of the lower and upper
# halves of the sorted runs (the middle run excluded when the count is
# odd).
set -euo pipefail

if [ $# -lt 3 ]; then
  echo "usage: $0 PARENT_TREE CHANGE_TREE WORKLOAD [PAIRS=10] [SECONDS=20] [SEED0=1000]" >&2
  exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
pairs=${4:-10}
seconds=${5:-20}
seed0=${6:-1000}
out=${AB_OUT:-$(mktemp -d)}
mkdir -p "$out"

for tree in "$parent" "$change"; do
  dune build --root "$tree" --cache=disabled --display=quiet ./benchmark/springbench.exe
done

run() { # run SIDE TREE SEED PAIR
  (cd "$2" && ./_build/default/benchmark/springbench.exe \
    --workload "$workload" --seconds "$seconds" --seed "$3" 2>/dev/null) \
    >"$out/$1.$4.txt" || true
}

bench_line() { grep '^BENCH ' "$1" | sed 's/ ops=[0-9]*//'; }

for i in $(seq 1 "$pairs"); do
  seed=$((seed0 + i))
  if [ $((i % 2)) -eq 1 ]; then
    run parent "$parent" "$seed" "$i"
    run change "$change" "$seed" "$i"
  else
    run change "$change" "$seed" "$i"
    run parent "$parent" "$seed" "$i"
  fi
  p=$(bench_line "$out/parent.$i.txt")
  c=$(bench_line "$out/change.$i.txt")
  if [ -z "$p" ] || [ "$p" != "$c" ]; then
    echo "ab_pairs: pair $i (seed $seed) differs:" >&2
    echo "  parent: $p" >&2
    echo "  change: $c" >&2
    exit 1
  fi
  echo "pair $i seed=$seed ${p#BENCH }"
done

echo "AB workload=$workload pairs=$pairs seconds=$seconds seed0=$seed0 runs=$out"
for i in $(seq 1 "$pairs"); do
  awk -v pair="$i" '/^METRIC /{print "parent", pair, $0}' "$out/parent.$i.txt"
  awk -v pair="$i" '/^METRIC /{print "change", pair, $0}' "$out/change.$i.txt"
done | awk -v pairs="$pairs" '
  function field(line, key,   n, parts, j, kv) {
    n = split(line, parts, " ")
    for (j = 1; j <= n; j++) {
      split(parts[j], kv, "=")
      if (kv[1] == key) return kv[2]
    }
    return ""
  }
  # Median of v[lo..hi], v sorted ascending; an empty range (one run
  # per side) falls back to v[1].
  function med(v, lo, hi,   n, m) {
    n = hi - lo + 1
    if (n < 1) return v[1]
    m = lo + int((n - 1) / 2)
    return (n % 2 == 1) ? v[m] : (v[m] + v[m + 1]) / 2
  }
  function sorted(side, name, v,   n, j, k, t) {
    n = 0
    for (j = 1; j <= pairs; j++)
      if ((side, name, j) in val) v[++n] = val[side, name, j]
    for (j = 2; j <= n; j++) {
      t = v[j]
      for (k = j - 1; k >= 1 && v[k] > t; k--) v[k + 1] = v[k]
      v[k + 1] = t
    }
    return n
  }
  {
    side = $1; pair = $2; line = $0
    name = field(line, "name")
    if (!(name in better)) order[++nm] = name
    better[name] = field(line, "better")
    val[side, name, pair] = field(line, "value") + 0
  }
  END {
    for (x = 1; x <= nm; x++) {
      name = order[x]
      split("", pv); split("", cv)
      np = sorted("parent", name, pv)
      nc = sorted("change", name, cv)
      half = int(np / 2)
      pmed = med(pv, 1, np); pq1 = med(pv, 1, half); pq3 = med(pv, np - half + 1, np)
      half = int(nc / 2)
      cmed = med(cv, 1, nc); cq1 = med(cv, 1, half); cq3 = med(cv, nc - half + 1, nc)
      wins = 0
      for (j = 1; j <= pairs; j++) {
        p = val["parent", name, j]; c = val["change", name, j]
        if (better[name] == "higher" ? c > p : c < p) wins++
      }
      gap = (better[name] == "higher") ? cmed - pmed : pmed - cmed
      gain = (wins * 10 >= pairs * 9 && gap > pq3 - pq1) ? "yes" : "no"
      printf "AB metric=%s better=%s parent_median=%.6g parent_q1=%.6g parent_q3=%.6g change_median=%.6g change_q1=%.6g change_q3=%.6g wins=%d/%d gain=%s\n",
        name, better[name], pmed, pq1, pq3, cmed, cq1, cq3, wins, pairs, gain
    }
  }'

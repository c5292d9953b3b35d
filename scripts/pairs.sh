#!/usr/bin/env bash
# Alternating parent/change pairs of the job-path benchmark, judged by one
# rule.
#
#   scripts/pairs.sh PARENT [--pairs N] [--workload W] [--seed S]
#
# Copies commit PARENT into target/pairs/parent-<commit> (`git archive`;
# the copy and its build are kept, so a later invocation against the same
# parent reuses them), and runs `benchmark/run.sh --workload W --seed S
# --seconds T --trace 0` (T is BENCHMARK.json's `run_seconds`) from that
# copy and from the working tree, N pairs in ABBA order: the parent runs
# first in odd pairs, the change in even ones. Both sides build their own
# `benchmark/target` before the first run. `benchmark/` is only called, never edited: a build
# rewrites its Cargo.lock, which is restored if it was clean before.
#
# Each run logs the machine's steal ticks over the run (the `cpu` line of
# /proc/stat, read only) and the CPU time of the run's process tree. The
# end-to-end metrics of BENCHMARK.json, with their `better` and `bound`,
# go through scripts/pairs_rule.awk, which gives each metric both medians,
# both sides' quartiles, the change's wins out of the pairs and a verdict
# (`better`, `worse`, `unchanged` or `unresolved`). The tables are written
# as pairs.json and pairs.md to target/pairs/W-sS-<time>/, with the
# per-run log and each run's output beside them.
#
# Defaults: 10 pairs of `durable` at seed 11.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"

usage() { echo "usage: scripts/pairs.sh PARENT [--pairs N] [--workload W] [--seed S]" >&2; exit 2; }
[ $# -ge 1 ] || usage
parent=$1
shift
pairs=10 workload=durable seed=11
while [ $# -gt 0 ]; do
  [ $# -ge 2 ] || usage
  case $1 in
    --pairs) pairs=$2 ;;
    --workload) workload=$2 ;;
    --seed) seed=$2 ;;
    *) usage ;;
  esac
  shift 2
done
[[ $pairs =~ ^[1-9][0-9]*$ && $seed =~ ^[0-9]+$ && $workload =~ ^[a-z_]+$ ]] || usage
rev=$(git rev-parse --verify "$parent^{commit}")
seconds=$(sed -n 's/^ *"run_seconds": *\([0-9.]*\).*/\1/p' BENCHMARK.json)

# name<TAB>better<TAB>bound of each end-to-end metric, in BENCHMARK.json's order.
metrics=$(awk '
  /"end_to_end"/ { on = 1; next }
  on && /^  \]/ { exit }
  on && /"name"/ { gsub(/[",]/, "", $2); name = $2 }
  on && /"better"/ { gsub(/[",]/, "", $2); better = $2 }
  on && /"bound"/ { gsub(/[",]/, "", $2); print name "\t" better "\t" $2 }
' BENCHMARK.json)
[ -n "$metrics" ] || { echo "pairs.sh: no end-to-end metric in BENCHMARK.json" >&2; exit 1; }

out="target/pairs/$workload-s$seed-$(date -u +%Y%m%dT%H%M%SZ)"
mkdir -p "$out/runs"
lock_was_clean=0
git diff --quiet -- benchmark/Cargo.lock && lock_was_clean=1
restore_lock() {
  if [ "$lock_was_clean" = 1 ]; then git checkout -q -- benchmark/Cargo.lock; fi
}
trap restore_lock EXIT

scratch="$root/target/pairs/parent-$rev"
if [ ! -d "$scratch" ]; then
  copy=$(mktemp -d "$root/target/pairs/.parent-XXXXXX")
  git archive "$rev" | tar -x -C "$copy"
  mv "$copy" "$scratch"
fi
echo "==> building the parent ($rev) and the working tree" >&2
"$scratch/benchmark/run.sh" contract >/dev/null
benchmark/run.sh contract >/dev/null

steal() { awk '/^cpu / { print $9; exit }' /proc/stat; }

# run SIDE PAIR: one run; appends its log line to $out/runs.tsv.
run() {
  local side=$1 pair=$2 dir=$root s0 s1 cpu t0 t1 last
  [ "$side" = parent ] && dir=$scratch
  local base="$out/runs/$pair-$side"
  s0=$(steal)
  t0=$(date +%s.%N)
  cpu=$({
    TIMEFORMAT='%3U %3S'
    time "$dir/benchmark/run.sh" --workload "$workload" --seed "$seed" \
      --seconds "$seconds" --trace 0 >"$base.out" 2>"$base.err"
  } 2>&1) || { echo "pairs.sh: $side run of pair $pair failed; see $base.err" >&2; exit 1; }
  t1=$(date +%s.%N)
  s1=$(steal)
  last=$(tail -n 1 "$base.out")
  [[ $last == '{"correct": true,'* ]] \
    || { echo "pairs.sh: $side run of pair $pair is not correct: $last" >&2; exit 1; }
  printf '%s\t%s\t%s\t%s\t%s\t%s\t%s\n' "$pair" "$side" "$((s1 - s0))" \
    "${cpu% *}" "${cpu#* }" "$(awk -v a="$t0" -v b="$t1" 'BEGIN { printf "%.2f", b - a }')" \
    "$last" >>"$out/runs.tsv"
  echo "pair $pair $side: $(cut -c1-160 <<<"$last")" >&2
}

: >"$out/runs.tsv"
for pair in $(seq 1 "$pairs"); do
  if [ $((pair % 2)) = 1 ]; then run parent "$pair"; run change "$pair"
  else run change "$pair"; run parent "$pair"; fi
done

# value SIDE METRIC: the metric of every SIDE run, comma-separated in pair order.
value() {
  awk -F '\t' -v side="$1" -v m="\"$2\": {\"value\": " '
    $2 == side { i = index($7, m); v = substr($7, i + length(m)); sub(/[,}].*/, "", v); print $1 "\t" v }
  ' "$out/runs.tsv" | sort -n | cut -f2 | paste -sd, -
}

while IFS=$'\t' read -r name better bound; do
  printf '%s\t%s\t%s\t%s\t%s\n' "$name" "$better" "$bound" "$(value parent "$name")" "$(value change "$name")"
done <<<"$metrics" | awk -f scripts/pairs_rule.awk >"$out/verdicts.tsv"

{
  printf '{\n  "parent": "%s",\n  "workload": "%s",\n  "seed": %s,\n  "seconds": %s,\n  "pairs": %s,\n  "metrics": [\n' \
    "$rev" "$workload" "$seed" "$seconds" "$pairs"
  awk -F '\t' '{
    printf "%s    {\"name\": \"%s\", \"parent\": {\"median\": %s, \"q1\": %s, \"q3\": %s}, \"change\": {\"median\": %s, \"q1\": %s, \"q3\": %s}, \"wins\": %s, \"pairs\": %s, \"verdict\": \"%s\"}", (NR > 1 ? ",\n" : ""), $1, $2, $3, $4, $5, $6, $7, $8, $9, $10
  } END { print "" }' "$out/verdicts.tsv"
  printf '  ],\n  "runs": [\n'
  awk -F '\t' '{
    printf "%s    {\"pair\": %s, \"side\": \"%s\", \"steal_ticks\": %s, \"cpu_user_s\": %s, \"cpu_sys_s\": %s, \"wall_s\": %s, \"result\": %s}", (NR > 1 ? ",\n" : ""), $1, $2, $3, $4, $5, $6, $7
  } END { print "" }' "$out/runs.tsv"
  printf '  ]\n}\n'
} >"$out/pairs.json"

{
  echo "\`scripts/pairs.sh $parent --pairs $pairs --workload $workload --seed $seed\`: parent \`${rev:0:7}\`, change = the working tree, \`--seconds $seconds --trace 0\`, ABBA order."
  echo
  echo "| metric | parent median (Q1–Q3) | change median (Q1–Q3) | change | wins | verdict |"
  echo "|---|---|---|---|---|---|"
  awk -F '\t' '
    function fmt(x) { return sprintf(x >= 1000 || x <= -1000 ? "%.0f" : "%.4g", x) }
    {
      rel = $2 == 0 ? "—" : sprintf("%+.1f%%", 100 * ($5 - $2) / ($2 < 0 ? -$2 : $2))
      printf "| `%s` | %s (%s–%s) | %s (%s–%s) | %s | %d/%d | %s |\n", $1, fmt($2), fmt($3), fmt($4),
        fmt($5), fmt($6), fmt($7), rel, $8, $9, $10
    }' "$out/verdicts.tsv"
  echo
  echo "| pair | side | steal ticks | CPU user + sys (s) | wall (s) |"
  echo "|---|---|---|---|---|"
  awk -F '\t' '{ printf "| %s | %s | %s | %.2f | %s |\n", $1, $2, $3, $4 + $5, $6 }' "$out/runs.tsv"
} >"$out/pairs.md"

cat "$out/pairs.md"
echo "pairs.sh: wrote $out/pairs.json and $out/pairs.md" >&2

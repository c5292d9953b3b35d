#!/bin/bash
# Regenerates every paper figure and every extension experiment: each line
# runs one row of the figure table (`figures <name>`, crates/bench/src/figures.rs).
# Paper-scale runs: append --paper to any figure line (needs hours on one core).
set -x
cd "$(dirname "$0")/.."
cargo build --release -p mris-bench --bins
B=target/release
fig() { $B/figures "$@" > "results/$1.txt" 2> "results/$1.log"; }
fig fig7
fig lemma41
fig fig5 --samples 3
fig fig3
fig fig2
fig fig4 --samples 5
fig fig1
fig fig6 --samples 5
fig makespan --samples 5
fig ratios --samples 5
fig ablation --samples 5
fig runtime
fig dynamics
fig fairness --samples 3
$B/figures fig3 --paper --sweep 64000 --samples 1 > results/paper_scale_probe.txt 2> results/paper_scale_probe.log
$B/chaos    --out results/BENCH_chaos.json    > /dev/null 2> results/chaos.log
$B/obs      --out results/BENCH_obs.json      > /dev/null 2> results/obs.log
echo ALL_DONE

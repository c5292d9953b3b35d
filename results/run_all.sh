#!/bin/bash
# Regenerates every paper figure and every extension experiment.
# Paper-scale runs: append --paper to any line (needs hours on one core).
set -x
cd "$(dirname "$0")/.."
cargo build --release -p mris-bench --bins
B=target/release
$B/fig7     > results/fig7.txt     2> results/fig7.log
$B/lemma41  > results/lemma41.txt  2> results/lemma41.log
$B/fig5  --samples 3 > results/fig5.txt 2> results/fig5.log
$B/fig3     > results/fig3.txt     2> results/fig3.log
$B/fig2     > results/fig2.txt     2> results/fig2.log
$B/fig4  --samples 5 > results/fig4.txt 2> results/fig4.log
$B/fig1     > results/fig1.txt     2> results/fig1.log
$B/fig6  --samples 5 > results/fig6.txt 2> results/fig6.log
$B/makespan --samples 5 > results/makespan.txt 2> results/makespan.log
$B/ratios   --samples 5 > results/ratios.txt   2> results/ratios.log
$B/ablation --samples 5 > results/ablation.txt 2> results/ablation.log
$B/runtime  > results/runtime.txt  2> results/runtime.log
$B/dynamics > results/dynamics.txt 2> results/dynamics.log
$B/fairness --samples 3 > results/fairness.txt 2> results/fairness.log
$B/chaos    --out results/BENCH_chaos.json    > /dev/null 2> results/chaos.log
$B/obs      --out results/BENCH_obs.json      > /dev/null 2> results/obs.log
echo ALL_DONE

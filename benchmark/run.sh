#!/usr/bin/env bash
# Builds the benchmark package and runs it. See README.md.
#
#   benchmark/run.sh [--seed 11] [--smoke] [--workload NAME] [--twice]
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   benchmark/run.sh compare A.json B.json
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# Every workload is pinned; running unpinned instead would silently measure
# the cross-CPU wake-up mode (see README.md, Pinning).
if ! command -v taskset >/dev/null; then
    echo "benchmark/run.sh: taskset (util-linux) not found; the workloads must be pinned, refusing to run unpinned" >&2
    exit 3
fi

# Cargo reads a relative CARGO_TARGET_DIR against the directory it is
# started in, so the build stays where the caller pointed it.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/mris-benchmark" "$@"

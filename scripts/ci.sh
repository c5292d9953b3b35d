#!/usr/bin/env bash
# Full local CI: formatting, lints, hermetic offline build, and tests.
#
# The workspace has no external dependencies, so both the build and the
# tests must succeed with an empty cargo registry cache and no network —
# `--offline` enforces that invariant on every run.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> every library crate forbids unsafe code"
for lib in crates/*/src/lib.rs src/lib.rs; do
  grep -qx '#!\[forbid(unsafe_code)\]' "$lib" \
    || { echo "$lib lacks #![forbid(unsafe_code)]" >&2; exit 1; }
done

# A knapsack solve is a pure function of its arguments: what the DP may
# skip is decided per solve and passed down, never kept between solves.
# Likewise a baseline policy's pending index lives in the policy value.
echo "==> mris-knapsack and mris-schedulers keep no global state and read no environment"
if git grep -nE "thread_local!|static mut|OnceLock|std::env" crates/knapsack/src crates/schedulers/src; then
  echo "crates/knapsack/src or crates/schedulers/src holds global state or reads the environment" >&2; exit 1
fi

# The DP's speed comes from the baseline SSE2 packed ops the compiler
# emits for its `f64` and `i16` cells; there is no runtime CPU dispatch
# and no explicit vector intrinsic to keep in step with the scalar
# reference (DESIGN.md §18).
echo "==> mris-knapsack names no CPU-specific vector code"
if git grep -nE "std::arch|target_feature|is_x86_feature_detected" crates/knapsack/src; then
  echo "crates/knapsack/src dispatches on CPU features or uses vector intrinsics" >&2; exit 1
fi

# `mris-net` is the one front end: the service loop runs on its caller's
# thread.
echo "==> mris-service spawns no thread and holds no channel"
if git grep -nE "std::thread|mpsc" crates/service/src; then
  echo "crates/service/src uses a thread or a channel" >&2; exit 1
fi

# A cluster is placed by one sequential sweep on the calling thread: a
# pooled scan measured slower than it at 1,024 machines and was deleted
# (DESIGN.md §13). The crate's one permitted hit is its `forbid` line.
echo "==> mris-sim spawns no thread and holds no atomic, lock or unsafe block"
if git grep -nE "std::thread|Atomic|Condvar|Mutex|unsafe" crates/sim/src \
  | grep -vE '^crates/sim/src/lib\.rs:[0-9]+:#!\[forbid\(unsafe_code\)\]$'; then
  echo "crates/sim/src uses a thread, an atomic, a lock or unsafe code" >&2; exit 1
fi

# The kernel's `EventSink` is the one per-event record of a run; the
# service's telemetry and journal and the driver's snapshots fold it.
echo "==> one EventSink trait; no ObsBridge, no Decided"
if [ "$(git grep -n 'trait EventSink' -- crates/*/src | wc -l)" -ne 1 ] \
  || git grep -nwE 'ObsBridge|Decided' -- crates/*/src; then
  echo "crates/*/src reports events outside the kernel's one EventSink" >&2; exit 1
fi

# DESIGN.md names the tests that pin each invariant; a test renamed or
# deleted must not leave a citation behind.
echo "==> every test file and test named in DESIGN.md exists"
for path in $(grep -oE '`[A-Za-z0-9_./-]*tests/[A-Za-z0-9_]+\.rs`' DESIGN.md | tr -d '`' | sort -u); do
  git ls-files --error-unmatch "$path" >/dev/null 2>&1 \
    || { echo "DESIGN.md cites $path, which is not a tracked file" >&2; exit 1; }
done
for cite in $(grep -oE '[A-Za-z0-9_]+\.rs::[A-Za-z0-9_]+' DESIGN.md | sort -u); do
  git grep -qw "fn ${cite#*::}" -- "*${cite%%::*}" \
    || { echo "DESIGN.md cites $cite, which names no fn in that file" >&2; exit 1; }
done

# Product crates keep only what runs: test oracles and crash plans live in
# the tests that use them, code no scheduler, bin or workload calls was
# deleted, and arrival processes have one vocabulary, `mris_trace::Arrivals`.
# A value that both a snapshot and the wire carry has one encoder and one
# decoder next to its type (`AdmissionError::encode`, `Schedule::encode`,
# `FaultLog::encode`, `JobOutcome::encode` and their decoders): the second
# codecs each once had, which disagreed on tags, widths and checks, are
# listed by name so that none comes back beside the one. Every durable
# value's codec has one shape, `mris_types::Codec` (encode into an
# `Encoder`, decode a new value from a `Decoder` and a context), so the raw
# appenders and in-place loaders it replaced are listed too. Admission
# records a rejection in one place (`Service::reject`), and the helpers no
# caller used are listed with the per-gate copy it replaced. The timeline
# has one scan body and one block fold, generic over a resource lane, so
# the hand-mirrored fixed-width and slice cores are listed with the
# test-only window check, placement wrapper and completion pop beside them.
echo "==> no test-only mode, unused extra, second arrival vocabulary or second codec in product crates"
if git grep -nwE 'From<ConfigError> for String|reject_tenant|gauge_set_labeled|histogram_record_labeled|AwctRow|mris_with_heuristic|mris_greedy|CsvError|force_epoch_rebuild|place_batch_ffd|max_weight_by_deadline|render_gantt|best_list_schedule|brute_force|ArrivalProcess|ArrivalPattern|generate_workload|LoadGenConfig|run_workload|CrashPlan|checked_len|encode_admission_error|decode_admission_error|decode_admission_error_with|encode_admission_result|decode_admission_result|encode_outcome|decode_outcome|outcome_tag|durable_run_bytes|durable_bytes|load_durable|durable_fault_bytes|load_fault_bytes|load_cluster_bytes|load_run_bytes|load_gate_bytes|durable_bytes_if_active|load_durable_if_active|encode_entries|decode_entries|buffer_mut|finish_load|scan_any|scan_core|recompute_block_any|recompute_block_core|block_feasible|block_saturated|is_feasible|place_earliest|complete_due' -- crates/*/src src; then
  echo "crates/*/src or src/ names a deleted test-only mode, extra, oracle, arrival type or second codec" >&2; exit 1
fi

# Release times are drawn in one place, `mris_trace::Arrivals`. The service
# re-exports one function of it for the job-path benchmark and draws no
# random number of its own: `mris-rng` is only a dev-dependency there.
echo "==> mris-service names mris_trace once and takes mris-rng only for its tests"
if [ "$(git grep -nw 'mris_trace' -- crates/service/src | wc -l)" -ne 1 ] \
  || awk '/^\[/ { section = $0 } /^mris-rng/ && section != "[dev-dependencies]" { bad = 1 }
      END { exit !bad }' crates/service/Cargo.toml; then
  echo "crates/service/src names mris_trace more than once, or mris-service depends on mris-rng" >&2; exit 1
fi

# Release-mode panic sites (`assert!`, `.expect(`, `.unwrap()`, ...) in
# product code may fall but not rise: the per-crate counts are committed
# in scripts/panic_sites.txt (ROADMAP item 20).
echo "==> no crate has more release-mode panic sites than scripts/panic_sites.txt"
scripts/panic_sites.sh

# scripts/pairs.sh judges alternating benchmark pairs by one rule,
# scripts/pairs_rule.awk; on runs EXPERIMENTS.md recorded it must read
# what those were judged by hand (PR 45's `durable` pairs `better`, its
# `wide` pairs `unresolved`, PR 44's one program measured twice neither
# `better` nor `worse`).
echo "==> the pair rule reads its fixtures"
scripts/pairs_rule_test.sh

echo "==> cargo clippy (workspace, all targets, -D warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo build --release --offline"
cargo build --release --offline --workspace

echo "==> cargo test -q --offline"
cargo test -q --offline --workspace

# The watermark-clamp regression test is compiled out of debug builds
# (`#[cfg(not(debug_assertions))]` — the debug path asserts instead of
# clamping), so the sim suite must also run in release mode. That takes
# `probe_differential` (floors against the pre-floor per-job probe) and
# `probe_counts_golden` (the exact rule-out, scan and block-jump counts of
# seeded scripts) along: both run in both profiles.
echo "==> cargo test -q --release --offline -p mris-sim"
cargo test -q --release --offline -p mris-sim

# The knapsack DP kernel, on `i16` cells and on `f64` cells, compiles to
# packed add/compare/select in release and to a scalar loop in debug, where
# the `i16` adds are also overflow-checked; its differential test must hold
# in both profiles.
echo "==> cargo test -q --release --offline -p mris-knapsack"
cargo test -q --release --offline -p mris-knapsack

# Batch MRIS is pinned in absolute terms (there is no second loop left to
# compare it against); the pins must hold in both profiles for the same
# reason as the DP's, and `cadp_overload_golden` runs solves on both of the
# DP's cell types, `i16` and `f64`. `timeline_hardening`, `dag_golden` and `chaos_golden`
# ride along: that is where floors meet `reset_machine`, downtime blocks and
# `p / speed`, and debug and release take different assertion paths there.
echo "==> cargo test -q --release --offline --test cadp_overload_golden --test mris_batch_golden --test timeline_hardening --test dag_golden --test chaos_golden"
cargo test -q --release --offline --test cadp_overload_golden --test mris_batch_golden \
  --test timeline_hardening --test dag_golden --test chaos_golden

# Every figure's output is pinned at a small scale in both profiles, and
# each committed results/*.txt whose default run takes at most ~20 s is
# regenerated with its results/run_all.sh line and must match byte for byte.
echo "==> cargo test -q --release --offline -p mris-bench --test figures_golden"
cargo test -q --release --offline -p mris-bench --test figures_golden
echo "==> the quick figures regenerate their committed results/*.txt"
for name in fig7 lemma41 dynamics ablation fig2 fairness fig1 fig5; do
  line=$(grep -E "^fig $name( |\$)" results/run_all.sh) \
    || { echo "results/run_all.sh has no line for $name" >&2; exit 1; }
  read -ra argv <<<"${line#fig }"
  diff <(target/release/figures "${argv[@]}" 2>/dev/null) "results/$name.txt" \
    || { echo "results/$name.txt is not what \`figures ${argv[*]}\` prints" >&2; exit 1; }
done

# Everything the smoke steps below write goes here, so a CI run leaves the
# work tree as it found it.
CI_TMP=$(mktemp -d)
trap 'rm -rf "$CI_TMP"' EXIT

echo "==> chaos bench smoke run + schema check"
cargo run --release --offline -p mris-bench --bin chaos -- \
  --smoke --out "$CI_TMP/BENCH_chaos_smoke.json" >/dev/null
for key in '"bench": "chaos"' '"mode": "smoke"' '"restart"' '"rates"' \
  '"schedulers"' '"baseline_awct"' '"results"' '"rate"' '"awct"' \
  '"awct_inflation"' '"failures"' '"kills"' '"re_releases"'; do
  grep -qF "$key" "$CI_TMP/BENCH_chaos_smoke.json" \
    || { echo "BENCH_chaos_smoke.json is missing $key" >&2; exit 1; }
done

# The baselines' demand-class index against the full-rescan references,
# and PQ-WSJF's durable bytes, at the deep-queue sizes release reaches.
echo "==> cargo test -q --release --offline -p mris-schedulers --test pending_differential + -p mris-service --test pq_durable_golden"
cargo test -q --release --offline -p mris-schedulers --test pending_differential
cargo test -q --release --offline -p mris-service --test pq_durable_golden

echo "==> durability suites in release (crash-restart equivalence + codec fuzz + record stream golden + CRC differential)"
cargo test -q --release --offline -p mris-service \
  --test crash_restart --test durability_codec --test record_stream_golden
# Its own invocation: a name filter would apply to the three suites above too.
# The sliced CRC loop is the code that ships, so its differential runs here.
cargo test -q --release --offline -p mris-service --lib codec
# Restore starts from a decoded snapshot: genesis replay must re-derive
# every snapshot's bytes, and `restore --snapshot-dir` must pick the newest
# snapshot a torn journal still reaches.
cargo test -q --release --offline -p mris-service --lib restore
cargo test -q --release --offline -p mris-cli restore_from_snapshot_dir

echo "==> net + tenancy suites in release (TCP ≡ in-process, frame layer, concurrent doors, DRR split)"
cargo test -q --release --offline -p mris-net
cargo test -q --release --offline -p mris-service --test tenant_fairness

echo "==> CLI crash-restart smoke (serve --journal, torn tail, restore --snapshot-dir)"
DUR_TMP="$CI_TMP/dur"
mkdir "$DUR_TMP"
cargo run --release --offline -p mris-cli --bin mris -- generate \
  --jobs 80 --out "$DUR_TMP/trace.csv" >/dev/null
cargo run --release --offline -p mris-cli --bin mris -- serve \
  --trace "$DUR_TMP/trace.csv" --algo pq-wsjf --machines 3 \
  --journal "$DUR_TMP/wal.mrjl" --snapshot-dir "$DUR_TMP/snaps" \
  --snapshot-every 16 > "$DUR_TMP/serve.txt"
# Crash simulation: keep only the first two thirds of the journal.
WAL_BYTES=$(wc -c < "$DUR_TMP/wal.mrjl")
head -c $((WAL_BYTES * 2 / 3)) "$DUR_TMP/wal.mrjl" > "$DUR_TMP/torn.mrjl"
cargo run --release --offline -p mris-cli --bin mris -- restore \
  --trace "$DUR_TMP/trace.csv" --algo pq-wsjf --machines 3 \
  --journal "$DUR_TMP/torn.mrjl" --snapshot-dir "$DUR_TMP/snaps" \
  --snapshot-every 16 > "$DUR_TMP/restore.txt"
grep -q 'shutdown    = crash' "$DUR_TMP/restore.txt" \
  || { echo "restore did not classify the torn journal as a crash" >&2; exit 1; }
grep -q '^snapshot    = restored from the snapshot at lsn [0-9]' "$DUR_TMP/restore.txt" \
  || { echo "restore --snapshot-dir did not start from a snapshot" >&2; exit 1; }
SERVE_AWCT=$(grep '^AWCT' "$DUR_TMP/serve.txt")
grep -qF "$SERVE_AWCT" "$DUR_TMP/restore.txt" \
  || { echo "crash-restart AWCT diverged from the uncrashed serve" >&2; exit 1; }

echo "==> CLI refusals (a misspelled flag; a journal on the TCP door)"
if cargo run --release --offline -q -p mris-cli --bin mris -- serve \
  --trace "$DUR_TMP/trace.csv" --algo pq-wsjf --machines 3 \
  --jurnal "$DUR_TMP/typo.mrjl" > /dev/null 2> "$DUR_TMP/typo.txt"; then
  echo "serve accepted the misspelled --jurnal" >&2; exit 1
fi
grep -q 'did you mean --journal' "$DUR_TMP/typo.txt" \
  || { echo "serve --jurnal gave no did-you-mean" >&2; exit 1; }
# The door keeps no journal yet: refused before it binds, so no port file.
if timeout 30 cargo run --release --offline -q -p mris-cli --bin mris -- serve \
  --listen 127.0.0.1:0 --port-file "$DUR_TMP/port.txt" \
  --trace "$DUR_TMP/trace.csv" --algo pq-wsjf --machines 3 \
  --journal "$DUR_TMP/door.mrjl" > /dev/null 2>&1; then
  echo "serve --listen accepted --journal" >&2; exit 1
fi
[ ! -e "$DUR_TMP/port.txt" ] \
  || { echo "serve --listen opened its door before refusing --journal" >&2; exit 1; }

echo "==> CLI loopback smoke (serve --listen, client submit, drain, AWCT grep)"
NET_TMP="$CI_TMP/net"
mkdir "$NET_TMP"
cargo run --release --offline -p mris-cli --bin mris -- generate \
  --jobs 60 --out "$NET_TMP/trace.csv" >/dev/null
# Two tenants so the per-tenant metric families are live; the ephemeral
# port lands in --port-file once the door is open.
cargo run --release --offline -p mris-cli --bin mris -- serve \
  --trace "$NET_TMP/trace.csv" --algo pq-wsjf --machines 3 \
  --tenants 'alpha:tok-a:3.0,beta:tok-b:1.0' \
  --listen 127.0.0.1:0 --port-file "$NET_TMP/port.txt" \
  --metrics-path "$NET_TMP/metrics.prom" > "$NET_TMP/serve.txt" 2>/dev/null &
SERVE_PID=$!
for _ in $(seq 1 100); do
  [ -s "$NET_TMP/port.txt" ] && break
  sleep 0.1
done
[ -s "$NET_TMP/port.txt" ] || { echo "serve --listen never opened its door" >&2; exit 1; }
ADDR=$(cat "$NET_TMP/port.txt")
cargo run --release --offline -p mris-cli --bin mris -- client submit \
  --connect "$ADDR" --trace "$NET_TMP/trace.csv" --token tok-a > "$NET_TMP/submit.txt"
grep -q 'accepted 60, rejected 0' "$NET_TMP/submit.txt" \
  || { echo "client submit did not admit the whole trace" >&2; exit 1; }
cargo run --release --offline -p mris-cli --bin mris -- client drain \
  --connect "$ADDR" --token tok-b > "$NET_TMP/drain.txt"
wait "$SERVE_PID" || { echo "serve --listen exited non-zero" >&2; exit 1; }
grep -q '^AWCT' "$NET_TMP/drain.txt" \
  || { echo "client drain printed no AWCT" >&2; exit 1; }
SERVE_AWCT=$(grep '^AWCT' "$NET_TMP/serve.txt")
grep -qF "$SERVE_AWCT" "$NET_TMP/drain.txt" \
  || { echo "client-side AWCT diverged from the server's report" >&2; exit 1; }
grep -q 'fault log verified OK' "$NET_TMP/drain.txt" \
  || { echo "client drain skipped fault-log verification" >&2; exit 1; }
for family in mris_net_connections_total mris_net_frames_rx_total \
  mris_net_frames_tx_total mris_net_bytes_rx_total mris_net_bytes_tx_total \
  mris_tenant_admitted_total mris_tenant_queued_demand_total; do
  grep -q "^# TYPE $family " "$NET_TMP/metrics.prom" \
    || { echo "serve --listen metrics are missing the $family family" >&2; exit 1; }
done

echo "==> obs bench smoke run + schema check"
cargo run --release --offline -p mris-bench --bin obs -- \
  --smoke --out "$CI_TMP/BENCH_obs_smoke.json" >/dev/null
for key in '"bench": "obs"' '"mode": "smoke"' '"disabled_path"' \
  '"counter_ns_per_op"' '"span_ns_per_op"' '"budget_ns_per_op"' \
  '"trace_replay"' '"metrics_overhead_pct"' '"disabled_repeat_delta_pct"' \
  '"within_budget"' '"instrumented_run"' '"metric_families"' \
  '"snapshot_valid": true'; do
  grep -qF "$key" "$CI_TMP/BENCH_obs_smoke.json" \
    || { echo "BENCH_obs_smoke.json is missing $key" >&2; exit 1; }
done
# The bench writes its format-validated Prometheus snapshot next to the
# JSON; require every instrumented subsystem's metric family to be present.
for family in mris_dispatcher_placements_total mris_knapsack_solves_total \
  mris_timeline_probes_total mris_timeline_commits_total \
  mris_service_admitted_total mris_service_epochs_total \
  mris_service_decision_latency_seconds mris_schedule_seconds \
  mris_epoch_grid_seconds mris_epoch_filter_seconds mris_epoch_solve_seconds \
  mris_epoch_probe_seconds mris_epoch_commit_seconds \
  mris_journal_appends_total \
  mris_journal_bytes_total mris_journal_flushes_total mris_snapshot_seconds \
  mris_restore_seconds; do
  grep -q "^# TYPE $family " "$CI_TMP/BENCH_obs_smoke.prom" \
    || { echo "BENCH_obs_smoke.prom is missing the $family family" >&2; exit 1; }
done

# Each workload's smoke run carries its own equivalence check, at sizes the
# test suites above do not reach: `steady`'s traced run is the one place the
# benchmark calls batch `Mris::try_schedule` and validates the result;
# `dag_related` is the DAG batch path on related machines; `wide` validates
# a schedule placed by the one cluster sweep at 1,024 machines (its
# pooled-vs-sequential check now compares that sweep with itself, stale
# until the next `benchmark` PR, ROADMAP item 1(a)); `frontdoor`
# holds the TCP schedule equal to the in-process one; `durable` holds
# journal-off, WAL, WAL + snapshots and the restored run to one schedule.
echo "==> job-path benchmark smoke on all six workloads (correctness + schema, no timing gate)"
for workload in overload steady wide dag_related frontdoor durable; do
  benchmark/run.sh --smoke --workload "$workload" >/dev/null
done

echo "CI OK"

//! What the benchmark measures: the workloads, their sizes, and every
//! metric with its unit, direction and bound. `BENCHMARK.json` at the
//! repo root states the same tables for the driver; `report::check_contract`
//! fails the run if the two disagree.

use Better::{Higher, Lower};

/// Seconds one run measures when the caller does not say (`run_seconds` in
/// `BENCHMARK.json`).
pub const RUN_SECONDS: f64 = 10.0;
/// `--smoke` divides every job count by this.
pub const SMOKE_DIVISOR: usize = 20;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One workload: the path it drives and its size on this 2-CPU box.
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
    pub policy: &'static str,
    pub machines: usize,
    pub jobs: usize,
    /// `utilization` argument of `poisson_rate_for_utilization`; 0 for the
    /// trace's native release times.
    pub load: f64,
    /// CPUs the workload's process is pinned to.
    pub cpus: usize,
}

pub const WORKLOADS: [WorkloadSpec; 6] = [
    WorkloadSpec {
        name: "overload",
        why: "MRIS, M=8 N=16000 load 16: the paper's regime (MRIS beats PQ-WSJF); the CADP knapsack solve does most of the work, net/journal/pool none",
        policy: "mris",
        machines: 8,
        jobs: 16_000,
        load: 16.0,
        cpus: 1,
    },
    WorkloadSpec {
        name: "steady",
        why: "MRIS, M=8 N=32000 load 1: the repo's most-quoted config (MRIS loses); the sequential timeline probe does most of the work, solve almost none",
        policy: "mris",
        machines: 8,
        jobs: 32_000,
        load: 1.0,
        cpus: 1,
    },
    WorkloadSpec {
        name: "wide",
        why: "MRIS, M=1024 N=20000 load 4: the only workload above PARALLEL_SCAN_THRESHOLD, so shards and ScanPool do the work; bypassed at M=8",
        policy: "mris",
        machines: 1024,
        jobs: 20_000,
        load: 4.0,
        cpus: 2,
    },
    WorkloadSpec {
        name: "dag_related",
        why: "MRIS batch try_schedule_on, 6 related machines (speeds 2/1/0.5), N=16000 in chains of 4: run_driver, PrecedenceGate, speed-aware timelines",
        policy: "mris",
        machines: 6,
        jobs: 16_000,
        load: 0.0,
        cpus: 1,
    },
    WorkloadSpec {
        name: "frontdoor",
        why: "PQ-WSJF behind serve_net, one NetClient over loopback, N=25000: submit per job, query every 4th, stats every 1024th, drain; the door is the cost",
        policy: "pq-wsjf",
        machines: 8,
        jobs: 25_000,
        load: 1.0,
        cpus: 1,
    },
    WorkloadSpec {
        name: "durable",
        why: "PQ-WSJF in-process, N=100000: journal off, WAL to a real file, WAL + snapshots, then restore from journal + snapshot; the write and read side of one format",
        policy: "pq-wsjf",
        machines: 8,
        jobs: 100_000,
        load: 1.0,
        cpus: 1,
    },
];

/// Related-machine speed pattern of `dag_related`, cycled over the cluster.
pub const DAG_SPEEDS: [f64; 3] = [2.0, 1.0, 0.5];
/// Chain length of `dag_related`: ids 0→1→2→3, 4→5→6→7, ...
pub const DAG_CHAIN: usize = 4;
/// `durable` snapshots every this many processed events (two per job).
pub const SNAPSHOT_EVERY: u32 = 16_384;
/// `frontdoor` read mix: a `query` after every this many submits ...
pub const QUERY_EVERY: usize = 4;
/// ... and a `stats` after every this many.
pub const STATS_EVERY: usize = 1_024;

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// An end-to-end metric: something a user of the system sees. Every
/// workload reports every one of them.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// The value is a pure function of the inputs: two runs of one commit
    /// with one seed must agree on every bit.
    pub exact: bool,
    pub definition: &'static str,
}

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        exact: false,
        definition: "input generation, PQ-WSJF baseline schedule and its validation, reference run, bind/connect, temp files; calibrated, median of five set-ups spread over the run",
    },
    EndToEnd {
        name: "jobs_per_s",
        unit: "jobs/s",
        better: Higher,
        bound: 0.12,
        exact: false,
        definition: "N / wall from the first submit (or the try_schedule_on call) to quiescence, drain or return; on durable the WAL+snapshots pass; calibrated, median over reps",
    },
    EndToEnd {
        name: "stall_max_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
        exact: false,
        definition: "longest single call into the program within a rep, which every other caller of the single worker waits behind: an epoch inside submit_at/step, try_schedule_on, drain over TCP, Service::restore; calibrated, median over reps",
    },
    EndToEnd {
        name: "awct",
        unit: "simtime",
        better: Lower,
        bound: 0.05,
        exact: true,
        definition: "average weighted completion time of the produced schedule (awct_on for dag_related); bit-equal across reps or the run fails",
    },
    EndToEnd {
        name: "awct_vs_pq",
        unit: "ratio",
        better: Lower,
        bound: 0.20,
        exact: true,
        definition: "awct / AWCT of PQ-WSJF on the same instance (computed in set-up); below 1 MRIS wins; 1 on the two PQ-WSJF workloads",
    },
    EndToEnd {
        name: "makespan",
        unit: "simtime",
        better: Lower,
        bound: 0.15,
        exact: true,
        definition: "max C_j of the produced schedule",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Lower,
        bound: 0.25,
        exact: false,
        definition: "VmHWM of the workload's process after the last rep, so work moved into caches shows",
    },
];

/// A metric of one layer, from the traced run. `moves` names the end-to-end
/// metric it should move and on which workload; everywhere else the
/// prediction is no change. A workload that does not exercise the layer
/// reports 0.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

const NET: &str = "jobs_per_s, stall_max_ms on frontdoor";
const SERVICE: &str = "jobs_per_s, stall_max_ms on durable";
const CORE: &str = "jobs_per_s, stall_max_ms on overload, steady, wide, dag_related";
const KNAPSACK: &str = "jobs_per_s, stall_max_ms on overload";
const SIM: &str = "jobs_per_s, stall_max_ms on steady, wide, dag_related";
const SIM_WIDE: &str = "jobs_per_s, stall_max_ms on wide";
const SIM_DAG: &str = "jobs_per_s, stall_max_ms on dag_related";
const SETUP: &str = "setup_s on every workload";

pub const PER_LAYER: [PerLayer; 65] = [
    // net — frontdoor only.
    layer("net.submit_rtt_us_p50", "us", Lower, NET),
    layer("net.submit_rtt_us_p99", "us", Lower, NET),
    layer("net.submit_rtt_us_p999", "us", Lower, NET),
    layer("net.query_rtt_us_p50", "us", Lower, NET),
    layer("net.stats_rtt_us_p50", "us", Lower, NET),
    layer("net.batch32_us_per_job", "us", Lower, NET),
    layer("net.connect_us", "us", Lower, "setup_s on frontdoor"),
    layer("net.drain_ms", "ms", Lower, "stall_max_ms on frontdoor"),
    layer("net.codec_ns_per_frame", "ns", Lower, NET),
    layer("net.inproc_us_per_op", "us", Lower, NET),
    layer("net.transport_share", "ratio", Lower, NET),
    layer("net.cpu_sys_share", "ratio", Lower, NET),
    layer(
        "net.unpinned_rtt_us_p50",
        "us",
        Lower,
        "diagnostic, not gated",
    ),
    // service — durable; loop_ns_per_job also bounds jobs_per_s on frontdoor.
    layer(
        "service.loop_ns_per_job",
        "ns",
        Lower,
        "jobs_per_s on durable, frontdoor",
    ),
    layer("service.journal_ns_per_job", "ns", Lower, SERVICE),
    layer("service.journal_append_ns_per_record", "ns", Lower, SERVICE),
    layer(
        "service.journal_parse_ns_per_record",
        "ns",
        Lower,
        "stall_max_ms on durable",
    ),
    layer("service.journal_records_per_job", "count", Lower, SERVICE),
    layer("service.journal_bytes_per_job", "B", Lower, SERVICE),
    layer("service.snapshots", "count", Lower, "jobs_per_s on durable"),
    layer(
        "service.snapshot_ms_each",
        "ms",
        Lower,
        "jobs_per_s on durable",
    ),
    layer("service.restore_s", "s", Lower, "stall_max_ms on durable"),
    layer(
        "service.restore_ns_per_record",
        "ns",
        Lower,
        "stall_max_ms on durable",
    ),
    layer(
        "service.restore_tail_only_s",
        "s",
        Lower,
        "stall_max_ms on durable",
    ),
    layer(
        "service.events",
        "count",
        Lower,
        "jobs_per_s on overload, steady, wide, frontdoor, durable",
    ),
    // core — the MRIS epoch.
    layer("core.grid_s", "s", Lower, CORE),
    layer("core.filter_s", "s", Lower, CORE),
    layer("core.solve_s", "s", Lower, KNAPSACK),
    layer("core.probe_s", "s", Lower, SIM),
    layer("core.commit_s", "s", Lower, CORE),
    layer("core.solve_epochs", "count", Lower, KNAPSACK),
    layer("core.solve_share", "ratio", Lower, KNAPSACK),
    layer("core.probe_share", "ratio", Lower, SIM),
    layer(
        "core.stage_sum_share",
        "ratio",
        Higher,
        "the layers-sum-to-end-to-end check",
    ),
    layer("core.memo_hits", "count", Higher, KNAPSACK),
    layer("core.memo_misses", "count", Lower, KNAPSACK),
    layer("core.offline_s", "s", Lower, "jobs_per_s on steady"),
    layer(
        "core.offline_vs_online_ratio",
        "ratio",
        Lower,
        "jobs_per_s on steady",
    ),
    // knapsack.
    layer("knapsack.solves", "count", Lower, KNAPSACK),
    layer("knapsack.items", "count", Lower, KNAPSACK),
    layer("knapsack.cadp_ns_per_item_1k", "ns", Lower, KNAPSACK),
    layer("knapsack.cadp_ns_per_item_16k", "ns", Lower, KNAPSACK),
    layer("knapsack.greedy_ns_per_item_16k", "ns", Lower, KNAPSACK),
    // sim — timelines, pool, gate, driver.
    layer("sim.probes", "count", Lower, SIM),
    layer("sim.probes_per_job", "count", Lower, SIM),
    layer("sim.hint_hit_ratio", "ratio", Higher, SIM),
    layer("sim.block_jumps_per_probe", "count", Lower, SIM),
    layer("sim.commits", "count", Lower, SIM),
    layer("sim.commit_breakpoints", "count", Lower, SIM),
    layer("sim.replay_fit_ns_p50", "ns", Lower, SIM),
    layer("sim.replay_fit_ns_p99", "ns", Lower, SIM),
    layer("sim.replay_commit_ns_p50", "ns", Lower, SIM),
    layer("sim.scan_seq_ns_per_query", "ns", Lower, SIM_WIDE),
    layer("sim.scan_pool_ns_per_query", "ns", Lower, SIM_WIDE),
    layer("sim.pool_speedup", "ratio", Higher, SIM_WIDE),
    layer("sim.shard_wakeups", "count", Lower, SIM_WIDE),
    layer("sim.shard_steals", "count", Lower, SIM_WIDE),
    layer("sim.shard_reduce_s", "s", Lower, SIM_WIDE),
    layer("sim.gate_held", "count", Lower, SIM_DAG),
    layer("sim.gate_ready", "count", Lower, SIM_DAG),
    layer("sim.driver_ns_per_event", "ns", Lower, SIM_DAG),
    // The set-up layers and the cost of tracing itself.
    layer("schedulers.pq_wsjf_s", "s", Lower, SETUP),
    layer("trace.generate_ns_per_job", "ns", Lower, SETUP),
    layer("types.validate_ns_per_job", "ns", Lower, SETUP),
    layer(
        "obs.traced_slowdown",
        "ratio",
        Lower,
        "none: traced wall / untraced wall, the tracing overhead",
    ),
];

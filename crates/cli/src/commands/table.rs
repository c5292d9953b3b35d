//! The flag table: every usage of `mris`, the flags it accepts, and the
//! function that runs it. Parsing refuses what a usage does not declare
//! here, and `mris help` prints this table. One flag per line, so rustfmt
//! leaves the file alone.

use super::flags::{Flag, Usage};
use super::{client, loadgen, offline, service};

const TRACE: Flag = Flag("trace", "FILE", "job trace CSV: release,proc_time,weight,d0,d1,... (required)");
const MACHINES: Flag = Flag("machines", "M", "cluster size (default 20)");
const ALGO: Flag = Flag("algo", "NAME", "policy from ALGORITHMS below (default mris)");
const ALGOS: Flag = Flag("algos", "a,b,c", "algorithms to run (default mris,pq-wsjf,tetris,bf-exec,ca-pq)");
const SPEEDS: Flag = Flag("speeds", "a,b,c", "related machines: these speeds cycled over the cluster");
const TELEMETRY: Flag = Flag("telemetry", "FILE", "write per-epoch JSONL telemetry to FILE");
const FINGERPRINT: Flag = Flag("fingerprint", "F", "expected service fingerprint; 0 accepts any (default 0)");

const OBS: &[Flag] = &[
    Flag("obs", "", "append the run's Prometheus metrics to the output"),
    Flag("obs-events", "FILE", "stream span events to FILE as JSONL (implies --obs)"),
    Flag("metrics-path", "FILE", "write the Prometheus metrics to FILE (implies --obs)"),
];

/// How a failed machine comes back: `chaos` and the loadgen workload.
const REPAIR: &[Flag] = &[
    Flag("mttr-frac", "F", "repair time as a fraction of the horizon (default 0.05)"),
    Flag("restart", "full|aging", "what a job killed by a failure keeps (default full)"),
    Flag("aging-factor", "K", "weight multiplier per kill under --restart aging (default 2)"),
];

/// The service knobs: `serve`, `restore` and `loadgen`.
const SERVICE: &[Flag] = &[
    Flag("epoch", "E", "decision interval; 0 decides per event (default 0)"),
    Flag("queue-watermark", "Q", "reject arrivals while Q jobs wait for delivery (default off)"),
    Flag("load-watermark", "L", "reject arrivals past L machines' worth of queued demand (default off)"),
    Flag("tenants", "N:T:W,...", "tenants as name:token:weight; admission turns weighted-fair"),
    Flag("fair-watermark", "N", "queue depth at which the weighted-fair gate engages (default off)"),
];

/// The journal and snapshots: `serve` writes them, `restore` reads them.
const DURABILITY: &[Flag] = &[
    Flag("journal", "FILE", "write-ahead journal: serve writes it, restore replays it"),
    Flag("snapshot-dir", "DIR", "snapshots: serve writes them, restore reads the latest"),
    Flag("flush-every", "N", "flush the journal every N records (default 1)"),
    Flag("snapshot-every", "N", "snapshot every N events (default 64 with --snapshot-dir, else off)"),
];

const LISTEN: &[Flag] = &[
    Flag("listen", "HOST:PORT", "serve over TCP until `mris client drain`"),
    Flag("port-file", "FILE", "write the bound address to FILE once the door is open"),
];

/// What generates a loadgen workload; both sides of a TCP twin declare it.
const WORKLOAD: &[Flag] = &[
    Flag("jobs", "N", "jobs to generate (default 500)"),
    Flag("seed", "S", "workload seed (default 4269)"),
    Flag("machines", "M", "cluster size (default 8)"),
    ALGO,
    Flag("process", "poisson|bursts", "arrival process (default poisson)"),
    Flag("utilization", "U", "utilization the arrival rate targets (default 0.7)"),
    Flag("rate", "X", "arrival rate, overriding --utilization"),
    Flag("burst-size", "B", "jobs per burst under --process bursts (default N/20)"),
    Flag("fault-plan", "PLAN", "failures to replay: none|poisson|racks|adversarial (default none)"),
    Flag("fault-rate", "X", "failures per horizon; 0 runs fault-free (default 1)"),
    Flag("fault-seed", "S", "fault-plan seed (default: the workload seed xor 64023)"),
];

/// Where a door is and who is calling: `client` and `loadgen --connect`.
const CONNECT: &[Flag] = &[
    Flag("connect", "HOST:PORT", "address of a `serve --listen` door (required)"),
    Flag("token", "T", "tenant token (default none)"),
];

/// Every usage, in the order `mris help` prints them.
pub(crate) const USAGES: &[Usage] = &[
    Usage {
        words: "generate", run: offline::generate,
        about: "write an Azure-like synthetic trace as CSV",
        flags: &[&[
            Flag("jobs", "N", "jobs in the trace (default 10000)"),
            Flag("seed", "S", "generator seed (default 2718375972)"),
            Flag("factor", "K", "generate N*K jobs and keep every K-th (default 1)"),
            Flag("offset", "I", "which of the K interleaved samples to keep (default 0)"),
            Flag("out", "FILE", "write the CSV to FILE instead of stdout"),
        ]],
    },
    Usage {
        words: "schedule", run: offline::schedule,
        about: "schedule a trace with one algorithm ('run' is an alias)",
        flags: &[
            &[TRACE, Flag("algo", "NAME", "algorithm from ALGORITHMS below (required)"), MACHINES, SPEEDS],
            &[Flag("out", "FILE", "write the schedule CSV to FILE instead of stdout")],
            OBS,
        ],
    },
    Usage {
        words: "compare", run: offline::compare,
        about: "run several algorithms on a trace and tabulate AWCT, makespan and delay",
        flags: &[&[TRACE, MACHINES, SPEEDS, ALGOS]],
    },
    Usage {
        words: "validate", run: offline::validate,
        about: "check a schedule CSV against its trace and report its objectives",
        flags: &[&[TRACE, Flag("schedule", "FILE", "schedule CSV to check (required)"), MACHINES, SPEEDS]],
    },
    Usage {
        words: "chaos", run: offline::chaos,
        about: "replay seeded machine failures against each algorithm and report AWCT inflation",
        flags: &[
            &[TRACE, MACHINES, ALGOS],
            &[
                Flag("rate", "X", "failures per machine per horizon; 0 runs fault-free (default 1)"),
                Flag("seed", "S", "fault-plan seed (default 805381)"),
            ],
            REPAIR,
        ],
    },
    Usage {
        words: "serve", run: service::serve,
        about: "run a trace through the service loop in-process and report the drained summary",
        flags: &[&[TRACE, MACHINES, ALGO, TELEMETRY], SERVICE, DURABILITY, OBS],
    },
    Usage {
        words: "serve --listen", run: |flags| service::serve_listen(flags, false),
        about: "serve a trace over TCP; the door keeps no journal yet (ROADMAP.md item 5(a))",
        flags: &[LISTEN, &[TRACE, MACHINES, ALGO, TELEMETRY], SERVICE, OBS],
    },
    Usage {
        words: "serve --listen --loadgen", run: |flags| service::serve_listen(flags, true),
        about: "serve the loadgen workload over TCP to a `loadgen --connect` twin",
        flags: &[
            LISTEN,
            &[Flag("loadgen", "", "generate the workload from the loadgen flags"), TELEMETRY],
            WORKLOAD,
            REPAIR,
            SERVICE,
            OBS,
        ],
    },
    Usage {
        words: "restore", run: service::restore,
        about: "rebuild a crashed serve from its journal and finish the run; repeat its flags",
        flags: &[
            &[TRACE, MACHINES, ALGO],
            SERVICE,
            DURABILITY,
            &[
                Flag("snapshot", "FILE", "restore from this snapshot instead of --snapshot-dir's latest"),
                Flag("strict", "", "refuse a torn journal tail instead of dropping it"),
                Flag("outage-at", "T", "journal lost past the snapshot: fail every machine at T"),
                Flag("outage-downtime", "D", "how long the machines stay down (default 1)"),
            ],
        ],
    },
    Usage {
        words: "loadgen", run: loadgen::loadgen,
        about: "generate an open-loop workload and replay it through the service in-process",
        flags: &[WORKLOAD, REPAIR, SERVICE, &[TELEMETRY], OBS],
    },
    Usage {
        words: "loadgen --connect", run: loadgen::loadgen_connect,
        about: "replay the same workload over TCP against a `serve --listen --loadgen` twin",
        flags: &[CONNECT, WORKLOAD, REPAIR, SERVICE],
    },
    Usage {
        words: "client submit", run: client::submit,
        about: "offer every job of a trace at its release time",
        flags: &[CONNECT, &[FINGERPRINT, TRACE]],
    },
    Usage {
        words: "client query", run: client::query,
        about: "print one job's outcome",
        flags: &[CONNECT, &[FINGERPRINT, Flag("job", "N", "job id (required)")]],
    },
    Usage {
        words: "client stats", run: client::stats,
        about: "print the door's queue, ledger and tenant counters",
        flags: &[CONNECT, &[FINGERPRINT]],
    },
    Usage {
        words: "client drain", run: client::drain,
        about: "finish every admitted job, stop the door and print the final report",
        flags: &[CONNECT, &[FINGERPRINT]],
    },
];

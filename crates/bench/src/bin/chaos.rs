//! Fault-injection benchmark (`BENCH_chaos.json`).
//!
//! Runs every comparison scheduler through the deterministic chaos harness
//! ([`run_online_chaos`]) on an Azure-like trace at increasing failure
//! rates, reporting the AWCT inflation relative to the failure-free
//! baseline plus failure/kill/re-release counts. Two pinned guarantees:
//!
//! * the `rate = 0` column is produced through the chaos driver with an
//!   empty fault plan and is asserted **bit-identical** to the scheduler's
//!   own failure-free run (schedule equality and AWCT bit equality), and
//! * every run passes the [`FaultLog::verify`] no-run-across-downtime
//!   invariant.
//!
//! `cargo run --release -p mris-bench --bin chaos [--machines 8]
//!  [--jobs 2000] [--seed 11] [--mttr-frac 0.05] [--smoke]
//!  [--out BENCH_chaos.json]`
//!
//! `--smoke` shrinks the trace so CI can validate the pipeline and the
//! JSON schema in seconds; full runs are for tracked numbers.

use mris_bench::{exit_usage, Args};
use mris_core::registry::{comparison_algorithms, online_policy_by_name};
use mris_schedulers::Scheduler;
use mris_sim::{run_online_chaos, suggested_horizon, FaultPlan, PoissonFaultConfig};
use mris_trace::{AzureTrace, AzureTraceConfig};
use mris_types::{Instance, RestartSemantics};

/// One scheduler at one failure rate.
struct RateReport {
    rate: f64,
    awct: f64,
    awct_inflation: f64,
    failures: usize,
    kills: usize,
    re_releases: u64,
}

impl RateReport {
    fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"rate\": {}, \"awct\": {:.6}, \"awct_inflation\": {:.6}, ",
                "\"failures\": {}, \"kills\": {}, \"re_releases\": {}}}"
            ),
            self.rate, self.awct, self.awct_inflation, self.failures, self.kills, self.re_releases,
        )
    }
}

struct SchedulerReport {
    name: String,
    baseline_awct: f64,
    results: Vec<RateReport>,
}

impl SchedulerReport {
    fn to_json(&self) -> String {
        let results: Vec<String> = self.results.iter().map(|r| r.to_json()).collect();
        format!(
            "{{\"name\": \"{}\", \"baseline_awct\": {:.6}, \"results\": [{}]}}",
            self.name,
            self.baseline_awct,
            results.join(", ")
        )
    }
}

/// The fault configuration shared by every scheduler in one bench run.
struct ChaosSetup {
    rates: Vec<f64>,
    mttr_frac: f64,
    seed: u64,
    restart: RestartSemantics,
}

fn run_scheduler(
    algo: &dyn Scheduler,
    lookup_name: &str,
    instance: &Instance,
    machines: usize,
    setup: &ChaosSetup,
) -> SchedulerReport {
    let ChaosSetup {
        ref rates,
        mttr_frac,
        seed,
        restart,
    } = *setup;
    let baseline = algo.schedule(instance, machines);
    let baseline_awct = baseline.awct(instance);
    let horizon = suggested_horizon(instance, machines);
    let results = rates
        .iter()
        .map(|&rate| {
            let plan = if rate == 0.0 {
                FaultPlan::none()
            } else {
                FaultPlan::poisson(&PoissonFaultConfig {
                    seed,
                    num_machines: machines,
                    horizon,
                    mtbf: horizon / rate,
                    mttr: mttr_frac * horizon,
                })
            };
            let mut policy = online_policy_by_name(lookup_name, instance, machines)
                .expect("comparison names resolve to online policies");
            let outcome = run_online_chaos(instance, machines, policy.as_mut(), &plan, restart)
                .unwrap_or_else(|e| panic!("{}: chaos run failed: {e}", algo.name()));
            outcome
                .log
                .verify()
                .unwrap_or_else(|v| panic!("{}: invariant violation: {v}", algo.name()));
            let awct = outcome.schedule.awct(instance);
            if rate == 0.0 {
                // The zero-failure column must match the failure-free run
                // exactly — bitwise, not approximately.
                assert_eq!(
                    outcome.schedule,
                    baseline,
                    "{}: rate-0 chaos run diverged from failure-free baseline",
                    algo.name()
                );
                assert_eq!(
                    awct.to_bits(),
                    baseline_awct.to_bits(),
                    "{}: rate-0 AWCT bits diverged",
                    algo.name()
                );
            }
            RateReport {
                rate,
                awct,
                awct_inflation: awct / baseline_awct,
                failures: outcome.log.failures.len(),
                kills: outcome.log.total_kills(),
                re_releases: outcome.log.total_re_releases(),
            }
        })
        .collect();
    SchedulerReport {
        name: algo.name(),
        baseline_awct,
        results,
    }
}

/// `--smoke`, `--machines`, `--jobs`, `--seed`, `--mttr-frac` and
/// `--out`, or their defaults; any other flag is an error.
fn flags(args: &Args) -> Result<(bool, usize, usize, u64, f64, String), String> {
    let flags = ["smoke", "machines", "jobs", "seed", "mttr-frac", "out"];
    args.only("chaos", &flags)?;
    let smoke = args.switch("smoke")?;
    Ok((
        smoke,
        args.count("machines", 1)?
            .unwrap_or(if smoke { 4 } else { 8 }),
        args.count("jobs", 1)?
            .unwrap_or(if smoke { 150 } else { 2_000 }),
        args.value("seed")?.unwrap_or(11),
        args.value("mttr-frac")?.unwrap_or(0.05),
        args.value("out")?
            .unwrap_or_else(|| "BENCH_chaos.json".to_string()),
    ))
}

fn main() {
    let (smoke, machines, jobs, seed, mttr_frac, out) =
        flags(&Args::parse()).unwrap_or_else(|e| exit_usage(&e));
    // Expected failures per machine over the horizon: none, occasional,
    // frequent.
    let setup = ChaosSetup {
        rates: vec![0.0, 0.5, 2.0],
        mttr_frac,
        seed,
        restart: RestartSemantics::FullRestart,
    };

    eprintln!(
        "chaos bench: mode = {}, M = {machines}, N = {jobs}, seed = {seed}, \
         rates = {:?}, restart = {}",
        if smoke { "smoke" } else { "full" },
        setup.rates,
        setup.restart.label()
    );

    let trace = AzureTrace::generate(&AzureTraceConfig {
        num_jobs: jobs,
        seed,
        ..AzureTraceConfig::default()
    });
    let instance = trace.sample_instance(1, 0);
    // `comparison_algorithms()` order matches these registry names.
    let lookup_names = ["mris", "pq-wsjf", "pq-wsvf", "tetris", "bf-exec", "ca-pq"];
    let algos = comparison_algorithms();
    assert_eq!(algos.len(), lookup_names.len());

    let mut reports = Vec::with_capacity(algos.len());
    for (algo, lookup) in algos.iter().zip(lookup_names) {
        eprintln!("  {} ...", algo.name());
        let report = run_scheduler(algo.as_ref(), lookup, &instance, machines, &setup);
        for r in &report.results {
            eprintln!(
                "    rate {:>4}: AWCT {:.1} ({:.3}x), {} failures, {} kills, {} re-releases",
                r.rate, r.awct, r.awct_inflation, r.failures, r.kills, r.re_releases
            );
        }
        reports.push(report);
    }

    let schedulers: Vec<String> = reports
        .iter()
        .map(|r| format!("    {}", r.to_json()))
        .collect();
    let rates_json: Vec<String> = setup.rates.iter().map(|r| r.to_string()).collect();
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"chaos\",\n",
            "  \"version\": 1,\n",
            "  \"mode\": \"{}\",\n",
            "  \"machines\": {},\n",
            "  \"jobs\": {},\n",
            "  \"seed\": {},\n",
            "  \"mttr_frac\": {},\n",
            "  \"restart\": \"{}\",\n",
            "  \"rates\": [{}],\n",
            "  \"schedulers\": [\n{}\n  ]\n",
            "}}\n"
        ),
        if smoke { "smoke" } else { "full" },
        machines,
        jobs,
        seed,
        mttr_frac,
        setup.restart.label(),
        rates_json.join(", "),
        schedulers.join(",\n")
    );
    std::fs::write(&out, &json).unwrap_or_else(|e| panic!("writing {out}: {e}"));
    eprintln!("  wrote {out}");
    print!("{json}");
}

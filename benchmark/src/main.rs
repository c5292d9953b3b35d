//! The job-path benchmark. `benchmark/run.sh` builds this and passes its
//! arguments through; see `benchmark/README.md` for what is measured and
//! why.
//!
//! ```text
//! run.sh [--seed 11] [--smoke] [--workload NAME] [--twice]    the whole set, to out/result.json
//! run.sh --workload NAME --seed N --seconds S --trace 0|1     one run, the driver's contract
//! run.sh compare A.json B.json                                two result files, metric by metric
//! run.sh contract | tables                                    BENCHMARK.json / the README's tables, from spec.rs
//! ```
//!
//! Every workload runs in a process of its own, pinned with `taskset`.

mod harness;
mod inputs;
mod json;
mod layers;
mod report;
mod spans;
mod spec;
mod workloads;

use std::process::{Command, ExitCode, Stdio};

use harness::{Checks, Ctx};
use json::Json;
use report::{check_contract, check_report, check_run, Report, Run, Stamp};
use spans::Tracer;
use spec::{END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};

/// Results, traces and temporary journals go here; `.gitignore`d.
pub const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
const BENCHMARK_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
/// Seconds per run of a `--smoke` set: long enough for three reps of the
/// divided sizes, short enough that the twelve runs end within 15 s.
const SMOKE_SECONDS: f64 = 0.3;

/// `--key value` pairs and bare `--switches`, in the order given.
struct Flags(Vec<(String, Option<String>)>);

impl Flags {
    const SWITCHES: [&'static str; 2] = ["smoke", "twice"];
    const VALUES: [&'static str; 6] = [
        "workload", "seed", "seconds", "trace", "all-cpus", "requests",
    ];

    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut flags = Vec::new();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let key = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument '{arg}'"))?;
            if Self::SWITCHES.contains(&key) {
                flags.push((key.to_string(), None));
            } else if Self::VALUES.contains(&key) {
                let value = args
                    .next()
                    .ok_or_else(|| format!("--{key} needs a value"))?;
                flags.push((key.to_string(), Some(value.clone())));
            } else {
                return Err(format!("unknown flag --{key}"));
            }
        }
        Ok(Flags(flags))
    }

    fn has(&self, key: &str) -> bool {
        self.0.iter().any(|(k, _)| k == key)
    }

    fn get<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        match self.0.iter().find(|(k, _)| k == key) {
            None => Ok(None),
            Some((_, value)) => value
                .as_deref()
                .and_then(|v| v.parse().ok())
                .map(Some)
                .ok_or_else(|| {
                    format!("--{key}: cannot read '{}'", value.as_deref().unwrap_or(""))
                }),
        }
    }
}

/// What one run is asked to do: the flags the driver passes, which
/// [`launch`] passes on to the worker.
struct RunArgs {
    spec: &'static spec::WorkloadSpec,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
}

impl RunArgs {
    fn parse(flags: &Flags) -> Result<RunArgs, String> {
        let name: String = flags.get("workload")?.ok_or("a run needs --workload")?;
        Ok(RunArgs {
            spec: spec::workload(&name).ok_or_else(|| format!("unknown workload '{name}'"))?,
            seed: flags.get("seed")?.unwrap_or(11),
            seconds: flags.get("seconds")?.unwrap_or(RUN_SECONDS),
            traced: flags.get::<u8>("trace")?.unwrap_or(0) != 0,
            smoke: flags.has("smoke"),
        })
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("worker") => Flags::parse(&args[1..]).and_then(|f| worker(&f)),
        Some("unpinned-rtt") => Flags::parse(&args[1..]).and_then(|f| {
            workloads::frontdoor::unpinned_rtt(
                f.get("seed")?.unwrap_or(11),
                f.get("requests")?.unwrap_or(20_000),
            );
            Ok(true)
        }),
        Some("contract") => {
            print!("{}", report::contract_json().render_pretty());
            Ok(true)
        }
        Some("tables") => {
            print_tables();
            Ok(true)
        }
        Some("compare") => match &args[1..] {
            [a, b] => Report::read(a).and_then(|a| Ok(compare(&a, &Report::read(b)?))),
            _ => Err("usage: compare A.json B.json".into()),
        },
        _ => Flags::parse(&args).and_then(|f| {
            if f.has("seconds") || f.has("trace") {
                contract_run(&f)
            } else {
                set(&f)
            }
        }),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

/// The measuring process: one workload, traced or not, pinned by whoever
/// launched it. Prints the [`Run`] as one line of JSON.
fn worker(flags: &Flags) -> Result<bool, String> {
    let args = RunArgs::parse(flags)?;
    let name = args.spec.name;
    let ctx = Ctx {
        spec: args.spec,
        cpus: allowed_cpus()?.len().min(args.spec.cpus),
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        smoke: args.smoke,
        all_cpus: flags.get("all-cpus")?.unwrap_or_else(report::affinity),
    };
    let mut tracer = Tracer::new();
    let mut checks = Checks::default();
    let rows = workloads::run(&ctx, &mut tracer, &mut checks);
    if ctx.traced {
        std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
        let path = format!("{OUT_DIR}/trace_{name}.json");
        std::fs::write(&path, tracer.to_json(name).render())
            .map_err(|e| format!("write {path}: {e}"))?;
    }
    let run = Run {
        workload: name.into(),
        seed: ctx.seed,
        seconds: ctx.seconds,
        smoke: ctx.smoke,
        traced: ctx.traced,
        affinity: report::affinity(),
        correct: checks.failed == 0,
        attempted: checks.attempted,
        failed: checks.failed,
        rows,
    };
    println!("{}", run.to_json().render());
    Ok(run.correct)
}

/// The CPUs this process may run on, from `Cpus_allowed_list` (`0-1`,
/// `0,2-3`).
fn allowed_cpus() -> Result<Vec<usize>, String> {
    let list = report::affinity();
    let mut cpus = Vec::new();
    for part in list.split(',') {
        let bad = || format!("cannot read Cpus_allowed_list '{list}'");
        match part.split_once('-') {
            Some((lo, hi)) => {
                let (lo, hi): (usize, usize) = (
                    lo.parse().map_err(|_| bad())?,
                    hi.parse().map_err(|_| bad())?,
                );
                cpus.extend(lo..=hi);
            }
            None => cpus.push(part.parse().map_err(|_| bad())?),
        }
    }
    Ok(cpus)
}

fn cpu_list(cpus: &[usize]) -> String {
    cpus.iter()
        .map(usize::to_string)
        .collect::<Vec<_>>()
        .join(",")
}

/// Runs one workload in a process of its own, pinned to the first of the
/// allowed CPUs (`wide`: the first two — the pool needs both). Unpinned,
/// the three threads of `frontdoor` land on either side of a cross-CPU
/// wake-up and its round trip is bimodal.
fn launch(args: &RunArgs) -> Result<Run, String> {
    let spec = args.spec;
    let cpus = allowed_cpus()?;
    let pinned = cpu_list(&cpus[..spec.cpus.min(cpus.len())]);
    let mut command = Command::new("taskset");
    command
        .args(["-c", &pinned])
        .arg(std::env::current_exe().map_err(|e| format!("path of this executable: {e}"))?)
        .args(["worker", "--workload", spec.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.traced { "1" } else { "0" }])
        .args(["--all-cpus", &cpu_list(&cpus)]);
    if args.smoke {
        command.arg("--smoke");
    }
    let output = command
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("taskset -c {pinned}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or_else(|| {
        format!(
            "{}: the worker printed nothing ({})",
            spec.name, output.status
        )
    })?;
    let run = Json::parse(line)
        .and_then(|j| Run::from_json(&j))
        .map_err(|e| format!("{}: worker output: {e}", spec.name))?;
    check_run(&run)?;
    Ok(run)
}

fn contract_on_disk() -> Result<(), String> {
    let text =
        std::fs::read_to_string(BENCHMARK_JSON).map_err(|e| format!("{BENCHMARK_JSON}: {e}"))?;
    check_contract(&Json::parse(&text).map_err(|e| format!("{BENCHMARK_JSON}: {e}"))?)
}

/// One run as the driver asks for it; the result object is the last line
/// of standard output.
fn contract_run(flags: &Flags) -> Result<bool, String> {
    contract_on_disk()?;
    let run = launch(&RunArgs::parse(flags)?)?;
    println!("{}", run.contract_line());
    Ok(true)
}

/// The whole set: every workload (or the one named) plain and traced, each
/// in its own process; every metric printed by name with its unit; the
/// result written to `out/result.json` and checked against the schema.
fn set(flags: &Flags) -> Result<bool, String> {
    contract_on_disk()?;
    let seed = flags.get("seed")?.unwrap_or(11);
    let smoke = flags.has("smoke");
    let only: Option<String> = flags.get("workload")?;
    if let Some(name) = &only {
        spec::workload(name).ok_or_else(|| format!("unknown workload '{name}'"))?;
    }
    let seconds = if smoke { SMOKE_SECONDS } else { RUN_SECONDS };
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("create {OUT_DIR}: {e}"))?;

    let one_set = |path: &str| -> Result<Report, String> {
        let mut report = Report {
            stamp: Stamp::gather(),
            runs: Vec::new(),
        };
        for spec in WORKLOADS
            .iter()
            .filter(|w| only.as_deref().is_none_or(|o| o == w.name))
        {
            for traced in [false, true] {
                eprintln!(
                    "== {} ({}) ...",
                    spec.name,
                    if traced { "traced" } else { "end to end" }
                );
                let run = launch(&RunArgs {
                    spec,
                    seed,
                    seconds,
                    traced,
                    smoke,
                })?;
                print_run(&run);
                report.runs.push(run);
            }
        }
        check_report(&report)?;
        std::fs::write(path, report.to_json().render_pretty())
            .map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("wrote {path}");
        Ok(report)
    };

    let result = format!("{OUT_DIR}/result.json");
    if flags.has("twice") {
        let first = one_set(&format!("{OUT_DIR}/result_first.json"))?;
        let second = one_set(&result)?;
        return Ok(compare(&first, &second));
    }
    one_set(&result).map(|_| true)
}

/// The workload and metric tables of the README, in markdown.
fn print_tables() {
    println!("| name | policy | M | N | load | CPUs | why |\n|---|---|---|---|---|---|---|");
    for w in &WORKLOADS {
        let load = if w.load > 0.0 {
            w.load.to_string()
        } else {
            "trace".into()
        };
        println!(
            "| `{}` | `{}` | {} | {} | {load} | {} | {} |",
            w.name, w.policy, w.machines, w.jobs, w.cpus, w.why
        );
    }
    println!("\n| name | unit | better | bound | exact | definition |\n|---|---|---|---|---|---|");
    for m in &END_TO_END {
        let exact = if m.exact { "yes" } else { "" };
        println!(
            "| `{}` | {} | {} | {} | {exact} | {} |",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound,
            m.definition
        );
    }
    println!("\n| name | unit | better | should move |\n|---|---|---|---|");
    for m in &PER_LAYER {
        println!(
            "| `{}` | {} | {} | {} |",
            m.name,
            m.unit,
            m.better.as_str(),
            m.moves
        );
    }
}

fn print_run(run: &Run) {
    println!(
        "{} [{}] seed {} cpus {}: {} of {} operations failed",
        run.workload,
        if run.traced {
            "per layer, traced"
        } else {
            "end to end"
        },
        run.seed,
        run.affinity,
        run.failed,
        run.attempted,
    );
    // A traced run prints every per-layer metric of the table; the ones this
    // workload does not exercise are 0 and not worth a line.
    let exercised = |row: &&report::Row| !run.traced || row.samples > 0;
    for row in run.rows.iter().filter(exercised) {
        let reps = row.reps.as_ref().map_or(String::new(), |r| {
            format!(
                "   reps {}: min {:.6} median {:.6} max {:.6}",
                r.n, r.min, r.median, r.max
            )
        });
        let samples = if row.samples > 1 && row.reps.is_none() {
            format!("   n={}", row.samples)
        } else {
            String::new()
        };
        println!(
            "  {:<40} {:>18.6} {:<8}{reps}{samples}",
            row.name, row.value, row.unit
        );
    }
}

/// One row per (workload, metric) with both values, their relative
/// difference and the bound. False if an end-to-end pair disagrees by more
/// than its bound — or at all, for a metric that is a pure function of the
/// inputs, when both sides ran the same inputs.
fn compare(a: &Report, b: &Report) -> bool {
    let mut agree = true;
    println!(
        "{:<12} {:<38} {:>16} {:>16} {:>9} {:>7}",
        "workload", "metric", "A", "B", "diff", "bound"
    );
    for run_a in &a.runs {
        let Some(run_b) = b.run(&run_a.workload, run_a.traced) else {
            println!("{:<12} missing from B", run_a.workload);
            agree = false;
            continue;
        };
        let same_inputs = run_a.seed == run_b.seed && run_a.smoke == run_b.smoke;
        for row_a in &run_a.rows {
            let Some(row_b) = run_b.row(&row_a.name) else {
                continue;
            };
            if row_a.samples == 0 && row_b.samples == 0 {
                continue; // a layer this workload does not exercise
            }
            let diff = if row_a.value == row_b.value {
                0.0
            } else {
                (row_b.value - row_a.value) / row_a.value.abs()
            };
            let gate = END_TO_END
                .iter()
                .find(|m| !run_a.traced && m.name == row_a.name);
            let (bound, ok) = match gate {
                Some(m) if m.exact && same_inputs => (
                    "exact".to_string(),
                    row_a.value.to_bits() == row_b.value.to_bits(),
                ),
                Some(m) => (format!("{:.1}%", m.bound * 100.0), diff.abs() <= m.bound),
                None => ("-".to_string(), true),
            };
            println!(
                "{:<12} {:<38} {:>16.6} {:>16.6} {:>+8.2}% {:>7}{}",
                run_a.workload,
                row_a.name,
                row_a.value,
                row_b.value,
                diff * 100.0,
                bound,
                if ok { "" } else { "  DISAGREE" },
            );
            agree &= ok;
        }
    }
    println!(
        "{}",
        if agree {
            "every end-to-end pair agrees within its bound"
        } else {
            "some end-to-end pairs DISAGREE"
        }
    );
    agree
}

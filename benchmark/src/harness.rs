//! What every workload shares: the run's arguments, the correctness
//! ledger, the measuring loop, and readers for the counters the program
//! already publishes and for `/proc`.

use std::sync::Arc;
use std::time::Instant;

use mris_obs::{MetricEntry, MetricValue, Obs};
use mris_service::{Clock, JobOutcome, Service, ServiceReport, TelemetrySink};
use mris_types::{Instance, SchedulingError};

use crate::report::{median, proc_status, Reps, Row};
use crate::spans::Tracer;
use crate::spec::{WorkloadSpec, END_TO_END, PER_LAYER, SMOKE_DIVISOR};

/// One run's arguments.
pub struct Ctx {
    pub spec: &'static WorkloadSpec,
    /// CPUs this process is pinned to: `spec.cpus`, or fewer if the machine
    /// allows fewer.
    pub cpus: usize,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
    /// CPUs a child process may widen itself to (`net.unpinned_rtt_us_p50`).
    pub all_cpus: String,
}

impl Ctx {
    /// The workload's job count, divided for `--smoke`.
    pub fn jobs(&self) -> usize {
        self.scaled(self.spec.jobs)
    }

    pub fn scaled(&self, full: usize) -> usize {
        if self.smoke {
            (full / SMOKE_DIVISOR).max(1)
        } else {
            full
        }
    }
}

/// Operations attempted and failed: the submissions, queries and checks
/// of a run. Anything failed makes the run incorrect.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("CHECK FAILED: {}", what());
        }
    }

    /// The checks every `Service` run gets: the fault log verifies, the
    /// schedule validates, nothing was rejected and every job completed.
    pub fn service_report(&mut self, what: &str, instance: &Instance, report: &ServiceReport) {
        self.check(report.log.verify().is_ok(), || {
            format!("{what}: FaultLog::verify")
        });
        let valid = report.schedule.validate(instance);
        self.check(valid.is_ok(), || {
            format!("{what}: Schedule::validate: {valid:?}")
        });
        let incomplete = report
            .outcomes
            .iter()
            .filter(|o| !matches!(o, JobOutcome::Completed))
            .count();
        self.attempted += report.outcomes.len() as u64;
        self.failed += incomplete as u64;
        if incomplete > 0 {
            eprintln!("CHECK FAILED: {what}: {incomplete} jobs not Completed");
        }
    }
}

/// One measured repetition.
pub struct Rep {
    /// Seconds of the timed region, as the clock read them.
    pub wall_s: f64,
    /// Longest single call inside it.
    pub stall_s: f64,
    /// [`Calibration::factor`] over the timed region.
    pub factor: f64,
    pub awct: f64,
    pub makespan: f64,
}

/// Milliseconds the calibration kernel takes on the machine every
/// end-to-end time is reported for.
pub const CALIBRATION_NOMINAL_MS: f64 = 10.0;

/// A fixed integer kernel whose time tells how fast the CPU is right now.
///
/// This box's CPU alternates between two speeds about 28% apart, staying
/// in one for 2 to 15 s and more — longer than a run — so a run's median
/// (or its best rep) lands on either speed and repeats only to ±12%. The
/// kernel and the workloads slow down together: wall ÷ kernel time holds
/// to ±2% across the phases. The timed region of each rep and each set-up
/// is therefore bracketed by two kernel runs, and its times are multiplied
/// by [`CALIBRATION_NOMINAL_MS`] over their mean: the time the region
/// would have taken on a machine where the kernel takes 10 ms. On a
/// machine with a steady clock the factor is one constant.
pub struct Calibration {
    /// One table per CPU the workload is pinned to.
    tables: Vec<Vec<u64>>,
}

impl Calibration {
    pub fn new(cpus: usize) -> Self {
        Calibration {
            tables: vec![vec![0; 1 << 16]; cpus],
        }
    }

    /// Ten million dependent multiply-adds, each with a read-modify-write
    /// into a 512 KiB table.
    fn kernel(table: &mut [u64]) -> f64 {
        let started = Instant::now();
        let mut x = 1u64;
        for i in 0..10_000_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
            table[(x >> 48) as usize] ^= x;
        }
        std::hint::black_box(table);
        started.elapsed().as_secs_f64() * 1e3
    }

    /// One kernel run on each of the workload's CPUs at once (the CPUs
    /// change speed independently); returns the mean milliseconds. Call it
    /// right before a timed region.
    pub fn kernel_ms(&mut self) -> f64 {
        let (first, rest) = self.tables.split_first_mut().expect("at least one CPU");
        let total: f64 = std::thread::scope(|scope| {
            let others: Vec<_> = rest
                .iter_mut()
                .map(|t| scope.spawn(|| Self::kernel(t)))
                .collect();
            Self::kernel(first)
                + others
                    .into_iter()
                    .map(|h| h.join().expect("kernel thread"))
                    .sum::<f64>()
        });
        total / self.tables.len() as f64
    }

    /// Call right after the timed region that `before` preceded: runs the
    /// kernel again and returns the factor that takes the region's times
    /// to the nominal machine.
    pub fn factor(&mut self, before: f64) -> f64 {
        CALIBRATION_NOMINAL_MS / ((before + self.kernel_ms()) / 2.0)
    }
}

/// Set-ups per run: the first, then one after each rep from half-way on.
const SETUPS: usize = 5;
/// Fewest reps (or, traced, pairs of reps) a run makes, however slow.
const MIN_REPS: usize = 3;

pub struct Measured<I> {
    pub inputs: I,
    /// The subscriber installed during the traced reps; its registry holds
    /// what the program published in them.
    pub obs: Arc<Obs>,
    /// Calibrated seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// Reps with nothing installed: the end-to-end numbers.
    pub reps: Vec<Rep>,
    /// Reps with `Obs` installed and spans recorded (traced runs only).
    pub traced_reps: Vec<Rep>,
}

/// The measuring loop: set up, then repeat the workload until `seconds` of
/// reps have run. A traced run alternates plain and traced reps, so the two
/// see the same machine and their ratio is the tracing overhead. Set-up
/// runs [`SETUPS`] times and must produce equal inputs every time — the
/// same seed gives the same inputs.
pub fn measure<I: PartialEq>(
    ctx: &Ctx,
    tr: &mut Tracer,
    checks: &mut Checks,
    setup: impl Fn(&mut Tracer, &mut Checks) -> I,
    mut rep: impl FnMut(&I, &mut Tracer, &mut Checks, &mut Calibration) -> Rep,
) -> Measured<I> {
    let mut cal = Calibration::new(ctx.cpus);
    let set_up = |tr: &mut Tracer, checks: &mut Checks, cal: &mut Calibration, nth: usize| {
        let before = cal.kernel_ms();
        let (inputs, secs) = tr.scope("bench.setup", nth as u32, |tr| setup(tr, checks));
        (inputs, secs * cal.factor(before))
    };
    tr.recording = ctx.traced;
    let (inputs, first) = set_up(tr, checks, &mut cal, 0);
    tr.recording = false;
    let mut m = Measured {
        inputs,
        obs: Arc::new(Obs::new()),
        setup_s: vec![first],
        reps: Vec::new(),
        traced_reps: Vec::new(),
    };
    let seconds = if ctx.traced {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let started = Instant::now();
    loop {
        let n = m.reps.len() as u32;
        m.reps.push(
            tr.scope("bench.rep", n, |tr| rep(&m.inputs, tr, checks, &mut cal))
                .0,
        );
        if ctx.traced {
            let mark = tr.len();
            let guard = mris_obs::install_guard(Arc::clone(&m.obs));
            tr.recording = true;
            m.traced_reps.push(
                tr.scope("bench.rep", n, |tr| rep(&m.inputs, tr, checks, &mut cal))
                    .0,
            );
            tr.recording = false;
            drop(guard);
            if n > 0 {
                tr.truncate(mark);
            }
        }
        let elapsed = started.elapsed().as_secs_f64();
        let done = elapsed >= seconds && m.reps.len() >= MIN_REPS;
        if (done || elapsed >= seconds / 2.0) && m.setup_s.len() < SETUPS {
            let (again, secs) = set_up(tr, checks, &mut cal, m.setup_s.len());
            checks.check(again == m.inputs, || {
                "set-up with the same seed produced different inputs".into()
            });
            m.setup_s.push(secs);
        }
        if done {
            while m.setup_s.len() < SETUPS {
                let (_, secs) = set_up(tr, checks, &mut cal, m.setup_s.len());
                m.setup_s.push(secs);
            }
            return m;
        }
    }
}

impl<I> Measured<I> {
    /// The end-to-end rows every workload reports: calibrated times, their
    /// median over the reps. `n` is the job count, `pq_awct` the baseline
    /// from set-up.
    pub fn end_to_end(&self, n: usize, pq_awct: f64, checks: &mut Checks) -> Vec<Row> {
        let first = &self.reps[0];
        for r in self.reps.iter().chain(&self.traced_reps) {
            checks.check(
                r.awct.to_bits() == first.awct.to_bits()
                    && r.makespan.to_bits() == first.makespan.to_bits(),
                || {
                    format!(
                        "AWCT/makespan differ across reps: {} vs {}",
                        r.awct, first.awct
                    )
                },
            );
        }
        let rate: Vec<f64> = self
            .reps
            .iter()
            .map(|r| n as f64 / (r.wall_s * r.factor))
            .collect();
        let stall: Vec<f64> = self
            .reps
            .iter()
            .map(|r| r.stall_s * r.factor * 1e3)
            .collect();
        END_TO_END
            .iter()
            .map(|m| {
                let timed = |values: &[f64]| {
                    let reps = Reps::of(values);
                    Row {
                        value: reps.median,
                        samples: reps.n,
                        reps: Some(reps),
                        ..Row::single(m.name, m.unit, 0.0)
                    }
                };
                match m.name {
                    "setup_s" => timed(&self.setup_s),
                    "jobs_per_s" => timed(&rate),
                    "stall_max_ms" => timed(&stall),
                    "awct" => Row::single(m.name, m.unit, first.awct),
                    "awct_vs_pq" => Row::single(m.name, m.unit, first.awct / pq_awct),
                    "makespan" => Row::single(m.name, m.unit, first.makespan),
                    "peak_rss_mb" => Row::single(m.name, m.unit, peak_rss_mb()),
                    other => unreachable!("end-to-end metric {other} has no measurement"),
                }
            })
            .collect()
    }

    /// Median calibrated wall of the traced reps over that of the plain
    /// reps they alternate with.
    pub fn traced_slowdown(&self) -> f64 {
        let wall =
            |reps: &[Rep]| median(&reps.iter().map(|r| r.wall_s * r.factor).collect::<Vec<_>>());
        wall(&self.traced_reps) / wall(&self.reps)
    }

    /// Mean seconds of a traced rep as the clock read them: what the
    /// registry's sums divide by.
    pub fn traced_wall_s(&self) -> f64 {
        self.traced_reps.iter().map(|r| r.wall_s).sum::<f64>() / self.traced_reps.len() as f64
    }

    /// Fastest plain rep, uncalibrated like every per-layer time.
    pub fn fastest_wall_s(&self) -> f64 {
        self.reps
            .iter()
            .map(|r| r.wall_s)
            .fold(f64::INFINITY, f64::min)
    }
}

/// Submits every job at its release time, then steps to quiescence —
/// `run_workload` with each call timed. Returns the service for `drain`
/// and the timed region's `(wall_s, stall_s)`.
pub fn drive<C: Clock, S: TelemetrySink>(
    mut service: Service<C, S>,
    instance: &Instance,
    tr: &mut Tracer,
    checks: &mut Checks,
) -> Result<(Service<C, S>, f64, f64), SchedulingError> {
    let started = Instant::now();
    let mut calls = tr.calls();
    let mut rejected = 0;
    for job in instance.jobs() {
        rejected += service.submit_at(job.release, job.id)?.is_err() as u64;
        calls.done("service.submit_at", job.id.0);
    }
    let mut steps = 0;
    while service.step()? {
        calls.done("service.step", steps);
        steps += 1;
    }
    let stall_s = calls.longest_s();
    checks.attempted += instance.len() as u64;
    checks.failed += rejected;
    Ok((service, started.elapsed().as_secs_f64(), stall_s))
}

/// A frozen view of the registry the program publishes into.
pub struct Published(Vec<MetricEntry>);

impl Published {
    pub fn read(obs: &Obs) -> Published {
        Published(obs.registry().snapshot())
    }

    /// A counter summed over its labels; 0 when never touched.
    pub fn counter(&self, name: &str) -> f64 {
        self.0
            .iter()
            .filter(|(n, _, _)| *n == name)
            .map(|(_, _, v)| match v {
                MetricValue::Counter(c) => *c as f64,
                _ => 0.0,
            })
            .sum()
    }

    /// `(count, sum)` of a histogram; zeros when never recorded.
    pub fn histogram(&self, name: &str) -> (f64, f64) {
        self.0
            .iter()
            .find_map(|(n, _, v)| match v {
                MetricValue::Histogram(h) if *n == name => Some((h.count as f64, h.sum)),
                _ => None,
            })
            .unwrap_or((0.0, 0.0))
    }
}

/// The per-layer rows of a traced run: every metric of the table, 0 where
/// the workload did not set it.
#[derive(Default)]
pub struct Layers(Vec<(&'static str, f64, u64)>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.set_n(name, value, 1);
    }

    /// `value` summarises `samples` samples.
    pub fn set_n(&mut self, name: &'static str, value: f64, samples: usize) {
        assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not a per-layer metric"
        );
        assert!(value.is_finite(), "{name} = {value}");
        self.0.push((name, value, samples as u64));
    }

    pub fn rows(&self) -> Vec<Row> {
        PER_LAYER
            .iter()
            .map(|m| {
                let (value, samples) = self
                    .0
                    .iter()
                    .find(|(n, _, _)| *n == m.name)
                    .map_or((0.0, 0), |&(_, v, s)| (v, s));
                Row {
                    samples,
                    ..Row::single(m.name, m.unit, value)
                }
            })
            .collect()
    }
}

/// Repeats `f` (each call doing `items` units of work) for about
/// `budget_s` seconds, at least once, and returns the fastest nanoseconds
/// per unit.
pub fn fastest_ns_per(items: usize, budget_s: f64, mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut best = f64::INFINITY;
    loop {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
        if started.elapsed().as_secs_f64() >= budget_s {
            break;
        }
    }
    best * 1e9 / items.max(1) as f64
}

/// `VmHWM`, the process's peak resident set, in MiB.
pub fn peak_rss_mb() -> f64 {
    proc_status("VmHWM")
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("/proc/self/status has VmHWM")
        / 1024.0
}

/// `(user, system)` CPU ticks of this process so far, from
/// `/proc/self/stat`.
pub fn cpu_ticks() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat");
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th of the line.
    let rest = stat.rsplit(')').next().unwrap_or("");
    let mut fields = rest.split_whitespace().skip(11);
    let mut next = || {
        fields
            .next()
            .and_then(|f| f.parse().ok())
            .expect("utime/stime in /proc/self/stat")
    };
    (next(), next())
}

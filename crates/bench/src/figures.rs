//! The paper's Section 7 figures, Lemma 4.1 and the extension experiments,
//! each run by name: `figures fig3 --samples 5`. [`FIGURES`] lists them
//! with the flags each reads. The figures that report one value per
//! algorithm against an x-axis (Figures 1-4 and 6, `ratios`, `makespan`,
//! `runtime`) are [`Series`] rows, run by the one sweep loop [`series`];
//! the others are short functions of their own. All of them read their
//! flags through [`Params::parse`], schedule and validate through
//! [`schedule_all`] and print through [`Params::print`].
//!
//! The paper runs up to `N = 64000` jobs on `M = 20` machines with 10
//! sampled job sets per point. The trace figures default to `N = 16000` on
//! `M = 5` — the same jobs-per-machine load (3200), so the comparative
//! shapes are preserved — sized for a single-core machine; `--paper`
//! restores the paper's scale.

use std::slice;
use std::time::Instant;

use mris_core::registry::{algorithm_by_name, comparison_algorithms};
use mris_core::{Mris, MrisConfig};
use mris_metrics::{
    awct_lower_bound, fairness_report, makespan_lower_bound, render_utilization,
    utilization_profile, Cdf, FairnessReport, Summary, Table,
};
use mris_schedulers::{Scheduler, SortHeuristic};
use mris_trace::{
    augment_resources, lemma41_instance, lemma41_reference_awct, patience_instance, PatienceConfig,
};
use mris_types::{Instance, JobId, Schedule};

use crate::{Args, TracePool};

/// The job-count sweep of Figures 1-3, `ratios` and `makespan`.
const N_SWEEP: &[usize] = &[500, 1_000, 2_000, 4_000, 8_000, 16_000];
/// [`N_SWEEP`] at the paper's scale.
const PAPER_N_SWEEP: &[usize] = &[4_000, 8_000, 16_000, 32_000, 64_000];
/// The base trace's seed.
const SEED: u64 = 0xA2;
/// Lemma 4.1's small jobs are released at this `eps`, on two resources.
const LEMMA41_EPS: f64 = 0.1;
const LEMMA41_RESOURCES: usize = 2;
/// Figure 5's queuing-delay quantiles.
const QUANTILES: [f64; 9] = [0.1, 0.25, 0.5, 0.6, 0.75, 0.9, 0.95, 0.99, 1.0];
/// Width of Figure 7's and `dynamics`' ASCII strips.
const STRIP: usize = 72;

/// One paper figure or extension experiment.
#[derive(Debug, Clone, Copy)]
pub struct Figure {
    /// Its name on the command line.
    pub name: &'static str,
    /// The flags it reads.
    pub flags: &'static [&'static str],
    /// Its `N` where `N` is not swept and `--n` is not given (`--paper`:
    /// 64000).
    pub n: usize,
    /// How it runs.
    pub body: Body,
}

/// How a figure runs.
#[derive(Debug, Clone, Copy)]
pub enum Body {
    /// One value per algorithm at each point of an x-axis.
    Series(Series),
    /// A figure of its own shape: its default `--sweep` (empty if it reads
    /// none) and the function that prints it.
    Own(&'static [usize], fn(&Params) -> Result<String, String>),
}

/// A figure that reports one value per algorithm against an x-axis, on job
/// sets downsampled from the Azure-like base trace (Section 7.1).
#[derive(Debug, Clone, Copy)]
pub struct Series {
    /// The caption's head; the point's scale (`M = 5`, ...) and then
    /// `aside` follow it in parentheses.
    pub title: &'static str,
    /// See [`Series::title`].
    pub aside: &'static str,
    /// What its points range over.
    pub axis: Axis,
    /// Its labelled algorithms, one column each.
    pub algorithms: fn() -> Result<Vec<Algorithm>, String>,
    /// What each cell reports.
    pub metric: Metric,
    /// Most job sets per point (fewer if `--samples` says so).
    pub samples: usize,
    /// Extra columns, each later algorithm's mean over the first's.
    pub ratios: &'static [&'static str],
    /// Printed below the table: `{ceiling}` is MRIS's `8R(1+eps)` and
    /// `{degradation}` each algorithm's change from the first point to the
    /// last.
    pub note: &'static str,
}

/// What a series' points range over.
#[derive(Debug, Clone, Copy)]
pub enum Axis {
    /// Jobs per instance, `N`: the default sweep and the `--paper` one.
    Jobs(&'static [usize], &'static [usize]),
    /// Machines, `M`, at the figure's `N`: default and `--paper` sweep.
    Machines(&'static [usize], &'static [usize]),
    /// Resource types, `R`, at the figure's `N`; each job set is augmented
    /// with synthetic resources (Section 7.5.3).
    Resources(&'static [usize]),
}

/// What a series reports per algorithm at each point.
#[derive(Debug, Clone, Copy)]
pub enum Metric {
    /// AWCT, mean ± 95% CI over the job sets.
    Awct,
    /// AWCT over [`awct_lower_bound`], an upper bound on the competitive
    /// ratio.
    AwctOverLowerBound,
    /// Makespan, beside Lemma 6.2's lower bound and the first algorithm's
    /// ratio to it.
    Makespan,
    /// Wall-clock time of one schedule, and the growth exponent since the
    /// previous point.
    Milliseconds,
}

/// The shape most rows share: the comparison set's AWCT against `N`.
#[rustfmt::skip]
const TRACE: Series = Series {
    title: "", aside: "", axis: Axis::Jobs(N_SWEEP, PAPER_N_SWEEP), algorithms: comparison,
    metric: Metric::Awct, samples: usize::MAX, ratios: &[], note: "",
};

const N_FLAGS: &[&str] = &["paper", "samples", "sweep", "csv"];
const OWN_FLAGS: &[&str] = &["paper", "samples", "n", "csv"];

/// Every figure, in the order `results/run_all.sh` regenerates them. One
/// field group per line, so rustfmt leaves the table alone.
#[rustfmt::skip]
pub const FIGURES: &[Figure] = &[
    Figure {
        name: "fig1", flags: N_FLAGS, n: 16_000,
        body: Body::Series(Series {
            title: "Figure 1 — AWCT of MRIS under different sorting heuristics",
            algorithms: || named(&["mris-erf", "mris-wsdf", "mris-sdf", "mris-wsjf", "mris-sjf", "mris-wsvf", "mris-svf"]),
            ..TRACE
        }),
    },
    Figure {
        name: "fig2", flags: N_FLAGS, n: 16_000,
        body: Body::Series(Series {
            title: "Figure 2 — AWCT of the two knapsack subroutines",
            algorithms: knapsacks, ratios: &["greedy/cadp", "half/cadp"],
            ..TRACE
        }),
    },
    Figure {
        name: "fig3", flags: N_FLAGS, n: 16_000,
        body: Body::Series(Series { title: "Figure 3 — AWCT vs number of jobs", ..TRACE }),
    },
    Figure {
        name: "fig4", flags: &["paper", "samples", "n", "sweep", "csv"], n: 16_000,
        body: Body::Series(Series {
            title: "Figure 4 — AWCT vs number of machines",
            axis: Axis::Machines(&[2, 3, 5, 10, 20, 40], &[5, 10, 20, 40, 80]),
            ..TRACE
        }),
    },
    Figure { name: "fig5", flags: OWN_FLAGS, n: 16_000, body: Body::Own(&[], fig5) },
    Figure {
        name: "fig6", flags: &["paper", "samples", "n", "sweep", "csv"], n: 16_000,
        body: Body::Series(Series {
            title: "Figure 6 — AWCT vs number of resource types",
            axis: Axis::Resources(&[4, 8, 12, 16, 20]), note: "{degradation}",
            ..TRACE
        }),
    },
    Figure { name: "fig7", flags: &["n"], n: 2_500, body: Body::Own(&[], fig7) },
    Figure {
        name: "lemma41", flags: &["sweep", "csv"], n: 0,
        body: Body::Own(&[8, 16, 32, 64, 128, 256, 512], lemma41),
    },
    Figure {
        name: "ratios", flags: N_FLAGS, n: 16_000,
        body: Body::Series(Series {
            title: "Empirical AWCT ratio vs provable lower bound",
            aside: "; values\nupper-bound the true competitive ratio",
            metric: Metric::AwctOverLowerBound,
            note: "\nMRIS's proven worst-case ceiling at R = 4: 8R(1+eps) = {ceiling}.\n",
            ..TRACE
        }),
    },
    Figure {
        name: "makespan", flags: N_FLAGS, n: 16_000,
        body: Body::Series(Series {
            title: "Makespan (Lemma 6.9) — makespan vs number of jobs",
            metric: Metric::Makespan,
            note: "\nLB = max(V/(R*M), max_j r_j + p_j) (Lemma 6.2). MRIS's proven\n\
                   makespan ceiling is 8R(1+eps) = {ceiling}x.\n",
            ..TRACE
        }),
    },
    Figure { name: "ablation", flags: OWN_FLAGS, n: 8_000, body: Body::Own(&[], ablation) },
    Figure {
        name: "runtime", flags: &["paper", "sweep", "csv"], n: 16_000,
        body: Body::Series(Series {
            title: "Runtime scaling",
            aside: "; `exp` = empirical growth exponent between\n\
                    consecutive N; Section 5.3 worst-case bounds: MRIS-CADP O(N^3/eps),\n\
                    MRIS-GREEDY O(N^2 log N), PQ O(N^2)",
            axis: Axis::Jobs(&[1_000, 2_000, 4_000, 8_000, 16_000], &[1_000, 2_000, 4_000, 8_000, 16_000]),
            algorithms: || named(&["mris", "mris-greedy", "pq-wsjf"]),
            metric: Metric::Milliseconds, samples: 1,
            ..TRACE
        }),
    },
    Figure { name: "dynamics", flags: &["paper", "n"], n: 4_000, body: Body::Own(&[], dynamics) },
    Figure { name: "fairness", flags: OWN_FLAGS, n: 8_000, body: Body::Own(&[], fairness) },
];

/// Looks a figure up by name.
pub fn figure(name: &str) -> Result<&'static Figure, String> {
    FIGURES.iter().find(|f| f.name == name).ok_or_else(|| {
        let names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
        format!("unknown figure `{name}` (figures: {})", names.join(", "))
    })
}

/// Runs `fig` at `p` and returns what it prints.
pub fn run(fig: &Figure, p: &Params) -> Result<String, String> {
    match fig.body {
        Body::Series(s) => series(fig.name, &s, p),
        Body::Own(_, print) => print(p),
    }
}

/// A figure's settings, read from its flags.
#[derive(Debug, Clone)]
pub struct Params {
    /// `--samples`: job sets per point (10).
    pub samples: usize,
    /// `M` where it is not swept: 5 (`--paper`: 20).
    pub machines: usize,
    /// `--n`: `N` where it is not swept (the figure's own; `--paper` 64000).
    pub n: usize,
    /// `--sweep`: the x-axis values (the figure's own).
    pub sweep: Vec<usize>,
    /// `--csv`: CSV tables instead of markdown.
    pub csv: bool,
    /// Jobs in the base trace: enough that the largest `N` (at least the
    /// scale's default 16000 or 64000) has `max(samples, 16)` offsets.
    pub base_jobs: usize,
}

impl Params {
    /// Reads `fig`'s flags from `args`: a flag it does not read, a switch
    /// with a value, a value flag without one and a value that does not
    /// parse (or is below the axis' least) are errors.
    pub fn parse(fig: &Figure, args: &Args) -> Result<Self, String> {
        args.only(fig.name, fig.flags)?;
        let paper = args.switch("paper")?;
        let given_n = args.count("n", 1)?;
        let samples = args.count("samples", 1)?.unwrap_or(10);
        // Lemma 4.1's family starts at two jobs.
        let (default, least, jobs) = match fig.body {
            Body::Series(s) => (
                s.axis.sweep(paper),
                s.axis.least(),
                matches!(s.axis, Axis::Jobs(..)),
            ),
            Body::Own(sweep, _) => (sweep, 2, false),
        };
        let sweep = args
            .list("sweep", least)?
            .unwrap_or_else(|| default.to_vec());
        // The base trace is sized by `N` alone: an `M` or `R` sweep never
        // changes it, so every figure downsamples the same trace.
        let mut largest_n = given_n
            .unwrap_or(0)
            .max(if paper { 64_000 } else { 16_000 });
        if jobs {
            largest_n = sweep.iter().fold(largest_n, |a, &b| a.max(b));
        }
        let base_jobs = largest_n
            .checked_mul(samples.max(16))
            .ok_or_else(|| format!("a base trace of {largest_n} x {samples} jobs is too large"))?;
        Ok(Params {
            samples,
            machines: if paper { 20 } else { 5 },
            n: given_n.unwrap_or(if paper { 64_000 } else { fig.n }),
            sweep,
            csv: args.switch("csv")?,
            base_jobs,
        })
    }

    /// The one table printer: markdown, or CSV under `--csv`.
    fn print(&self, table: &Table) -> String {
        if self.csv {
            table.to_csv()
        } else {
            table.to_markdown()
        }
    }

    /// The base trace the figure's job sets are downsampled from.
    fn trace(&self) -> TracePool {
        TracePool::new(self.base_jobs, SEED)
    }
}

impl Axis {
    /// The default sweep.
    fn sweep(self, paper: bool) -> &'static [usize] {
        match self {
            Axis::Jobs(d, p) | Axis::Machines(d, p) => {
                if paper {
                    p
                } else {
                    d
                }
            }
            Axis::Resources(d) => d,
        }
    }

    /// The least value `--sweep` may hold: the trace has four resources.
    fn least(self) -> usize {
        match self {
            Axis::Jobs(..) => 2,
            Axis::Machines(..) => 1,
            Axis::Resources(_) => 4,
        }
    }

    /// The row header.
    fn header(self) -> &'static str {
        match self {
            Axis::Jobs(..) => "N",
            Axis::Machines(..) => "M",
            Axis::Resources(_) => "R",
        }
    }

    /// What the caption says about the scale of every point.
    fn scale(self, p: &Params) -> String {
        match self {
            Axis::Jobs(..) => format!("M = {}", p.machines),
            Axis::Machines(..) => format!("N = {}", p.n),
            Axis::Resources(_) => format!("N = {}, M = {}", p.n, p.machines),
        }
    }
}

/// A column label and the scheduler it reports.
pub type Algorithm = (String, Box<dyn Scheduler>);

/// Figures 3 and 4's comparison set, [`comparison_algorithms`].
fn comparison() -> Result<Vec<Algorithm>, String> {
    Ok(comparison_algorithms()
        .into_iter()
        .map(|a| (a.name(), a))
        .collect())
}

/// The registry's algorithms `names`, each labelled with its scheduler's
/// name.
fn named(names: &[&str]) -> Result<Vec<Algorithm>, String> {
    let named = |name: &&str| {
        let algo = algorithm_by_name(name).map_err(|e| e.to_string())?;
        Ok((algo.name(), algo))
    };
    names.iter().map(named).collect()
}

/// Figure 2's knapsack subroutines.
fn knapsacks() -> Result<Vec<Algorithm>, String> {
    let labels = [
        "MRIS (CADP)",
        "MRIS-GREEDY (Remark 1, 2x capacity)",
        "MRIS-GREEDY-HALF (capacity-respecting)",
    ];
    let algos = named(&["mris", "mris-greedy", "mris-greedy-half"])?;
    Ok(labels
        .into_iter()
        .zip(algos)
        .map(|(label, (_, algo))| (label.to_string(), algo))
        .collect())
}

/// One algorithm's validated schedules at one point.
struct Run {
    label: String,
    schedules: Vec<Schedule>,
    /// Wall-clock milliseconds spent scheduling.
    ms: f64,
}

/// Schedules every instance with every algorithm on `machines` machines
/// and validates each schedule; an invalid one is an error naming the
/// figure, algorithm, point and sample.
fn schedule_all(
    figure: &str,
    at: &str,
    algorithms: &[Algorithm],
    instances: &[Instance],
    machines: usize,
) -> Result<Vec<Run>, String> {
    let t0 = Instant::now();
    let mut runs = Vec::with_capacity(algorithms.len());
    for (label, algo) in algorithms {
        let mut run = Run {
            label: label.clone(),
            schedules: Vec::with_capacity(instances.len()),
            ms: 0.0,
        };
        for (sample, instance) in instances.iter().enumerate() {
            let t0 = Instant::now();
            let schedule = algo.try_schedule(instance, machines);
            run.ms += t0.elapsed().as_secs_f64() * 1e3;
            let fail = |e: String| format!("{figure}: {label} at {at}, sample {sample}: {e}");
            let schedule = schedule.map_err(|e| fail(e.to_string()))?;
            schedule
                .validate(instance)
                .map_err(|e| fail(e.to_string()))?;
            run.schedules.push(schedule);
        }
        runs.push(run);
    }
    eprintln!("{figure}: {at} done in {:.1?}", t0.elapsed());
    Ok(runs)
}

impl Run {
    /// One value per job set.
    fn each(
        &self,
        instances: &[Instance],
        value: impl Fn(&Instance, &Schedule) -> f64,
    ) -> Vec<f64> {
        instances
            .iter()
            .zip(&self.schedules)
            .map(|(i, s)| value(i, s))
            .collect()
    }

    /// The AWCT over the job sets.
    fn awct(&self, instances: &[Instance]) -> Summary {
        Summary::of(&self.each(instances, |i, s| s.awct(i)))
    }
}

/// The one sweep loop: a series' table, one row per `--sweep` value.
fn series(name: &str, s: &Series, p: &Params) -> Result<String, String> {
    let pool = p.trace();
    let algorithms = (s.algorithms)()?;
    let labels: Vec<&str> = algorithms.iter().map(|(l, _)| l.as_str()).collect();
    let makespan = matches!(s.metric, Metric::Makespan);
    let mut headers = vec![s.axis.header().to_string()];
    headers.extend(makespan.then(|| "LB".to_string()));
    headers.extend(labels.iter().flat_map(|l| s.metric.headers(l)));
    headers.extend(makespan.then(|| "MRIS/LB".to_string()));
    headers.extend(s.ratios.iter().map(|r| r.to_string()));
    let mut table = Table::new(headers);
    let mut rows: Vec<(usize, Vec<Summary>)> = Vec::new();
    let mut resources = 0;
    for &x in &p.sweep {
        let (n, machines) = match s.axis {
            Axis::Jobs(..) => (x, p.machines),
            Axis::Machines(..) => (p.n, x),
            Axis::Resources(_) => (p.n, p.machines),
        };
        let mut instances = pool.instances_for(n, p.samples.min(s.samples));
        if let Axis::Resources(_) = s.axis {
            let seed = |i: usize| SEED ^ (i as u64) << 8;
            instances = (instances.iter().enumerate())
                .map(|(i, set)| augment_resources(set, x, seed(i)))
                .collect();
        }
        resources = instances.first().map_or(0, Instance::num_resources);
        let at = format!("{} = {x}", s.axis.header());
        let runs = schedule_all(name, &at, &algorithms, &instances, machines)?;
        let sums: Vec<Summary> = runs
            .iter()
            .map(|r| Summary::of(&s.metric.values(r, &instances, machines)))
            .collect();
        let lb = makespan.then(|| {
            Summary::of(
                &(instances.iter())
                    .map(|i| makespan_lower_bound(i, machines))
                    .collect::<Vec<_>>(),
            )
            .mean
        });
        let previous = rows.last();
        let mut cells = vec![x.to_string()];
        cells.extend(lb.map(|lb| format!("{lb:.0}")));
        for (a, sum) in sums.iter().enumerate() {
            let previous = previous.map(|(px, ps)| (*px, &ps[a]));
            cells.extend(s.metric.cells(sum, x, previous));
        }
        cells.extend(lb.map(|lb| format!("{:.2}", sums[0].mean / lb)));
        cells.extend((1..=s.ratios.len()).map(|a| format!("{:.2}", sums[a].mean / sums[0].mean)));
        table.push_row(cells);
        rows.push((x, sums));
    }
    let ceiling = Mris::default().config.competitive_ratio(resources);
    let note = s
        .note
        .replace("{ceiling}", &format!("{ceiling:.0}"))
        .replace("{degradation}", &degradation(s.axis, &rows, &labels));
    let caption = format!("\n{} ({}{}):\n\n", s.title, s.axis.scale(p), s.aside);
    Ok(caption + &p.print(&table) + &note)
}

impl Metric {
    /// One run's values, one per job set.
    fn values(self, run: &Run, instances: &[Instance], machines: usize) -> Vec<f64> {
        match self {
            Metric::Awct => run.each(instances, |i, s| s.awct(i)),
            Metric::AwctOverLowerBound => {
                run.each(instances, |i, s| s.awct(i) / awct_lower_bound(i, machines))
            }
            Metric::Makespan => run.each(instances, |i, s| s.makespan(i)),
            Metric::Milliseconds => vec![run.ms],
        }
    }

    /// A series table's columns for one algorithm labelled `label`.
    fn headers(self, label: &str) -> Vec<String> {
        match self {
            Metric::AwctOverLowerBound => vec![format!("{label}/LB")],
            Metric::Milliseconds => vec![format!("{label} [ms]"), "exp".into()],
            Metric::Awct | Metric::Makespan => vec![label.to_string()],
        }
    }

    /// A series cell; `previous` is the last point's `(x, summary)`.
    fn cells(self, s: &Summary, x: usize, previous: Option<(usize, &Summary)>) -> Vec<String> {
        let ci = s.ci95_half_width();
        match self {
            Metric::Awct => vec![format!("{:.1} ± {ci:.1}", s.mean)],
            Metric::AwctOverLowerBound => vec![format!("{:.2} ± {ci:.2}", s.mean)],
            Metric::Makespan => vec![format!("{:.0} ± {ci:.0}", s.mean)],
            Metric::Milliseconds => {
                let exponent = previous.map_or("-".to_string(), |(px, ps)| {
                    let e = (s.mean / ps.mean).ln() / (x as f64 / px as f64).ln();
                    format!("{e:.2}")
                });
                vec![format!("{:.1}", s.mean), exponent]
            }
        }
    }
}

/// Each algorithm's change in mean from the first point to the last.
fn degradation(axis: Axis, rows: &[(usize, Vec<Summary>)], labels: &[&str]) -> String {
    let [(x0, first), .., (x1, last)] = rows else {
        return String::new();
    };
    let header = axis.header();
    let mut out = format!("\nDegradation from {header} = {x0} to {header} = {x1}:\n");
    for (label, (lo, hi)) in labels.iter().zip(first.iter().zip(last)) {
        out += &format!(
            "  {label:>12}: {:+.0}%\n",
            (hi.mean / lo.mean - 1.0) * 100.0
        );
    }
    out
}

/// Figure 5: the queuing-delay distribution over every job of at most
/// three job sets, at `N` and at one eighth of it.
fn fig5(p: &Params) -> Result<String, String> {
    let pool = p.trace();
    let algorithms = comparison()?;
    let mut out = String::new();
    for n in [p.n, (p.n / 8).max(1)] {
        let instances = pool.instances_for(n, p.samples.min(3));
        let runs = schedule_all(
            "fig5",
            &format!("N = {n}"),
            &algorithms,
            &instances,
            p.machines,
        )?;
        let mut headers = vec!["algorithm".to_string(), "P[delay = 0]".to_string()];
        headers.extend(QUANTILES.map(|q| format!("q{:.0}", q * 100.0)));
        let mut table = Table::new(headers);
        for run in &runs {
            let delays =
                (instances.iter().zip(&run.schedules)).flat_map(|(i, s)| s.queuing_delays(i));
            let cdf = Cdf::new(delays.collect());
            let mut cells = vec![
                run.label.clone(),
                format!("{:.1}%", cdf.fraction_zero() * 100.0),
            ];
            cells.extend(QUANTILES.iter().map(|&q| format!("{:.0}", cdf.quantile(q))));
            table.push_row(cells);
        }
        out += &format!(
            "\nFigure 5 — queuing delay distribution (N = {n}, M = {}; delay at\n\
             each CDF quantile, normalized time units):\n\n",
            p.machines
        );
        out += &p.print(&table);
    }
    Ok(out)
}

/// Figure 7: the "exercising patience" input on one machine, `N` small
/// jobs behind one blocker; a CPU utilization strip per algorithm and
/// each one's AWCT against MRIS's.
fn fig7(p: &Params) -> Result<String, String> {
    let instance = patience_instance(&PatienceConfig {
        num_small: p.n,
        ..Default::default()
    });
    let instances = slice::from_ref(&instance);
    let algorithms = named(&["mris", "pq-wsjf", "tetris", "bf-exec"])?;
    let runs = schedule_all("fig7", &format!("N = {}", p.n), &algorithms, instances, 1)?;
    let horizon = horizon(&runs, instances);
    let mut out = format!("\nFigure 7 — CPU utilization over [0, {horizon}):\n\n");
    for run in &runs {
        let profile = utilization_profile(&instance, &run.schedules[0], 0, 0, horizon, STRIP);
        out += &format!("{:>12} |{}|\n", run.label, render_utilization(&profile));
    }
    out += "\n";
    let mris = runs[0].schedules[0].awct(&instance);
    let mut table = Table::new(vec!["algorithm", "AWCT", "vs MRIS", "blocker start"]);
    for run in &runs {
        let awct = run.schedules[0].awct(&instance);
        let blocker = run.schedules[0].get(JobId(0)).map_or(f64::NAN, |a| a.start);
        table.push_row(vec![
            run.label.clone(),
            format!("{awct:.3}"),
            format!("{:.2}x", awct / mris),
            format!("{blocker:.2}"),
        ]);
    }
    Ok(out + &p.print(&table))
}

/// Lemma 4.1: each algorithm's AWCT over the reference schedule's on the
/// adversarial family, a lower bound on its competitive ratio.
fn lemma41(p: &Params) -> Result<String, String> {
    let algorithms = named(&["pq-wsjf", "tetris", "bf-exec", "mris"])?;
    let mut headers = vec!["N".to_string()];
    headers.extend(algorithms.iter().map(|(label, _)| format!("{label} / REF")));
    let mut table = Table::new(headers);
    for &n in &p.sweep {
        let instance = lemma41_instance(n, LEMMA41_RESOURCES, LEMMA41_EPS);
        let instances = slice::from_ref(&instance);
        let runs = schedule_all("lemma41", &format!("N = {n}"), &algorithms, instances, 1)?;
        let reference = lemma41_reference_awct(n, LEMMA41_EPS);
        let mut cells = vec![n.to_string()];
        cells.extend(
            (runs.iter()).map(|r| format!("{:.2}", r.schedules[0].awct(&instance) / reference)),
        );
        table.push_row(cells);
    }
    let ceiling = Mris::default().config.competitive_ratio(LEMMA41_RESOURCES);
    Ok(format!(
        "\nLemma 4.1 — AWCT ratio to the reference schedule on the adversarial\n\
         family ({LEMMA41_RESOURCES} resources, small jobs released at eps = {LEMMA41_EPS}):\n\n"
    ) + &p.print(&table)
        + &format!(
            "\nPQ-class ratios grow ~ N/2 (unbounded); MRIS stays below its proven\n\
             ceiling 8R(1+eps) = {ceiling:.0}.\n"
        ))
}

/// The ablation: MRIS's AWCT under each variant of one design choice at a
/// time, one table per choice, against the paper's configuration.
fn ablation(p: &Params) -> Result<String, String> {
    let instances = p.trace().instances_for(p.n, p.samples);
    let d = MrisConfig::default();
    let panels: [(&str, Vec<(String, MrisConfig)>); 4] = [
        (
            "Backfilling (Section 5.3)",
            vec![
                (String::new(), d),
                (
                    "no-backfill (analysis worst case)".into(),
                    MrisConfig {
                        backfill: false,
                        ..d
                    },
                ),
            ],
        ),
        (
            "Interval base alpha (Theorem 6.8 requires alpha >= 2)",
            [2.0, 3.0, 4.0, 8.0]
                .map(|alpha| (format!("alpha = {alpha}"), MrisConfig { alpha, ..d }))
                .to_vec(),
        ),
        (
            "CADP epsilon (ratio 8R(1+eps), runtime O(n^2/eps))",
            [0.1, 0.25, 0.5, 0.75, 0.9]
                .map(|epsilon| (format!("eps = {epsilon}"), MrisConfig { epsilon, ..d }))
                .to_vec(),
        ),
        (
            "Queue heuristic (incl. DRF-inspired SDDF/WSDDF extensions)",
            SortHeuristic::ALL_EXTENDED
                .map(|heuristic| (heuristic.to_string(), MrisConfig { heuristic, ..d }))
                .to_vec(),
        ),
    ];
    let mut out = String::new();
    for (title, variants) in panels {
        // The paper's configuration is labelled `default` in every panel.
        let algorithms: Vec<Algorithm> = (variants.into_iter())
            .map(|(label, config)| {
                let label = if config == d { "default".into() } else { label };
                (label, Box::new(Mris::with_config(config)) as _)
            })
            .collect();
        let at = format!("N = {} ({title})", p.n);
        let runs = schedule_all("ablation", &at, &algorithms, &instances, p.machines)?;
        let base = runs
            .iter()
            .find(|r| r.label == "default")
            .unwrap_or(&runs[0]);
        let base = base.awct(&instances).mean;
        let mut table = Table::new(vec!["variant", "AWCT (mean ± 95% CI)", "vs default"]);
        for run in &runs {
            let s = run.awct(&instances);
            table.push_row(vec![
                run.label.clone(),
                format!("{:.1} ± {:.1}", s.mean, s.ci95_half_width()),
                format!("{:+.1}%", (s.mean / base - 1.0) * 100.0),
            ]);
        }
        out += &format!("\n### {title}\n\n");
        out += &p.print(&table);
    }
    Ok(out)
}

/// A strip per algorithm of how many jobs run at once over one job set,
/// normalized to the most any of them runs.
fn dynamics(p: &Params) -> Result<String, String> {
    let instances = p.trace().instances_for(p.n, 1);
    let algorithms = named(&["pq-wsjf", "tetris", "bf-exec", "mris"])?;
    let at = format!("N = {}", p.n);
    let runs = schedule_all("dynamics", &at, &algorithms, &instances, p.machines)?;
    let horizon = horizon(&runs, &instances);
    let counts: Vec<_> = runs
        .iter()
        .map(|r| running_counts(&instances[0], &r.schedules[0], horizon))
        .collect();
    let peak = counts
        .iter()
        .map(|(_, most)| *most)
        .max()
        .unwrap_or(1)
        .max(1);
    let mut out = format!(
        "\nConcurrently running jobs over [0, {horizon}) (N = {}, M = {};\n\
         each strip normalized to the global peak of {peak} running jobs):\n\n",
        p.n, p.machines
    );
    for (run, (count, _)) in runs.iter().zip(&counts) {
        let strip: Vec<f64> = count.iter().map(|&c| c / peak as f64).collect();
        out += &format!("{:>10} |{}|\n", run.label, render_utilization(&strip));
    }
    Ok(out)
}

/// Jain's index, max and mean of per-job slowdowns for the comparison set,
/// over at most five job sets.
fn fairness(p: &Params) -> Result<String, String> {
    let instances = p.trace().instances_for(p.n, p.samples.min(5));
    let at = format!("N = {}", p.n);
    let runs = schedule_all("fairness", &at, &comparison()?, &instances, p.machines)?;
    let mut table = Table::new(vec![
        "algorithm",
        "Jain(slowdown)",
        "max slowdown",
        "mean slowdown",
    ]);
    for run in &runs {
        let reports: Vec<FairnessReport> = (instances.iter().zip(&run.schedules))
            .map(|(i, s)| fairness_report(i, s))
            .collect();
        let mean = |f: fn(&FairnessReport) -> f64| {
            Summary::of(&reports.iter().map(f).collect::<Vec<_>>()).mean
        };
        table.push_row(vec![
            run.label.clone(),
            format!("{:.3}", mean(|r| r.jains_slowdown)),
            format!("{:.0}", mean(|r| r.max_slowdown)),
            format!("{:.0}", mean(|r| r.mean_slowdown)),
        ]);
    }
    Ok(format!(
        "\nFairness of per-job slowdowns (N = {}, M = {}; Jain's index: 1.0 =\n\
         perfectly even, 1/N = one job absorbs all the slowdown):\n\n",
        p.n, p.machines
    ) + &p.print(&table))
}

/// The whole time by which every run's schedules have ended.
fn horizon(runs: &[Run], instances: &[Instance]) -> f64 {
    let ends = runs
        .iter()
        .flat_map(|r| r.each(instances, |i, s| s.makespan(i)));
    ends.fold(0.0, f64::max).ceil()
}

/// Jobs running at the end of each of [`STRIP`] equal slices of
/// `[0, horizon)`, and the most ever running at once.
fn running_counts(instance: &Instance, schedule: &Schedule, horizon: f64) -> (Vec<f64>, usize) {
    let mut events: Vec<(f64, i64)> = schedule
        .assignments()
        .flat_map(|a| [(a.start, 1), (a.start + instance.job(a.job).proc_time, -1)])
        .collect();
    // A job ending at `t` frees its slot before one starting at `t` takes it.
    events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let (mut running, mut peak, mut next) = (0i64, 0i64, 0);
    let counts = (0..STRIP)
        .map(|b| {
            let end = (b + 1) as f64 * horizon / STRIP as f64;
            while next < events.len() && events[next].0 <= end {
                running += events[next].1;
                peak = peak.max(running);
                next += 1;
            }
            running as f64
        })
        .collect();
    (counts, peak as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reports an empty schedule: every job unassigned.
    struct Forgetful;

    impl Scheduler for Forgetful {
        fn name(&self) -> String {
            "FORGETFUL".into()
        }

        fn policy(
            &self,
            _: &Instance,
            _: &mris_types::ClusterSpec,
        ) -> Box<dyn mris_sim::OnlinePolicy> {
            Box::new(mris_schedulers::PqPolicy::new(SortHeuristic::Wsjf))
        }

        fn try_schedule_on(
            &self,
            instance: &Instance,
            cluster: &mris_types::ClusterSpec,
        ) -> Result<Schedule, mris_types::SchedulingError> {
            Ok(Schedule::new(instance.len(), cluster.len()))
        }
    }

    #[test]
    fn an_invalid_schedule_ends_the_figure_naming_where() {
        let instances = [lemma41_instance(4, 2, LEMMA41_EPS)];
        let algo: Algorithm = ("FORGETFUL".into(), Box::new(Forgetful));
        let err = schedule_all("lemma41", "N = 4", &[algo], &instances, 1)
            .err()
            .unwrap();
        assert!(
            err.starts_with("lemma41: FORGETFUL at N = 4, sample 0: "),
            "{err}"
        );
        assert!(!err.contains('\n'));
    }
}

//! The one typed report writer: metric rows, a machine stamp, repetitions
//! with their minimum, median and maximum, all to and from JSON; the
//! statistics the rows are built from; and the schema checks, in code.

use std::process::Command;

use crate::json::Json;
use crate::spec::{self, Better, END_TO_END, PER_LAYER, WORKLOADS};

pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// 1-based nearest rank of percentile `p` among `n` sorted samples, in
/// integers (hundredths of a percent) so that p90 of 100 is rank 90 exactly.
fn rank(n: usize, p: f64) -> usize {
    let basis_points = (p * 100.0).round() as usize;
    (n * basis_points).div_ceil(10_000).clamp(1, n)
}

/// The highest of the usual percentiles that still has at least ten samples
/// beyond it, so a reported tail is never one or two outliers.
pub fn highest_percentile(n: usize) -> f64 {
    [99.99, 99.9, 99.0, 90.0]
        .into_iter()
        .find(|&p| n >= 10 + rank(n.max(1), p))
        .unwrap_or(50.0)
}

/// Nearest-rank percentile `p` of `sorted`, lowered to
/// [`highest_percentile`] when the sample is too small for `p`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no values");
    sorted[rank(sorted.len(), p.min(highest_percentile(sorted.len()))) - 1]
}

/// The spread of one measurement over a run's repetitions.
#[derive(Debug, Clone, PartialEq)]
pub struct Reps {
    pub n: u64,
    pub min: f64,
    pub median: f64,
    pub max: f64,
}

impl Reps {
    pub fn of(values: &[f64]) -> Reps {
        Reps {
            n: values.len() as u64,
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            median: median(values),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

/// One metric of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub name: String,
    pub unit: String,
    pub value: f64,
    /// How many samples the value summarises (1 for a count or a single
    /// measurement).
    pub samples: u64,
    pub reps: Option<Reps>,
}

impl Row {
    pub fn single(name: &str, unit: &str, value: f64) -> Row {
        Row {
            name: name.into(),
            unit: unit.into(),
            value,
            samples: 1,
            reps: None,
        }
    }

    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("name".to_string(), Json::str(&*self.name)),
            ("unit".to_string(), Json::str(&*self.unit)),
            ("value".to_string(), Json::Num(self.value)),
            ("samples".to_string(), Json::Num(self.samples as f64)),
        ];
        if let Some(r) = &self.reps {
            fields.push((
                "reps".to_string(),
                Json::obj([
                    ("n", Json::Num(r.n as f64)),
                    ("min", Json::Num(r.min)),
                    ("median", Json::Num(r.median)),
                    ("max", Json::Num(r.max)),
                ]),
            ));
        }
        Json::Obj(fields)
    }

    fn from_json(j: &Json) -> Result<Row, String> {
        let reps = match j.get("reps") {
            None => None,
            Some(r) => Some(Reps {
                n: num(r, "n")? as u64,
                min: num(r, "min")?,
                median: num(r, "median")?,
                max: num(r, "max")?,
            }),
        };
        Ok(Row {
            name: text(j, "name")?,
            unit: text(j, "unit")?,
            value: num(j, "value")?,
            samples: num(j, "samples")? as u64,
            reps,
        })
    }
}

fn num(j: &Json, key: &str) -> Result<f64, String> {
    j.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing number '{key}'"))
}

fn text(j: &Json, key: &str) -> Result<String, String> {
    j.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string '{key}'"))
}

fn flag(j: &Json, key: &str) -> Result<bool, String> {
    j.get(key)
        .and_then(Json::as_bool)
        .ok_or_else(|| format!("missing boolean '{key}'"))
}

/// One process's run of one workload, traced or not.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    pub traced: bool,
    /// `Cpus_allowed_list` of the process that measured.
    pub affinity: String,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub rows: Vec<Row>,
}

impl Run {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("workload", Json::str(&*self.workload)),
            ("seed", Json::Num(self.seed as f64)),
            ("seconds", Json::Num(self.seconds)),
            ("smoke", Json::Bool(self.smoke)),
            ("traced", Json::Bool(self.traced)),
            ("affinity", Json::str(&*self.affinity)),
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "failed_share",
                Json::Num(self.failed as f64 / self.attempted.max(1) as f64),
            ),
            (
                "rows",
                Json::Arr(self.rows.iter().map(Row::to_json).collect()),
            ),
        ])
    }

    pub fn from_json(j: &Json) -> Result<Run, String> {
        let rows = j
            .get("rows")
            .and_then(Json::as_arr)
            .ok_or("missing 'rows'")?
            .iter()
            .map(Row::from_json)
            .collect::<Result<_, _>>()?;
        Ok(Run {
            workload: text(j, "workload")?,
            seed: num(j, "seed")? as u64,
            seconds: num(j, "seconds")?,
            smoke: flag(j, "smoke")?,
            traced: flag(j, "traced")?,
            affinity: text(j, "affinity")?,
            correct: flag(j, "correct")?,
            attempted: num(j, "attempted")? as u64,
            failed: num(j, "failed")? as u64,
            rows,
        })
    }

    pub fn row(&self, name: &str) -> Option<&Row> {
        self.rows.iter().find(|r| r.name == name)
    }

    /// The driver's result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    pub fn contract_line(&self) -> String {
        let metrics = self.rows.iter().map(|r| {
            (
                &*r.name,
                Json::obj([("value", Json::Num(r.value)), ("unit", Json::str(&*r.unit))]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
        .render()
    }
}

/// Where and with what the numbers were measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Stamp {
    pub cpu_model: String,
    pub nproc: u64,
    pub affinity: String,
    pub kernel: String,
    pub rustc: String,
    pub commit: String,
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The value of one `Key:` line of `/proc/self/status`.
pub fn proc_status(key: &str) -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let value = status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))?;
    Some(value.trim().to_string())
}

/// `Cpus_allowed_list` of this process, e.g. `0-1`.
pub fn affinity() -> String {
    proc_status("Cpus_allowed_list").unwrap_or_else(|| "unknown".into())
}

impl Stamp {
    pub fn gather() -> Stamp {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|v| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Stamp {
            cpu_model,
            nproc: std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
            affinity: affinity(),
            kernel: std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map_or_else(|_| "unknown".into(), |s| s.trim().to_string()),
            rustc: command_line("rustc", &["-V"]),
            // A checkout that is not a git repository has no commit to name.
            commit: command_line("git", &["rev-parse", "HEAD"]),
        }
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("cpu_model", Json::str(&*self.cpu_model)),
            ("nproc", Json::Num(self.nproc as f64)),
            ("affinity", Json::str(&*self.affinity)),
            ("kernel", Json::str(&*self.kernel)),
            ("rustc", Json::str(&*self.rustc)),
            ("commit", Json::str(&*self.commit)),
        ])
    }

    fn from_json(j: &Json) -> Result<Stamp, String> {
        Ok(Stamp {
            cpu_model: text(j, "cpu_model")?,
            nproc: num(j, "nproc")? as u64,
            affinity: text(j, "affinity")?,
            kernel: text(j, "kernel")?,
            rustc: text(j, "rustc")?,
            commit: text(j, "commit")?,
        })
    }
}

/// A whole set: every workload untraced and traced.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    pub stamp: Stamp,
    pub runs: Vec<Run>,
}

impl Report {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("benchmark", Json::str("mris job path")),
            ("claim", Json::Null),
            ("stamp", self.stamp.to_json()),
            (
                "runs",
                Json::Arr(self.runs.iter().map(Run::to_json).collect()),
            ),
        ])
    }

    pub fn from_json(j: &Json) -> Result<Report, String> {
        Ok(Report {
            stamp: Stamp::from_json(j.get("stamp").ok_or("missing 'stamp'")?)?,
            runs: j
                .get("runs")
                .and_then(Json::as_arr)
                .ok_or("missing 'runs'")?
                .iter()
                .map(Run::from_json)
                .collect::<Result<_, _>>()?,
        })
    }

    pub fn read(path: &str) -> Result<Report, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Report::from_json(&Json::parse(&text).map_err(|e| format!("{path}: {e}"))?)
            .map_err(|e| format!("{path}: {e}"))
    }

    pub fn run(&self, workload: &str, traced: bool) -> Option<&Run> {
        self.runs
            .iter()
            .find(|r| r.workload == workload && r.traced == traced)
    }
}

/// Checks one run against the metric tables: every metric of its mode
/// present once, with the table's unit and a finite value; end-to-end
/// values never 0; nothing failed.
pub fn check_run(run: &Run) -> Result<(), String> {
    let at = format!(
        "{} ({})",
        run.workload,
        if run.traced { "traced" } else { "untraced" }
    );
    if spec::workload(&run.workload).is_none() {
        return Err(format!("{at}: unknown workload"));
    }
    let expected: Vec<(&str, &str)> = if run.traced {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    if run.rows.len() != expected.len() {
        return Err(format!(
            "{at}: {} rows, expected {}",
            run.rows.len(),
            expected.len()
        ));
    }
    for (name, unit) in expected {
        let row = run
            .row(name)
            .ok_or_else(|| format!("{at}: metric {name} missing"))?;
        if row.unit != unit {
            return Err(format!(
                "{at}: {name} has unit '{}', expected '{unit}'",
                row.unit
            ));
        }
        if !row.value.is_finite() || (!run.traced && row.value == 0.0) {
            return Err(format!("{at}: {name} = {}", row.value));
        }
    }
    if !run.correct || run.failed != 0 || run.attempted == 0 {
        return Err(format!(
            "{at}: correct = {}, failed = {} of {}",
            run.correct, run.failed, run.attempted
        ));
    }
    Ok(())
}

/// Checks a whole set: a stamp, and one checked untraced and traced run
/// per workload.
pub fn check_report(report: &Report) -> Result<(), String> {
    if report.stamp.nproc == 0 || report.stamp.cpu_model.is_empty() {
        return Err("stamp: machine not recorded".into());
    }
    for run in &report.runs {
        check_run(run)?;
    }
    Ok(())
}

fn is_name(s: &str) -> bool {
    s.len() <= 64
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

fn keys(j: &Json) -> Vec<&str> {
    j.as_obj()
        .map(|o| o.iter().map(|(k, _)| k.as_str()).collect())
        .unwrap_or_default()
}

/// Checks `BENCHMARK.json` against the driver's contract and against the
/// tables in [`spec`], so the file the driver reads and the code that
/// measures cannot drift apart.
pub fn check_contract(b: &Json) -> Result<(), String> {
    let want = [
        "command",
        "paths",
        "run_seconds",
        "workloads",
        "end_to_end",
        "per_layer",
    ];
    let mut have = keys(b);
    have.sort_unstable();
    let mut sorted = want.to_vec();
    sorted.sort_unstable();
    if have != sorted {
        return Err(format!(
            "BENCHMARK.json keys are {have:?}, expected {want:?}"
        ));
    }
    if num(b, "run_seconds")? != spec::RUN_SECONDS {
        return Err("run_seconds differs from spec::RUN_SECONDS".into());
    }
    let list = |key: &str| {
        b.get(key)
            .and_then(Json::as_arr)
            .ok_or(format!("'{key}' is not a list"))
    };

    let workloads = list("workloads")?;
    if workloads.len() != WORKLOADS.len() {
        return Err(format!(
            "{} workloads, expected {}",
            workloads.len(),
            WORKLOADS.len()
        ));
    }
    for (j, w) in workloads.iter().zip(&WORKLOADS) {
        if keys(j) != ["name", "why"] || text(j, "name")? != w.name || text(j, "why")? != w.why {
            return Err(format!("workload {} differs from spec::WORKLOADS", w.name));
        }
        if !is_name(w.name) || w.why.len() > 200 || w.why.contains('\n') {
            return Err(format!(
                "workload {}: name or why outside the contract's limits",
                w.name
            ));
        }
    }

    let end_to_end = list("end_to_end")?;
    if end_to_end.len() != END_TO_END.len() {
        return Err(format!(
            "{} end_to_end metrics, expected {}",
            end_to_end.len(),
            END_TO_END.len()
        ));
    }
    for (j, m) in end_to_end.iter().zip(&END_TO_END) {
        if keys(j) != ["name", "unit", "better", "bound"]
            || text(j, "name")? != m.name
            || text(j, "unit")? != m.unit
            || text(j, "better")? != m.better.as_str()
            || num(j, "bound")? != m.bound
        {
            return Err(format!(
                "end_to_end metric {} differs from spec::END_TO_END",
                m.name
            ));
        }
        if !is_name(m.name) || !is_unit(m.unit) || !(0.0..=0.25).contains(&m.bound) {
            return Err(format!(
                "end_to_end metric {} outside the contract's limits",
                m.name
            ));
        }
    }
    if END_TO_END[0].name != "setup_s"
        || END_TO_END[0].unit != "s"
        || END_TO_END[0].better != Better::Lower
    {
        return Err("the first end_to_end metric must be setup_s, in s, lower is better".into());
    }

    let per_layer = list("per_layer")?;
    if per_layer.len() != PER_LAYER.len() || per_layer.len() > 128 {
        return Err(format!(
            "{} per_layer metrics, expected {}",
            per_layer.len(),
            PER_LAYER.len()
        ));
    }
    for (j, m) in per_layer.iter().zip(&PER_LAYER) {
        if keys(j) != ["name", "unit", "better"]
            || text(j, "name")? != m.name
            || text(j, "unit")? != m.unit
            || text(j, "better")? != m.better.as_str()
        {
            return Err(format!(
                "per_layer metric {} differs from spec::PER_LAYER",
                m.name
            ));
        }
        if !is_name(m.name) || !is_unit(m.unit) {
            return Err(format!(
                "per_layer metric {} outside the contract's limits",
                m.name
            ));
        }
    }

    let mut names: Vec<&str> = WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(END_TO_END.iter().map(|m| m.name))
        .chain(PER_LAYER.iter().map(|m| m.name))
        .collect();
    names.sort_unstable();
    if let Some(pair) = names.windows(2).find(|p| p[0] == p[1]) {
        return Err(format!("name {} is used twice", pair[0]));
    }
    Ok(())
}

/// `BENCHMARK.json` as the tables in [`spec`] state it.
pub fn contract_json() -> Json {
    Json::obj([
        (
            "command",
            Json::Arr(vec![Json::str("bash"), Json::str("benchmark/run.sh")]),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(spec::RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond() {
        assert_eq!(highest_percentile(5), 50.0);
        assert_eq!(highest_percentile(99), 50.0);
        assert_eq!(highest_percentile(100), 90.0);
        assert_eq!(highest_percentile(999), 90.0);
        assert_eq!(highest_percentile(1_000), 99.0);
        assert_eq!(highest_percentile(10_000), 99.9);
        assert_eq!(highest_percentile(600_000), 99.99);
    }

    #[test]
    fn percentile_is_nearest_rank_and_capped_by_sample_count() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 500.0);
        assert_eq!(percentile(&v, 99.0), 990.0);
        // 1000 samples leave one beyond p99.9: the request is lowered to p99.
        assert_eq!(percentile(&v, 99.9), 990.0);
        assert_eq!(percentile(&v[..20], 99.0), 10.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn reps_summarise_min_median_max() {
        let r = Reps::of(&[2.0, 9.0, 4.0]);
        assert_eq!((r.n, r.min, r.median, r.max), (3, 2.0, 4.0, 9.0));
    }

    fn sample_report() -> Report {
        let run = |traced: bool| Run {
            workload: "steady".into(),
            seed: 11,
            seconds: 0.5,
            smoke: true,
            traced,
            affinity: "0".into(),
            correct: true,
            attempted: 1600,
            failed: 0,
            rows: if traced {
                PER_LAYER
                    .iter()
                    .map(|m| Row::single(m.name, m.unit, 0.0))
                    .collect()
            } else {
                END_TO_END
                    .iter()
                    .map(|m| Row {
                        reps: Some(Reps::of(&[1.5, 1.25, 1.75])),
                        samples: 3,
                        ..Row::single(m.name, m.unit, 1.25)
                    })
                    .collect()
            },
        };
        Report {
            stamp: Stamp {
                cpu_model: "Some CPU @ 2.10GHz".into(),
                nproc: 2,
                affinity: "0-1".into(),
                kernel: "6.1".into(),
                rustc: "rustc 1.95.0".into(),
                commit: "unknown".into(),
            },
            runs: vec![run(false), run(true)],
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = sample_report();
        let text = report.to_json().render_pretty();
        assert_eq!(
            Report::from_json(&Json::parse(&text).unwrap()).unwrap(),
            report
        );
        check_report(&report).unwrap();
    }

    #[test]
    fn schema_check_names_what_is_wrong() {
        let mut report = sample_report();
        report.runs[0].rows[1].unit = "jobs".into();
        assert!(check_report(&report)
            .unwrap_err()
            .contains("jobs_per_s has unit"));
        let mut report = sample_report();
        report.runs[0].rows.pop();
        assert!(check_report(&report)
            .unwrap_err()
            .contains("rows, expected"));
        let mut report = sample_report();
        report.runs[0].rows[3].value = 0.0;
        assert!(check_report(&report).unwrap_err().contains("awct = 0"));
        let mut report = sample_report();
        report.runs[1].failed = 1;
        assert!(check_report(&report).unwrap_err().contains("failed = 1"));
    }

    #[test]
    fn contract_line_has_exactly_the_drivers_keys() {
        let line = sample_report().runs[0].contract_line();
        let j = Json::parse(&line).unwrap();
        assert_eq!(keys(&j), ["correct", "attempted", "failed", "metrics"]);
        let setup = j.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(keys(setup), ["value", "unit"]);
    }

    #[test]
    fn benchmark_json_matches_the_tables() {
        check_contract(&contract_json()).unwrap();
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        check_contract(&on_disk).unwrap();
        assert_eq!(on_disk, contract_json());
    }
}

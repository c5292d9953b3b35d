//! CSV import/export of problem instances.
//!
//! The synthetic generator ([`crate::AzureTrace`]) covers the paper's
//! experiments, but downstream users with access to the real Azure packing
//! trace (or any other workload) can bring their own data through this
//! module. The schema is one job per line:
//!
//! ```text
//! release,proc_time,weight,d0,d1,...,d{R-1}
//! ```
//!
//! with an optional header line (detected and skipped when the first field
//! is not numeric), demands as capacity fractions in `[0, 1]`, and `R`
//! inferred from the first row. Comments start with `#`.

use std::io::{BufWriter, Read, Write};
use std::path::Path;

use mris_types::{fraction, Instance, Job, JobId};

/// Errors raised while reading trace data (instance CSVs).
///
/// Parse failures carry the 1-based line number and, when the problem is
/// attributable to a single value, the 1-based field (column) number — so a
/// malformed row in a million-line trace is findable without bisection.
#[derive(Debug)]
pub enum TraceError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A malformed line.
    Parse {
        /// 1-based line number in the input.
        line: usize,
        /// 1-based field number, when the error is local to one value
        /// (`None` for row-level problems such as a wrong field count).
        field: Option<usize>,
        /// Human-readable description of the problem.
        message: String,
    },
    /// Parsed jobs failed [`Instance`] validation.
    Invalid(mris_types::InstanceError),
    /// The file contains no job rows.
    Empty,
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "i/o error: {e}"),
            TraceError::Parse {
                line,
                field: Some(field),
                message,
            } => write!(f, "line {line}, field {field}: {message}"),
            TraceError::Parse {
                line,
                field: None,
                message,
            } => write!(f, "line {line}: {message}"),
            TraceError::Invalid(e) => write!(f, "invalid instance: {e}"),
            TraceError::Empty => write!(f, "no job rows found"),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            TraceError::Invalid(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// Parses an instance from CSV text (see module docs for the schema).
pub fn parse_instance_csv(text: &str) -> Result<Instance, TraceError> {
    let mut jobs: Vec<Job> = Vec::new();
    let mut num_resources = 0usize;
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split(',').map(str::trim).collect();
        // Header detection: skip a first row whose leading field is not a
        // number.
        if jobs.is_empty() && fields[0].parse::<f64>().is_err() {
            continue;
        }
        if fields.len() < 4 {
            return Err(TraceError::Parse {
                line: lineno + 1,
                field: None,
                message: format!("expected at least 4 fields, found {}", fields.len()),
            });
        }
        let parse = |i: usize| -> Result<f64, TraceError> {
            let value = fields[i].parse::<f64>().map_err(|e| TraceError::Parse {
                line: lineno + 1,
                field: Some(i + 1),
                message: format!("'{}': {e}", fields[i]),
            })?;
            if !value.is_finite() {
                return Err(TraceError::Parse {
                    line: lineno + 1,
                    field: Some(i + 1),
                    message: format!("'{}' is not a finite number", fields[i]),
                });
            }
            Ok(value)
        };
        let release = parse(0)?;
        let proc_time = parse(1)?;
        let weight = parse(2)?;
        let demands: Vec<f64> = (3..fields.len()).map(parse).collect::<Result<_, _>>()?;
        // Demands are capacity fractions; the fixed-point conversion in
        // `Job::from_fractions` clamps out-of-range values silently, so
        // range-check here where the field is still attributable.
        for (k, &d) in demands.iter().enumerate() {
            if !(0.0..=1.0).contains(&d) {
                return Err(TraceError::Parse {
                    line: lineno + 1,
                    field: Some(4 + k),
                    message: format!("demand {d} is outside [0, 1]"),
                });
            }
        }
        if num_resources == 0 {
            num_resources = demands.len();
        } else if demands.len() != num_resources {
            return Err(TraceError::Parse {
                line: lineno + 1,
                field: None,
                message: format!(
                    "inconsistent resource count: {} (expected {num_resources})",
                    demands.len()
                ),
            });
        }
        jobs.push(Job::from_fractions(
            JobId(0),
            release,
            proc_time,
            weight,
            &demands,
        ));
    }
    if jobs.is_empty() {
        return Err(TraceError::Empty);
    }
    Instance::from_unnumbered(jobs, num_resources).map_err(TraceError::Invalid)
}

/// Reads an instance from a CSV file.
pub fn read_instance_csv(path: &Path) -> Result<Instance, TraceError> {
    let file = std::fs::File::open(path)?;
    let mut text = String::new();
    std::io::BufReader::new(file).read_to_string(&mut text)?;
    parse_instance_csv(&text)
}

/// Serializes an instance to the CSV schema (with a header line).
pub fn instance_to_csv(instance: &Instance) -> String {
    let mut out = String::from("release,proc_time,weight");
    for l in 0..instance.num_resources() {
        out.push_str(&format!(",d{l}"));
    }
    out.push('\n');
    for job in instance.jobs() {
        out.push_str(&format!("{},{},{}", job.release, job.proc_time, job.weight));
        for &d in job.demands.iter() {
            out.push_str(&format!(",{}", fraction(d)));
        }
        out.push('\n');
    }
    out
}

/// Writes an instance to a CSV file.
pub fn write_instance_csv(instance: &Instance, path: &Path) -> Result<(), TraceError> {
    let file = std::fs::File::create(path)?;
    let mut w = BufWriter::new(file);
    w.write_all(instance_to_csv(instance).as_bytes())?;
    w.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
release,proc_time,weight,d0,d1
# a comment
0.0,2.0,1.0,0.5,0.25
1.5,1.0,3.0,1.0,0.0
";

    #[test]
    fn parse_roundtrip() {
        let inst = parse_instance_csv(SAMPLE).unwrap();
        assert_eq!(inst.len(), 2);
        assert_eq!(inst.num_resources(), 2);
        assert_eq!(inst.jobs()[1].weight, 3.0);
        let csv = instance_to_csv(&inst);
        let back = parse_instance_csv(&csv).unwrap();
        assert_eq!(back, inst);
    }

    #[test]
    fn headerless_files_parse() {
        let inst = parse_instance_csv("0,1,1,0.5\n2,3,1,0.25\n").unwrap();
        assert_eq!(inst.len(), 2);
        assert_eq!(inst.num_resources(), 1);
    }

    #[test]
    fn rejects_inconsistent_resources() {
        let err = parse_instance_csv("0,1,1,0.5,0.5\n0,1,1,0.5\n").unwrap_err();
        assert!(
            matches!(
                err,
                TraceError::Parse {
                    line: 2,
                    field: None,
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn rejects_bad_numbers_with_line_and_field() {
        let err = parse_instance_csv("0,1,1,0.5\n0,abc,1,0.5\n").unwrap_err();
        match err {
            TraceError::Parse {
                line: 2,
                field: Some(2),
                ..
            } => {}
            other => panic!("{other}"),
        }
        assert!(err.to_string().contains("line 2, field 2"), "{err}");
    }

    #[test]
    fn rejects_non_finite_values_with_field() {
        let err = parse_instance_csv("0,1,inf,0.5\n").unwrap_err();
        match err {
            TraceError::Parse {
                line: 1,
                field: Some(3),
                ref message,
            } => assert!(message.contains("finite"), "{message}"),
            ref other => panic!("{other}"),
        }
    }

    #[test]
    fn rejects_out_of_range_demands_with_field() {
        // The fixed-point conversion would clamp 1.5 to full capacity;
        // the parser must reject it instead, naming the exact column.
        let err = parse_instance_csv("0,1,1,0.25,1.5\n").unwrap_err();
        match err {
            TraceError::Parse {
                line: 1,
                field: Some(5),
                ref message,
            } => assert!(message.contains("outside [0, 1]"), "{message}"),
            ref other => panic!("{other}"),
        }
        let err = parse_instance_csv("0,1,1,-0.1\n").unwrap_err();
        assert!(
            matches!(
                err,
                TraceError::Parse {
                    line: 1,
                    field: Some(4),
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn rejects_empty_and_invalid() {
        assert!(matches!(
            parse_instance_csv("# nothing\n").unwrap_err(),
            TraceError::Empty
        ));
        // Negative processing time fails instance validation.
        assert!(matches!(
            parse_instance_csv("0,-1,1,0.5\n").unwrap_err(),
            TraceError::Invalid(_)
        ));
    }

    #[test]
    fn file_roundtrip() {
        let inst = parse_instance_csv(SAMPLE).unwrap();
        let dir = std::env::temp_dir().join("mris_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("instance.csv");
        write_instance_csv(&inst, &path).unwrap();
        let back = read_instance_csv(&path).unwrap();
        assert_eq!(back, inst);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn generated_trace_roundtrips_through_csv() {
        use crate::{AzureTrace, AzureTraceConfig};
        let trace = AzureTrace::generate(&AzureTraceConfig {
            num_jobs: 200,
            ..Default::default()
        });
        let inst = trace.sample_instance(2, 0);
        let back = parse_instance_csv(&instance_to_csv(&inst)).unwrap();
        assert_eq!(back.len(), inst.len());
        // Fixed-point demands roundtrip exactly; times may differ in the
        // last ulp through decimal printing, so compare them loosely.
        for (a, b) in back.jobs().iter().zip(inst.jobs()) {
            assert_eq!(a.demands, b.demands);
            assert!((a.release - b.release).abs() < 1e-9);
            assert!((a.proc_time - b.proc_time).abs() < 1e-9);
        }
    }
}

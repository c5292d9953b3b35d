//! Exporters: JSONL event sink, exposition-format checker, end-of-run
//! report, and the microbench overhead gate.

use std::io::Write;

use crate::event::{Event, FieldValue, SpanSink};
use crate::registry::{MetricEntry, MetricValue, MetricsRegistry};

/// Writes one JSON object per [`Event`] to the wrapped writer:
/// `{"event":"dispatch_seconds","duration_s":1.2e-5,"machine":3}`.
/// Fields are flattened into the object after the reserved keys. The first
/// write error stops the output and is reported by every later
/// [`SpanSink::flush`].
pub struct JsonlEventSink<W: Write + Send> {
    writer: W,
    error: Option<std::io::Error>,
}

impl<W: Write + Send> JsonlEventSink<W> {
    /// A sink writing to `writer`.
    pub fn new(writer: W) -> Self {
        JsonlEventSink {
            writer,
            error: None,
        }
    }

    /// Consumes the sink, returning the writer.
    pub fn into_inner(self) -> W {
        self.writer
    }
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn field_json(v: &FieldValue) -> String {
    match v {
        FieldValue::U64(v) => v.to_string(),
        FieldValue::I64(v) => v.to_string(),
        FieldValue::F64(v) if v.is_finite() => format!("{v}"),
        FieldValue::F64(_) => "null".to_string(),
        FieldValue::Str(s) => format!("\"{}\"", escape_json(s)),
        FieldValue::Bool(b) => b.to_string(),
    }
}

impl<W: Write + Send> SpanSink for JsonlEventSink<W> {
    fn event(&mut self, event: &Event) {
        if self.error.is_some() {
            return;
        }
        let mut line = format!("{{\"event\":\"{}\"", escape_json(event.name));
        if let Some(d) = event.duration_seconds {
            line.push_str(&format!(",\"duration_s\":{d:e}"));
        }
        for (key, value) in &event.fields {
            line.push_str(&format!(",\"{}\":{}", escape_json(key), field_json(value)));
        }
        line.push('}');
        self.error = writeln!(self.writer, "{line}").err();
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match &self.error {
            Some(e) => Err(std::io::Error::new(e.kind(), e.to_string())),
            None => self.writer.flush(),
        }
    }
}

/// End-of-run metrics report: the registry snapshot plus JSON rendering,
/// consumed by the `obs` bench bin for `results/BENCH_obs.json`.
pub struct ObsReport {
    entries: Vec<MetricEntry>,
}

impl ObsReport {
    /// Freezes `registry` into a report.
    pub fn from_registry(registry: &MetricsRegistry) -> Self {
        ObsReport {
            entries: registry.snapshot(),
        }
    }

    /// The frozen entries, sorted by `(name, label)`.
    pub fn entries(&self) -> &[MetricEntry] {
        &self.entries
    }

    /// Number of distinct metric families (unique names).
    pub fn num_families(&self) -> usize {
        let mut names: Vec<&str> = self.entries.iter().map(|e| e.0).collect();
        names.dedup();
        names.len()
    }

    /// Renders the report as one JSON object keyed by
    /// `name` or `name{label="value"}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, label, value)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let key = match label {
                Some((k, v)) => format!("{name}{{{k}=\"{v}\"}}"),
                None => name.to_string(),
            };
            let val = match value {
                MetricValue::Counter(c) => c.to_string(),
                MetricValue::Gauge(g) if g.is_finite() => format!("{g}"),
                MetricValue::Gauge(_) => "null".to_string(),
                MetricValue::Histogram(h) => format!(
                    "{{\"count\":{},\"sum\":{:e},\"buckets\":[{}]}}",
                    h.count,
                    h.sum,
                    h.buckets
                        .iter()
                        .map(|(b, c)| format!("[{b:e},{c}]"))
                        .collect::<Vec<_>>()
                        .join(",")
                ),
            };
            out.push_str(&format!("\"{}\":{}", escape_json(&key), val));
        }
        out.push('}');
        out
    }
}

/// Checks `text` against the Prometheus text exposition format (0.0.4):
/// every sample belongs to a family declared by a preceding `# TYPE` line,
/// values parse as floats, counters are integral and non-negative, and
/// histogram `_bucket` series are cumulative with a terminal `le="+Inf"`
/// bucket equal to `_count`. Used by the golden test and the CI smoke gate.
pub fn validate_exposition(text: &str) -> Result<(), String> {
    use std::collections::HashMap;
    let mut types: HashMap<String, String> = HashMap::new();
    // Per histogram series (full label set minus `le`): last cumulative
    // count, +Inf count, declared _count value.
    let mut hist_last: HashMap<String, f64> = HashMap::new();
    let mut hist_inf: HashMap<String, f64> = HashMap::new();
    let mut hist_count: HashMap<String, f64> = HashMap::new();
    for (lineno, line) in text.lines().enumerate() {
        let n = lineno + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts
                .next()
                .ok_or_else(|| format!("line {n}: TYPE without a name"))?;
            let kind = parts
                .next()
                .ok_or_else(|| format!("line {n}: TYPE without a kind"))?;
            if !matches!(
                kind,
                "counter" | "gauge" | "histogram" | "summary" | "untyped"
            ) {
                return Err(format!("line {n}: unknown metric kind '{kind}'"));
            }
            if types.insert(name.to_string(), kind.to_string()).is_some() {
                return Err(format!("line {n}: duplicate TYPE for '{name}'"));
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // HELP or comment
        }
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {n}: sample without a value"))?;
        let value: f64 = value
            .parse()
            .map_err(|_| format!("line {n}: value '{value}' is not a float"))?;
        let (name, labels) = match series.split_once('{') {
            Some((name, rest)) => {
                let labels = rest
                    .strip_suffix('}')
                    .ok_or_else(|| format!("line {n}: unterminated label set"))?;
                (name, Some(labels))
            }
            None => (series, None),
        };
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
            || name.chars().next().is_some_and(|c| c.is_ascii_digit())
        {
            return Err(format!("line {n}: invalid metric name '{name}'"));
        }
        // Resolve the declaring family: exact for counter/gauge, suffixed
        // for histogram children.
        let family = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suffix| {
                let base = name.strip_suffix(suffix)?;
                (types.get(base).map(String::as_str) == Some("histogram")).then_some(base)
            })
            .or_else(|| types.contains_key(name).then_some(name));
        let family = family.ok_or_else(|| format!("line {n}: sample '{name}' has no TYPE"))?;
        match types[family].as_str() {
            "counter" if value < 0.0 || value.fract() != 0.0 => {
                return Err(format!("line {n}: counter '{name}' value {value} invalid"));
            }
            "histogram" if name.ends_with("_bucket") => {
                let labels = labels.ok_or_else(|| format!("line {n}: bucket without le"))?;
                let mut le = None;
                let mut others = Vec::new();
                for pair in labels.split(',') {
                    let (k, v) = pair
                        .split_once('=')
                        .ok_or_else(|| format!("line {n}: malformed label '{pair}'"))?;
                    let v = v.trim_matches('"');
                    if k == "le" {
                        le = Some(v.to_string());
                    } else {
                        others.push(format!("{k}={v}"));
                    }
                }
                let le = le.ok_or_else(|| format!("line {n}: bucket without le"))?;
                let series_key = format!("{family}{{{}}}", others.join(","));
                if le == "+Inf" {
                    hist_inf.insert(series_key, value);
                } else {
                    le.parse::<f64>()
                        .map_err(|_| format!("line {n}: le '{le}' is not a float"))?;
                    let last = hist_last.entry(series_key).or_insert(0.0);
                    if value < *last {
                        return Err(format!("line {n}: histogram buckets not cumulative"));
                    }
                    *last = value;
                }
            }
            "histogram" if name.ends_with("_count") => {
                let series_key = format!(
                    "{family}{{{}}}",
                    labels.map(|l| l.replace('"', "")).unwrap_or_default()
                );
                hist_count.insert(series_key, value);
            }
            _ => {}
        }
    }
    for (series, count) in &hist_count {
        match hist_inf.get(series) {
            Some(inf) if inf == count => {}
            Some(inf) => {
                return Err(format!(
                    "histogram {series}: +Inf bucket {inf} != count {count}"
                ))
            }
            None => return Err(format!("histogram {series}: missing le=\"+Inf\" bucket")),
        }
        if let Some(last) = hist_last.get(series) {
            if last > count {
                return Err(format!(
                    "histogram {series}: finite bucket {last} exceeds count {count}"
                ));
            }
        }
    }
    Ok(())
}

/// Gate for the microbench's disabled-path budget: errs when the measured
/// per-call cost exceeds `budget_ns`. Factored out of the `obs` bench bin so
/// a negative test can prove the assert bites.
pub fn check_disabled_overhead(measured_ns: f64, budget_ns: f64) -> Result<(), String> {
    if !measured_ns.is_finite() || measured_ns < 0.0 {
        return Err(format!(
            "measured overhead {measured_ns} ns/op is not a valid measurement"
        ));
    }
    if measured_ns > budget_ns {
        return Err(format!(
            "disabled-path overhead {measured_ns:.2} ns/op exceeds budget {budget_ns:.2} ns/op"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_sink_writes_one_object_per_event() {
        let mut sink = JsonlEventSink::new(Vec::new());
        sink.event(&Event {
            name: "dispatch_seconds",
            fields: vec![
                ("machine", FieldValue::U64(3)),
                ("ok", FieldValue::Bool(true)),
            ],
            duration_seconds: Some(1.5e-6),
        });
        sink.event(&Event {
            name: "note",
            fields: vec![("msg", FieldValue::Str("a\"b"))],
            duration_seconds: None,
        });
        let out = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"event\":\"dispatch_seconds\",\"duration_s\":1.5e-6"));
        assert!(lines[0].contains("\"machine\":3"));
        assert!(lines[0].contains("\"ok\":true"));
        assert!(lines[1].contains("\"msg\":\"a\\\"b\""));
    }

    #[test]
    fn validate_accepts_registry_output() {
        let r = MetricsRegistry::new();
        r.counter_add("mris_x_total", None, 3);
        r.counter_add("mris_y_total", Some(("solver", "dp")), 1);
        r.gauge_set("mris_eps", None, 0.5);
        r.histogram_record("mris_lat_seconds", None, 0.001);
        r.histogram_record("mris_lat_seconds", None, 3.0);
        r.histogram_record("mris_lat_seconds", Some(("k", "v")), 9e9);
        validate_exposition(&r.render_prometheus()).unwrap();
    }

    #[test]
    fn validate_rejects_malformed_expositions() {
        assert!(validate_exposition("no_type_metric 1\n").is_err());
        assert!(validate_exposition("# TYPE a counter\na notafloat\n").is_err());
        assert!(validate_exposition("# TYPE a counter\na -1\n").is_err());
        assert!(validate_exposition("# TYPE a counter\na 1.5\n").is_err());
        assert!(validate_exposition("# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n").is_err());
        assert!(validate_exposition(
            "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_sum 1\nh_count 5\n"
        )
        .is_err());
        assert!(validate_exposition("# TYPE a counter\n# TYPE a counter\n").is_err());
    }

    #[test]
    fn report_renders_json() {
        let r = MetricsRegistry::new();
        r.counter_add("a_total", None, 2);
        r.histogram_record("lat_seconds", None, 0.5);
        let report = ObsReport::from_registry(&r);
        assert_eq!(report.num_families(), 2);
        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"a_total\":2"));
        assert!(json.contains("\"count\":1"));
    }

    #[test]
    fn overhead_gate_bites() {
        check_disabled_overhead(3.0, 15.0).unwrap();
        assert!(check_disabled_overhead(30.0, 15.0).is_err());
        assert!(check_disabled_overhead(f64::NAN, 15.0).is_err());
    }
}

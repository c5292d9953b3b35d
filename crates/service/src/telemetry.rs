//! Structured service telemetry: one JSONL record per decision event plus
//! an end-of-run summary.
//!
//! An [`EpochRecord`] is a view of one instant, not a second record of it:
//! its completion, re-release and placement counts are the service's fold
//! over the kernel's `mris_sim::EventSink` calls, and the rest (queue depth,
//! arrivals, rejections, decision latency) is the service's own state. The
//! event loop reports through the [`TelemetrySink`] trait so the hot path
//! never formats strings unless a sink asks for them: [`JsonlSink`] streams
//! newline-delimited JSON to any writer (`mris serve --telemetry`, the only
//! per-epoch JSONL), [`MemorySink`] retains records for tests, and
//! [`NullSink`] discards.

use std::io::Write;

use mris_metrics::Percentiles;
use mris_types::Time;

/// One processed service event (a "tick" of the decision loop): what
/// arrived, what was placed, and how long the policy took to decide.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochRecord {
    /// Decision-event counter (0-based, monotone).
    pub epoch: usize,
    /// Service time of the event.
    pub time: Time,
    /// Admitted submissions still waiting for delivery after this event.
    pub queue_depth: usize,
    /// Jobs announced to the policy at this event (original submissions).
    pub arrivals: usize,
    /// Fault-killed jobs re-announced at this event.
    pub re_releases: usize,
    /// Jobs started on the cluster at this event.
    pub placements: usize,
    /// Jobs that completed at this event.
    pub completions: usize,
    /// Jobs running across the cluster after the event.
    pub running: usize,
    /// Cumulative rejected submissions so far.
    pub rejections_total: usize,
    /// Wall-clock nanoseconds the policy spent deciding this event
    /// (arrival announcement + dispatch).
    pub decision_ns: u64,
}

impl EpochRecord {
    /// The record as one JSONL line (no trailing newline).
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"event\": \"epoch\", \"epoch\": {}, \"t\": {:.6}, \"queue_depth\": {}, ",
                "\"arrivals\": {}, \"re_releases\": {}, \"placements\": {}, ",
                "\"completions\": {}, \"running\": {}, \"rejections_total\": {}, ",
                "\"decision_ns\": {}}}"
            ),
            self.epoch,
            self.time,
            self.queue_depth,
            self.arrivals,
            self.re_releases,
            self.placements,
            self.completions,
            self.running,
            self.rejections_total,
            self.decision_ns,
        )
    }
}

/// End-of-run accounting: the admission ledger, objective values over the
/// completed jobs, and the decision-latency distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceSummary {
    /// Total submissions offered to the admission controller.
    pub submitted: usize,
    /// Submissions accepted (all of these completed — enforced at drain).
    pub accepted: usize,
    /// Submissions shed at the queue-depth watermark.
    pub rejected_queue_full: usize,
    /// Submissions shed at the resource-load watermark.
    pub rejected_infeasible: usize,
    /// Jobs that ran to completion.
    pub completed: usize,
    /// Decision events processed.
    pub epochs: usize,
    /// Largest queue depth observed at any admission decision.
    pub max_queue_depth: usize,
    /// Machine failures replayed during the run.
    pub failures: usize,
    /// Average weighted completion time over the *completed* jobs,
    /// normalized by the completed count (rejected jobs are excluded — the
    /// service never scheduled them).
    pub awct: f64,
    /// Completion time of the last job (0 when nothing completed).
    pub makespan: Time,
    /// Service time at drain.
    pub drained_at: Time,
    /// Wall seconds from construction to drain.
    pub wall_seconds: f64,
    /// Completed jobs per wall second (sustained throughput).
    pub throughput_jobs_per_sec: f64,
    /// p50/p95/p99 of per-event decision latency, microseconds. `None`
    /// when no events were processed.
    pub decision_latency_us: Option<Percentiles>,
}

impl ServiceSummary {
    /// The summary as one JSONL line (no trailing newline).
    pub fn to_json(&self) -> String {
        let latency = match &self.decision_latency_us {
            Some(p) => format!(
                "{{\"p50\": {:.3}, \"p95\": {:.3}, \"p99\": {:.3}}}",
                p.p50, p.p95, p.p99
            ),
            None => "null".to_string(),
        };
        format!(
            concat!(
                "{{\"event\": \"summary\", \"submitted\": {}, \"accepted\": {}, ",
                "\"rejected_queue_full\": {}, \"rejected_infeasible\": {}, ",
                "\"completed\": {}, \"epochs\": {}, \"max_queue_depth\": {}, ",
                "\"failures\": {}, \"awct\": {:.6}, \"makespan\": {:.6}, ",
                "\"drained_at\": {:.6}, \"wall_seconds\": {:.6}, ",
                "\"throughput_jobs_per_sec\": {:.3}, \"decision_latency_us\": {}}}"
            ),
            self.submitted,
            self.accepted,
            self.rejected_queue_full,
            self.rejected_infeasible,
            self.completed,
            self.epochs,
            self.max_queue_depth,
            self.failures,
            self.awct,
            self.makespan,
            self.drained_at,
            self.wall_seconds,
            self.throughput_jobs_per_sec,
            latency,
        )
    }
}

/// Receiver for service telemetry. Sinks must be cheap when idle; the
/// event loop calls [`TelemetrySink::epoch`] once per decision event.
pub trait TelemetrySink {
    /// One decision event was processed.
    fn epoch(&mut self, record: &EpochRecord);

    /// The service drained; no further records follow.
    fn summary(&mut self, summary: &ServiceSummary);
}

/// Discards everything (benchmarks measuring the loop itself).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TelemetrySink for NullSink {
    fn epoch(&mut self, _record: &EpochRecord) {}
    fn summary(&mut self, _summary: &ServiceSummary) {}
}

/// Retains every record in memory (tests and post-run analysis).
#[derive(Debug, Clone, Default)]
pub struct MemorySink {
    /// Every epoch record, in order.
    pub epochs: Vec<EpochRecord>,
    /// The final summary, when the service drained.
    pub summary: Option<ServiceSummary>,
}

impl TelemetrySink for MemorySink {
    fn epoch(&mut self, record: &EpochRecord) {
        self.epochs.push(*record);
    }

    fn summary(&mut self, summary: &ServiceSummary) {
        self.summary = Some(summary.clone());
    }
}

/// Streams newline-delimited JSON to a writer; panics are avoided by
/// surfacing I/O errors on [`JsonlSink::finish`].
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    writer: W,
    error: Option<std::io::Error>,
}

impl<W: Write> JsonlSink<W> {
    /// Wraps `writer`.
    pub fn new(writer: W) -> Self {
        JsonlSink {
            writer,
            error: None,
        }
    }

    fn write_line(&mut self, line: &str) {
        if self.error.is_some() {
            return;
        }
        if let Err(e) = writeln!(self.writer, "{line}") {
            self.error = Some(e);
        }
    }

    /// Flushes and returns the writer, or the first I/O error encountered.
    pub fn finish(mut self) -> std::io::Result<W> {
        if let Some(e) = self.error {
            return Err(e);
        }
        self.writer.flush()?;
        Ok(self.writer)
    }
}

impl<W: Write> TelemetrySink for JsonlSink<W> {
    fn epoch(&mut self, record: &EpochRecord) {
        self.write_line(&record.to_json());
    }

    fn summary(&mut self, summary: &ServiceSummary) {
        self.write_line(&summary.to_json());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> EpochRecord {
        EpochRecord {
            epoch: 3,
            time: 1.5,
            queue_depth: 2,
            arrivals: 4,
            re_releases: 1,
            placements: 3,
            completions: 2,
            running: 5,
            rejections_total: 7,
            decision_ns: 1_234,
        }
    }

    #[test]
    fn jsonl_sink_emits_one_line_per_record() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.epoch(&record());
        sink.summary(&ServiceSummary {
            submitted: 10,
            accepted: 8,
            rejected_queue_full: 1,
            rejected_infeasible: 1,
            completed: 8,
            epochs: 4,
            max_queue_depth: 3,
            failures: 0,
            awct: 12.5,
            makespan: 9.0,
            drained_at: 9.0,
            wall_seconds: 0.5,
            throughput_jobs_per_sec: 16.0,
            decision_latency_us: Some(Percentiles {
                p50: 1.0,
                p95: 2.0,
                p99: 3.0,
            }),
        });
        let text = String::from_utf8(sink.finish().unwrap()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"event\": \"epoch\""), "{}", lines[0]);
        assert!(lines[0].contains("\"decision_ns\": 1234"));
        assert!(lines[1].contains("\"event\": \"summary\""));
        assert!(lines[1].contains("\"p99\": 3.000"));
        // Every line is a single JSON object.
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }

    #[test]
    fn memory_sink_retains_records() {
        let mut sink = MemorySink::default();
        sink.epoch(&record());
        sink.epoch(&record());
        assert_eq!(sink.epochs.len(), 2);
        assert!(sink.summary.is_none());
    }

    #[test]
    fn summary_without_latency_serializes_null() {
        let s = ServiceSummary {
            submitted: 0,
            accepted: 0,
            rejected_queue_full: 0,
            rejected_infeasible: 0,
            completed: 0,
            epochs: 0,
            max_queue_depth: 0,
            failures: 0,
            awct: 0.0,
            makespan: 0.0,
            drained_at: 0.0,
            wall_seconds: 0.0,
            throughput_jobs_per_sec: 0.0,
            decision_latency_us: None,
        };
        assert!(s.to_json().contains("\"decision_latency_us\": null"));
    }
}

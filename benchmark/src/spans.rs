//! The benchmark's own span recorder: one span at each call into a layer's
//! public API, kept in memory and written out when the run ends. Spans
//! inside the program are a later issue; until then every layer is
//! measured from outside.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

/// `parent` of a span nobody caused.
const ROOT: u32 = u32::MAX;

/// One recorded call. The name's prefix up to the first `.` is the layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    /// The job (or rep, or probe) the call was made for.
    pub op_id: u32,
}

/// Times calls for the end-to-end metrics always, and records them as
/// spans when `recording` — the traced run.
pub struct Tracer {
    pub recording: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            recording: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        (t - self.epoch).as_nanos() as u64
    }

    /// Runs `f` as one call and returns its result and duration in seconds.
    /// Calls made inside `f` become children of this span.
    pub fn scope<R>(
        &mut self,
        name: &'static str,
        op_id: u32,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, f64) {
        let start = Instant::now();
        let index = self.spans.len() as u32;
        if self.recording {
            let parent = self.open.last().copied().unwrap_or(ROOT);
            let start_ns = self.ns(start);
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                op_id,
            });
            self.open.push(index);
        }
        let recorded = self.recording;
        let result = f(self);
        let end = Instant::now();
        if recorded {
            self.open.pop();
            self.spans[index as usize].end_ns = self.ns(end);
        }
        (result, (end - start).as_secs_f64())
    }

    /// Starts a chain of back-to-back calls: each [`Calls::done`] closes the
    /// call that began when the previous one closed, so a hot loop pays one
    /// clock read per call.
    pub fn calls(&mut self) -> Calls<'_> {
        Calls {
            last: Instant::now(),
            longest_s: 0.0,
            tracer: self,
        }
    }

    /// Forgets spans recorded after `mark`; later reps of a traced run pay
    /// for recording but only the first is written out.
    pub fn truncate(&mut self, mark: usize) {
        self.spans.truncate(mark);
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Total seconds of the recorded spans called `name`.
    pub fn seconds_of(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum()
    }

    /// Seconds per layer not covered by child spans: a span's duration
    /// minus the part of it its children cover.
    pub fn self_time_s(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != ROOT {
                child_ns[span.parent as usize] += span.end_ns - span.start_ns;
            }
        }
        let mut by_layer = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let layer = span.name.split('.').next().unwrap_or(span.name);
            let own = (span.end_ns - span.start_ns).saturating_sub(children);
            *by_layer.entry(layer).or_insert(0.0) += own as f64 * 1e-9;
        }
        by_layer
    }

    pub fn to_json(&self, workload: &str) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    (
                        "parent",
                        if s.parent == ROOT {
                            Json::Null
                        } else {
                            Json::Num(s.parent as f64)
                        },
                    ),
                    ("workload", Json::str(workload)),
                    ("op_id", Json::Num(s.op_id as f64)),
                ])
            })
            .collect();
        let self_time = self
            .self_time_s()
            .into_iter()
            .map(|(layer, s)| (layer, Json::Num(s)));
        Json::obj([
            ("workload", Json::str(workload)),
            ("self_time_s", Json::obj(self_time)),
            ("spans", Json::Arr(spans)),
        ])
    }
}

/// See [`Tracer::calls`].
pub struct Calls<'a> {
    tracer: &'a mut Tracer,
    last: Instant,
    longest_s: f64,
}

impl Calls<'_> {
    /// Closes the call that has been running since the chain started or the
    /// previous call closed; returns its duration in seconds.
    #[inline]
    pub fn done(&mut self, name: &'static str, op_id: u32) -> f64 {
        let now = Instant::now();
        let secs = (now - self.last).as_secs_f64();
        if self.tracer.recording {
            let parent = self.tracer.open.last().copied().unwrap_or(ROOT);
            let (start_ns, end_ns) = (self.tracer.ns(self.last), self.tracer.ns(now));
            self.tracer.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent,
                op_id,
            });
        }
        if secs > self.longest_s {
            self.longest_s = secs;
        }
        self.last = now;
        secs
    }

    /// The longest call of the chain so far, in seconds.
    pub fn longest_s(&self) -> f64 {
        self.longest_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut tr = Tracer::new();
        tr.recording = true;
        tr.scope("bench.rep", 0, |tr| {
            tr.scope("service.submit_at", 1, |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            let mut calls = tr.calls();
            std::thread::sleep(std::time::Duration::from_millis(5));
            calls.done("net.query", 2);
        });
        assert_eq!(tr.len(), 3);
        let own = tr.self_time_s();
        let total: f64 = own.values().sum();
        let rep = &tr.spans[0];
        assert!((total - (rep.end_ns - rep.start_ns) as f64 * 1e-9).abs() < 1e-9);
        assert!(own["service"] >= 0.005 && own["net"] >= 0.005);
        assert!(
            own["bench"] < 0.005,
            "rep self time {} should exclude its children",
            own["bench"]
        );
        assert_eq!(tr.spans[1].parent, 0);
        assert_eq!(tr.spans[2].parent, 0);
    }

    #[test]
    fn nothing_is_recorded_when_off() {
        let mut tr = Tracer::new();
        let ((), secs) = tr.scope("bench.rep", 0, |tr| {
            tr.calls().done("service.step", 0);
        });
        assert!(secs >= 0.0);
        assert_eq!(tr.len(), 0);
    }
}

//! Process-wide subscriber, structured events, and the [`span!`] macro.
//!
//! The fast path is the *disabled* one: every public entry point loads one
//! relaxed [`AtomicBool`] and returns. Only once [`install`] has published a
//! subscriber do calls take the `RwLock` read path into the registry/sink.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use crate::registry::MetricsRegistry;

static ENABLED: AtomicBool = AtomicBool::new(false);
static SUBSCRIBER: RwLock<Option<Arc<Obs>>> = RwLock::new(None);

/// One typed field value on an [`Event`]. Conversions exist for the types
/// instrumentation sites actually pass, so `span!("x", machine = m)` works
/// without casts.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer (counts, indices).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (times, ratios).
    F64(f64),
    /// Static string (names, verdicts).
    Str(&'static str),
    /// Boolean flag.
    Bool(bool),
}

macro_rules! field_from {
    ($t:ty, $variant:ident, $conv:expr) => {
        impl From<$t> for FieldValue {
            fn from(v: $t) -> Self {
                FieldValue::$variant($conv(v))
            }
        }
    };
}

field_from!(u64, U64, |v| v);
field_from!(u32, U64, |v| v as u64);
field_from!(usize, U64, |v| v as u64);
field_from!(i64, I64, |v| v);
field_from!(i32, I64, |v| v as i64);
field_from!(f64, F64, |v| v);
field_from!(&'static str, Str, |v| v);
field_from!(bool, Bool, |v| v);

/// A structured event: a static name, typed fields, and (for span closes)
/// the measured duration.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Static event name (by convention span names end in `_seconds`).
    pub name: &'static str,
    /// Field key/value pairs, in call-site order.
    pub fields: Vec<(&'static str, FieldValue)>,
    /// Wall-clock duration for span-close events, `None` for point events.
    pub duration_seconds: Option<f64>,
}

/// Receives the installed subscriber's [`Event`]s: in this workspace, span
/// closes only. What a run did is recorded by `mris_sim::EventSink`, not
/// here.
pub trait SpanSink: Send {
    /// Handles one event.
    fn event(&mut self, event: &Event);
    /// Flushes buffered output, if any, reporting the first write error the
    /// sink has met.
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The subscriber: one [`MetricsRegistry`] plus an optional span sink.
pub struct Obs {
    registry: MetricsRegistry,
    sink: Mutex<Option<Box<dyn SpanSink>>>,
}

impl Default for Obs {
    fn default() -> Self {
        Self::new()
    }
}

impl Obs {
    /// A subscriber with an empty registry and no event sink (metrics only).
    pub fn new() -> Self {
        Obs {
            registry: MetricsRegistry::new(),
            sink: Mutex::new(None),
        }
    }

    /// A subscriber that also forwards span events to `sink`.
    pub fn with_sink(sink: Box<dyn SpanSink>) -> Self {
        Obs {
            registry: MetricsRegistry::new(),
            sink: Mutex::new(Some(sink)),
        }
    }

    /// The subscriber's metrics registry.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Forwards `event` to the sink, if one is attached.
    pub fn emit(&self, event: &Event) {
        let mut sink = self.sink.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(sink) = sink.as_mut() {
            sink.event(event);
        }
    }

    /// Flushes the attached sink.
    ///
    /// # Errors
    ///
    /// The first I/O error the sink met on an earlier write, or this
    /// flush's own.
    pub fn flush(&self) -> std::io::Result<()> {
        let mut sink = self.sink.lock().unwrap_or_else(|e| e.into_inner());
        match sink.as_mut() {
            Some(sink) => sink.flush(),
            None => Ok(()),
        }
    }
}

/// Publishes `obs` as the process-wide subscriber. Replaces any previous one.
pub fn install(obs: Arc<Obs>) {
    let mut slot = SUBSCRIBER.write().unwrap_or_else(|e| e.into_inner());
    *slot = Some(obs);
    ENABLED.store(true, Ordering::Release);
}

/// Removes the process-wide subscriber, returning it so callers can render a
/// final report. Instrumentation reverts to the one-relaxed-load no-op path.
pub fn uninstall() -> Option<Arc<Obs>> {
    ENABLED.store(false, Ordering::Release);
    let mut slot = SUBSCRIBER.write().unwrap_or_else(|e| e.into_inner());
    slot.take()
}

/// Whether a subscriber is installed. One relaxed load — this is the entire
/// cost of every instrumentation call in a run with observability off.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Runs `f` against the installed subscriber, if any.
pub fn with<R>(f: impl FnOnce(&Obs) -> R) -> Option<R> {
    if !enabled() {
        return None;
    }
    let slot = SUBSCRIBER.read().unwrap_or_else(|e| e.into_inner());
    slot.as_ref().map(|obs| f(obs))
}

/// RAII installer for tests and scoped runs: installs on construction,
/// uninstalls on drop. Also serializes on a process-wide lock so concurrent
/// tests cannot fight over the single subscriber slot.
pub struct InstallGuard {
    _gate: std::sync::MutexGuard<'static, ()>,
}

static TEST_GATE: Mutex<()> = Mutex::new(());

/// Installs `obs` and returns a guard that uninstalls it when dropped.
///
/// The guard holds a process-wide mutex for its lifetime, so two guards in
/// the same process serialize — exactly what concurrently-running tests
/// that each install a subscriber need.
pub fn install_guard(obs: Arc<Obs>) -> InstallGuard {
    let gate = TEST_GATE.lock().unwrap_or_else(|e| e.into_inner());
    install(obs);
    InstallGuard { _gate: gate }
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        uninstall();
    }
}

/// Adds `v` to counter `name` on the installed subscriber (no-op when none).
#[inline]
pub fn counter_add(name: &'static str, v: u64) {
    if !enabled() {
        return;
    }
    with(|obs| obs.registry().counter_add(name, None, v));
}

/// Adds `v` to counter `name{label.0=label.1}`.
#[inline]
pub fn counter_add_labeled(name: &'static str, label: (&'static str, &'static str), v: u64) {
    if !enabled() {
        return;
    }
    with(|obs| obs.registry().counter_add(name, Some(label), v));
}

/// Sets gauge `name` to `v`.
#[inline]
pub fn gauge_set(name: &'static str, v: f64) {
    if !enabled() {
        return;
    }
    with(|obs| obs.registry().gauge_set(name, None, v));
}

/// Records `v` into histogram `name`.
#[inline]
pub fn histogram_record(name: &'static str, v: f64) {
    if !enabled() {
        return;
    }
    with(|obs| obs.registry().histogram_record(name, None, v));
}

/// Guard returned by [`span!`]. While a subscriber is installed the guard
/// carries the span's start time and fields; on drop it records the duration
/// into the histogram named after the span and emits a close [`Event`] to
/// the sink. With no subscriber it is inert (and constructing it cost one
/// relaxed load).
pub struct SpanGuard {
    name: &'static str,
    fields: Vec<(&'static str, FieldValue)>,
    start: Option<Instant>,
}

impl SpanGuard {
    /// An inert guard — the disabled path.
    #[inline]
    pub fn disabled() -> Self {
        SpanGuard {
            name: "",
            fields: Vec::new(),
            start: None,
        }
    }

    /// A live guard; called by [`span!`] only when [`enabled`] is true.
    pub fn start(name: &'static str, fields: Vec<(&'static str, FieldValue)>) -> Self {
        SpanGuard {
            name,
            fields,
            start: Some(Instant::now()),
        }
    }

    /// Appends a field to a live guard (no-op on an inert one). Called by
    /// [`span!`]; the clock has already started, so field recording time is
    /// (intentionally) inside the span.
    pub fn push_field(&mut self, key: &'static str, value: FieldValue) {
        if self.start.is_some() {
            self.fields.push((key, value));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let secs = start.elapsed().as_secs_f64();
            let event = Event {
                name: self.name,
                fields: std::mem::take(&mut self.fields),
                duration_seconds: Some(secs),
            };
            with(|obs| {
                obs.registry().histogram_record(self.name, None, secs);
                obs.emit(&event);
            });
        }
    }
}

#[macro_export]
#[doc(hidden)]
macro_rules! __span_fields {
    ($guard:ident $(,)?) => {};
    ($guard:ident, $key:ident = $val:expr $(, $($rest:tt)*)?) => {
        $guard.push_field(stringify!($key), $crate::FieldValue::from($val));
        $crate::__span_fields!($guard $(, $($rest)*)?);
    };
    ($guard:ident, $field:ident $(, $($rest:tt)*)?) => {
        $guard.push_field(stringify!($field), $crate::FieldValue::from($field));
        $crate::__span_fields!($guard $(, $($rest)*)?);
    };
}

/// Opens a scoped span: `let _span = span!("dispatch_seconds", machine, t);`.
///
/// Fields are either bare identifiers (the identifier doubles as the field
/// name) or `key = expr` pairs, freely mixed; they are evaluated **only when
/// a subscriber is installed**, so arbitrary expressions are free on the
/// disabled path. On scope exit the guard records the elapsed time into a
/// histogram named after the span (span names end `_seconds` by convention)
/// and emits a close event to the installed sink.
#[macro_export]
macro_rules! span {
    ($name:expr $(, $($fields:tt)*)?) => {
        if $crate::enabled() {
            #[allow(unused_mut)]
            let mut guard = $crate::SpanGuard::start($name, ::std::vec::Vec::new());
            $($crate::__span_fields!(guard, $($fields)*);)?
            guard
        } else {
            $crate::SpanGuard::disabled()
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_calls_are_inert() {
        let _gate = TEST_GATE.lock().unwrap_or_else(|e| e.into_inner());
        assert!(!enabled());
        counter_add("never_total", 1);
        gauge_set("never", 1.0);
        histogram_record("never_seconds", 1.0);
        let _span = crate::span!("never_span_seconds", x = 1u64);
        assert!(with(|_| ()).is_none());
    }

    #[test]
    fn install_routes_counters_and_spans() {
        let obs = Arc::new(Obs::new());
        let guard = install_guard(Arc::clone(&obs));
        counter_add("routed_total", 2);
        counter_add_labeled("routed_labeled_total", ("k", "v"), 3);
        {
            let machine = 7usize;
            let _span = crate::span!("routed_span_seconds", machine, t = 1.5f64);
        }
        drop(guard);
        assert!(!enabled());
        assert_eq!(obs.registry().counter_value("routed_total", None), Some(2));
        assert_eq!(
            obs.registry()
                .counter_value("routed_labeled_total", Some(("k", "v"))),
            Some(3)
        );
        let text = obs.registry().render_prometheus();
        assert!(text.contains("routed_span_seconds_count 1"));
    }

    #[test]
    fn sink_receives_span_close_events() {
        struct Capture(Arc<Mutex<Vec<Event>>>);
        impl SpanSink for Capture {
            fn event(&mut self, event: &Event) {
                self.0.lock().unwrap().push(event.clone());
            }
        }
        let events = Arc::new(Mutex::new(Vec::new()));
        let obs = Arc::new(Obs::with_sink(Box::new(Capture(Arc::clone(&events)))));
        let guard = install_guard(obs);
        {
            let _span = crate::span!("captured_seconds", idx = 4usize);
        }
        drop(guard);
        let events = events.lock().unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "captured_seconds");
        assert_eq!(events[0].fields, vec![("idx", FieldValue::U64(4))]);
        assert!(events[0].duration_seconds.is_some());
    }
}

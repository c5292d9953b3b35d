//! Zero-dependency observability layer for the MRIS scheduling stack.
//!
//! The crate provides three pieces, deliberately small enough to audit:
//!
//! * **A sharded [`MetricsRegistry`]** of counters, gauges, and log₂-bucketed
//!   histograms, keyed by `&'static str` metric names plus an optional single
//!   static label pair (enough for `{solver="cadp"}`-style families without
//!   any dynamic string allocation on the hot path).
//! * **A process-wide subscriber** ([`install`]/[`uninstall`]) holding one
//!   registry and an optional boxed [`SpanSink`]. Every instrumentation
//!   entry point — the free functions [`counter_add`], [`gauge_set`],
//!   [`histogram_record`] and the [`span!`] macro — first checks a single
//!   relaxed atomic ([`enabled`]); with no subscriber installed the entire
//!   instrumented build costs one relaxed load per call site, a budget the
//!   `obs` bench bin verifies (see [`check_disabled_overhead`]).
//! * **Exporters**: a [`JsonlEventSink`] for structured span events (it
//!   keeps the first write error for [`Obs::flush`] to report), a
//!   Prometheus text-format snapshot ([`MetricsRegistry::render_prometheus`],
//!   format-checked by [`validate_exposition`]), and an end-of-run
//!   [`ObsReport`].
//!
//! Instrumentation is *passive by contract*: nothing in this crate feeds back
//! into scheduling decisions, so enabling a subscriber cannot change a
//! schedule (the root test-suite pins this bit-for-bit across all registered
//! algorithms).
//!
//! ```
//! use std::sync::Arc;
//! let obs = Arc::new(mris_obs::Obs::new());
//! let _g = mris_obs::install_guard(Arc::clone(&obs));
//! {
//!     let _span = mris_obs::span!("demo_seconds", machine = 3usize);
//!     mris_obs::counter_add("demo_total", 1);
//! }
//! let text = obs.registry().render_prometheus();
//! assert!(text.contains("demo_total 1"));
//! mris_obs::validate_exposition(&text).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod export;
mod registry;

pub use event::{
    counter_add, counter_add_labeled, enabled, gauge_set, histogram_record, install, install_guard,
    uninstall, with, Event, FieldValue, InstallGuard, Obs, SpanGuard, SpanSink,
};
pub use export::{check_disabled_overhead, validate_exposition, JsonlEventSink, ObsReport};
pub use registry::{HistogramSnapshot, MetricEntry, MetricValue, MetricsRegistry};

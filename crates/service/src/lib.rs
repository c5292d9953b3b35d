//! Scheduler-as-a-service runtime for MRIS and its baselines.
//!
//! This crate turns any registered [`mris_sim::OnlinePolicy`] into a
//! long-running scheduling daemon:
//!
//! * **Clock** ([`Clock`], [`SimClock`]) — the event loop advances
//!   deterministic virtual time, so a run is a pure function of its inputs.
//!   The loop runs on its caller's thread; `mris_net::serve_net` is the
//!   network front end.
//! * **Admission control** ([`Service`], [`ServiceConfig`]) — a bounded
//!   submission queue with explicit depth and resource-load watermarks;
//!   shedding is always a typed [`mris_types::AdmissionError`], never a
//!   silent drop, and every job's fate is recorded in a [`JobOutcome`]
//!   ledger.
//! * **Epoch batching** — arrivals accumulate for a configurable decision
//!   interval and are announced as one batch; the zero interval delivers
//!   per-event and is bit-identical to the batch drivers (the
//!   conservativity suite pins this).
//! * **Fault replay** — a [`mris_sim::FaultPlan`] runs against the live
//!   service through the same [`mris_sim::EventKernel`] as the batch
//!   driver: one event ordering, one audit log.
//! * **One record stream** — the kernel reports every instant through its
//!   [`mris_sim::EventSink`], and the service's sink (its outcome ledger)
//!   is the one consumer: it sets job outcomes, writes the journal's
//!   derived records, and counts the instant's completions, re-releases
//!   and placements.
//! * **Telemetry** ([`TelemetrySink`], [`JsonlSink`]) — one
//!   [`EpochRecord`] per event, filled from those counts and the loop's own
//!   state, plus an end-of-run [`ServiceSummary`] with decision-latency
//!   percentiles from [`mris_metrics::Percentiles`].
//! * **Durability** ([`Service::attach_journal`], [`Service::restore`]) —
//!   a length-prefixed, checksummed write-ahead journal of every
//!   state-mutating event plus periodic full-state snapshots, both over
//!   the in-tree zero-dependency codec ([`Encoder`], [`Decoder`]). The
//!   journal's derived records are the stream's durable encoding, in the
//!   kernel's call order. Restore decodes the newest snapshot into a
//!   fresh service and policy, checks that it re-encodes to its own bytes,
//!   and replays only the journal's records after the snapshot's mark (the
//!   whole journal, from genesis, without a snapshot), verifying every
//!   derived record byte-for-byte, so a crash-restarted service is
//!   bit-identical to the uncrashed run (the crash-restart suite pins
//!   this); journal loss after a snapshot degrades to machine-failure
//!   semantics via [`RestoreOptions::outage`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod codec;
mod core;
mod crash;
mod journal;
mod restore;
mod snapshot;
mod telemetry;
mod tenant;

pub use clock::{Clock, SimClock};
pub use codec::{crc32, fnv64, Decoder, Encoder};
pub use core::{
    JobOutcome, LedgerCounts, Service, ServiceConfig, ServiceConfigBuilder, ServiceReport,
};
pub use crash::truncate_at_event;
pub use journal::{
    config_fingerprint, count_valid_records, parse_journal, read_valid_prefix, service_fingerprint,
    DurabilityConfig, JournalRecord, JournalWriter, ParsedJournal, RejectReason, SharedBuf,
    HEADER_LEN, JOURNAL_MAGIC, JOURNAL_VERSION,
};
// The job-path benchmark still imports it from here (ROADMAP item 1(a)).
pub use mris_trace::poisson_rate_for_utilization;
pub use restore::{Outage, RestoreOptions, RestoreReport};
pub use snapshot::{
    DirSnapshots, MemorySnapshots, NullSnapshots, Snapshot, SnapshotStore, SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
};
pub use telemetry::{EpochRecord, JsonlSink, MemorySink, NullSink, ServiceSummary, TelemetrySink};
pub use tenant::{TenantSpec, TenantStat};

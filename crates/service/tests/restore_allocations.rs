//! The work of one seeded 100,000-job restore, as counts that repeat
//! exactly from run to run: the frames it walks, the bytes it CRC-checks,
//! and the heap allocations and reallocations it makes (with the bytes
//! the reallocated blocks held).
//!
//! The input is the job-path benchmark's `durable` workload at seed 11:
//! PQ-WSJF on 8 machines, the Azure-like shape population permuted by the
//! seed with Poisson releases at load 1, a journal flushed every event and
//! a snapshot every 16,384 events. Restore starts from the last snapshot
//! and the whole journal. A counting global allocator, installed in this
//! test binary only (the product crates forbid unsafe code), counts while
//! `Service::restore` runs. The file holds one test, so nothing else
//! allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

use mris_core::registry::online_policy_by_name;
use mris_rng::Rng;
use mris_service::{
    poisson_rate_for_utilization, DurabilityConfig, MemorySnapshots, NullSink, RestoreOptions,
    Service, ServiceConfig, SharedBuf, SimClock, HEADER_LEN,
};
use mris_trace::{AzureTrace, AzureTraceConfig};
use mris_types::{Instance, Job, JobId};

/// Counts allocations and reallocations while [`COUNTING`] is set, and
/// otherwise is the system allocator.
struct Counting;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static REALLOCS: AtomicU64 = AtomicU64::new(0);
/// Bytes the reallocated blocks held: what a regrowth may copy.
static REALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are relaxed atomics
// that publish no other data and allocate nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Relaxed) {
            ALLOCS.fetch_add(1, Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Relaxed) {
            ALLOCS.fetch_add(1, Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Relaxed) {
            REALLOCS.fetch_add(1, Relaxed);
            REALLOC_BYTES.fetch_add(layout.size() as u64, Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const JOBS: usize = 100_000;
const MACHINES: usize = 8;
const SEED: u64 = 11;

/// The `durable` workload's instance: the fixed shape population in a
/// seeded order, released as a Poisson process at load 1.
fn durable_instance() -> Instance {
    let shapes = AzureTrace::generate(&AzureTraceConfig {
        num_jobs: JOBS,
        ..AzureTraceConfig::default()
    })
    .sample_instance(1, 0);
    let rate = poisson_rate_for_utilization(&shapes, MACHINES, 1.0);
    let root = Rng::new(SEED);
    let mut order: Vec<usize> = (0..JOBS).collect();
    let mut shuffle = root.substream("benchmark-order");
    for i in (1..JOBS).rev() {
        order.swap(i, shuffle.gen_range(0..i + 1));
    }
    let mut gaps = root.substream("benchmark-arrivals");
    let mut release = 0.0_f64;
    let jobs = order
        .iter()
        .enumerate()
        .map(|(i, &k)| {
            let shape = &shapes.jobs()[k];
            release += -(1.0 - gaps.gen_f64()).ln() / rate;
            Job {
                id: JobId(i as u32),
                release,
                proc_time: shape.proc_time,
                weight: shape.weight,
                demands: shape.demands.clone(),
            }
        })
        .collect();
    Instance::from_unnumbered(jobs, shapes.num_resources()).expect("permuted shapes stay valid")
}

/// Frames after the journal's header and the payload bytes they hold,
/// read off the frame headers.
fn frames(journal: &[u8]) -> (u64, u64) {
    let (mut at, mut frames, mut payload) = (HEADER_LEN, 0, 0);
    while at < journal.len() {
        let len = u32::from_le_bytes(journal[at..at + 4].try_into().expect("a frame header"));
        at += 8 + len as usize;
        frames += 1;
        payload += len as u64;
    }
    assert_eq!(at, journal.len(), "the journal ends at a frame boundary");
    (frames, payload)
}

#[test]
fn one_durable_restore_walks_every_frame_and_allocates_within_its_bound() {
    let instance = durable_instance();
    let cfg = ServiceConfig::new(MACHINES);
    let dcfg = DurabilityConfig {
        flush_every: 1,
        snapshot_every: 16_384,
    };
    let policy = || online_policy_by_name("pq-wsjf", &instance, MACHINES).expect("registered");
    let mut svc = Service::new(
        instance.clone(),
        policy(),
        cfg.clone(),
        SimClock::new(),
        NullSink,
    )
    .expect("valid config");
    let journal = SharedBuf::new();
    let snapshots = MemorySnapshots::new();
    svc.attach_journal(dcfg, Box::new(journal.clone()), Box::new(snapshots.clone()))
        .expect("a fresh service takes a journal");
    for job in instance.jobs() {
        let admitted = svc.submit_at(job.release, job.id).expect("no policy error");
        assert_eq!(admitted, Ok(()), "{:?}", job.id);
    }
    while svc.step().expect("no policy error") {}
    svc.drain().expect("drain");
    let journal = journal.contents();
    let all = snapshots.all();
    let snapshot = all.last().expect("a snapshot every 16,384 events");
    let (copy, policy) = (instance.clone(), policy());

    COUNTING.store(true, Relaxed);
    let restored = Service::restore(
        copy,
        policy,
        cfg,
        dcfg,
        SimClock::new(),
        NullSink,
        &journal,
        Some(snapshot),
        RestoreOptions::default(),
    );
    COUNTING.store(false, Relaxed);
    let (allocs, reallocs) = (ALLOCS.load(Relaxed), REALLOCS.load(Relaxed));
    let moved = REALLOC_BYTES.load(Relaxed);
    let (_, report) = restored.expect("restore from the last snapshot");

    // Every frame is walked and CRC-checked, and so is the snapshot's
    // state: everything but the container's 40-byte header.
    let (walked, payload) = frames(&journal);
    let crc_bytes = payload + (snapshot.len() - 40) as u64;
    println!(
        "frames {walked}, bytes CRC'd {crc_bytes}, snapshot {} B, replayed {}, \
         allocations {allocs}, reallocations {reallocs} of {moved} B",
        snapshot.len(),
        report.replayed
    );
    assert_eq!(report.records, walked);
    assert!(report.clean_shutdown && report.snapshot_verified.is_some());
    assert_eq!((walked, crc_bytes), (500_013, 11_832_886));
    // 100,000 of the allocations are the per-job demand vectors of the
    // instance copy `Service::new` gives the kernel. The decoders size
    // every per-job table and the kept journal tail before filling it, so
    // what still regrows is small state the replay itself builds.
    assert!(allocs <= 100_264, "{allocs} allocations");
    assert!(reallocs <= 27, "{reallocs} reallocations");
}

//! Persistent worker pool behind the sharded cluster scan.
//!
//! The pre-fix parallel scan spawned [`std::thread::scope`] threads for
//! *every* `earliest_fit` query; scoped-thread spawn plus join costs tens
//! of microseconds, which at 256 machines measured as a 0.93x *slowdown*
//! against the sequential cutoff-pruned scan. [`ScanPool`] fixes the bug at
//! the root: threads are created **once per cluster** and fed queries
//! through a shared descriptor, so a query's marginal cost is a wake plus
//! an atomic shard-claim loop.
//!
//! # Protocol
//!
//! A query publishes a [`Query`] descriptor under the pool mutex and bumps
//! the query sequence number. Workers (and the caller, which participates
//! as scanner zero) claim shards dynamically through one epoch-tagged CAS
//! counter — the epoch is the sequence number, so a worker waking late
//! from a previous query can never claim (and therefore never dereference)
//! a stale descriptor. Each claimed shard is scanned with the same
//! cutoff-pruning and one-ulp slack as the sequential scan, its
//! lexicographic `(start, machine)` minimum is written to a caller-owned
//! result slot, and a completion counter is bumped; whoever completes the
//! last shard marks the sequence done and wakes the caller, which reduces
//! the per-shard results **in shard order** — reproducing the sequential
//! scan's lowest-machine-index tie-break exactly.
//!
//! # Why the descriptor is raw pointers
//!
//! The descriptor borrows the caller's shards, demands, and result buffer
//! for the duration of one query. Expressing that borrow safely would
//! either clone per query (the allocation cost this pool exists to avoid)
//! or force `Arc` ownership of the shards (which breaks
//! `ClusterTimelines`' exclusive mutation paths). Instead the lifetime is
//! enforced by the protocol: the caller cannot return from
//! [`ScanPool::scan`] until every shard's completion tick is counted, a
//! scanner only dereferences the descriptor between a successful
//! epoch-tagged claim and its completion tick, and after the final tick
//! the claim counter is exhausted for that epoch — so no dereference can
//! outlive the borrow. This module is the one `#[allow(unsafe_code)]`
//! island in an otherwise `deny(unsafe_code)` crate.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use mris_types::{Amount, Time};

use crate::timeline::{ProbeTally, ShardScan, TimelineShard};

/// Scanners used per query (the caller plus spawned workers), bounded so a
/// query never oversubscribes the host even on very wide clusters.
pub(crate) const MAX_SCAN_THREADS: usize = 8;

/// Low bits of the claim counter holding the next unclaimed shard index;
/// the high bits hold the query sequence number (the claim epoch). 2^20
/// shards bounds clusters at ~67M machines with the default shard size —
/// checked per query.
const SHARD_BITS: u32 = 20;
const SHARD_MASK: u64 = (1 << SHARD_BITS) - 1;

/// Iterations a worker spins on the published sequence number before
/// parking on the condvar. Placement loops issue queries back to back, so
/// the next query usually arrives within the spin window and skips the
/// wake latency entirely.
const SPIN_LIMIT: u32 = 1 << 14;

/// One query's shared descriptor. Copied out by each scanner under the
/// pool mutex; the raw pointers borrow the caller's stack for the duration
/// of the query (see the module docs for the lifetime argument).
#[derive(Clone, Copy)]
struct Query {
    shards: *const TimelineShard,
    num_shards: usize,
    demands: *const Amount,
    num_demands: usize,
    from: Time,
    dur: Time,
    /// `from.max(0.0)`: no start below it exists, so a shard fitting at the
    /// floor ends the search for every higher-indexed shard.
    floor: Time,
    results: *mut ShardScan,
    /// The sequence number this descriptor was published under — the claim
    /// epoch scanners must match.
    seq: u64,
}

// SAFETY: the pointers are only dereferenced between a successful
// epoch-tagged claim and the matching completion tick, during which the
// caller is provably blocked in `ScanPool::scan` (completion requires the
// tick this scanner has not yet delivered), keeping every borrow alive.
unsafe impl Send for Query {}

/// Mutex-guarded pool state: the published query and the sequence-number
/// handshake between callers and workers.
struct State {
    /// Monotone query sequence number; bumped as each query is published.
    seq: u64,
    /// Highest sequence number whose every shard has been scanned.
    completed_seq: u64,
    query: Option<Query>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Workers park here between queries.
    work_cv: Condvar,
    /// The caller parks here until `completed_seq` reaches its query.
    done_cv: Condvar,
    /// Epoch-tagged shard claim counter: `(seq << SHARD_BITS) | next_shard`.
    /// Claims go through CAS (never a blind `fetch_add`) so a scanner
    /// holding a stale epoch can neither claim a fresh query's shard nor
    /// consume one of its indices.
    claim: AtomicU64,
    /// Shards of the current query fully scanned. The scanner whose tick
    /// reaches `num_shards` marks the query complete.
    shards_done: AtomicUsize,
    /// Best start found so far (f64 bits), shared across shards as a
    /// pruning bound only — correctness never depends on it, so relaxed
    /// ordering suffices.
    shared_best: AtomicU64,
    /// Lowest shard index that fit at the query floor, `usize::MAX` until
    /// one does. Shards above it cannot win (equal start, higher machine
    /// index) and are completed without scanning — this keeps the pooled
    /// scan O(active shards) on lightly loaded clusters, where the
    /// sequential scan stops at the first machine.
    floor_shard: AtomicUsize,
    /// Mirror of `state.seq` for the workers' lock-free spin check.
    published_seq: AtomicU64,
    /// A shard scan panicked (a capacity or duration assertion).
    /// The panic is caught so the completion protocol still runs — a
    /// deadlocked caller would be strictly worse — and re-raised on the
    /// caller's side of the handshake.
    panicked: AtomicBool,
}

/// The persistent worker pool owned by one
/// [`ClusterTimelines`](crate::ClusterTimelines). Created lazily on the
/// first pooled query; dropped (workers joined) with the cluster.
pub(crate) struct ScanPool {
    shared: Arc<Shared>,
    /// Serializes concurrent `scan` callers and doubles as the reusable
    /// per-shard result buffer.
    scratch: Mutex<Vec<ShardScan>>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ScanPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScanPool")
            .field("workers", &self.handles.len())
            .finish()
    }
}

impl ScanPool {
    /// Spawns `min(MAX_SCAN_THREADS, parallelism) - 1` workers (the caller
    /// is scanner zero). Spawn failures degrade capacity, never
    /// correctness: with zero workers the caller scans every shard itself.
    pub(crate) fn new() -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                seq: 0,
                completed_seq: 0,
                query: None,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            claim: AtomicU64::new(0),
            shards_done: AtomicUsize::new(0),
            shared_best: AtomicU64::new(f64::INFINITY.to_bits()),
            floor_shard: AtomicUsize::new(usize::MAX),
            published_seq: AtomicU64::new(0),
            panicked: AtomicBool::new(false),
        });
        let scanners = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(MAX_SCAN_THREADS);
        let handles = (1..scanners)
            .filter_map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("mris-scan-{i}"))
                    .spawn(move || worker(&shared))
                    .ok()
            })
            .collect();
        ScanPool {
            shared,
            scratch: Mutex::new(Vec::new()),
            handles,
        }
    }

    /// Earliest `(machine, start)` over `shards` — identical to the
    /// sequential cutoff-pruned scan, including the lowest-machine-index
    /// tie-break. Blocks until every shard has been scanned; concurrent
    /// callers serialize. The scanners' probe counts are added to `tally`.
    pub(crate) fn scan(
        &self,
        shards: &[TimelineShard],
        from: Time,
        dur: Time,
        demands: &[Amount],
        tally: &mut ProbeTally,
    ) -> (usize, Time) {
        let num_shards = shards.len();
        assert!(
            num_shards > 0 && (num_shards as u64) <= SHARD_MASK,
            "shard count {num_shards} outside the claim counter's range"
        );
        // The per-machine scans assert these; validating once up front
        // keeps worker threads panic-free on bad input (the caller's own
        // assertion fires instead).
        assert!(dur > 0.0, "job duration must be positive");
        assert!(
            demands.iter().all(|&d| d <= mris_types::CAPACITY),
            "demand exceeds machine capacity; job can never fit"
        );

        // Fast path: the caller scans shard zero inline before engaging the
        // pool. Shard zero holds the cluster's lowest machine indices, so a
        // fit at the query floor there beats any later shard's answer
        // outright (higher shards can at best tie on start and lose the
        // index tie-break) — the pool machinery is skipped entirely.
        // Placement streams probing at the clock frontier take this path
        // almost always, which keeps the pooled policy at sequential-scan
        // cost for the common case.
        let floor = from.max(0.0);
        let inline_best = AtomicU64::new(f64::INFINITY.to_bits());
        let first = shards[0].scan_bounded(from, dur, demands, floor, &inline_best);
        if first.best.1 <= floor || num_shards == 1 {
            tally.add(&first.tally);
            return first.best;
        }

        let mut results = self.scratch.lock().expect("scan pool scratch lock");
        results.clear();
        results.resize(num_shards, ShardScan::NONE);
        // Shard zero is pre-completed: its result seeds the shared pruning
        // bound, its slot is already written, and the claim counter starts
        // at shard one.
        results[0] = first;
        let shared = &*self.shared;
        let query = {
            let mut st = shared.state.lock().expect("scan pool state lock");
            let seq = st.seq + 1;
            st.seq = seq;
            // Reset the per-query atomics before publishing. No stale
            // scanner can race these: the previous query's claim counter is
            // exhausted (completion counted every shard), so until the
            // store below, stale claims fail on the index bound — and
            // after it, on the epoch.
            shared
                .shared_best
                .store(first.best.1.to_bits(), Ordering::Relaxed);
            shared.floor_shard.store(usize::MAX, Ordering::Relaxed);
            shared.shards_done.store(1, Ordering::Relaxed);
            shared
                .claim
                .store((seq << SHARD_BITS) | 1, Ordering::Relaxed);
            let query = Query {
                shards: shards.as_ptr(),
                num_shards,
                demands: demands.as_ptr(),
                num_demands: demands.len(),
                from,
                dur,
                floor: from.max(0.0),
                results: results.as_mut_ptr(),
                seq,
            };
            st.query = Some(query);
            shared.published_seq.store(seq, Ordering::Release);
            query
        };
        shared.work_cv.notify_all();

        // The caller is scanner zero: it claims shards like any worker, so
        // even a pool with no live workers completes every query.
        // SAFETY: the descriptor's pointers borrow `shards`, `demands`,
        // and `results`, all of which outlive this call; see module docs.
        unsafe { run_query(&query, shared) };

        let mut st = shared.state.lock().expect("scan pool state lock");
        while st.completed_seq < query.seq {
            st = shared.done_cv.wait(st).expect("scan pool state lock");
        }
        st.query = None;
        drop(st);
        if shared.panicked.swap(false, Ordering::Relaxed) {
            panic!("shard scan worker panicked (see stderr for the original panic)");
        }

        let _reduce = mris_obs::span!("mris_shard_reduce_seconds");
        // In-order fold with a strict `<`: an earlier (lower-base) shard's
        // equal start wins, and within a shard `scan_bounded` already
        // returned its lexicographic minimum — together the exact
        // `(start, machine)` minimum of the sequential scan.
        let mut best = (0usize, f64::INFINITY);
        for scan in results.iter() {
            if scan.best.1 < best.1 {
                best = scan.best;
            }
            tally.add(&scan.tally);
        }
        best
    }
}

impl Drop for ScanPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().expect("scan pool state lock");
            st.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Worker body: spin briefly for the next query (placement loops issue
/// them back to back), then park on the condvar.
fn worker(shared: &Shared) {
    let mut last_seq = 0u64;
    loop {
        // Fast path: spin on the lock-free sequence mirror.
        let mut spins = 0u32;
        while shared.published_seq.load(Ordering::Acquire) == last_seq && spins < SPIN_LIMIT {
            spins += 1;
            std::hint::spin_loop();
        }
        let query = {
            let mut st = shared.state.lock().expect("scan pool state lock");
            loop {
                if st.shutdown {
                    return;
                }
                if st.seq != last_seq {
                    last_seq = st.seq;
                    // `None` here means the query already completed and was
                    // torn down before this worker woke; go back to waiting.
                    break st.query;
                }
                st = shared.work_cv.wait(st).expect("scan pool state lock");
            }
        };
        let Some(query) = query else { continue };
        mris_obs::counter_add("mris_shard_wakeups_total", 1);
        // SAFETY: claims are epoch-tagged, so this descriptor is only
        // dereferenced while its query is provably in flight.
        unsafe { run_query(&query, shared) };
    }
}

/// Claims and scans shards of `query` until the claim counter is exhausted
/// or the epoch moves on. Shared verbatim by workers and the caller.
///
/// # Safety
///
/// `query`'s pointers must be live whenever a claim under `query.seq`
/// succeeds — guaranteed by the caller blocking in [`ScanPool::scan`]
/// until all `num_shards` completion ticks are counted (see module docs).
unsafe fn run_query(query: &Query, shared: &Shared) {
    let shards = std::slice::from_raw_parts(query.shards, query.num_shards);
    let demands = std::slice::from_raw_parts(query.demands, query.num_demands);
    let mut claimed = 0u64;
    loop {
        // Epoch-tagged CAS claim: a stale scanner (epoch mismatch) backs
        // off without consuming an index; a fresh scanner takes the next
        // shard in order, so claim order follows shard order.
        let mut cur = shared.claim.load(Ordering::Relaxed);
        let idx = loop {
            let (epoch, idx) = (cur >> SHARD_BITS, cur & SHARD_MASK);
            if epoch != query.seq || idx as usize >= query.num_shards {
                break None;
            }
            match shared.claim.compare_exchange_weak(
                cur,
                (epoch << SHARD_BITS) | (idx + 1),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break Some(idx as usize),
                Err(observed) => cur = observed,
            }
        };
        let Some(i) = idx else {
            if claimed > 1 {
                // Shards claimed beyond a scanner's first are work stolen
                // from the static split the old chunked scan would have
                // imposed.
                mris_obs::counter_add("mris_shard_steals_total", claimed - 1);
            }
            return;
        };
        claimed += 1;

        let slot = if i > shared.floor_shard.load(Ordering::Relaxed) {
            // A lower shard already fit at the floor; nothing at or above
            // this index can beat it (equal start loses the index
            // tie-break), so complete the shard without scanning.
            ShardScan::NONE
        } else {
            let scanned = catch_unwind(AssertUnwindSafe(|| {
                shards[i].scan_bounded(
                    query.from,
                    query.dur,
                    demands,
                    query.floor,
                    &shared.shared_best,
                )
            }));
            match scanned {
                Ok(r) => {
                    if r.best.1 <= query.floor {
                        shared.floor_shard.fetch_min(i, Ordering::Relaxed);
                    }
                    r
                }
                Err(_) => {
                    shared.panicked.store(true, Ordering::Relaxed);
                    ShardScan::NONE
                }
            }
        };
        // The slot write must happen-before the completion tick below
        // (release) so the finisher's acquire tick, and through the state
        // mutex the caller's reduce, observe it.
        *query.results.add(i) = slot;
        let done = shared.shards_done.fetch_add(1, Ordering::AcqRel) + 1;
        if done == query.num_shards {
            let mut st = shared.state.lock().expect("scan pool state lock");
            st.completed_seq = st.completed_seq.max(query.seq);
            drop(st);
            shared.done_cv.notify_all();
        }
    }
}

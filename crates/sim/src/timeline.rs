//! Committed-schedule machine timelines with earliest-fit queries.
//!
//! A [`MachineTimeline`] is a step function from time to per-resource usage,
//! stored as sorted breakpoints. MRIS commits schedule fragments ahead of
//! wall-clock time and backfills jobs at "the earliest feasible instant
//! `>= t`", which requires querying usage over an entire candidate window
//! `[s, s + p)` — something the instantaneous [`ClusterState`] cannot answer.
//!
//! # The skip index
//!
//! Scanning breakpoints one by one makes a query `O(segments)` and a batch
//! placement quadratic over a trace. The timeline therefore maintains a
//! per-resource **interval-max/min skip index**: segments are grouped into
//! fixed blocks of [`BLOCK`] and each block stores, per resource, the
//! maximum and minimum usage over its segments (a branching-factor-`BLOCK`
//! segment tree of height two, rebuilt incrementally on commit).
//! [`MachineTimeline::earliest_fit`] uses it two ways:
//!
//! * a block whose **max** usage plus the demand fits capacity on every
//!   resource contains no violating segment — the feasibility scan jumps
//!   over all of it in `O(R)`;
//! * a block whose **min** usage plus the demand exceeds capacity on some
//!   resource consists *only* of violating segments — the candidate start
//!   jumps past the entire block in `O(R)`.
//!
//! On top of that, cluster-level scans are pruned with a best-so-far cutoff:
//! a machine that cannot beat the current best aborts its scan early.
//!
//! # Floors
//!
//! Algorithm 1 places a whole batch at one floor `gamma_k`, so job after job
//! would re-walk the prefix the same epoch just packed. The cluster
//! therefore remembers *floors* per machine: facts "a query of this demand
//! class lasting at least `dur` has no feasible start in `[base, bound)`". A
//! fact bounds every at-least-as-hard later query, and it stays true under
//! everything that can happen to a timeline: commits only add usage,
//! compaction leaves the step function at or after the watermark alone (and
//! queries are clamped there), and a reset clears the machine's floors with
//! its timeline. Nothing is ever invalidated.
//!
//! The sweep uses the tightest applicable bound `b` two ways: `b >= cutoff`
//! rules the machine out without visiting a segment, and otherwise the scan
//! starts at `b` instead of at `from`. The scan returns its start or a
//! breakpoint that ends a violating run, whichever is the first feasible
//! one; the floor says none of those below `b` is feasible, so the first at
//! or after `b` is the first at or after `from` — the same `f64`.
//!
//! Demand classes are the cluster's distinct demand vectors, resolved once
//! per query. [`ClusterTimelines`] keeps the floors as class-major columns
//! — one [`Stair`] per machine for each class, beside contiguous per-machine
//! bases and speeds — so the sweep rules a machine out from its class's
//! column without touching its [`MachineTimeline`]; only the machines that
//! need a real scan do. A timeline is a plain step function with its skip
//! index and knows nothing of classes: [`MachineTimeline::probe`] is handed
//! its floor. The sequential sweep behind [`ClusterTimelines::place_batch`]
//! and the other `&mut` entry points raises floors with what each scan
//! proved; shared-access queries read floors and learn nothing.
//!
//! [`ClusterState`]: crate::ClusterState

use std::ops::Range;
use std::time::{Duration, Instant};

use mris_types::{
    Amount, ClusterSpec, Codec, CodecError, Decoder, Encoder, Instance, JobId, Time, CAPACITY,
};

/// Segments per skip-index block. 16 is small enough that a block is often
/// uniformly saturated (so the min-skip fires inside packed prefixes) while
/// keeping the index under 10% of segment storage; larger blocks straddle the
/// packed/idle boundary and lose most skip opportunities.
pub const BLOCK: usize = 16;

/// Distinct demand vectors a cluster keeps floors for, in order of first
/// appearance; later vectors probe without floors. Every benchmark
/// workload draws from 30 VM types.
const FLOOR_CLASSES: usize = 32;

/// Facts kept per (machine, demand class): a staircase over duration.
const FLOOR_STEPS: usize = 2;

/// A demand class: the index of a demand vector in its cluster's table
/// ([`ClusterTimelines::class_of`]), `None` for vectors the table has no
/// room for.
type FloorClass = Option<u8>;

/// One demand class's floors on one machine: up to [`FLOOR_STEPS`] facts
/// `(dur, bound)` — "a query of this class lasting at least `dur` has no
/// feasible start in `[base, bound)`", with the machine's `base` (see
/// [`ClusterTimelines`]'s floor columns).
///
/// Kept as a Pareto staircase — `dur` and `bound` both strictly ascending
/// over the used steps, [`Stair::UNUSED`] steps at the end — so the
/// tightest bound for a query is the last step whose `dur` it reaches.
#[derive(Debug, Clone, Copy)]
struct Stair {
    steps: [(Time, Time); FLOOR_STEPS],
}

impl Stair {
    /// Applies to no query (`dur = INFINITY`) and bounds nothing.
    const UNUSED: (Time, Time) = (f64::INFINITY, 0.0);

    const EMPTY: Stair = Stair {
        steps: [Stair::UNUSED; FLOOR_STEPS],
    };

    /// The tightest stored bound that applies to a query lasting `dur`
    /// (`0.0` when none does).
    #[inline]
    fn bound_for(&self, dur: Time) -> Time {
        let mut bound = 0.0;
        for &(d, b) in &self.steps {
            if d <= dur {
                bound = b;
            }
        }
        bound
    }

    /// Adds the fact `(dur, bound)`, dropping the steps it makes redundant.
    /// When the staircase overflows, the step that adds least over its
    /// predecessor (over `base` for the first) goes: that is the bound
    /// later queries lose the least by falling back from.
    fn raise(&mut self, dur: Time, bound: Time, base: Time) {
        if self.steps.iter().any(|&(d, b)| d <= dur && b >= bound) {
            return;
        }
        let mut merged = [Stair::UNUSED; FLOOR_STEPS + 1];
        let mut n = 0;
        let mut placed = false;
        for &step in &self.steps {
            if step.0 >= dur {
                if !placed {
                    merged[n] = (dur, bound);
                    n += 1;
                    placed = true;
                }
                // As long or longer with no later bound (or unused): the
                // new step says more.
                if step.1 <= bound {
                    continue;
                }
            }
            merged[n] = step;
            n += 1;
        }
        if !placed {
            merged[n] = (dur, bound);
            n += 1;
        }
        if n > FLOOR_STEPS {
            let gain = |i: usize| merged[i].1 - if i == 0 { base } else { merged[i - 1].1 };
            let victim = (0..n)
                .min_by(|&a, &b| gain(a).total_cmp(&gain(b)))
                .expect("an overflowing staircase is non-empty");
            merged.copy_within(victim + 1.., victim);
        }
        self.steps.copy_from_slice(&merged[..FLOOR_STEPS]);
    }
}

/// Probe counts gathered locally by a scan, a sweep or a batch and
/// published with one registry call per family ([`ProbeTally::publish`]).
#[derive(Debug, Default)]
struct ProbeTally {
    /// `mris_timeline_hint_hits_total`: ruled out by a floor, no segment
    /// visited.
    ruled_out: u64,
    /// `mris_timeline_hint_misses_total`: scanned. Every probe is one or
    /// the other, so `mris_timeline_probes_total` is their sum.
    scanned: u64,
    /// `mris_timeline_block_jumps_total`.
    block_jumps: u64,
}

impl ProbeTally {
    fn publish(&self) {
        for (name, v) in [
            ("mris_timeline_probes_total", self.ruled_out + self.scanned),
            ("mris_timeline_hint_hits_total", self.ruled_out),
            ("mris_timeline_hint_misses_total", self.scanned),
            ("mris_timeline_block_jumps_total", self.block_jumps),
        ] {
            if v > 0 {
                mris_obs::counter_add(name, v);
            }
        }
    }
}

/// What one probe of one machine found.
struct Probe {
    /// The earliest feasible start below the cutoff, if any.
    start: Option<Time>,
    /// `Some(b)` when the scan proved more than the floors held: no
    /// feasible start in `[from, b)`.
    learned: Option<Time>,
}

/// One resource vector as the skip-index scan and the block fold hold it:
/// `[Amount; R]` for one to four resources, so every per-resource loop has
/// a constant trip count and compiles to straight-line compares, and a boxed
/// slice for any other count. The scan and the fold are each written once,
/// generic over the lane; their callers pick the impl from the width.
trait Lane {
    /// The lane of `width` resources holding `f(r)` at resource `r`.
    fn from_fn(width: usize, f: impl FnMut(usize) -> Amount) -> Self;
    fn as_slice(&self) -> &[Amount];
    fn as_mut_slice(&mut self) -> &mut [Amount];
    /// Whether `usage` — a segment's, or a block's max or min — is at most
    /// this lane on every resource. With the free room `cap - demand` as
    /// the lane, that is "the demand fits on top of `usage`".
    fn covers(&self, usage: &[Amount]) -> bool;
}

impl<const R: usize> Lane for [Amount; R] {
    #[inline(always)]
    fn from_fn(width: usize, f: impl FnMut(usize) -> Amount) -> Self {
        debug_assert_eq!(width, R);
        std::array::from_fn(f)
    }

    #[inline(always)]
    fn as_slice(&self) -> &[Amount] {
        self
    }

    #[inline(always)]
    fn as_mut_slice(&mut self) -> &mut [Amount] {
        self
    }

    #[inline(always)]
    fn covers(&self, usage: &[Amount]) -> bool {
        // Every compare, then one branch.
        let mut covered = true;
        for r in 0..R {
            covered &= usage[r] <= self[r];
        }
        covered
    }
}

impl Lane for Box<[Amount]> {
    fn from_fn(width: usize, f: impl FnMut(usize) -> Amount) -> Self {
        (0..width).map(f).collect()
    }

    fn as_slice(&self) -> &[Amount] {
        self
    }

    fn as_mut_slice(&mut self) -> &mut [Amount] {
        self
    }

    fn covers(&self, usage: &[Amount]) -> bool {
        usage.iter().zip(self.iter()).all(|(&u, &room)| u <= room)
    }
}

/// Row `i` of a flattened `rows x width` table.
#[inline(always)]
fn row(table: &[Amount], i: usize, width: usize) -> &[Amount] {
    &table[i * width..(i + 1) * width]
}

/// Per-machine resource usage over time as a step function.
///
/// Invariants:
/// * breakpoints are strictly increasing, starting at `0.0`;
/// * segment `i` spans `[times[i], times[i+1])` (the last segment extends to
///   infinity) with constant usage `usage[i*R .. (i+1)*R]`;
/// * every committed occupation is finite, so the last segment's usage is
///   always all-zero — which guarantees [`MachineTimeline::earliest_fit`]
///   terminates for any demand within machine capacity;
/// * `block_max`/`block_min` hold the per-resource max/min usage of each
///   [`BLOCK`]-segment block (the skip index);
/// * queries are only valid at or after [`MachineTimeline::compaction_watermark`].
#[derive(Debug, Clone)]
pub struct MachineTimeline {
    num_resources: usize,
    /// Per-resource capacity of this machine (all [`CAPACITY`] for the
    /// reference machine). Feasibility compares usage against this, not the
    /// global constant, so restricted machines reject what they cannot hold.
    cap: Vec<Amount>,
    /// Relative speed of this machine (`1.0` for the reference machine).
    /// The timeline itself is wall-time; cluster-level scans and commits
    /// scale nominal durations by this before querying.
    speed: f64,
    times: Vec<Time>,
    usage: Vec<Amount>,
    /// Flattened `num_blocks x R` per-resource maximum usage per block.
    block_max: Vec<Amount>,
    /// Flattened `num_blocks x R` per-resource minimum usage per block.
    block_min: Vec<Amount>,
    /// Earliest instant at which queries are still exact (see
    /// [`MachineTimeline::compact_before`]).
    watermark: Time,
}

impl MachineTimeline {
    /// An empty timeline for a reference machine (unit speed, full
    /// capacity) with `num_resources` resources.
    pub fn new(num_resources: usize) -> Self {
        Self::with_limits(num_resources, vec![CAPACITY; num_resources], 1.0)
    }

    /// An empty timeline for a machine with the given per-resource
    /// capacities and relative speed.
    ///
    /// # Panics
    ///
    /// If `cap.len() != num_resources`, any capacity is outside
    /// `(0, CAPACITY]`, or `speed` is not finite and positive.
    pub fn with_limits(num_resources: usize, cap: Vec<Amount>, speed: f64) -> Self {
        assert!(num_resources > 0);
        assert_eq!(cap.len(), num_resources);
        assert!(
            cap.iter().all(|&c| c > 0 && c <= CAPACITY),
            "machine capacities must lie in (0, CAPACITY]"
        );
        assert!(
            speed.is_finite() && speed > 0.0,
            "machine speed must be finite and positive, got {speed}"
        );
        MachineTimeline {
            num_resources,
            cap,
            speed,
            times: vec![0.0],
            usage: vec![0; num_resources],
            block_max: vec![0; num_resources],
            block_min: vec![0; num_resources],
            watermark: 0.0,
        }
    }

    /// Number of resources `R`.
    #[inline]
    pub fn num_resources(&self) -> usize {
        self.num_resources
    }

    /// This machine's per-resource capacity vector.
    #[inline]
    pub fn capacity(&self) -> &[Amount] {
        &self.cap
    }

    /// This machine's relative speed.
    #[inline]
    pub fn speed(&self) -> f64 {
        self.speed
    }

    /// Whether this is a reference machine (unit speed, full capacity):
    /// such timelines behave bit-identically to the pre-heterogeneity code.
    #[inline]
    pub fn is_unit_machine(&self) -> bool {
        self.speed.to_bits() == 1.0_f64.to_bits() && self.cap.iter().all(|&c| c == CAPACITY)
    }

    /// Number of segments in the step function (for diagnostics).
    #[inline]
    pub fn num_segments(&self) -> usize {
        self.times.len()
    }

    /// Earliest instant at which queries are still exact. `0.0` until
    /// [`MachineTimeline::compact_before`] discards history.
    #[inline]
    pub fn compaction_watermark(&self) -> Time {
        self.watermark
    }

    /// Index of the segment containing `t` (requires `t >= 0`).
    fn segment_index(&self, t: Time) -> usize {
        debug_assert!(t >= 0.0);
        // Last index i with times[i] <= t.
        self.times.partition_point(|&bp| bp <= t) - 1
    }

    /// Usage vector in effect at instant `t`.
    ///
    /// After [`MachineTimeline::compact_before`], instants earlier than the
    /// watermark no longer have exact usage; querying them is a caller bug
    /// (checked in debug builds).
    pub fn usage_at(&self, t: Time) -> &[Amount] {
        debug_assert!(
            t >= self.watermark,
            "usage_at({t}) queries history compacted away before {}",
            self.watermark
        );
        row(&self.usage, self.segment_index(t), self.num_resources)
    }

    /// Recomputes the skip-index entries of `blocks` in place, on a fixed
    /// [`Lane`] where the resource count has one: commits that splice
    /// breakpoints into the middle of a long timeline recompute every
    /// shifted tail block, so the per-segment fold is hot.
    fn refold(&mut self, blocks: Range<usize>) {
        match self.num_resources {
            1 => self.refold_lanes::<[Amount; 1]>(blocks),
            2 => self.refold_lanes::<[Amount; 2]>(blocks),
            3 => self.refold_lanes::<[Amount; 3]>(blocks),
            4 => self.refold_lanes::<[Amount; 4]>(blocks),
            _ => self.refold_lanes::<Box<[Amount]>>(blocks),
        }
    }

    /// The block fold: each block's per-resource max and min usage,
    /// accumulated in two lanes.
    fn refold_lanes<L: Lane>(&mut self, blocks: Range<usize>) {
        let mut mx = L::from_fn(self.num_resources, |_| 0);
        let mut mn = L::from_fn(self.num_resources, |_| 0);
        let w = mx.as_slice().len();
        for b in blocks {
            let lo = b * BLOCK;
            let hi = (lo + BLOCK).min(self.times.len());
            debug_assert!(lo < hi);
            let usage = &self.usage[lo * w..hi * w];
            mx.as_mut_slice().copy_from_slice(&usage[..w]);
            mn.as_mut_slice().copy_from_slice(&usage[..w]);
            for seg in usage[w..].chunks_exact(w) {
                let accumulators = mx.as_mut_slice().iter_mut().zip(mn.as_mut_slice());
                for ((x, n), &u) in accumulators.zip(seg) {
                    *x = (*x).max(u);
                    *n = (*n).min(u);
                }
            }
            self.block_max[b * w..(b + 1) * w].copy_from_slice(mx.as_slice());
            self.block_min[b * w..(b + 1) * w].copy_from_slice(mn.as_slice());
        }
    }

    /// Sizes the skip index to the segments' blocks and returns their
    /// number; the caller folds the blocks whose segments moved.
    fn resize_index(&mut self) -> usize {
        let r = self.num_resources;
        let num_blocks = self.times.len().div_ceil(BLOCK);
        self.block_max.resize(num_blocks * r, 0);
        self.block_min.resize(num_blocks * r, 0);
        num_blocks
    }

    /// The earliest instant `s >= from` such that the job fits throughout
    /// `[s, s + dur)`. Always exists for demands within machine capacity
    /// because the timeline's tail is empty. Runs in `O(segments / BLOCK +
    /// BLOCK)` per infeasible run skipped, instead of the naive
    /// `O(segments)` per segment stepped.
    pub fn earliest_fit(&self, from: Time, dur: Time, demands: &[Amount]) -> Time {
        self.earliest_fit_bounded(from, dur, demands, f64::INFINITY)
            .expect("unbounded earliest_fit always finds the empty tail")
    }

    /// Like [`MachineTimeline::earliest_fit`], but gives up as soon as the
    /// answer provably is `>= cutoff` and returns `None`. A non-finite
    /// `cutoff` disables pruning.
    ///
    /// This is the plain scan: floors are keyed by a cluster's demand
    /// classes, so only probes that come through [`ClusterTimelines`] read
    /// and raise them.
    pub fn earliest_fit_bounded(
        &self,
        from: Time,
        dur: Time,
        demands: &[Amount],
        cutoff: Time,
    ) -> Option<Time> {
        assert_query(dur, demands);
        let mut tally = ProbeTally::default();
        let probe = self.probe(0.0, from, dur, demands, cutoff, &mut tally);
        tally.publish();
        probe.start
    }

    /// Where a query from `from` really starts. The watermark clamp upholds
    /// the documented contract in release builds too: below the watermark
    /// the retained step function is approximate (compaction folded history
    /// into the first segment), so an unclamped scan could return a stale
    /// pre-watermark start.
    #[inline]
    fn clamp_from(&self, from: Time) -> Time {
        from.max(self.watermark).max(0.0)
    }

    /// One probe: the earliest feasible start in `[from, cutoff)` for
    /// `demands` held for `dur` wall time, given a `floor` — no start in
    /// `[from, floor)` is feasible (`0.0` when nothing is known). The caller
    /// has checked the query ([`assert_query`]) and has already ruled the
    /// machine out if the floor reaches the cutoff.
    ///
    /// The scan starts at `floor` instead of at `from`, and the answer is
    /// the same `f64`: the scan returns its start or a breakpoint that ends
    /// a violating run, whichever is the first feasible one, and the floor
    /// says none of those below it is feasible — so the first feasible one
    /// at or after `floor` is the first at or after `from`.
    fn probe(
        &self,
        floor: Time,
        from: Time,
        dur: Time,
        demands: &[Amount],
        cutoff: Time,
        tally: &mut ProbeTally,
    ) -> Probe {
        debug_assert_eq!(demands.len(), self.num_resources);
        debug_assert!(dur > 0.0 && demands.iter().all(|&d| d <= CAPACITY));
        debug_assert!(
            from.max(0.0) >= self.watermark,
            "earliest_fit(from = {from}) queries history compacted away before {}",
            self.watermark
        );
        let from = self.clamp_from(from);
        let cutoff = if cutoff.is_finite() {
            cutoff
        } else {
            f64::INFINITY
        };
        tally.scanned += 1;
        let scan_from = from.max(floor);
        let scanned = self.scan_earliest(scan_from, dur, demands, cutoff, tally);
        // Either way the scan was exhaustive from `scan_from` up to the
        // instant it returns, and the floor covers `[from, scan_from)`.
        let (Ok(proven) | Err(proven)) = scanned;
        Probe {
            start: scanned.ok(),
            learned: (proven > scan_from).then_some(proven),
        }
    }

    /// The cutoff-pruned skip-index scan behind every probe: `Ok(start)`,
    /// or `Err(bound)` with `bound >= cutoff` when no start below `bound`
    /// is feasible. Runs on a fixed [`Lane`] where the resource count has
    /// one: the scan visits hundreds of thousands of segments per
    /// scheduling run, so per-visit iterator and bounds-check overhead is
    /// measurable.
    fn scan_earliest(
        &self,
        from: Time,
        dur: Time,
        demands: &[Amount],
        cutoff: Time,
        tally: &mut ProbeTally,
    ) -> Result<Time, Time> {
        // A demand beyond this machine's own capacity never fits here (other
        // machines may still hold it — the cluster scan just skips this one).
        if demands.iter().zip(&self.cap).any(|(&d, &c)| d > c) {
            return Err(f64::INFINITY);
        }
        match demands.len() {
            1 => self.scan::<[Amount; 1]>(from, dur, demands, cutoff, tally),
            2 => self.scan::<[Amount; 2]>(from, dur, demands, cutoff, tally),
            3 => self.scan::<[Amount; 3]>(from, dur, demands, cutoff, tally),
            4 => self.scan::<[Amount; 4]>(from, dur, demands, cutoff, tally),
            _ => self.scan::<Box<[Amount]>>(from, dur, demands, cutoff, tally),
        }
    }

    /// The scan itself. The caller has rejected demands above this
    /// machine's capacity.
    fn scan<L: Lane>(
        &self,
        from: Time,
        dur: Time,
        demands: &[Amount],
        cutoff: Time,
        tally: &mut ProbeTally,
    ) -> Result<Time, Time> {
        // Free room per resource: `usage + demand > cap` iff `usage > room`
        // (exact in fixed point), saving an add per visit.
        let room = L::from_fn(demands.len(), |r| self.cap[r] - demands[r]);
        let w = room.as_slice().len();
        let n = self.times.len();
        let times = &self.times[..n];
        let usage = &self.usage[..n * w];
        let bmax = self.block_max.as_slice();
        let bmin = self.block_min.as_slice();
        let mut cand = from;
        if cand >= cutoff {
            return Err(cand);
        }
        // `cand` lands on a breakpoint after every jump, so the binary
        // search runs once and the window start `start_k` is carried from
        // there. After a hole-hop, segment `start_k - 1` (the window's first
        // segment) was just verified feasible by the advance loop, so the
        // window re-check starts one past it.
        let mut start_k = self.segment_index(cand);
        let mut block_jumps: u64 = 0;
        let result = 'outer: loop {
            let end = cand + dur;
            let mut k = start_k;
            while k < n && times[k] < end {
                // A block whose max usage leaves room holds no violating
                // segment.
                if k.is_multiple_of(BLOCK) && room.covers(row(bmax, k / BLOCK, w)) {
                    k += BLOCK;
                    block_jumps += 1;
                    continue;
                }
                if !room.covers(row(usage, k, w)) {
                    // Any start overlapping this segment is infeasible; jump
                    // past the whole violating run, giving up as soon as the
                    // run provably reaches the cutoff. The last segment is
                    // all-zero so a violating segment always has a feasible
                    // successor.
                    let mut j = k + 1;
                    loop {
                        debug_assert!(j < n, "tail segment is all-zero and must be feasible");
                        if times[j] >= cutoff {
                            break 'outer Err(times[j]);
                        }
                        // A block whose min usage leaves no room on some
                        // resource holds only violating segments.
                        if j.is_multiple_of(BLOCK) && !room.covers(row(bmin, j / BLOCK, w)) {
                            j += BLOCK;
                            block_jumps += 1;
                            continue;
                        }
                        if room.covers(row(usage, j, w)) {
                            break;
                        }
                        j += 1;
                    }
                    cand = times[j];
                    start_k = j + 1;
                    continue 'outer;
                }
                k += 1;
            }
            break 'outer Ok(cand);
        };
        tally.block_jumps += block_jumps;
        result
    }

    /// Splits segment `i` at instant `at` by inserting a breakpoint after
    /// it; the new segment inherits segment `i`'s usage. In-place tail move,
    /// no reallocation once the vectors have grown.
    fn split_segment(&mut self, i: usize, at: Time) {
        let r = self.num_resources;
        self.times.insert(i + 1, at);
        let old_len = self.usage.len();
        self.usage.resize(old_len + r, 0);
        self.usage.copy_within(i * r..old_len, (i + 1) * r);
    }

    /// Ensures `start` and `end` are breakpoints by splicing them into the
    /// existing vectors (two tail moves at most, instead of rebuilding the
    /// whole step function), and returns the segment index range `[i0, i1)`
    /// covering exactly `[start, end)`. The skip index is left to the
    /// caller: every segment from `i0` on may have moved.
    fn insert_breakpoints(&mut self, start: Time, end: Time) -> (usize, usize) {
        debug_assert!(start < end);
        let i_s = self.segment_index(start);
        let need_s = self.times[i_s] != start;
        let i_e = self.segment_index(end);
        let need_e = self.times[i_e] != end;
        let inserted = need_s as usize + need_e as usize;
        let i0 = i_s + need_s as usize;
        let i1 = i_e + inserted;
        if inserted == 0 {
            return (i0, i1);
        }
        // Split the later segment first so the earlier index stays valid.
        if need_e {
            self.split_segment(i_e, end);
        }
        if need_s {
            self.split_segment(i_s, start);
        }
        (i0, i1)
    }

    /// Adds `demands` to the usage over `[start, start + dur)`.
    ///
    /// # Panics
    ///
    /// Panics — in **every** build profile — if the result would exceed
    /// capacity on any resource: callers must check feasibility first (e.g.
    /// via [`MachineTimeline::earliest_fit`]). An over-committed timeline
    /// would silently corrupt every subsequent feasibility answer, so this
    /// is checked before any usage is modified; on panic the step function
    /// is semantically unchanged (at most already-implied breakpoints were
    /// materialized) and the skip index is exact for it.
    pub fn commit(&mut self, start: Time, dur: Time, demands: &[Amount]) {
        assert_eq!(demands.len(), self.num_resources);
        assert!(start >= 0.0 && dur > 0.0 && (start + dur).is_finite());
        let segments_before = self.times.len();
        let (i0, i1) = self.insert_breakpoints(start, start + dur);
        let inserted = self.times.len() - segments_before;
        mris_obs::counter_add("mris_timeline_commits_total", 1);
        mris_obs::counter_add("mris_timeline_commit_breakpoints_total", inserted as u64);
        // The blocks to fold, once, after the usage add: the job's, and
        // every later one when a breakpoint shifted the segments after it.
        let end = if inserted > 0 {
            self.resize_index()
        } else {
            (i1 - 1) / BLOCK + 1
        };
        let blocks = i0 / BLOCK..end;
        let r = self.num_resources;
        // One fused walk: add optimistically and, on the first violating
        // segment, roll back everything added before panicking — so the step
        // function is still semantically unchanged on panic, at half the
        // segment traffic of a separate check pass.
        let cap = &self.cap;
        let usage = &mut self.usage;
        for i in i0..i1 {
            let mut ok = true;
            for ((u, &d), &c) in usage[i * r..(i + 1) * r].iter_mut().zip(demands).zip(cap) {
                *u += d;
                ok &= *u <= c;
            }
            if !ok {
                for j in i0..=i {
                    for (u, &d) in usage[j * r..(j + 1) * r].iter_mut().zip(demands) {
                        *u -= d;
                    }
                }
                self.refold(blocks);
                panic!(
                    "timeline commit exceeds capacity in [{start}, {})",
                    start + dur
                );
            }
        }
        self.refold(blocks);
    }

    /// Drops breakpoints earlier than `horizon` whose removal does not change
    /// the step function at or after `horizon`. Bounds memory in long
    /// simulations where the past is no longer queried.
    ///
    /// After compaction, usage before the retained prefix is approximate;
    /// [`MachineTimeline::compaction_watermark`] advances to the earliest
    /// still-exact instant and queries below it are rejected in debug
    /// builds.
    pub fn compact_before(&mut self, horizon: Time) {
        let keep_from = self.segment_index(horizon.max(0.0));
        if keep_from == 0 {
            return;
        }
        self.watermark = self.watermark.max(self.times[keep_from]);
        self.times.drain(..keep_from);
        self.usage.drain(..keep_from * self.num_resources);
        // Re-anchor the first breakpoint at zero so `segment_index` stays
        // valid for any t >= 0 (usage before the watermark is now
        // approximate, which is fine: callers promise not to query it).
        self.times[0] = 0.0;
        let num_blocks = self.resize_index();
        self.refold(0..num_blocks);
    }
}

/// One cluster-level query, as the sequential sweeps see it.
#[derive(Debug, Clone, Copy)]
struct SweepQuery<'a> {
    /// Where the demand class's floor column starts in `stairs`, if the
    /// vector has a class ([`ClusterTimelines::column`]).
    column: Option<usize>,
    from: Time,
    /// Nominal work; machine `m` holds the job for `dur / speed_m`.
    dur: Time,
    demands: &'a [Amount],
}

/// Timelines for a cluster of `M` machines, one [`MachineTimeline`] each,
/// placed through one sequential cutoff-pruned sweep. Placement is a chain
/// of earliest-fit commits — each answer depends on the previous commit —
/// and floors turn most probes into O(1) rule-outs, so there is no
/// parallel scan: a pooled one measured slower than this sweep even at
/// 1,024 machines (DESIGN.md §13).
///
/// **Floor columns.** The floors live here, laid out for the sweep:
/// `speeds[m]` and `floor_base[m]` are contiguous, and class `c` owns the
/// column `stairs[c * M..(c + 1) * M]`, one [`Stair`] per machine. Ruling
/// machine `m` out reads those three entries and nothing of its timeline.
///
/// **Invariant.** For every used step `(dur, bound)` of `stairs[c * M + m]`:
/// no start in `[floor_base[m], bound)` is feasible on machine `m` for class
/// `c`'s demand vector held for `dur` wall time — and therefore for any
/// query at least as hard (same demands, `dur' >= dur`,
/// `from' >= floor_base[m]`). Three rules keep it true: `commit` only adds
/// usage, so a closed start stays closed; compaction leaves the step
/// function at or after the watermark as it was, and queries are clamped
/// there; `reset_machine` clears machine `m`'s entry in every column.
#[derive(Debug, Clone)]
pub struct ClusterTimelines {
    machines: Vec<MachineTimeline>,
    num_resources: usize,
    /// Machine probed first by the exclusive sweep to seed the pruning
    /// cutoff: one past the previous winner, i.e. the machine least
    /// recently loaded. Pure probe-order heuristic — the returned placement
    /// is independent of it.
    scan_seed: usize,
    /// The demand vectors that have a floor class, flattened `class x R`
    /// in order of first appearance (at most [`FLOOR_CLASSES`]). A class is
    /// resolved once per query, so the sweep indexes its column instead of
    /// comparing demand vectors.
    classes: Vec<Amount>,
    /// Machine `m`'s relative speed (its timeline's), so the sweep scales a
    /// duration without touching the timeline.
    speeds: Vec<f64>,
    /// The one base all of machine `m`'s floors hold from; it only rises.
    floor_base: Vec<Time>,
    /// Class-major floor columns: `stairs[c * M + m]` is class `c`'s
    /// staircase on machine `m`. A class's column is filled, empty, when
    /// the class is interned; room for all [`FLOOR_CLASSES`] is reserved
    /// up front, so no column is ever copied to grow the vector.
    stairs: Vec<Stair>,
}

impl ClusterTimelines {
    /// Empty timelines for `num_machines` reference machines with
    /// `num_resources` resources each.
    pub fn new(num_machines: usize, num_resources: usize) -> Self {
        Self::with_spec(&ClusterSpec::uniform(num_machines), num_resources)
    }

    /// Empty timelines following `spec`: machine `m` carries `spec`'s
    /// per-resource capacity and relative speed. Scans and
    /// [`ClusterTimelines::commit_job`] treat durations as *nominal work*
    /// and scale them per machine; [`ClusterTimelines::commit`] stays
    /// wall-time for occupations that do not shrink on faster machines
    /// (e.g. downtime blocks).
    pub fn with_spec(spec: &ClusterSpec, num_resources: usize) -> Self {
        assert!(!spec.is_empty());
        let machines: Vec<MachineTimeline> = (0..spec.len())
            .map(|m| {
                MachineTimeline::with_limits(
                    num_resources,
                    spec.capacity_vec(m, num_resources).into_vec(),
                    spec.speed(m),
                )
            })
            .collect();
        ClusterTimelines {
            speeds: machines.iter().map(MachineTimeline::speed).collect(),
            floor_base: vec![0.0; machines.len()],
            stairs: Vec::with_capacity(FLOOR_CLASSES * machines.len()),
            machines,
            num_resources,
            scan_seed: 0,
            classes: Vec::new(),
        }
    }

    /// Number of machines `M`.
    #[inline]
    pub fn num_machines(&self) -> usize {
        self.machines.len()
    }

    /// Access a single machine's timeline.
    #[inline]
    pub fn machine(&self, m: usize) -> &MachineTimeline {
        &self.machines[m]
    }

    /// Replaces machine `m`'s timeline with a fresh, empty one — keeping
    /// the machine's capacity and speed — and clears its entry in every
    /// floor column. Used by the fault layer when a machine fails: every
    /// commitment on it (running and planned) is invalidated at once, and
    /// the caller re-commits what should survive (e.g. a full-capacity
    /// block covering the downtime).
    pub fn reset_machine(&mut self, m: usize) {
        let tl = &mut self.machines[m];
        *tl = MachineTimeline::with_limits(self.num_resources, tl.cap.clone(), tl.speed);
        self.floor_base[m] = 0.0;
        for stair in self.stairs.iter_mut().skip(m).step_by(self.machines.len()) {
            *stair = Stair::EMPTY;
        }
    }

    /// Total segments across all machines (for diagnostics and benches).
    pub fn total_segments(&self) -> usize {
        self.machines.iter().map(|tl| tl.num_segments()).sum()
    }

    /// Does nothing: there is no parallel scan left to switch to. Kept only
    /// because the benchmark's `scan_probe` (under `benchmark/`, which is
    /// frozen until its next PR) still calls it; nothing else may.
    #[doc(hidden)]
    pub fn set_parallel_threshold(&mut self, _: usize) {}

    /// The floor class of `demands`, if the table already holds the vector.
    fn class_of(&self, demands: &[Amount]) -> FloorClass {
        assert_eq!(demands.len(), self.num_resources);
        self.classes
            .chunks_exact(self.num_resources)
            .position(|class| class == demands)
            .map(|c| c as u8)
    }

    /// [`ClusterTimelines::class_of`], giving a new vector the next free
    /// class, and an empty floor column, while the table has room.
    fn intern_class(&mut self, demands: &[Amount]) -> FloorClass {
        let known = self.class_of(demands);
        if known.is_some() || self.classes.len() == FLOOR_CLASSES * self.num_resources {
            return known;
        }
        self.classes.extend_from_slice(demands);
        self.stairs
            .resize(self.stairs.len() + self.machines.len(), Stair::EMPTY);
        Some((self.classes.len() / self.num_resources - 1) as u8)
    }

    /// Where class `class`'s floor column starts in `stairs`.
    #[inline]
    fn column(&self, class: FloorClass) -> Option<usize> {
        class.map(|c| usize::from(c) * self.machines.len())
    }

    /// The floor column `col` holds for machine `m` against a query from
    /// `from` (clamped at zero) lasting `dur` wall time: no start in
    /// `[from, bound)` is feasible, `0.0` when nothing is known. Reads no
    /// timeline, so the sweeps call it on every machine and rule out those
    /// whose bound reaches the cutoff.
    #[inline(always)]
    fn floor_for(&self, col: Option<usize>, m: usize, from: Time, dur: Time) -> Time {
        match col {
            Some(col) if from >= self.floor_base[m] => self.stairs[col + m].bound_for(dur),
            _ => 0.0,
        }
    }

    /// Machine `m`'s probe for `q`, held `dur` wall time above `floor`,
    /// then raises the machine's floors with what the scan proved: no
    /// feasible start in `[from, bound)`.
    fn probe_mut(
        &mut self,
        m: usize,
        q: &SweepQuery<'_>,
        floor: Time,
        dur: Time,
        cutoff: Time,
        tally: &mut ProbeTally,
    ) -> Option<Time> {
        let tl = &self.machines[m];
        let probe = tl.probe(floor, q.from, dur, q.demands, cutoff, tally);
        if let (Some(col), Some(bound)) = (q.column, probe.learned) {
            // One base for all of a machine's facts: a fact proven from
            // `from` holds from any later base, and the facts already
            // stored hold on the sub-range the raised base leaves them.
            let base = self.floor_base[m].max(tl.clamp_from(q.from));
            self.floor_base[m] = base;
            self.stairs[col + m].raise(dur, bound, base);
        }
        probe.start
    }

    /// Earliest `(machine, start)` with `start >= from` at which the job
    /// fits for `dur` units of *nominal work* (machine `m` occupies it for
    /// `dur / speed_m` wall time); ties on start break toward the lower
    /// machine index. Shared access reads the floors but cannot raise them.
    ///
    /// # Panics
    ///
    /// If `dur` is not positive, if a demand exceeds [`CAPACITY`], or if no
    /// machine can ever hold `demands` (every machine's capacity is
    /// exceeded on some resource) — the driver rejects such jobs up front
    /// with
    /// [`SchedulingError::UnplaceableJob`](mris_types::SchedulingError::UnplaceableJob).
    pub fn earliest_fit(&self, from: Time, dur: Time, demands: &[Amount]) -> (usize, Time) {
        let mut tally = ProbeTally::default();
        let q = SweepQuery {
            column: self.column(self.class_of(demands)),
            from,
            dur,
            demands,
        };
        assert_query(dur, demands);
        let best = self.sweep_in_order(&q, &mut tally);
        tally.publish();
        assert_placeable(best, demands);
        best
    }

    /// The cutoff-pruned sequential scan: each machine only searches below
    /// the best start found so far, and the scan stops outright once some
    /// machine fits at the floor (no later machine can strictly beat it).
    fn sweep_in_order(&self, q: &SweepQuery<'_>, tally: &mut ProbeTally) -> (usize, Time) {
        let floor = q.from.max(0.0);
        let mut best = (0usize, f64::INFINITY);
        for (m, tl) in self.machines.iter().enumerate() {
            let dur = q.dur / self.speeds[m];
            let bound = self.floor_for(q.column, m, floor, dur);
            if bound >= best.1 {
                tally.ruled_out += 1;
                continue;
            }
            if let Some(s) = tl.probe(bound, q.from, dur, q.demands, best.1, tally).start {
                best = (m, s);
                if s <= floor {
                    break;
                }
            }
        }
        best
    }

    /// The seeded sequential scan over exclusive timelines, raising each
    /// machine's floors with what its probe learned.
    ///
    /// The seed machine (one past the previous winner, so the least recently
    /// loaded) is probed first without a cutoff; its answer then prunes the
    /// in-order sweep over the rest. Machines below the current winner are
    /// probed with one ulp of cutoff slack so that an equal-start answer
    /// from a lower index survives to win the tie — the result is the
    /// lexicographic minimum of `(start, machine)` over all machines,
    /// exactly what the unseeded in-order scan returns.
    fn sweep_seeded(&mut self, q: &SweepQuery<'_>, tally: &mut ProbeTally) -> (usize, Time) {
        let floor = q.from.max(0.0);
        let num_machines = self.machines.len();
        let g = self.scan_seed.min(num_machines - 1);
        let dur_g = q.dur / self.speeds[g];
        let floor_g = self.floor_for(q.column, g, floor, dur_g);
        // A restricted seed machine can be incapable of ever holding the
        // demand (a floor at infinity, or `None` even unbounded); fall back
        // to an unseeded sweep.
        let mut best = (usize::MAX, f64::INFINITY);
        if floor_g == f64::INFINITY {
            tally.ruled_out += 1;
        } else if let Some(s_g) = self.probe_mut(g, q, floor_g, dur_g, f64::INFINITY, tally) {
            best = (g, s_g);
        }
        for m in 0..num_machines {
            // Every machine below best.0 has been probed, and no machine at
            // or above m can beat a fit at the floor (ties go lower).
            if best.1 <= floor && best.0 <= m {
                break;
            }
            if m == g {
                continue;
            }
            let cutoff = if m < best.0 { best.1.next_up() } else { best.1 };
            let dur = q.dur / self.speeds[m];
            let bound = self.floor_for(q.column, m, floor, dur);
            if bound >= cutoff {
                tally.ruled_out += 1;
                continue;
            }
            if let Some(s) = self.probe_mut(m, q, bound, dur, cutoff, tally) {
                if s < best.1 || (s == best.1 && m < best.0) {
                    best = (m, s);
                }
            }
        }
        if best.0 < num_machines {
            self.scan_seed = (best.0 + 1) % num_machines;
        }
        best
    }

    /// The earliest fit over exclusive timelines: the seeded sweep, floors
    /// raised on the way.
    fn fit_mut(
        &mut self,
        from: Time,
        dur: Time,
        demands: &[Amount],
        tally: &mut ProbeTally,
    ) -> (usize, Time) {
        let class = self.intern_class(demands);
        let q = SweepQuery {
            column: self.column(class),
            from,
            dur,
            demands,
        };
        assert_query(dur, demands);
        let best = self.sweep_seeded(&q, tally);
        assert_placeable(best, demands);
        best
    }

    /// Commits a **wall-time** occupation on a machine: `dur` is used as
    /// is, regardless of the machine's speed. For downtime blocks and other
    /// occupations whose length is not job work. Job commitments go through
    /// [`ClusterTimelines::commit_job`].
    pub fn commit(&mut self, machine: usize, start: Time, dur: Time, demands: &[Amount]) {
        self.machines[machine].commit(start, dur, demands);
    }

    /// Commits `work` units of nominal job work on `machine`, occupying it
    /// for `work / speed_m` wall time — the commit counterpart of the
    /// nominal-work `earliest_fit` family. Exact (`work / 1.0 == work`) on
    /// reference machines.
    pub fn commit_job(&mut self, machine: usize, start: Time, work: Time, demands: &[Amount]) {
        let tl = &mut self.machines[machine];
        let dur = work / tl.speed;
        tl.commit(start, dur, demands);
    }

    /// Machine `m`'s per-resource capacity vector.
    #[inline]
    pub fn capacity(&self, m: usize) -> &[Amount] {
        self.machine(m).capacity()
    }

    /// Machine `m`'s relative speed.
    #[inline]
    pub fn speed(&self, m: usize) -> f64 {
        self.machine(m).speed()
    }

    /// [`ClusterTimelines::earliest_fit`] over exclusive timelines: what
    /// the sequential sweep's probes learn raises the floors. Same answers,
    /// including the lower-machine-index tie-break.
    pub fn earliest_fit_mut(&mut self, from: Time, dur: Time, demands: &[Amount]) -> (usize, Time) {
        let mut tally = ProbeTally::default();
        let best = self.fit_mut(from, dur, demands, &mut tally);
        tally.publish();
        best
    }

    /// Places every job of `batch`, in order, at its earliest fit at or
    /// after `floor`, committing each before probing the next, and appends
    /// `(job, machine, start)` to `placements`. This is Algorithm 1's
    /// placement step as one call: the floors a job's probes raise are what
    /// the next job's probes start from, and the `mris_timeline_*` counts
    /// are published once for the whole batch. Returns the wall time the
    /// probes and the commits took, or zeros when no observability
    /// subscriber is installed (the clock is not read then).
    pub fn place_batch(
        &mut self,
        instance: &Instance,
        batch: &[JobId],
        floor: Time,
        placements: &mut Vec<(JobId, usize, Time)>,
    ) -> (Duration, Duration) {
        let timed = mris_obs::enabled();
        let (mut probe_time, mut commit_time) = (Duration::ZERO, Duration::ZERO);
        let mut tally = ProbeTally::default();
        placements.reserve(batch.len());
        for &id in batch {
            let job = instance.job(id);
            let t0 = timed.then(Instant::now);
            let (machine, start) = self.fit_mut(floor, job.proc_time, &job.demands, &mut tally);
            let t1 = timed.then(Instant::now);
            self.commit_job(machine, start, job.proc_time, &job.demands);
            if let (Some(t0), Some(t1)) = (t0, t1) {
                probe_time += t1 - t0;
                commit_time += t1.elapsed();
            }
            placements.push((id, machine, start));
        }
        tally.publish();
        (probe_time, commit_time)
    }

    /// Compacts every machine's timeline before `horizon` (see
    /// [`MachineTimeline::compact_before`]). Callers promise that no future
    /// query or commit looks below `horizon`; MRIS upholds this because both
    /// only ever happen at or after the current grid point `gamma_k`, which
    /// is monotone.
    pub fn compact_before(&mut self, horizon: Time) {
        for tl in &mut self.machines {
            tl.compact_before(horizon);
        }
    }

    /// The latest committed breakpoint across machines — an upper bound on
    /// the makespan of everything committed so far.
    pub fn horizon(&self) -> Time {
        self.machines
            .iter()
            .map(|tl| *tl.times.last().unwrap())
            .fold(0.0, f64::max)
    }
}

/// The committed step function: the watermark, the breakpoint count, the
/// breakpoints' bits, then the usage. The skip index is derived, so it is
/// not written and two timelines with the same committed load encode
/// alike. The context is the machine's `(capacity, speed)`. The decoder
/// checks the type's invariants — breakpoints finite and strictly
/// increasing from `0.0`, usage within the capacity, an idle last
/// segment — so every query on the result terminates as on a committed one.
impl Codec for MachineTimeline {
    type Context<'a> = (&'a [Amount], f64);

    fn encode(&self, e: &mut Encoder) {
        e.f64(self.watermark);
        e.u64(self.times.len() as u64);
        for &t in &self.times {
            e.f64(t);
        }
        for &u in &self.usage {
            e.u64(u);
        }
    }

    fn decode(d: &mut Decoder<'_>, (cap, speed): (&[Amount], f64)) -> Result<Self, CodecError> {
        let r = cap.len();
        let watermark = d.f64()?;
        if !(watermark.is_finite() && watermark >= 0.0) {
            return Err(d.malformed(format!("timeline watermark {watermark} is invalid")));
        }
        let count = d.count(8 + 8 * r)?;
        let mut times = Vec::with_capacity(count);
        for _ in 0..count {
            let t = d.f64()?;
            let ordered = match times.last() {
                None => t.to_bits() == 0.0f64.to_bits(),
                Some(&prev) => t > prev && t.is_finite(),
            };
            if !ordered {
                return Err(
                    d.malformed("timeline breakpoints are not finite and increasing from 0")
                );
            }
            times.push(t);
        }
        let mut usage = Vec::with_capacity(count * r);
        for _ in 0..count {
            for &c in cap {
                let u = d.u64()?;
                if u > c {
                    return Err(d.malformed("timeline usage exceeds machine capacity"));
                }
                usage.push(u);
            }
        }
        if times.is_empty() || usage[usage.len() - r..].iter().any(|&u| u != 0) {
            return Err(d.malformed("timeline does not end idle"));
        }
        let mut tl = MachineTimeline::with_limits(r, cap.to_vec(), speed);
        tl.watermark = watermark;
        tl.times = times;
        tl.usage = usage;
        let num_blocks = tl.resize_index();
        tl.refold(0..num_blocks);
        Ok(tl)
    }
}

/// The machine and resource counts, a frozen `64` (once the shard size,
/// kept so snapshots keep their bytes), every machine's timeline, and —
/// **only for non-uniform clusters**, as before heterogeneity existed —
/// the machine table (capacities, speed bits). The scan seed and floors
/// never change an answer, so they are not written and start empty. The
/// context is the `(spec, resources)` the cluster was built with; the
/// counts and the table must be its own.
impl Codec for ClusterTimelines {
    type Context<'a> = (&'a ClusterSpec, usize);

    fn encode(&self, e: &mut Encoder) {
        e.u64(self.machines.len() as u64);
        e.u64(self.num_resources as u64);
        e.u64(64);
        for tl in &self.machines {
            tl.encode(e);
        }
        if !self.machines.iter().all(MachineTimeline::is_unit_machine) {
            for tl in &self.machines {
                for &c in &tl.cap {
                    e.u64(c);
                }
                e.f64(tl.speed);
            }
        }
    }

    fn decode(d: &mut Decoder<'_>, (spec, r): (&ClusterSpec, usize)) -> Result<Self, CodecError> {
        let mut cluster = ClusterTimelines::with_spec(spec, r);
        d.expect_count(cluster.machines.len(), "timeline machine count")?;
        d.expect_count(r, "timeline resource count")?;
        d.expect_count(64, "timeline layout word")?;
        for tl in &mut cluster.machines {
            *tl = MachineTimeline::decode(d, (&tl.cap, tl.speed))?;
        }
        if !cluster
            .machines
            .iter()
            .all(MachineTimeline::is_unit_machine)
        {
            for tl in &cluster.machines {
                for &c in &tl.cap {
                    if d.u64()? != c {
                        return Err(d.malformed("machine capacities differ from this cluster's"));
                    }
                }
                if d.u64()? != tl.speed.to_bits() {
                    return Err(d.malformed("machine speeds differ from this cluster's"));
                }
            }
        }
        Ok(cluster)
    }
}

/// The checks every query gets in every build profile, once, before any
/// machine is ruled out or scanned: a job of no length, or one that no
/// machine of any capacity can hold, has no earliest fit.
fn assert_query(dur: Time, demands: &[Amount]) {
    assert!(dur > 0.0, "job duration must be positive");
    assert!(
        demands.iter().all(|&d| d <= CAPACITY),
        "demand exceeds machine capacity; job can never fit"
    );
}

/// A cluster scan that ends without a finite start means no machine's
/// capacity holds `demands`; committing the sentinel would index out of
/// bounds in release builds, so this holds in every profile.
fn assert_placeable(best: (usize, Time), demands: &[Amount]) {
    assert!(
        best.1.is_finite(),
        "no machine can ever hold demand vector {demands:?}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use mris_types::amount_from_fraction as amt;

    fn d(fracs: &[f64]) -> Vec<Amount> {
        fracs.iter().copied().map(amt).collect()
    }

    /// Whether `demands` fit throughout `[start, start + dur)`: the scan,
    /// cut off one ulp past `start`, finds `start` itself.
    fn fits(tl: &MachineTimeline, start: Time, dur: Time, demands: &[Amount]) -> bool {
        tl.earliest_fit_bounded(start, dur, demands, start.next_up()) == Some(start)
    }

    #[test]
    fn empty_timeline_fits_anywhere() {
        let tl = MachineTimeline::new(2);
        assert_eq!(tl.earliest_fit(0.0, 5.0, &d(&[1.0, 1.0])), 0.0);
        assert_eq!(tl.earliest_fit(3.5, 5.0, &d(&[1.0, 1.0])), 3.5);
        assert!(fits(&tl, 0.0, 100.0, &d(&[1.0, 1.0])));
    }

    #[test]
    fn commit_blocks_overlapping_full_demand() {
        let mut tl = MachineTimeline::new(1);
        tl.commit(2.0, 3.0, &d(&[0.6]));
        // A 0.5-demand job cannot overlap [2, 5).
        assert_eq!(tl.earliest_fit(0.0, 3.0, &d(&[0.5])), 5.0);
        // But a 2-long job fits before, exactly in [0, 2).
        assert_eq!(tl.earliest_fit(0.0, 2.0, &d(&[0.5])), 0.0);
        // And a 0.4-demand job can share the interval.
        assert_eq!(tl.earliest_fit(0.0, 10.0, &d(&[0.4])), 0.0);
    }

    #[test]
    fn earliest_fit_finds_gap_between_commitments() {
        let mut tl = MachineTimeline::new(1);
        tl.commit(0.0, 2.0, &d(&[0.9]));
        tl.commit(5.0, 2.0, &d(&[0.9]));
        // Gap [2, 5) holds a 3-long job but not a 4-long one.
        assert_eq!(tl.earliest_fit(0.0, 3.0, &d(&[0.5])), 2.0);
        assert_eq!(tl.earliest_fit(0.0, 4.0, &d(&[0.5])), 7.0);
    }

    #[test]
    fn usage_accumulates_and_splits_segments() {
        let mut tl = MachineTimeline::new(2);
        tl.commit(1.0, 4.0, &d(&[0.3, 0.1]));
        tl.commit(2.0, 1.0, &d(&[0.2, 0.0]));
        assert_eq!(tl.usage_at(0.5), &d(&[0.0, 0.0])[..]);
        assert_eq!(tl.usage_at(1.5), &d(&[0.3, 0.1])[..]);
        assert_eq!(tl.usage_at(2.5), &d(&[0.5, 0.1])[..]);
        assert_eq!(tl.usage_at(3.5), &d(&[0.3, 0.1])[..]);
        assert_eq!(tl.usage_at(10.0), &d(&[0.0, 0.0])[..]);
    }

    #[test]
    fn exact_capacity_packing_is_feasible() {
        let mut tl = MachineTimeline::new(1);
        tl.commit(0.0, 5.0, &d(&[0.5]));
        assert!(fits(&tl, 0.0, 5.0, &d(&[0.5])));
        assert!(!fits(&tl, 0.0, 5.0, &[amt(0.5) + 1]));
        // Earliest fit for the over-half job is when the first one ends.
        assert_eq!(tl.earliest_fit(0.0, 1.0, &[amt(0.5) + 1]), 5.0);
    }

    #[test]
    fn cluster_picks_earliest_machine_with_tie_break() {
        let mut cl = ClusterTimelines::new(2, 1);
        cl.commit(0, 0.0, 4.0, &d(&[1.0]));
        // Machine 1 is empty: job goes there at time 0.
        assert_eq!(cl.earliest_fit(0.0, 2.0, &d(&[0.7])), (1, 0.0));
        cl.commit(1, 0.0, 2.0, &d(&[1.0]));
        // Now machine 1 frees at 2, machine 0 at 4.
        assert_eq!(cl.earliest_fit(0.0, 1.0, &d(&[0.7])), (1, 2.0));
        // Tie at time 4+ (both empty): lower machine index wins.
        assert_eq!(cl.earliest_fit(4.0, 1.0, &d(&[1.0])), (0, 4.0));
    }

    /// `instance`'s jobs placed as one batch at floor 0.
    fn place_all(cl: &mut ClusterTimelines, instance: &Instance) -> Vec<(JobId, usize, Time)> {
        let batch: Vec<JobId> = instance.jobs().iter().map(|j| j.id).collect();
        let mut placements = Vec::new();
        cl.place_batch(instance, &batch, 0.0, &mut placements);
        placements
    }

    #[test]
    fn place_batch_commits_each_job() {
        use mris_types::Job;
        let mut cl = ClusterTimelines::new(1, 1);
        let j = |id| Job::from_fractions(JobId(id), 0.0, 3.0, 1.0, &[0.8]);
        let instance = Instance::new(vec![j(0), j(1)], 1).unwrap();
        assert_eq!(
            place_all(&mut cl, &instance),
            [(JobId(0), 0, 0.0), (JobId(1), 0, 3.0)]
        );
        assert_eq!(cl.horizon(), 6.0);
    }

    #[test]
    fn reset_machine_clears_only_that_machine() {
        let mut cl = ClusterTimelines::new(2, 1);
        cl.commit(0, 0.0, 4.0, &d(&[1.0]));
        cl.commit(1, 0.0, 6.0, &d(&[1.0]));
        cl.reset_machine(0);
        // Machine 0 is empty again; machine 1 keeps its commitment.
        assert_eq!(cl.machine(0).num_segments(), 1);
        assert_eq!(cl.earliest_fit(0.0, 2.0, &d(&[1.0])), (0, 0.0));
        assert_eq!(cl.machine(1).usage_at(3.0), &d(&[1.0])[..]);
        // A fresh commit (e.g. a downtime block) works on the reset machine.
        cl.commit(0, 1.0, 2.0, &d(&[1.0]));
        assert_eq!(cl.machine(0).usage_at(1.5), &d(&[1.0])[..]);
    }

    #[test]
    fn backfill_before_later_commitment() {
        // A later commitment far in the future leaves the near past open.
        let mut tl = MachineTimeline::new(1);
        tl.commit(100.0, 10.0, &d(&[1.0]));
        assert_eq!(tl.earliest_fit(3.0, 5.0, &d(&[1.0])), 3.0);
        // A job longer than the gap has to wait until after the block.
        assert_eq!(tl.earliest_fit(3.0, 98.0, &d(&[1.0])), 110.0);
    }

    #[test]
    #[should_panic(expected = "demand exceeds machine capacity")]
    fn earliest_fit_rejects_impossible_demand() {
        let tl = MachineTimeline::new(1);
        let _ = tl.earliest_fit(0.0, 1.0, &[CAPACITY + 1]);
    }

    #[test]
    fn compact_preserves_future() {
        let mut tl = MachineTimeline::new(1);
        tl.commit(0.0, 1.0, &d(&[0.5]));
        tl.commit(2.0, 3.0, &d(&[0.5]));
        tl.commit(10.0, 1.0, &d(&[1.0]));
        let before = tl.earliest_fit(10.0, 2.0, &d(&[0.6]));
        tl.compact_before(9.0);
        assert_eq!(tl.earliest_fit(10.0, 2.0, &d(&[0.6])), before);
        assert!(tl.num_segments() <= 4);
    }

    #[test]
    fn compaction_advances_the_watermark() {
        let mut tl = MachineTimeline::new(1);
        assert_eq!(tl.compaction_watermark(), 0.0);
        tl.commit(1.0, 2.0, &d(&[0.5]));
        tl.commit(4.0, 2.0, &d(&[0.5]));
        tl.compact_before(5.0);
        // The kept segment starts at the last breakpoint <= 5, i.e. 4.0.
        assert_eq!(tl.compaction_watermark(), 4.0);
        // Queries at or after the watermark remain exact.
        assert_eq!(tl.usage_at(4.5), &d(&[0.5])[..]);
        assert_eq!(tl.earliest_fit(4.0, 3.0, &d(&[0.6])), 6.0);
        // Compacting below the watermark never regresses it.
        tl.compact_before(0.0);
        assert_eq!(tl.compaction_watermark(), 4.0);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "compacted away")]
    fn pre_watermark_usage_query_is_rejected_in_debug() {
        let mut tl = MachineTimeline::new(1);
        tl.commit(1.0, 2.0, &d(&[0.5]));
        tl.commit(5.0, 2.0, &d(&[0.5]));
        tl.compact_before(6.0);
        let _ = tl.usage_at(0.5);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "compacted away")]
    fn pre_watermark_earliest_fit_is_rejected_in_debug() {
        let mut tl = MachineTimeline::new(1);
        tl.commit(1.0, 2.0, &d(&[0.5]));
        tl.commit(5.0, 2.0, &d(&[0.5]));
        tl.compact_before(6.0);
        let _ = tl.earliest_fit(0.0, 1.0, &d(&[0.1]));
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn pre_watermark_earliest_fit_clamps_in_release() {
        let mut tl = MachineTimeline::new(1);
        tl.commit(1.0, 2.0, &d(&[0.5]));
        tl.commit(5.0, 2.0, &d(&[0.5]));
        tl.compact_before(6.0);
        assert_eq!(tl.compaction_watermark(), 5.0);
        // Compaction folded history into the retained prefix, which a
        // pre-watermark query would scan as if it were exact: without the
        // clamp this answers 0.0, a start in history that no longer
        // exists. The contract says answers never precede the watermark.
        assert_eq!(tl.earliest_fit(0.0, 1.0, &d(&[0.1])), 5.0);
        assert_eq!(
            tl.earliest_fit_bounded(0.0, 1.0, &d(&[0.1]), f64::INFINITY),
            Some(5.0)
        );
    }

    #[test]
    #[should_panic(expected = "exceeds capacity")]
    fn commit_capacity_check_holds_in_every_profile() {
        // No debug_assert here: an over-commit must abort in --release too.
        let mut tl = MachineTimeline::new(1);
        tl.commit(0.0, 4.0, &d(&[0.7]));
        tl.commit(1.0, 2.0, &d(&[0.7]));
    }

    #[test]
    fn skip_index_survives_many_fragmented_commits() {
        // Enough commits to span several BLOCK-sized index blocks, with
        // answers checked against fresh rebuilt timelines along the way.
        let mut tl = MachineTimeline::new(2);
        for i in 0..(3 * BLOCK) {
            let start = (i * 2) as f64 + 0.5;
            tl.commit(start, 1.0, &d(&[0.8, 0.3]));
        }
        assert!(tl.num_segments() > 2 * BLOCK);
        // The gaps between commits are exactly 1 long: a 1-long 0.5-demand
        // job fits in the first inter-commit gap, a 1.5-long one only after
        // the last commitment.
        assert_eq!(tl.earliest_fit(0.0, 1.0, &d(&[0.5, 0.5])), 1.5);
        let last_end = ((3 * BLOCK - 1) * 2) as f64 + 1.5;
        assert_eq!(tl.earliest_fit(0.6, 1.5, &d(&[0.5, 0.5])), last_end);
    }

    /// Class `class`'s stored bound for a query lasting `dur` on machine
    /// `m`, read straight from its floor column.
    fn bound(cl: &ClusterTimelines, class: FloorClass, m: usize, dur: Time) -> Time {
        let col = cl.column(class).expect("the vector has a class");
        cl.stairs[col + m].bound_for(dur)
    }

    #[test]
    fn floors_outlive_commit_and_compaction_and_die_with_reset() {
        let mut cl = ClusterTimelines::new(1, 1);
        cl.commit(0, 0.0, 4.0, &d(&[0.8]));
        let demand = d(&[0.5]);
        assert_eq!(cl.earliest_fit_mut(0.0, 2.0, &demand), (0, 4.0));
        let class = cl.class_of(&demand);
        assert_eq!(class, Some(0), "the first vector gets the first class");
        assert_eq!(cl.stairs.len(), cl.num_machines(), "one column");
        // Learned: nothing at least 2 long starts before 4. Longer queries
        // inherit the bound, shorter ones do not.
        assert_eq!(bound(&cl, class, 0, 2.0), 4.0);
        assert_eq!(bound(&cl, class, 0, 7.0), 4.0);
        assert_eq!(bound(&cl, class, 0, 1.0), 0.0);
        // A commit over the old answer's window leaves the bound in place;
        // the next probe starts there and raises it.
        cl.commit(0, 4.0, 2.0, &d(&[0.8]));
        assert_eq!(bound(&cl, class, 0, 2.0), 4.0);
        assert_eq!(cl.earliest_fit_mut(0.0, 2.0, &demand), (0, 6.0));
        assert_eq!(bound(&cl, class, 0, 2.0), 6.0);
        // Compaction keeps it, and clones carry the columns.
        cl.compact_before(5.0);
        assert_eq!(bound(&cl, class, 0, 2.0), 6.0);
        assert_eq!(bound(&cl.clone(), class, 0, 2.0), 6.0);
        // The sweep reads the floor from the column (a query at least as
        // hard gets it, an easier one or one without a class does not) and
        // hands it to the timeline's probe, which scans from there.
        assert_eq!(cl.floor_for(cl.column(class), 0, 4.0, 3.0), 6.0);
        assert_eq!(cl.floor_for(cl.column(class), 0, 4.0, 1.0), 0.0);
        assert_eq!(cl.floor_for(None, 0, 4.0, 3.0), 0.0);
        let mut tally = ProbeTally::default();
        let probe = cl.machine(0).probe(6.0, 4.0, 3.0, &demand, 9.0, &mut tally);
        assert_eq!((probe.start, probe.learned), (Some(6.0), None));
        assert_eq!((tally.ruled_out, tally.scanned), (0, 1));
        // Shared access reads the floors without raising them.
        cl.commit(0, 6.0, 1.0, &d(&[0.8]));
        assert_eq!(cl.earliest_fit(4.0, 2.0, &demand), (0, 7.0));
        assert_eq!(bound(&cl, class, 0, 2.0), 6.0);
        // A failed machine starts over with no floors.
        cl.reset_machine(0);
        assert_eq!(bound(&cl, class, 0, 2.0), 0.0);
        assert_eq!(cl.floor_base[0], 0.0);
        assert_eq!(cl.earliest_fit_mut(0.0, 2.0, &demand), (0, 0.0));
    }

    #[test]
    fn reset_clears_only_that_machines_floors() {
        let mut cl = ClusterTimelines::new(3, 1);
        let (a, b) = (d(&[0.5]), d(&[0.7]));
        for m in 0..3 {
            cl.commit(m, 0.0, 4.0 + m as f64, &d(&[0.6]));
        }
        // Two classes, and floors for both on every machine: each machine
        // is probed (the earliest fit is on machine 0, found last).
        assert_eq!(cl.earliest_fit_mut(0.0, 2.0, &a), (0, 4.0));
        assert_eq!(cl.earliest_fit_mut(0.0, 2.0, &b), (0, 4.0));
        let (ca, cb) = (cl.class_of(&a), cl.class_of(&b));
        assert_eq!((ca, cb), (Some(0), Some(1)));
        assert_eq!(cl.stairs.len(), 2 * cl.num_machines(), "two columns");
        let bounds = |cl: &ClusterTimelines, class| -> Vec<Time> {
            (0..3).map(|m| bound(cl, class, m, 2.0)).collect()
        };
        assert_eq!(bounds(&cl, ca), [4.0, 5.0, 6.0]);
        assert_eq!(bounds(&cl, cb), [4.0, 5.0, 6.0]);
        // Machine 1 fails: its entry goes in both columns, machines 0 and 2
        // keep theirs.
        cl.reset_machine(1);
        assert_eq!(bounds(&cl, ca), [4.0, 0.0, 6.0]);
        assert_eq!(bounds(&cl, cb), [4.0, 0.0, 6.0]);
        assert_eq!(cl.floor_base, [0.0; 3]);
        // A class interned after the reset starts empty on every machine.
        let c = d(&[0.2]);
        assert_eq!(cl.earliest_fit_mut(0.0, 1.0, &c), (0, 0.0));
        let cc = cl.class_of(&c);
        assert_eq!(cc, Some(2));
        assert_eq!(bounds(&cl, cc), [0.0; 3]);
        assert_eq!(cl.stairs.len(), 3 * cl.num_machines());
    }

    #[test]
    fn staircase_keeps_the_widest_steps() {
        let mut stair = Stair::EMPTY;
        stair.raise(4.0, 10.0, 0.0);
        stair.raise(2.0, 7.0, 0.0);
        assert_eq!(stair.steps, [(2.0, 7.0), (4.0, 10.0)]);
        // Already implied by the (2, 7) step: nothing changes.
        stair.raise(3.0, 5.0, 0.0);
        assert_eq!(stair.steps, [(2.0, 7.0), (4.0, 10.0)]);
        // A shorter query with a later bound replaces the step it covers.
        stair.raise(3.0, 12.0, 0.0);
        assert_eq!(stair.steps, [(2.0, 7.0), (3.0, 12.0)]);
        // Overflow: (3, 12) adds 5 over its predecessor, (2, 7) adds 7 over
        // the base and (8, 30) adds 18, so (3, 12) goes.
        stair.raise(8.0, 30.0, 0.0);
        assert_eq!(stair.steps, [(2.0, 7.0), (8.0, 30.0)]);
        assert_eq!(stair.bound_for(7.0), 7.0);
        assert_eq!(stair.bound_for(1.0), 0.0);
        // With the base raised past it, the first step is the cheap one.
        stair.raise(5.0, 20.0, 6.5);
        assert_eq!(stair.steps, [(5.0, 20.0), (8.0, 30.0)]);
        // "Never fits" covers every longer step.
        stair.raise(1.0, f64::INFINITY, 6.5);
        assert_eq!(stair.steps, [(1.0, f64::INFINITY), Stair::UNUSED]);
    }

    #[test]
    fn bounded_scan_prunes_but_never_lies() {
        let mut tl = MachineTimeline::new(1);
        tl.commit(0.0, 10.0, &d(&[0.9]));
        let probe = d(&[0.5]);
        assert_eq!(tl.earliest_fit_bounded(0.0, 1.0, &probe, 20.0), Some(10.0));
        assert_eq!(tl.earliest_fit_bounded(0.0, 1.0, &probe, 10.0), None);
        assert_eq!(tl.earliest_fit_bounded(0.0, 1.0, &probe, 5.0), None);
        // The None above must not have poisoned the cache.
        assert_eq!(tl.earliest_fit(0.0, 1.0, &probe), 10.0);
    }

    #[test]
    fn fast_machine_wins_long_jobs() {
        use mris_types::{ClusterSpec, Job};
        // Machine 1 runs at speed 2: nominal work 4 occupies 2 wall time.
        let spec = ClusterSpec::related(2, &[1.0, 2.0]);
        let mut cl = ClusterTimelines::with_spec(&spec, 1);
        let j = |id| Job::from_fractions(JobId(id), 0.0, 4.0, 1.0, &[1.0]);
        let instance = Instance::new(vec![j(0), j(1)], 1).unwrap();
        // The first job takes machine 0 and the second the fast machine,
        // both at 0.
        assert_eq!(
            place_all(&mut cl, &instance),
            [(JobId(0), 0, 0.0), (JobId(1), 1, 0.0)]
        );
        // Machine 0 is busy until 4; machine 1 until 2 — next full-demand
        // job starts on the fast machine at 2.
        assert_eq!(cl.earliest_fit(0.0, 4.0, &d(&[1.0])), (1, 2.0));
        assert_eq!(cl.horizon(), 4.0);
    }

    #[test]
    fn restricted_machine_is_skipped_not_fatal() {
        use mris_types::{ClusterSpec, MachineSpec};
        let spec = ClusterSpec::new(vec![
            MachineSpec::from_fractions(1.0, &[0.5]),
            MachineSpec::unit(),
        ]);
        let mut cl = ClusterTimelines::with_spec(&spec, 1);
        // 0.6 demand exceeds machine 0's cap; the scan lands on machine 1.
        assert_eq!(cl.earliest_fit(0.0, 2.0, &d(&[0.6])), (1, 0.0));
        assert_eq!(cl.earliest_fit_mut(0.0, 2.0, &d(&[0.6])), (1, 0.0));
        // The restricted machine still takes what it can hold.
        assert_eq!(cl.earliest_fit(0.0, 2.0, &d(&[0.4])), (0, 0.0));
        // Per-machine feasibility on the restricted machine uses its cap.
        cl.commit(0, 0.0, 2.0, &d(&[0.3]));
        assert!(!fits(cl.machine(0), 0.0, 1.0, &d(&[0.4])));
        assert!(fits(cl.machine(0), 0.0, 1.0, &d(&[0.2])));
    }

    #[test]
    fn reset_machine_preserves_limits() {
        use mris_types::ClusterSpec;
        let spec = ClusterSpec::related(2, &[1.0, 4.0]);
        let mut cl = ClusterTimelines::with_spec(&spec, 1);
        cl.commit_job(1, 0.0, 8.0, &d(&[1.0]));
        assert_eq!(cl.machine(1).earliest_fit(0.0, 1.0, &d(&[1.0])), 2.0);
        cl.reset_machine(1);
        assert_eq!(cl.speed(1), 4.0);
        // The reset machine still scales nominal work by its speed: 8 units
        // of work occupy the speed-4 machine for only 2 wall time.
        cl.commit(0, 0.0, 1.0, &d(&[1.0]));
        assert_eq!(cl.earliest_fit(0.0, 8.0, &d(&[1.0])), (1, 0.0));
        cl.commit_job(1, 0.0, 8.0, &d(&[1.0]));
        assert_eq!(cl.machine(1).earliest_fit(0.0, 1.0, &d(&[1.0])), 2.0);
    }

    #[test]
    fn uniform_durable_bytes_have_no_machine_table() {
        use mris_types::ClusterSpec;
        let encode = |cluster: ClusterTimelines| {
            let mut e = Encoder::new();
            cluster.encode(&mut e);
            e.into_bytes()
        };
        let via_new = encode(ClusterTimelines::new(3, 2));
        let via_spec = encode(ClusterTimelines::with_spec(&ClusterSpec::uniform(3), 2));
        assert_eq!(via_new, via_spec);
        let het = encode(ClusterTimelines::with_spec(
            &ClusterSpec::related(3, &[2.0]),
            2,
        ));
        assert!(het.len() > via_new.len());
    }
}

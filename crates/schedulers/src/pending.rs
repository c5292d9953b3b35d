//! The demand-class index behind the baselines' pending queues.
//!
//! Pending jobs are grouped by demand vector (exact `Amount` ticks), one
//! key-ordered queue per distinct vector. Two facts make the grouping pay:
//!
//! 1. **A class fits where its vector fits.** Every job of a class has the
//!    same demands, so one fit check answers for all of them.
//! 2. **Within one dispatch, capacity only shrinks.** `Dispatcher::place`
//!    only starts jobs, so a class that fits none of the machines it may use
//!    at some point of a dispatch fits none of them for the rest of it.
//!
//! So PQ's event ([`PendingIndex::dispatch`]) visits the heads of the classes
//! that can still fit instead of every pending job, and BF-EXEC's departure
//! rule ([`PendingIndex::backfill`]) compares class heads instead of jobs.
//! A class is dropped as soon as its queue empties, so the per-event cost
//! tracks the number of non-empty classes. When every job has its own
//! vector that is the queue length again, which is the worst case.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use mris_sim::{Dispatcher, OrdTime};
use mris_types::{Amount, Codec, CodecError, Decoder, Encoder, Instance, JobId, SchedulingError};

/// Appends a count-prefixed list of job ids.
pub(crate) fn encode_jobs(e: &mut Encoder, jobs: impl ExactSizeIterator<Item = JobId>) {
    e.u64(jobs.len() as u64);
    for j in jobs {
        e.u32(j.0);
    }
}

/// Reads a count-prefixed list of job ids with [`Decoder::unique_job`].
pub(crate) fn decode_jobs(
    d: &mut Decoder<'_>,
    seen: &mut [bool],
) -> Result<Vec<JobId>, CodecError> {
    (0..d.count(4)?).map(|_| d.unique_job(seen)).collect()
}

/// A pending job with its queue key; queues order by `(key, id)`.
pub(crate) type Entry = (OrdTime, JobId);

/// Pending jobs grouped into demand classes. Class `c` is `queues[c]`, never
/// empty, smallest `(key, id)` first, with vector
/// `vectors[c * width..(c + 1) * width]`; `lookup` maps each vector to its
/// class. The vectors sit in one flat `Vec` because the fit scan at the
/// start of every dispatch reads all of them.
#[derive(Debug, Clone, Default)]
pub(crate) struct PendingIndex {
    width: usize,
    vectors: Vec<Amount>,
    queues: Vec<BinaryHeap<Reverse<Entry>>>,
    lookup: HashMap<Box<[Amount]>, usize>,
    len: usize,
    /// Per-dispatch buffers, kept to reuse their allocations.
    scratch: Scratch,
}

#[derive(Debug, Clone, Default)]
struct Scratch {
    /// `(head, class)` of the classes that may still place this dispatch.
    live: Vec<(Entry, usize)>,
    /// Fresh jobs that fit nowhere, queued when the dispatch ends.
    unplaced: Vec<Entry>,
    /// Classes emptied by this dispatch, dropped when it ends.
    emptied: Vec<usize>,
}

impl PendingIndex {
    /// Number of pending jobs.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Queues `entry`, whose job demands `demands`.
    pub(crate) fn insert(&mut self, entry: Entry, demands: &[Amount]) {
        let c = match self.lookup.get(demands) {
            Some(&c) => c,
            None => {
                self.width = demands.len();
                self.vectors.extend_from_slice(demands);
                self.queues.push(BinaryHeap::new());
                self.lookup.insert(demands.into(), self.queues.len() - 1);
                self.queues.len() - 1
            }
        };
        self.queues[c].push(Reverse(entry));
        self.len += 1;
    }

    fn vector(&self, c: usize) -> &[Amount] {
        &self.vectors[c * self.width..(c + 1) * self.width]
    }

    /// `(head, class)` of every class whose vector passes `fits`.
    fn heads_where<'s>(
        &'s self,
        fits: impl Fn(&[Amount]) -> bool + 's,
    ) -> impl Iterator<Item = (Entry, usize)> + 's {
        // `width` is 0 until the first insert, and `chunks_exact` needs 1.
        self.vectors
            .chunks_exact(self.width.max(1))
            .zip(&self.queues)
            .enumerate()
            .filter(move |(_, (v, _))| fits(v))
            .map(|(c, (_, q))| (q.peek().expect("an indexed class is never empty").0, c))
    }

    /// Starts the head of class `c` on `m` and pops it, returning the
    /// class's next head, or `None` when the class is now empty (the caller
    /// drops it).
    fn start_head(
        &mut self,
        d: &mut Dispatcher<'_>,
        c: usize,
        m: usize,
    ) -> Result<Option<Entry>, SchedulingError> {
        let queue = &mut self.queues[c];
        let Reverse((_, j)) = *queue.peek().expect("an indexed class is never empty");
        d.place(m, j)?;
        queue.pop();
        self.len -= 1;
        Ok(queue.peek().map(|r| r.0))
    }

    /// Drops class `c`, which is empty, moving the last class into its slot.
    fn drop_class(&mut self, c: usize) {
        debug_assert!(self.queues[c].is_empty());
        let w = self.width;
        self.lookup.remove(&self.vectors[c * w..(c + 1) * w]);
        self.queues.swap_remove(c);
        let last = self.queues.len();
        if c < last {
            self.vectors.copy_within(last * w..(last + 1) * w, c * w);
            let moved = self.lookup.get_mut(&self.vectors[c * w..(c + 1) * w]);
            *moved.expect("every class is indexed") = c;
        }
        self.vectors.truncate(last * w);
    }

    /// One PQ event (Section 4): visits the pending jobs and `fresh` (this
    /// event's arrivals, sorted by `(key, id)`) in `(key, id)` order and
    /// starts each one that fits. A pending job was infeasible everywhere at
    /// the previous event, and only `freed` (sorted) gained capacity since,
    /// so it tries those machines in order; a fresh job takes its first fit
    /// over all machines. Fresh jobs that do not fit are queued afterwards,
    /// so each job is visited once.
    ///
    /// Only the classes fitting some freed machine at the start can place
    /// (fact 2), so they are collected once. In `(key, id)` order the next
    /// pending job to start is then the smallest head among those classes
    /// that still fit, and classes that no longer fit are done for this
    /// event; one pass over the collected classes finds it, and is repeated
    /// only after a placement changed the capacity.
    pub(crate) fn dispatch(
        &mut self,
        d: &mut Dispatcher<'_>,
        freed: &[usize],
        fresh: &[Entry],
    ) -> Result<(), SchedulingError> {
        let mut s = std::mem::take(&mut self.scratch);
        let result = self.merge(d, freed, fresh, &mut s);
        // Highest first: `drop_class` moves the last class into the freed
        // slot, which must not be one still to be dropped.
        s.emptied.sort_unstable_by(|a, b| b.cmp(a));
        for &c in &s.emptied {
            self.drop_class(c);
        }
        let instance = d.instance();
        for &(key, j) in &s.unplaced {
            self.insert((key, j), &instance.job(j).demands);
        }
        s.live.clear();
        s.unplaced.clear();
        s.emptied.clear();
        self.scratch = s;
        result
    }

    fn merge(
        &mut self,
        d: &mut Dispatcher<'_>,
        freed: &[usize],
        fresh: &[Entry],
        s: &mut Scratch,
    ) -> Result<(), SchedulingError> {
        if !freed.is_empty() {
            let cluster = d.cluster();
            s.live
                .extend(self.heads_where(|v| freed.iter().any(|&m| cluster.fits(m, v))));
        }
        let instance = d.instance();
        let mut fi = 0;
        let mut best = self.smallest_fitting(d, freed, &mut s.live);
        loop {
            let next_fresh = fresh.get(fi).copied();
            let take_class = match (best, next_fresh) {
                (None, None) => return Ok(()),
                (Some(b), Some(f)) => s.live[b].0 < f,
                (Some(_), None) => true,
                (None, Some(_)) => false,
            };
            if take_class {
                let b = best.expect("take_class implies a class");
                let c = s.live[b].1;
                let v = self.vector(c);
                let m = freed
                    .iter()
                    .copied()
                    .find(|&m| d.cluster().fits(m, v))
                    .expect("the smallest fitting class fits a freed machine");
                match self.start_head(d, c, m)? {
                    Some(next) => s.live[b].0 = next,
                    None => {
                        s.live.swap_remove(b);
                        s.emptied.push(c);
                    }
                }
            } else {
                let (key, j) = next_fresh.expect("!take_class implies a fresh job");
                fi += 1;
                match d.cluster().first_fit(&instance.job(j).demands) {
                    Some(m) => d.place(m, j)?,
                    None => {
                        s.unplaced.push((key, j));
                        continue;
                    }
                }
            }
            best = self.smallest_fitting(d, freed, &mut s.live);
        }
    }

    /// The index in `live` of the smallest head whose class fits some freed
    /// machine now. Drops the classes that fit none: they cannot fit again
    /// before the dispatch ends.
    fn smallest_fitting(
        &self,
        d: &Dispatcher<'_>,
        freed: &[usize],
        live: &mut Vec<(Entry, usize)>,
    ) -> Option<usize> {
        live.retain(|&(_, c)| freed.iter().any(|&m| d.cluster().fits(m, self.vector(c))));
        (0..live.len()).min_by_key(|&i| live[i].0)
    }

    /// BF-EXEC's departure rule (Section 7.2) for freed machine `m`:
    /// repeatedly starts the smallest `(key, id)` head among the classes
    /// that fit `m`.
    pub(crate) fn backfill(
        &mut self,
        d: &mut Dispatcher<'_>,
        m: usize,
    ) -> Result<(), SchedulingError> {
        loop {
            let cluster = d.cluster();
            let best = self.heads_where(|v| cluster.fits(m, v)).min();
            let Some((_, c)) = best else { return Ok(()) };
            if self.start_head(d, c, m)?.is_none() {
                self.drop_class(c);
            }
        }
    }
}

/// The entry count, then every entry's key bits and id in `(key, id)`
/// order — canonical whatever the classes' layout. The context is the
/// instance, whose demands place each job in its class, and one `seen`
/// flag per job: entries must be in order, and each job is marked in
/// `seen`, which must not mark it already.
impl Codec for PendingIndex {
    type Context<'a> = (&'a Instance, &'a mut [bool]);

    fn encode(&self, e: &mut Encoder) {
        let mut all: Vec<Entry> = self.queues.iter().flatten().map(|r| r.0).collect();
        all.sort_unstable();
        e.u64(all.len() as u64);
        for (OrdTime(key), j) in all {
            e.f64(key);
            e.u32(j.0);
        }
    }

    fn decode(
        d: &mut Decoder<'_>,
        (instance, seen): (&Instance, &mut [bool]),
    ) -> Result<Self, CodecError> {
        let mut index = PendingIndex::default();
        let mut prev: Option<Entry> = None;
        for _ in 0..d.count(12)? {
            let key = OrdTime(d.f64()?);
            let job = d.unique_job(seen)?;
            if prev.is_some_and(|p| p >= (key, job)) {
                return Err(d.malformed("pending entries out of (key, id) order"));
            }
            prev = Some((key, job));
            index.insert((key, job), &instance.job(job).demands);
        }
        Ok(index)
    }
}

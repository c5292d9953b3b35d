//! Crash simulation helpers for the crash-restart equivalence suite.
//!
//! Because the service event loop is deterministic, a crashed run's
//! journal is a byte prefix of the uncrashed (golden) run's journal. The
//! harness therefore runs the golden service once, then "crashes" it by
//! truncating the golden journal at chosen points: at event-group
//! boundaries (a clean kill between flushes) via [`truncate_at_event`],
//! or mid-frame (a kill inside `write(2)`) by slicing arbitrary byte
//! counts off the tail, which exercises the lenient torn-tail parser.

use mris_rng::Rng;

use crate::codec::Decoder;
use crate::journal::{parse_frame, parse_header, JournalRecord};

/// Seeded selection of crash points for one golden run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashPlan {
    /// Event indices (0-based) after whose record group the journal is
    /// cut, sorted and deduplicated.
    pub kill_after_events: Vec<usize>,
}

impl CrashPlan {
    /// Picks up to `count` distinct kill points over a run of
    /// `num_events` events, deterministically from `seed`.
    pub fn seeded(seed: u64, num_events: usize, count: usize) -> Self {
        let mut rng = Rng::new(seed).substream("crash-plan");
        let mut kill_after_events: Vec<usize> = Vec::new();
        if num_events > 0 {
            for _ in 0..count.max(1) * 4 {
                if kill_after_events.len() >= count {
                    break;
                }
                let e = rng.next_u64_below(num_events as u64) as usize;
                if !kill_after_events.contains(&e) {
                    kill_after_events.push(e);
                }
            }
        }
        kill_after_events.sort_unstable();
        CrashPlan { kill_after_events }
    }
}

/// Byte offset at which to cut `journal` so it ends exactly after the
/// record group of the `event_index`-th (0-based) `Event` record — the
/// event mark plus every derived record it produced, up to (excluding)
/// the next input record. `None` if the journal is unreadable or has no
/// such event.
pub fn truncate_at_event(journal: &[u8], event_index: usize) -> Option<usize> {
    let mut d = Decoder::new(journal);
    parse_header(&mut d).ok()?;
    let mut current_event: Option<usize> = None;
    let mut group_end: Option<usize> = None;
    while d.remaining() > 0 {
        let Ok((rec, end)) = parse_frame(&mut d) else {
            break;
        };
        match rec {
            JournalRecord::Event { .. } => {
                if current_event == Some(event_index) {
                    return group_end;
                }
                let idx = current_event.map_or(0, |i| i + 1);
                current_event = Some(idx);
                if idx == event_index {
                    group_end = Some(end);
                }
            }
            JournalRecord::Admit { .. }
            | JournalRecord::Reject { .. }
            | JournalRecord::Close { .. } => {
                if current_event == Some(event_index) {
                    return group_end;
                }
            }
            _ => {
                if current_event == Some(event_index) {
                    group_end = Some(end);
                }
            }
        }
    }
    group_end
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_deterministic_and_bounded() {
        let a = CrashPlan::seeded(7, 100, 8);
        let b = CrashPlan::seeded(7, 100, 8);
        assert_eq!(a, b);
        assert!(a.kill_after_events.len() <= 8);
        assert!(a.kill_after_events.iter().all(|&e| e < 100));
        assert!(a.kill_after_events.windows(2).all(|w| w[0] < w[1]));
        let c = CrashPlan::seeded(8, 100, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn empty_run_yields_no_kill_points() {
        assert!(CrashPlan::seeded(1, 0, 4).kill_after_events.is_empty());
    }

    #[test]
    fn truncate_rejects_garbage() {
        assert_eq!(truncate_at_event(b"not a journal!..", 0), None);
        assert_eq!(truncate_at_event(&[], 0), None);
    }
}

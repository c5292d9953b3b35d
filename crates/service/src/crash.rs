//! Crash simulation helpers for the crash-restart equivalence suite.
//!
//! Because the service event loop is deterministic, a crashed run's
//! journal is a byte prefix of the uncrashed (golden) run's journal. The
//! harness therefore runs the golden service once, then "crashes" it by
//! truncating the golden journal at chosen points: at event-group
//! boundaries (a clean kill between flushes) via [`truncate_at_event`],
//! or mid-frame (a kill inside `write(2)`) by slicing arbitrary byte
//! counts off the tail, which exercises the lenient torn-tail parser.

use std::ops::ControlFlow;

use crate::journal::walk_frames;
use crate::journal::JournalRecord::{Admit, Close, Event, Reject};

/// Byte offset at which to cut `journal` so it ends exactly after the
/// record group of the `event_index`-th (0-based) `Event` record — the
/// event mark plus every derived record it produced, up to (excluding)
/// the next input record. `None` if the journal is unreadable or has no
/// such event.
pub fn truncate_at_event(journal: &[u8], event_index: usize) -> Option<usize> {
    let mut events = 0;
    let mut group_end = None;
    walk_frames(journal, |rec, end| {
        let event = matches!(rec, Event { .. });
        let input = event || matches!(rec, Admit { .. } | Reject { .. } | Close { .. });
        if input && group_end.is_some() {
            return ControlFlow::Break(());
        }
        events += event as usize;
        if events == event_index + 1 {
            group_end = Some(end);
        }
        ControlFlow::Continue(())
    })
    .ok()?;
    group_end
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truncate_rejects_garbage() {
        assert_eq!(truncate_at_event(b"not a journal!..", 0), None);
        assert_eq!(truncate_at_event(&[], 0), None);
    }
}

//! Crash simulation helpers for the crash-restart equivalence suite.
//!
//! Because the service event loop is deterministic, a crashed run's
//! journal is a byte prefix of the uncrashed (golden) run's journal. The
//! harness therefore runs the golden service once, then "crashes" it by
//! truncating the golden journal at chosen points: at event-group
//! boundaries (a clean kill between flushes) via [`truncate_at_event`],
//! or mid-frame (a kill inside `write(2)`) by slicing arbitrary byte
//! counts off the tail, which exercises the lenient torn-tail parser.

use crate::codec::Decoder;
use crate::journal::{parse_frame, parse_header, JournalRecord};

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
    fn truncate_rejects_garbage() {
        assert_eq!(truncate_at_event(b"not a journal!..", 0), None);
        assert_eq!(truncate_at_event(&[], 0), None);
    }
}

//! The exact error of every short or impossible read. Each primitive read
//! of the one `Decoder` is cut at every length short of its width, after a
//! few bytes already read, and must report
//! `CodecError::Truncated { offset, needed, remaining }` at the offset the
//! read started at, without moving the cursor. Every journal record is cut
//! at every length of its payload, and must report the field the cut
//! falls in (a truncation's offset is the payload's own, a malformed
//! field's the journal's). The impossible values (a flag byte that is not
//! 0 or 1, a count the bytes left cannot hold, an id out of range, a
//! repeated job, a wrong dimension, trailing bytes, an unknown tag) name
//! their field's offset and say what was found.

use mris_service::{Decoder, Encoder, JournalRecord, RejectReason};
use mris_types::{CodecError, JobId};

/// One primitive read: its name, the bytes it consumes, and the read.
type Read = (
    &'static str,
    usize,
    fn(&mut Decoder<'_>) -> Result<(), CodecError>,
);

/// Every primitive read, each of which succeeds on `width` zero bytes.
const READS: [Read; 11] = [
    ("u8", 1, |d| d.u8().map(drop)),
    ("u32", 4, |d| d.u32().map(drop)),
    ("u64", 8, |d| d.u64().map(drop)),
    ("f64", 8, |d| d.f64().map(drop)),
    ("bytes(5)", 5, |d| d.bytes(5).map(drop)),
    ("bool", 1, |d| d.bool().map(drop)),
    ("count", 8, |d| d.count(4).map(drop)),
    ("expect_count", 8, |d| d.expect_count(0, "width")),
    ("job", 4, |d| d.job(3).map(drop)),
    ("unique_job", 4, |d| d.unique_job(&mut [false; 3]).map(drop)),
    ("machine", 8, |d| d.machine(3).map(drop)),
];

/// Bytes read before the read under test, so that offsets are absolute.
const LEADS: [usize; 3] = [0, 1, 7];

#[test]
fn every_primitive_read_cut_short_is_truncated_where_it_started() {
    for (name, width, read) in READS {
        for lead in LEADS {
            for short in 0..width {
                let buf = vec![0u8; lead + short];
                let mut d = Decoder::new(&buf);
                d.bytes(lead).expect("the lead bytes are there");
                let err = read(&mut d).expect_err(name);
                assert_eq!(
                    err,
                    CodecError::Truncated {
                        offset: lead,
                        needed: width,
                        remaining: short,
                    },
                    "{name} after {lead} bytes with {short} left"
                );
                assert_eq!(d.offset(), lead, "{name}: a failed read moved the cursor");
                assert_eq!(d.remaining(), short, "{name}");
            }
            let buf = vec![0u8; lead + width];
            let mut d = Decoder::new(&buf);
            d.bytes(lead).expect("the lead bytes are there");
            read(&mut d).unwrap_or_else(|e| panic!("{name} on {width} zero bytes: {e}"));
            assert_eq!(d.offset(), lead + width, "{name} consumed its width");
            d.finish().expect("nothing left");
        }
    }
}

/// `lead` zero bytes, then `tail`, read past the lead.
fn after_lead(lead: usize, tail: &[u8], read: impl FnOnce(&mut Decoder<'_>) -> CodecError) {
    let mut buf = vec![0u8; lead];
    buf.extend_from_slice(tail);
    let mut d = Decoder::new(&buf);
    d.bytes(lead).expect("the lead bytes are there");
    let err = read(&mut d);
    let CodecError::Malformed { offset, .. } = &err else {
        panic!("expected a malformed field, got {err:?}");
    };
    assert_eq!(*offset, lead, "{err}");
}

fn malformed(offset: usize, detail: &str) -> CodecError {
    CodecError::Malformed {
        offset,
        detail: detail.to_string(),
    }
}

#[test]
fn every_impossible_primitive_value_names_its_offset() {
    for lead in LEADS {
        after_lead(lead, &[2], |d| {
            let err = d.bool().expect_err("flag 2");
            assert_eq!(err, malformed(lead, "flag byte 2 is not 0 or 1"));
            err
        });
        // Five elements of at least 8 bytes do not fit in the 32 left.
        let mut five = 5u64.to_le_bytes().to_vec();
        five.extend_from_slice(&[0; 32]);
        after_lead(lead, &five, |d| {
            let err = d.count(8).expect_err("count 5");
            assert_eq!(err, malformed(lead, "count 5 exceeds the 32 bytes left"));
            err
        });
        after_lead(lead, &u64::MAX.to_le_bytes(), |d| {
            let err = d.count(1).expect_err("count u64::MAX");
            let detail = format!("count {} exceeds the 0 bytes left", u64::MAX);
            assert_eq!(err, malformed(lead, &detail));
            err
        });
        after_lead(lead, &4u64.to_le_bytes(), |d| {
            let err = d.expect_count(3, "width").expect_err("4 for 3");
            assert_eq!(err, malformed(lead, "width is 4, expected 3"));
            err
        });
        after_lead(lead, &3u32.to_le_bytes(), |d| {
            let err = d.job(3).expect_err("job 3 of 3");
            assert_eq!(err, malformed(lead, "job 3 is out of range"));
            err
        });
        after_lead(lead, &7u64.to_le_bytes(), |d| {
            let err = d.machine(7).expect_err("machine 7 of 7");
            assert_eq!(err, malformed(lead, "machine 7 is out of range"));
            err
        });
        after_lead(lead, &1u32.to_le_bytes(), |d| {
            let mut seen = [false, true];
            let err = d.unique_job(&mut seen).expect_err("job 1 held twice");
            assert_eq!(err, malformed(lead, "job 1 is held twice"));
            err
        });
    }
    let mut d = Decoder::new(&[1, 0, 0]);
    assert!(d.bool().expect("flag 1"));
    assert_eq!(
        d.finish(),
        Err(malformed(1, "2 trailing bytes after the last field"))
    );
    let mut seen = [false; 2];
    let ids = [1u32.to_le_bytes(), 0u32.to_le_bytes()].concat();
    let mut d = Decoder::new(&ids);
    assert_eq!(d.unique_job(&mut seen), Ok(JobId(1)));
    assert_eq!(d.unique_job(&mut seen), Ok(JobId(0)));
    assert_eq!(seen, [true, true]);
}

/// One record of every tag, with the widths of the fields after its tag
/// byte, in order.
fn every_record() -> Vec<(JournalRecord, &'static [usize])> {
    vec![
        (
            JournalRecord::Admit {
                at: 1.5,
                job: 7,
                tenant: 2,
            },
            &[8, 4, 4],
        ),
        (
            JournalRecord::Reject {
                at: 2.5,
                job: 8,
                reason: RejectReason::TenantQuota,
                tenant: 1,
            },
            &[8, 4, 1, 4],
        ),
        (JournalRecord::Event { at: 3.0 }, &[8]),
        (
            JournalRecord::Place {
                job: 4,
                machine: 1,
                start: 3.0,
            },
            &[4, 4, 8],
        ),
        (JournalRecord::Complete { job: 4, machine: 1 }, &[4, 4]),
        (
            JournalRecord::Fail {
                machine: 2,
                at: 4.0,
                recover_at: 9.0,
            },
            &[4, 8, 8],
        ),
        (
            JournalRecord::Recover {
                machine: 2,
                at: 9.0,
            },
            &[4, 8],
        ),
        (JournalRecord::ReRelease { job: 5 }, &[4]),
        (JournalRecord::SnapshotMark { lsn: 77 }, &[8]),
        (JournalRecord::Close { at: 12.0 }, &[8]),
        (JournalRecord::PrecedenceReady { job: 6 }, &[4]),
    ]
}

/// Where the record's payload sits in its journal, for the offsets of
/// malformed fields.
const BASE: usize = 1000;

#[test]
fn every_journal_record_cut_anywhere_names_the_field_it_cuts() {
    let mut tags = Vec::new();
    for (rec, widths) in every_record() {
        let mut e = Encoder::new();
        rec.encode(&mut e);
        let payload = e.into_bytes();
        assert_eq!(payload.len(), 1 + widths.iter().sum::<usize>(), "{rec:?}");
        tags.push(payload[0]);
        assert_eq!(JournalRecord::decode(&payload, BASE), Ok(rec.clone()));
        // The field each cut falls in: the tag byte, then each field.
        let fields = std::iter::once(1).chain(widths.iter().copied());
        let mut start = 0;
        for width in fields {
            for cut in start..start + width {
                assert_eq!(
                    JournalRecord::decode(&payload[..cut], BASE),
                    Err(CodecError::Truncated {
                        offset: start,
                        needed: width,
                        remaining: cut - start,
                    }),
                    "{rec:?} cut to {cut} bytes"
                );
            }
            start += width;
        }
        let mut long = payload.clone();
        long.push(0);
        assert_eq!(
            JournalRecord::decode(&long, BASE),
            Err(malformed(
                BASE + payload.len(),
                "1 trailing bytes after the last field"
            )),
            "{rec:?} with a trailing byte"
        );
    }
    tags.sort_unstable();
    assert_eq!(tags, (1..=11).collect::<Vec<u8>>(), "one record per tag");
    for tag in [0, 12, 255] {
        assert_eq!(
            JournalRecord::decode(&[tag, 0, 0, 0, 0], BASE),
            Err(malformed(BASE, &format!("unknown record tag {tag}")))
        );
    }
    // A reject reason other than 0-2, at its byte: tag, `at`, job.
    let mut e = Encoder::new();
    JournalRecord::Reject {
        at: 1.0,
        job: 1,
        reason: RejectReason::QueueFull,
        tenant: 0,
    }
    .encode(&mut e);
    let mut payload = e.into_bytes();
    payload[13] = 3;
    assert_eq!(
        JournalRecord::decode(&payload, BASE),
        Err(malformed(BASE + 13, "unknown reject reason 3"))
    );
}

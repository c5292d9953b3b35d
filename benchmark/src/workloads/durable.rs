//! `durable`: PQ-WSJF in-process, three passes per rep — journal off, WAL
//! to a real file flushed every event, WAL plus snapshots — then
//! `Service::restore` from the full journal and the latest snapshot,
//! drained. Journal append is the write side of the format and restore
//! the read side; all four schedules must be one schedule.

use std::fs::File;
use std::path::PathBuf;

use mris_core::registry::online_policy_by_name;
use mris_service::{
    config_fingerprint, parse_journal, DurabilityConfig, JournalWriter, MemorySnapshots, NullSink,
    NullSnapshots, RestoreOptions, Service, ServiceConfig, ServiceReport, SimClock, SnapshotStore,
};
use mris_types::{ClusterSpec, Instance};

use crate::harness::{drive, fastest_ns_per, measure, Checks, Ctx, Layers, Rep};
use crate::inputs::poisson_instance;
use crate::layers::{pq_baseline, quality, setup_layers};
use crate::report::Row;
use crate::spans::Tracer;
use crate::spec::{SMOKE_DIVISOR, SNAPSHOT_EVERY};
use crate::OUT_DIR;

/// The run's scratch directory under `out/tmp`, removed when dropped.
struct TempDir(PathBuf);

impl TempDir {
    fn create() -> TempDir {
        let dir = PathBuf::from(OUT_DIR)
            .join("tmp")
            .join(format!("durable-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[derive(PartialEq)]
struct Inputs {
    instance: Instance,
    pq_awct: f64,
}

/// What one plain rep of the traced run leaves for the layer metrics.
struct Passes {
    off_s: f64,
    wal_s: f64,
    snap_s: f64,
    restore_s: f64,
    journal_bytes: usize,
    snapshots: usize,
    records: u64,
    events: usize,
}

pub fn run(ctx: &Ctx, tr: &mut Tracer, checks: &mut Checks) -> Vec<Row> {
    let (n, machines) = (ctx.jobs(), ctx.spec.machines);
    let cluster = ClusterSpec::uniform(machines);
    let cfg = ServiceConfig::new(machines);
    let wal_only = DurabilityConfig {
        flush_every: 1,
        snapshot_every: 0,
    };
    let with_snapshots = DurabilityConfig {
        flush_every: 1,
        snapshot_every: if ctx.smoke {
            SNAPSHOT_EVERY / SMOKE_DIVISOR as u32
        } else {
            SNAPSHOT_EVERY
        },
    };
    let tmp = TempDir::create();
    let journal_path = tmp.0.join("journal.wal");
    let mut journal: Vec<u8> = Vec::new();
    let mut passes: Vec<Passes> = Vec::new();

    let fresh = |instance: &Instance| {
        let policy =
            online_policy_by_name(ctx.spec.policy, instance, machines).expect("registered policy");
        Service::new(
            instance.clone(),
            policy,
            cfg.clone(),
            SimClock::new(),
            NullSink,
        )
        .expect("permissive config is valid")
    };
    // One pass: drive a fresh service, journaled to the file if asked, and
    // drain it. Returns the report, the timed wall and the longest call.
    let pass = |instance: &Instance,
                dcfg: Option<(DurabilityConfig, Box<dyn SnapshotStore + Send>)>,
                tr: &mut Tracer,
                checks: &mut Checks|
     -> (ServiceReport, f64, f64) {
        let mut service = fresh(instance);
        if let Some((dcfg, snapshots)) = dcfg {
            let file = File::create(&journal_path)
                .unwrap_or_else(|e| panic!("create {}: {e}", journal_path.display()));
            let ((), _) = tr.scope("service.attach_journal", 0, |_| {
                service
                    .attach_journal(dcfg, Box::new(file), snapshots)
                    .expect("journal attaches to a pristine service")
            });
        }
        let (service, wall_s, stall_s) =
            drive(service, instance, tr, checks).expect("policy placed every job legally");
        let durability = service.durability_error();
        checks.check(durability.is_none(), || {
            format!("journal or snapshot IO failed: {durability:?}")
        });
        let ((report, _), _) = tr.scope("service.drain", 0, |_| {
            service.drain().expect("drain after quiescence")
        });
        (report, wall_s, stall_s)
    };

    let restore_from =
        |instance: &Instance, journal: &[u8], snapshot: Option<&[u8]>, tr: &mut Tracer| {
            let policy = online_policy_by_name(ctx.spec.policy, instance, machines)
                .expect("registered policy");
            tr.scope("service.restore", snapshot.is_none() as u32, |_| {
                Service::restore(
                    instance.clone(),
                    policy,
                    cfg.clone(),
                    with_snapshots,
                    SimClock::new(),
                    NullSink,
                    journal,
                    snapshot,
                    RestoreOptions::default(),
                )
            })
        };

    let m = measure(
        ctx,
        tr,
        checks,
        |tr, checks| {
            let (instance, _) = tr.scope("trace.generate", 0, |_| {
                poisson_instance(ctx.spec, n, ctx.seed)
            });
            let pq_awct = pq_baseline(&instance, &cluster, tr, checks);
            File::create(&journal_path)
                .unwrap_or_else(|e| panic!("create {}: {e}", journal_path.display()));
            Inputs { instance, pq_awct }
        },
        |inputs, tr, checks, cal| {
            let instance = &inputs.instance;
            let (off, off_s, _) = pass(instance, None, tr, checks);
            checks.service_report("durable journal-off", instance, &off);
            let (wal, wal_s, _) = pass(
                instance,
                Some((wal_only, Box::new(NullSnapshots))),
                tr,
                checks,
            );
            let snapshots = MemorySnapshots::new();
            let before = cal.kernel_ms();
            let (snap, snap_s, snap_stall) = pass(
                instance,
                Some((with_snapshots, Box::new(snapshots.clone()))),
                tr,
                checks,
            );

            journal = std::fs::read(&journal_path)
                .unwrap_or_else(|e| panic!("read {}: {e}", journal_path.display()));
            let all = snapshots.all();
            let (restored, restore_s) =
                restore_from(instance, &journal, all.last().map(Vec::as_slice), tr);
            let factor = cal.factor(before);
            let (service, restore) =
                restored.unwrap_or_else(|e| panic!("restore from the full journal: {e}"));
            checks.check(
                restore.snapshot_verified.is_some() != all.is_empty() && restore.clean_shutdown,
                || format!("restore did not verify the snapshot or the clean close: {restore:?}"),
            );
            let ((again, _), _) = tr.scope("service.drain", 0, |_| {
                service.drain().expect("drain a restored service")
            });
            checks.service_report("durable restored", instance, &again);
            checks.check(
                off.schedule == wal.schedule
                    && off.schedule == snap.schedule
                    && off.schedule == again.schedule,
                || "journal-off, WAL, snapshot and restored schedules are not one schedule".into(),
            );

            if ctx.traced && !tr.recording {
                passes.push(Passes {
                    off_s,
                    wal_s,
                    snap_s,
                    restore_s,
                    journal_bytes: journal.len(),
                    snapshots: all.len(),
                    records: restore.records,
                    events: snap.summary.epochs,
                });
            }
            let (awct, makespan) = quality(instance, &cluster, &snap.schedule);
            Rep {
                wall_s: snap_s,
                stall_s: snap_stall.max(restore_s),
                factor,
                awct,
                makespan,
            }
        },
    );
    if !ctx.traced {
        return m.end_to_end(n, m.inputs.pq_awct, checks);
    }

    let instance = &m.inputs.instance;
    let fastest = |f: fn(&Passes) -> f64| passes.iter().map(f).fold(f64::INFINITY, f64::min);
    let (off_s, wal_s, snap_s, restore_s) = (
        fastest(|p| p.off_s),
        fastest(|p| p.wal_s),
        fastest(|p| p.snap_s),
        fastest(|p| p.restore_s),
    );
    let p = &passes[0];
    let mut layers = Layers::default();
    setup_layers(&mut layers, tr, n, &m);
    layers.set_n(
        "service.loop_ns_per_job",
        off_s * 1e9 / n as f64,
        passes.len(),
    );
    layers.set_n(
        "service.journal_ns_per_job",
        (wal_s - off_s) * 1e9 / n as f64,
        passes.len(),
    );
    layers.set(
        "service.journal_records_per_job",
        p.records as f64 / n as f64,
    );
    layers.set(
        "service.journal_bytes_per_job",
        p.journal_bytes as f64 / n as f64,
    );
    layers.set("service.snapshots", p.snapshots as f64);
    layers.set_n(
        "service.snapshot_ms_each",
        (snap_s - wal_s) * 1e3 / p.snapshots.max(1) as f64,
        passes.len(),
    );
    layers.set_n("service.restore_s", restore_s, m.reps.len());
    layers.set(
        "service.restore_ns_per_record",
        restore_s * 1e9 / p.records.max(1) as f64,
    );
    layers.set("service.events", p.events as f64);

    // Restore with no snapshot to check against: replay alone.
    let (restored, tail_s) = restore_from(instance, &journal, None, tr);
    checks.check(restored.is_ok(), || {
        format!("restore without a snapshot: {:?}", restored.as_ref().err())
    });
    layers.set("service.restore_tail_only_s", tail_s);

    // The format alone: parse the produced journal, then append its records
    // back through a writer whose sink discards them.
    let parsed = parse_journal(&journal).expect("the produced journal parses");
    let records = parsed.records.len();
    let (parse_ns, _) = tr.scope("service.parse_journal", 0, |_| {
        fastest_ns_per(records, ctx.seconds / 20.0, || {
            std::hint::black_box(parse_journal(&journal).expect("the produced journal parses"));
        })
    });
    let fingerprint = config_fingerprint(instance, &cfg, &with_snapshots);
    let (append_ns, _) = tr.scope("service.journal_append", 0, |_| {
        fastest_ns_per(records, ctx.seconds / 20.0, || {
            let mut writer = JournalWriter::new(Box::new(std::io::sink()), fingerprint);
            for (i, record) in parsed.records.iter().enumerate() {
                writer.append(record);
                // Flush at the service's cadence of a few records per event,
                // so the buffer stays as small as it is in the run.
                if i % 4 == 3 {
                    writer.flush().expect("flush to a sink");
                }
            }
            writer.flush().expect("flush to a sink");
        })
    });
    layers.set_n("service.journal_parse_ns_per_record", parse_ns, records);
    layers.set_n("service.journal_append_ns_per_record", append_ns, records);
    layers.rows()
}

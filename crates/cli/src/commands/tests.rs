//! The CLI's tests, driven through [`run`] as the binary drives it.

use std::path::PathBuf;
use std::sync::mpsc;
use std::time::Duration;

use super::flags::Flag;
use super::service::tenants_from_flags;
use super::table::USAGES;
use super::*;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("mris_cli_tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn s(args: &[&str]) -> Vec<String> {
    args.iter().map(|x| x.to_string()).collect()
}

#[test]
fn generate_schedule_validate_pipeline() {
    let trace_path = tmp("pipeline_trace.csv");
    let sched_path = tmp("pipeline_schedule.csv");
    let out = run(&s(&[
        "generate",
        "--jobs",
        "300",
        "--out",
        trace_path.to_str().unwrap(),
    ]))
    .unwrap();
    assert!(out.contains("300 jobs"));

    let out = run(&s(&[
        "schedule",
        "--trace",
        trace_path.to_str().unwrap(),
        "--algo",
        "mris",
        "--machines",
        "4",
        "--out",
        sched_path.to_str().unwrap(),
    ]))
    .unwrap();
    assert!(out.contains("MRIS-WSJF"), "{out}");

    let out = run(&s(&[
        "validate",
        "--trace",
        trace_path.to_str().unwrap(),
        "--schedule",
        sched_path.to_str().unwrap(),
        "--machines",
        "4",
    ]))
    .unwrap();
    assert!(out.starts_with("OK"), "{out}");
}

#[test]
fn compare_prints_table() {
    let trace_path = tmp("compare_trace.csv");
    run(&s(&[
        "generate",
        "--jobs",
        "200",
        "--out",
        trace_path.to_str().unwrap(),
    ]))
    .unwrap();
    let out = run(&s(&[
        "compare",
        "--trace",
        trace_path.to_str().unwrap(),
        "--machines",
        "3",
        "--algos",
        "mris,pq-wsjf",
    ]))
    .unwrap();
    assert!(
        out.contains("MRIS-WSJF") && out.contains("PQ-WSJF"),
        "{out}"
    );
    assert!(out.contains("AWCT/LB"));
}

#[test]
fn compare_on_related_speeds() {
    let trace_path = tmp("related_trace.csv");
    run(&s(&[
        "generate",
        "--jobs",
        "150",
        "--out",
        trace_path.to_str().unwrap(),
    ]))
    .unwrap();
    let out = run(&s(&[
        "compare",
        "--trace",
        trace_path.to_str().unwrap(),
        "--machines",
        "4",
        "--algos",
        "mris,pq-wsjf",
        "--speeds",
        "2.0,1.0,0.5",
    ]))
    .unwrap();
    // The unit-speed lower bound doesn't apply on a related cluster.
    assert!(out.contains("related speeds 2.0,1.0,0.5"), "{out}");
    assert!(out.contains(" - |"), "{out}");

    let err = run(&s(&[
        "schedule",
        "--trace",
        trace_path.to_str().unwrap(),
        "--algo",
        "mris",
        "--machines",
        "4",
        "--speeds",
        "0,-1",
    ]))
    .unwrap_err();
    assert!(err.0.contains("positive speed"), "{}", err.0);
}

#[test]
fn chaos_reports_inflation_table() {
    let trace_path = tmp("chaos_trace.csv");
    run(&s(&[
        "generate",
        "--jobs",
        "120",
        "--out",
        trace_path.to_str().unwrap(),
    ]))
    .unwrap();
    let out = run(&s(&[
        "chaos",
        "--trace",
        trace_path.to_str().unwrap(),
        "--machines",
        "3",
        "--algos",
        "mris,pq-wsjf",
        "--rate",
        "1.0",
        "--seed",
        "7",
    ]))
    .unwrap();
    assert!(
        out.contains("MRIS-WSJF") && out.contains("PQ-WSJF"),
        "{out}"
    );
    assert!(
        out.contains("inflation") && out.contains("re-releases"),
        "{out}"
    );
    // rate 0 degenerates to the failure-free run: inflation exactly 1.
    let out = run(&s(&[
        "chaos",
        "--trace",
        trace_path.to_str().unwrap(),
        "--machines",
        "3",
        "--algos",
        "pq-wsjf",
        "--rate",
        "0",
    ]))
    .unwrap();
    assert!(out.contains("1.000"), "{out}");
    // Aging restart is accepted; bogus restart is not.
    run(&s(&[
        "chaos",
        "--trace",
        trace_path.to_str().unwrap(),
        "--machines",
        "3",
        "--algos",
        "pq-wsjf",
        "--restart",
        "aging",
    ]))
    .unwrap();
    let err = run(&s(&[
        "chaos",
        "--trace",
        trace_path.to_str().unwrap(),
        "--restart",
        "sideways",
    ]))
    .unwrap_err();
    assert!(err.0.contains("'full' or 'aging'"), "{err}");
}

#[test]
fn helpful_errors() {
    assert!(run(&s(&["bogus"])).is_err());
    assert!(run(&[]).is_err());
    let err = run(&s(&["schedule", "--algo", "mris"])).unwrap_err();
    assert!(err.0.contains("--trace"), "{err}");
    let err = run(&s(&[
        "schedule",
        "--trace",
        "/nonexistent",
        "--algo",
        "mris",
    ]))
    .unwrap_err();
    assert!(err.0.contains("cannot read"), "{err}");
}

#[test]
fn serve_runs_trace_through_service() {
    let trace_path = tmp("serve_trace.csv");
    let jsonl_path = tmp("serve_telemetry.jsonl");
    run(&s(&[
        "generate",
        "--jobs",
        "80",
        "--out",
        trace_path.to_str().unwrap(),
    ]))
    .unwrap();
    let out = run(&s(&[
        "serve",
        "--trace",
        trace_path.to_str().unwrap(),
        "--algo",
        "mris",
        "--machines",
        "3",
        "--telemetry",
        jsonl_path.to_str().unwrap(),
    ]))
    .unwrap();
    assert!(out.contains("completed   = 80"), "{out}");
    assert!(out.contains("AWCT"), "{out}");
    assert!(out.contains("fault log verified OK"), "{out}");
    let jsonl = std::fs::read_to_string(&jsonl_path).unwrap();
    assert!(jsonl.contains("\"event\": \"epoch\""), "{jsonl}");
    assert!(jsonl.contains("\"event\": \"summary\""), "{jsonl}");

    // A tiny queue watermark sheds load instead of dropping silently.
    let out = run(&s(&[
        "serve",
        "--trace",
        trace_path.to_str().unwrap(),
        "--algo",
        "tetris",
        "--machines",
        "3",
        "--queue-watermark",
        "1",
    ]))
    .unwrap();
    assert!(out.contains("queue full"), "{out}");
    let err = run(&s(&[
        "serve",
        "--trace",
        trace_path.to_str().unwrap(),
        "--queue-watermark",
        "0",
    ]))
    .unwrap_err();
    assert!(err.0.contains("queue-watermark"), "{err}");
}

#[test]
fn serve_journal_then_restore_round_trips() {
    let trace_path = tmp("durable_trace.csv");
    let journal_path = tmp("durable.mrjl");
    let snap_dir = tmp("durable_snaps");
    run(&s(&[
        "generate",
        "--jobs",
        "60",
        "--out",
        trace_path.to_str().unwrap(),
    ]))
    .unwrap();
    let serve_out = run(&s(&[
        "serve",
        "--trace",
        trace_path.to_str().unwrap(),
        "--algo",
        "pq-wsjf",
        "--machines",
        "3",
        "--journal",
        journal_path.to_str().unwrap(),
        "--snapshot-dir",
        snap_dir.to_str().unwrap(),
        "--snapshot-every",
        "16",
    ]))
    .unwrap();
    assert!(serve_out.contains("journal     ="), "{serve_out}");
    assert!(journal_path.exists());

    // A full journal restores cleanly to the same drained summary.
    let restore_out = run(&s(&[
        "restore",
        "--trace",
        trace_path.to_str().unwrap(),
        "--algo",
        "pq-wsjf",
        "--machines",
        "3",
        "--journal",
        journal_path.to_str().unwrap(),
        "--snapshot-dir",
        snap_dir.to_str().unwrap(),
        "--snapshot-every",
        "16",
    ]))
    .unwrap();
    assert!(restore_out.contains("shutdown    = clean"), "{restore_out}");
    assert!(restore_out.contains("resubmitted 0 jobs"), "{restore_out}");
    let serve_awct = serve_out
        .lines()
        .find(|l| l.starts_with("AWCT"))
        .unwrap()
        .to_string();
    assert!(restore_out.contains(&serve_awct), "{restore_out}");

    // A torn journal (crash mid-write) still restores: the cut tail is
    // dropped and replay regenerates the schedule up to the cut.
    let bytes = std::fs::read(&journal_path).unwrap();
    let torn_path = tmp("durable_torn.mrjl");
    std::fs::write(&torn_path, &bytes[..bytes.len() * 2 / 3]).unwrap();
    let torn_out = run(&s(&[
        "restore",
        "--trace",
        trace_path.to_str().unwrap(),
        "--algo",
        "pq-wsjf",
        "--machines",
        "3",
        "--journal",
        torn_path.to_str().unwrap(),
        "--snapshot-every",
        "16",
    ]))
    .unwrap();
    assert!(torn_out.contains("shutdown    = crash"), "{torn_out}");
    assert!(torn_out.contains(&serve_awct), "{torn_out}");

    // Wrong config ⇒ fingerprint mismatch, not a bogus replay.
    let err = run(&s(&[
        "restore",
        "--trace",
        trace_path.to_str().unwrap(),
        "--algo",
        "pq-wsjf",
        "--machines",
        "4",
        "--journal",
        journal_path.to_str().unwrap(),
    ]))
    .unwrap_err();
    assert!(err.0.contains("fingerprint"), "{err}");
}

/// The crash `--snapshot-dir` exists for: the journal is torn back past
/// the newest snapshots. Restore starts from the newest snapshot the
/// surviving journal reaches, replays only the records after it, and ends
/// where the uncrashed serve ended.
#[test]
fn restore_from_snapshot_dir_after_a_torn_journal() {
    let trace = tmp("torn_snaps_trace.csv");
    let journal = tmp("torn_snaps.mrjl");
    let torn = tmp("torn_snaps_torn.mrjl");
    let snaps = tmp("torn_snaps_dir");
    let path = |p: &std::path::PathBuf| p.to_str().unwrap().to_string();
    run(&s(&["generate", "--jobs", "80", "--out", &path(&trace)])).unwrap();
    let knobs = [
        "--trace",
        &path(&trace),
        "--algo",
        "pq-wsjf",
        "--machines",
        "3",
        "--snapshot-every",
        "16",
    ]
    .map(str::to_string);
    let mut serve = s(&[
        "serve",
        "--journal",
        &path(&journal),
        "--snapshot-dir",
        &path(&snaps),
    ]);
    serve.extend(knobs.iter().cloned());
    let serve_out = run(&serve).unwrap();
    let bytes = std::fs::read(&journal).unwrap();
    std::fs::write(&torn, &bytes[..bytes.len() * 2 / 3]).unwrap();

    let mut restore = s(&[
        "restore",
        "--journal",
        &path(&torn),
        "--snapshot-dir",
        &path(&snaps),
    ]);
    restore.extend(knobs.iter().cloned());
    let out = run(&restore).unwrap();
    assert!(out.contains("shutdown    = crash"), "{out}");
    let awct = serve_out.lines().find(|l| l.starts_with("AWCT")).unwrap();
    assert!(out.contains(awct), "{out}");
    let lsn: u64 = out
        .split("restored from the snapshot at lsn ")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no snapshot named: {out}"));
    let counts: Vec<u64> = out
        .lines()
        .find(|l| l.starts_with("records"))
        .unwrap()
        .split(|c: char| !c.is_ascii_digit())
        .filter_map(|n| n.parse().ok())
        .collect();
    let (records, replayed) = (counts[0], counts[1]);
    assert_eq!(replayed, records - lsn - 1, "{out}");
    // The crash tore the journal back past newer snapshots, which were
    // skipped.
    let newest = std::fs::read_dir(&snaps)
        .unwrap()
        .filter_map(|e| {
            let name = e.unwrap().file_name().into_string().unwrap();
            name.strip_prefix("snapshot-")?
                .strip_suffix(".bin")?
                .parse::<u64>()
                .ok()
        })
        .max()
        .unwrap();
    assert!(
        newest > records,
        "no snapshot lies past the torn journal: {out}"
    );
}

#[test]
fn loadgen_replays_fault_plan_against_live_service() {
    let out = run(&s(&[
        "loadgen",
        "--jobs",
        "60",
        "--machines",
        "3",
        "--algo",
        "pq-wsjf",
        "--seed",
        "5",
        "--fault-plan",
        "poisson",
        "--fault-rate",
        "2",
    ]))
    .unwrap();
    assert!(out.contains("plan = poisson"), "{out}");
    assert!(out.contains("fault log verified OK"), "{out}");
    assert!(out.contains("completed"), "{out}");

    // Burst arrivals and rack faults also drain clean.
    let out = run(&s(&[
        "loadgen",
        "--jobs",
        "40",
        "--machines",
        "4",
        "--algo",
        "tetris",
        "--process",
        "bursts",
        "--fault-plan",
        "racks",
        "--restart",
        "aging",
    ]))
    .unwrap();
    assert!(out.contains("process = bursts"), "{out}");
    assert!(out.contains("restart = aging"), "{out}");

    let err = run(&s(&["loadgen", "--fault-plan", "sideways"])).unwrap_err();
    assert!(err.0.contains("none|poisson|racks|adversarial"), "{err}");
    let err = run(&s(&["loadgen", "--process", "sideways"])).unwrap_err();
    assert!(err.0.contains("poisson"), "{err}");
}

/// A subnormal `--rate` is positive but draws an infinite Poisson gap (or
/// burst period): a typed refusal that names the flag, not a panic.
#[test]
fn loadgen_refuses_a_poisson_rate_that_overflows() {
    let err = run(&words("loadgen --jobs 3 --rate 1e-310")).unwrap_err();
    assert!(
        err.0.contains("--rate 1e-310: job j0 has invalid release"),
        "{err}"
    );
}

#[test]
fn loadgen_refuses_a_burst_period_that_overflows() {
    let err = run(&words("loadgen --jobs 3 --rate 1e-310 --process bursts")).unwrap_err();
    assert!(
        err.0.contains("--rate 1e-310: job j0 has invalid release"),
        "{err}"
    );
}

/// A small trace on disk, and a schedule of it on two machines.
fn trace_and_schedule(name: &str) -> (String, String) {
    let trace = tmp(&format!("{name}_trace.csv"));
    let schedule = tmp(&format!("{name}_schedule.csv"));
    let (trace, schedule) = (trace.to_str().unwrap(), schedule.to_str().unwrap());
    run(&words(&format!("generate --jobs 20 --out {trace}"))).unwrap();
    run(&words(&format!(
        "schedule --trace {trace} --algo mris --machines 2 --out {schedule}"
    )))
    .unwrap();
    (trace.to_string(), schedule.to_string())
}

/// `--machines 0` is a typed refusal that names the flag, not a panic in
/// the cluster or fault-plan constructor.
fn assert_refuses_zero_machines(line: &str) {
    let err = run(&words(line)).unwrap_err();
    assert_eq!(err.0, "--machines must be at least 1", "{line}");
}

#[test]
fn schedule_refuses_zero_machines() {
    let (trace, _) = trace_and_schedule("zero_machines_schedule");
    assert_refuses_zero_machines(&format!(
        "schedule --trace {trace} --algo mris --machines 0"
    ));
}

#[test]
fn validate_refuses_zero_machines() {
    let (trace, schedule) = trace_and_schedule("zero_machines_validate");
    assert_refuses_zero_machines(&format!(
        "validate --trace {trace} --schedule {schedule} --machines 0"
    ));
}

#[test]
fn compare_refuses_zero_machines() {
    let (trace, _) = trace_and_schedule("zero_machines_compare");
    assert_refuses_zero_machines(&format!("compare --trace {trace} --machines 0"));
}

#[test]
fn chaos_refuses_zero_machines() {
    let (trace, _) = trace_and_schedule("zero_machines_chaos");
    assert_refuses_zero_machines(&format!("chaos --trace {trace} --machines 0"));
}

/// `--factor 0` keeps no request; it is refused by name.
#[test]
fn generate_refuses_a_zero_factor() {
    let err = run(&words("generate --jobs 10 --factor 0")).unwrap_err();
    assert!(err.0.contains("--factor"), "{err}");
}

#[test]
fn run_alias_and_obs_flag() {
    let trace_path = tmp("obs_trace.csv");
    let prom_path = tmp("obs_metrics.prom");
    let events_path = tmp("obs_events.jsonl");
    run(&s(&[
        "generate",
        "--jobs",
        "60",
        "--out",
        trace_path.to_str().unwrap(),
    ]))
    .unwrap();
    // `run` resolves to the schedule verb; `--obs` is a switch flag that
    // appends the Prometheus rendering to the output.
    let out = run(&s(&[
        "run",
        "--trace",
        trace_path.to_str().unwrap(),
        "--algo",
        "mris",
        "--machines",
        "3",
        "--obs",
        "--obs-events",
        events_path.to_str().unwrap(),
    ]))
    .unwrap();
    assert!(out.contains("observability"), "{out}");
    assert!(out.contains("mris_knapsack_solves_total"), "{out}");
    assert!(out.contains("mris_timeline_probes_total"), "{out}");
    let events = std::fs::read_to_string(&events_path).unwrap();
    assert!(events.contains("mris_schedule_seconds"), "{events}");

    // With --metrics-path the exposition goes to the file instead.
    let out = run(&s(&[
        "schedule",
        "--trace",
        trace_path.to_str().unwrap(),
        "--algo",
        "pq-wsjf",
        "--machines",
        "3",
        "--metrics-path",
        prom_path.to_str().unwrap(),
    ]))
    .unwrap();
    assert!(out.contains("wrote Prometheus metrics"), "{out}");
    let prom = std::fs::read_to_string(&prom_path).unwrap();
    assert!(prom.contains("# TYPE"), "{prom}");
    mris_obs::validate_exposition(&prom).unwrap();
}

#[test]
fn serve_writes_prometheus_metrics() {
    let trace_path = tmp("serve_prom_trace.csv");
    let prom_path = tmp("serve_metrics.prom");
    let telemetry_path = tmp("serve_prom_telemetry.jsonl");
    let events_path = tmp("serve_prom_events.jsonl");
    run(&s(&[
        "generate",
        "--jobs",
        "50",
        "--out",
        trace_path.to_str().unwrap(),
    ]))
    .unwrap();
    let out = run(&s(&[
        "serve",
        "--trace",
        trace_path.to_str().unwrap(),
        "--algo",
        "mris",
        "--machines",
        "3",
        "--metrics-path",
        prom_path.to_str().unwrap(),
        "--telemetry",
        telemetry_path.to_str().unwrap(),
        "--obs-events",
        events_path.to_str().unwrap(),
    ]))
    .unwrap();
    // `--telemetry` is the one per-epoch JSONL: a line per processed event
    // and the summary. `--obs-events` carries span closes only.
    let epochs: usize = out
        .lines()
        .find_map(|l| l.strip_prefix("epochs      = "))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .expect("serve reports its epochs");
    let lines_with = |text: &str, key: &str| text.lines().filter(|l| l.contains(key)).count();
    let telemetry = std::fs::read_to_string(&telemetry_path).unwrap();
    assert_eq!(lines_with(&telemetry, "\"event\": \"epoch\""), epochs);
    assert_eq!(lines_with(&telemetry, "\"event\": \"summary\""), 1);
    let events = std::fs::read_to_string(&events_path).unwrap();
    assert!(events.contains("mris_epoch_solve_seconds"), "{events}");
    assert_eq!(lines_with(&events, "service_epoch"), 0, "{events}");
    assert_eq!(lines_with(&events, "service_summary"), 0, "{events}");
    assert!(out.contains("wrote Prometheus metrics"), "{out}");
    let prom = std::fs::read_to_string(&prom_path).unwrap();
    mris_obs::validate_exposition(&prom).unwrap();
    for family in [
        "mris_service_admitted_total",
        "mris_service_epochs_total",
        "mris_service_epoch_batch_size",
        "mris_service_decision_latency_seconds",
        "mris_dispatcher_placements_total",
        "mris_timeline_probes_total",
    ] {
        assert!(prom.contains(family), "missing {family} in:\n{prom}");
    }
}

#[cfg(target_os = "linux")]
#[test]
fn obs_events_write_failure_is_an_error() {
    let trace_path = tmp("obs_full_trace.csv");
    run(&words(&format!(
        "generate --jobs 60 --out {}",
        trace_path.display()
    )))
    .unwrap();
    let err = run(&words(&format!(
        "schedule --trace {} --algo mris --machines 3 --obs-events /dev/full",
        trace_path.display()
    )))
    .unwrap_err();
    assert!(err.0.contains("obs events write failed"), "{err}");
}

#[test]
fn unknown_algorithm_suggests_fix() {
    let trace_path = tmp("suggest_trace.csv");
    run(&s(&[
        "generate",
        "--jobs",
        "10",
        "--out",
        trace_path.to_str().unwrap(),
    ]))
    .unwrap();
    let err = run(&s(&[
        "schedule",
        "--trace",
        trace_path.to_str().unwrap(),
        "--algo",
        "tetriss",
    ]))
    .unwrap_err();
    assert!(err.0.contains("did you mean 'tetris'"), "{err}");
}

#[test]
fn validate_rejects_tampered_schedule() {
    let trace_path = tmp("tamper_trace.csv");
    let sched_path = tmp("tamper_schedule.csv");
    run(&s(&[
        "generate",
        "--jobs",
        "50",
        "--out",
        trace_path.to_str().unwrap(),
    ]))
    .unwrap();
    run(&s(&[
        "schedule",
        "--trace",
        trace_path.to_str().unwrap(),
        "--algo",
        "pq-wsjf",
        "--machines",
        "2",
        "--out",
        sched_path.to_str().unwrap(),
    ]))
    .unwrap();
    // Move every start to zero: releases are violated.
    let text = std::fs::read_to_string(&sched_path).unwrap();
    let tampered: String = text
        .lines()
        .map(|l| {
            if l.starts_with('#') || l.starts_with("job") {
                l.to_string()
            } else {
                let mut parts: Vec<&str> = l.split(',').collect();
                parts[2] = "0";
                parts.join(",")
            }
        })
        .collect::<Vec<_>>()
        .join("\n");
    std::fs::write(&sched_path, tampered).unwrap();
    let err = run(&s(&[
        "validate",
        "--trace",
        trace_path.to_str().unwrap(),
        "--schedule",
        sched_path.to_str().unwrap(),
        "--machines",
        "2",
    ]))
    .unwrap_err();
    assert!(err.0.contains("INFEASIBLE"), "{err}");
}

/// Polls `--port-file` until the server thread has written the bound
/// address.
fn wait_for_port_file(path: &std::path::Path) -> String {
    for _ in 0..500 {
        if let Ok(addr) = std::fs::read_to_string(path) {
            if !addr.is_empty() {
                return addr;
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    panic!("server never wrote {path:?}");
}

#[test]
fn serve_listen_client_round_trip() {
    let trace_path = tmp("net_trace.csv");
    let port_file = tmp("net_port.txt");
    let _ = std::fs::remove_file(&port_file);
    run(&s(&[
        "generate",
        "--jobs",
        "40",
        "--out",
        trace_path.to_str().unwrap(),
    ]))
    .unwrap();
    let server = {
        let trace = trace_path.to_str().unwrap().to_string();
        let port_file = port_file.to_str().unwrap().to_string();
        std::thread::spawn(move || {
            run(&s(&[
                "serve",
                "--trace",
                &trace,
                "--algo",
                "pq-wsjf",
                "--machines",
                "3",
                "--listen",
                "127.0.0.1:0",
                "--port-file",
                &port_file,
            ]))
        })
    };
    let addr = wait_for_port_file(&port_file);

    let out = run(&s(&[
        "client",
        "submit",
        "--connect",
        &addr,
        "--trace",
        trace_path.to_str().unwrap(),
    ]))
    .unwrap();
    assert!(out.contains("accepted 40, rejected 0"), "{out}");

    let out = run(&s(&["client", "query", "--connect", &addr, "--job", "0"])).unwrap();
    assert!(out.starts_with("job 0:"), "{out}");

    let out = run(&s(&["client", "stats", "--connect", &addr])).unwrap();
    assert!(out.contains("submitted 40"), "{out}");

    let out = run(&s(&["client", "drain", "--connect", &addr])).unwrap();
    assert!(out.contains("completed   = 40"), "{out}");
    assert!(out.contains("AWCT"), "{out}");
    assert!(out.contains("fault log verified OK"), "{out}");

    let server_out = server.join().unwrap().unwrap();
    assert!(server_out.contains("completed   = 40"), "{server_out}");
    assert!(server_out.contains("fingerprint"), "{server_out}");

    // The drained door refuses new connections (accept loop ended).
    let err = run(&s(&["client", "stats", "--connect", &addr]));
    assert!(err.is_err(), "drained server still answering: {err:?}");
}

#[test]
fn loadgen_connects_to_loadgen_serve_twin() {
    let port_file = tmp("net_loadgen_port.txt");
    let _ = std::fs::remove_file(&port_file);
    let gen_flags = [
        "--loadgen",
        "--jobs",
        "60",
        "--seed",
        "77",
        "--machines",
        "2",
        "--algo",
        "pq-wsjf",
        "--fault-plan",
        "poisson",
        "--fault-rate",
        "2.0",
    ];
    let server = {
        let mut args = vec!["serve"];
        args.extend_from_slice(&gen_flags);
        args.extend_from_slice(&["--listen", "127.0.0.1:0", "--port-file"]);
        let args: Vec<String> = args.iter().map(|x| x.to_string()).collect();
        let port_file = port_file.to_str().unwrap().to_string();
        std::thread::spawn(move || {
            let mut args = args;
            args.push(port_file);
            run(&args)
        })
    };
    let addr = wait_for_port_file(&port_file);

    // Same generation flags minus --loadgen, plus --connect.
    let out = run(&s(&[
        "loadgen",
        "--jobs",
        "60",
        "--seed",
        "77",
        "--machines",
        "2",
        "--algo",
        "pq-wsjf",
        "--fault-plan",
        "poisson",
        "--fault-rate",
        "2.0",
        "--connect",
        &addr,
    ]))
    .unwrap();
    assert!(out.contains("over TCP"), "{out}");
    assert!(out.contains("fault log verified OK"), "{out}");
    assert!(out.contains("faults: plan = poisson"), "{out}");

    let server_out = server.join().unwrap().unwrap();
    assert!(server_out.contains("fault log verified OK"), "{server_out}");
}

#[test]
fn loadgen_connect_refuses_mismatched_world() {
    let port_file = tmp("net_mismatch_port.txt");
    let _ = std::fs::remove_file(&port_file);
    let server = {
        let port_file = port_file.to_str().unwrap().to_string();
        std::thread::spawn(move || {
            run(&s(&[
                "serve",
                "--loadgen",
                "--jobs",
                "30",
                "--seed",
                "1",
                "--machines",
                "2",
                "--listen",
                "127.0.0.1:0",
                "--port-file",
                &port_file,
            ]))
        })
    };
    let addr = wait_for_port_file(&port_file);

    // A different seed regenerates a different world: the handshake
    // fingerprint refuses before any job crosses the wire.
    let err = run(&s(&[
        "loadgen",
        "--jobs",
        "30",
        "--seed",
        "2",
        "--machines",
        "2",
        "--connect",
        &addr,
    ]))
    .unwrap_err();
    assert!(err.0.contains("fingerprint mismatch"), "{err}");

    // The matching twin still drains the server cleanly.
    let out = run(&s(&[
        "loadgen",
        "--jobs",
        "30",
        "--seed",
        "1",
        "--machines",
        "2",
        "--connect",
        &addr,
    ]))
    .unwrap();
    assert!(out.contains("fault log verified OK"), "{out}");
    server.join().unwrap().unwrap();
}

#[test]
fn serve_listen_multi_tenant_flags() {
    let trace_path = tmp("net_tenant_trace.csv");
    let port_file = tmp("net_tenant_port.txt");
    let _ = std::fs::remove_file(&port_file);
    run(&s(&[
        "generate",
        "--jobs",
        "20",
        "--out",
        trace_path.to_str().unwrap(),
    ]))
    .unwrap();
    let server = {
        let trace = trace_path.to_str().unwrap().to_string();
        let port_file = port_file.to_str().unwrap().to_string();
        std::thread::spawn(move || {
            run(&s(&[
                "serve",
                "--trace",
                &trace,
                "--algo",
                "pq-wsjf",
                "--machines",
                "2",
                "--tenants",
                "alpha:tok-a:3.0,beta:tok-b:1.0",
                "--listen",
                "127.0.0.1:0",
                "--port-file",
                &port_file,
            ]))
        })
    };
    let addr = wait_for_port_file(&port_file);

    // A wrong token is refused at the handshake.
    let err = run(&s(&[
        "client",
        "stats",
        "--connect",
        &addr,
        "--token",
        "wrong",
    ]))
    .unwrap_err();
    assert!(err.0.contains("authentication failed"), "{err}");

    let out = run(&s(&[
        "client",
        "submit",
        "--connect",
        &addr,
        "--trace",
        trace_path.to_str().unwrap(),
        "--token",
        "tok-b",
    ]))
    .unwrap();
    assert!(out.contains("as tenant 1"), "{out}");

    let out = run(&s(&[
        "client",
        "drain",
        "--connect",
        &addr,
        "--token",
        "tok-a",
    ]))
    .unwrap();
    assert!(
        out.contains("tenant beta (weight 1): admitted = 20"),
        "{out}"
    );
    let server_out = server.join().unwrap().unwrap();
    assert!(server_out.contains("2 tenants"), "{server_out}");
}

#[test]
fn tenant_flag_parse_errors_are_typed() {
    let err = run(&s(&[
        "serve",
        "--listen",
        "127.0.0.1:0",
        "--trace",
        "/nonexistent",
        "--tenants",
        "missing-fields",
    ]))
    .unwrap_err();
    // Trace load fails first; tenants parse is exercised directly.
    assert!(err.0.contains("cannot read"), "{err}");
    let serve = USAGES.iter().find(|u| u.words == "serve").unwrap();
    let flags = Flags::parse(serve, &s(&["--tenants", "a:b"])).unwrap();
    let err = tenants_from_flags(&flags).unwrap_err();
    assert!(err.0.contains("name:token:weight"), "{err}");
    let flags = Flags::parse(serve, &s(&["--tenants", "a:b:heavy"])).unwrap();
    let err = tenants_from_flags(&flags).unwrap_err();
    assert!(err.0.contains("weight"), "{err}");
}

/// Splits a command line on whitespace (test paths hold no spaces).
fn words(line: &str) -> Vec<String> {
    line.split_whitespace().map(str::to_string).collect()
}

/// Runs `args` on a worker thread and waits at most ten seconds: a command
/// that should be refused but binds a socket instead blocks, and fails here
/// rather than hanging the suite.
fn run_bounded(args: Vec<String>) -> Result<String, CliError> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || tx.send(run(&args)));
    rx.recv_timeout(Duration::from_secs(10))
        .unwrap_or_else(|_| panic!("still running after 10 s: it bound a socket and blocks"))
}

#[test]
fn every_verb_refuses_an_undeclared_flag() {
    let dir = tmp("refusals");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let dir = dir.to_str().unwrap();
    // Every usage gets each of its file flags pointed into `dir`, then one
    // misspelled flag; `--connect` names a port nothing listens on.
    let mut cases: Vec<(String, String, Option<&str>)> = Vec::new();
    for usage in USAGES {
        let mut line = usage
            .words
            .replace("--listen", "--listen 127.0.0.1:0")
            .replace("--connect", "--connect 127.0.0.1:1");
        let own: Vec<&Flag> = usage
            .declared()
            .filter(|f| !usage.words.contains(&format!("--{}", f.0)))
            .collect();
        for f in own.iter().filter(|f| f.1 == "FILE" || f.1 == "DIR") {
            line += &format!(" --{} {dir}/{}", f.0, f.0);
        }
        let typo = own[0].0;
        cases.push((
            format!("{line} --{typo}x 1"),
            format!("{typo}x"),
            Some(typo),
        ));
        if usage.words == "schedule" {
            cases.push((
                line.replacen("schedule", "run", 1) + " --algos x",
                "algos".into(),
                Some("algo"),
            ));
        }
    }
    cases.push((
        format!("serve --trace {dir}/t --jurnal {dir}/j"),
        "jurnal".into(),
        Some("journal"),
    ));
    cases.push((
        "client drain --connect 127.0.0.1:1 --force".into(),
        "force".into(),
        None,
    ));
    for (line, flag, near) in cases {
        let err = run_bounded(words(&line)).unwrap_err().0;
        assert!(
            err.contains(&format!("unknown flag --{flag}")),
            "{line}: {err}"
        );
        if let Some(near) = near {
            assert!(
                err.contains(&format!("did you mean --{near}?")),
                "{line}: {err}"
            );
        }
        let created = std::fs::read_dir(dir).unwrap().count();
        assert_eq!(created, 0, "{line} created a file before refusing");
    }
}

#[test]
fn a_repeated_flag_is_refused() {
    let out = tmp("repeat_out.csv");
    let _ = std::fs::remove_file(&out);
    let line = format!("generate --jobs 5 --out {} --jobs 6", out.display());
    let err = run(&words(&line)).unwrap_err();
    assert!(err.0.contains("--jobs is given more than once"), "{err}");
    assert!(!out.exists());
    let err = run_bounded(words("serve --listen 127.0.0.1:0 --listen 127.0.0.1:0")).unwrap_err();
    assert!(err.0.contains("--listen is given more than once"), "{err}");
}

#[test]
fn help_lists_every_verb_and_every_declared_flag() {
    let help = run(&s(&["help"])).unwrap();
    let verbs = "generate schedule compare validate chaos serve restore loadgen client";
    for verb in verbs.split(' ') {
        assert!(
            help.contains(&format!("\nmris {verb}")),
            "help lacks {verb}:\n{help}"
        );
    }
    for usage in USAGES {
        assert!(
            help.contains(&usage.render()),
            "help lacks `mris {}`",
            usage.words
        );
        let names: Vec<&str> = usage.declared().map(|f| f.0).collect();
        for (i, name) in names.iter().enumerate() {
            let twice = names[..i].contains(name);
            assert!(!twice, "`mris {}` declares --{name} twice", usage.words);
        }
    }
    // Flags the hand-written usage text once left out.
    for flag in [
        "--factor",
        "--offset",
        "--obs-events",
        "--fault-seed",
        "--tenants",
    ] {
        assert!(help.contains(flag), "help lacks {flag}");
    }
}

#[test]
fn serve_listen_refuses_durability_flags_without_binding() {
    let trace = tmp("listen_durable_trace.csv");
    let port_file = tmp("listen_durable_port.txt");
    let journal = tmp("listen_durable.mrjl");
    let snaps = tmp("listen_durable_snaps");
    let _ = (
        std::fs::remove_file(&port_file),
        std::fs::remove_file(&journal),
    );
    let _ = std::fs::remove_dir_all(&snaps);
    run(&words(&format!(
        "generate --jobs 30 --out {}",
        trace.display()
    )))
    .unwrap();
    let line = format!(
        "serve --listen 127.0.0.1:0 --port-file {} --trace {} --algo pq-wsjf --machines 3 \
         --journal {} --snapshot-dir {}",
        port_file.display(),
        trace.display(),
        journal.display(),
        snaps.display()
    );
    let err = run_bounded(words(&line)).unwrap_err();
    assert!(err.0.contains("unknown flag --journal"), "{err}");
    assert!(err.0.contains("`mris serve` takes it"), "{err}");
    assert!(err.0.contains("ROADMAP.md item 5(a)"), "{err}");
    assert!(!port_file.exists() && !journal.exists() && !snaps.exists());
}

#[test]
fn validate_checks_a_related_schedule_on_its_speeds() {
    let trace = tmp("speeds_trace.csv");
    let sched = tmp("speeds_schedule.csv");
    let (t, sc) = (trace.display(), sched.display());
    run(&words(&format!("generate --jobs 300 --out {t}"))).unwrap();
    let cluster = "--machines 3 --speeds 2,1,0.5";
    run(&words(&format!(
        "schedule --trace {t} --algo pq-wsjf {cluster} --out {sc}"
    )))
    .unwrap();
    let out = run(&words(&format!(
        "validate --trace {t} --schedule {sc} {cluster}"
    )))
    .unwrap();
    assert!(out.starts_with("OK"), "{out}");
    // The objective is the one `schedule` reported for the same cluster.
    let written = std::fs::read_to_string(&sched).unwrap();
    let awct = written
        .lines()
        .find_map(|l| l.strip_prefix("# AWCT: "))
        .unwrap();
    assert!(
        out.contains(&format!("AWCT     = {awct}\n")),
        "{out}\nvs {awct}"
    );
}

/// What `loadgen` derives from its flags under both arrival processes,
/// pinned by the fingerprint a `loadgen --connect` twin's handshake checks:
/// the Poisson rate calibrated against `--utilization`, the bursts of
/// `--jobs / 20` spaced by that rate, and the service config.
#[test]
fn loadgen_plans_are_pinned() {
    let usage = USAGES.iter().find(|u| u.words == "loadgen").unwrap();
    for (process, pinned) in [
        ("poisson", 0x1253_abcc_d532_a683),
        ("bursts", 0x03f1_5540_af9f_a1c9),
    ] {
        let args = words(&format!("--jobs 300 --seed 7 --process {process}"));
        let plan = super::loadgen::loadgen_plan(&Flags::parse(usage, &args).unwrap()).unwrap();
        let seen = mris_service::service_fingerprint(&plan.instance, &plan.cfg);
        assert_eq!(seen, pinned, "--process {process}: {seen:#018x}");
    }
}

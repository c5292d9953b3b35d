//! Pins the standard output of every paper figure and extension experiment
//! at a scale small enough to run in a debug build, byte for byte against
//! `tests/figures_golden/<case>.txt`. The flags chosen reach every flag a
//! figure reads and every per-figure default that differs from the common
//! one (`fig5`'s and `fairness`'s sample caps, `fig4`'s `--paper` sweep).
//! `runtime`'s `[ms]` and `exp` columns are wall-clock times and are
//! compared as blanks.

use std::process::Command;

/// Runs one case and returns its stdout.
fn stdout(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .output()
        .expect("figure runs");
    assert!(
        out.status.success(),
        "figures {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// Blanks every markdown-table body cell whose column header ends in `[ms]`
/// or is `exp`, and trims every cell so column widths do not depend on them.
fn without_timings(text: &str) -> String {
    let mut timed: Vec<bool> = Vec::new();
    text.lines()
        .map(|line| {
            if !line.starts_with('|') {
                timed.clear();
                return line.to_string();
            }
            let cells: Vec<&str> = line.trim_matches('|').split('|').map(str::trim).collect();
            let header = timed.is_empty();
            if header {
                timed = cells
                    .iter()
                    .map(|c| c.ends_with("[ms]") || *c == "exp")
                    .collect();
            }
            let kept: Vec<&str> = cells
                .iter()
                .zip(&timed)
                .map(|(c, &t)| {
                    if (t && !header) || c.chars().all(|ch| ch == '-') {
                        ""
                    } else {
                        c
                    }
                })
                .collect();
            format!("|{}|", kept.join("|"))
        })
        .collect::<Vec<_>>()
        .join("\n")
}

fn check(case: &str, args: &[&str]) {
    let path = format!(
        "{}/tests/figures_golden/{case}.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    let expected = std::fs::read_to_string(&path).expect("expected output is committed");
    let mut actual = stdout(args);
    if case == "runtime" {
        actual = without_timings(&actual);
    }
    assert_eq!(actual, expected, "{case}: stdout differs from {path}");
}

#[test]
fn fig1() {
    check("fig1", &["fig1", "--sweep", "150,300", "--samples", "2"]);
}

#[test]
fn fig2() {
    check("fig2", &["fig2", "--sweep", "150,300", "--samples", "2"]);
}

#[test]
fn fig3() {
    check("fig3", &["fig3", "--sweep", "150,300", "--samples", "2"]);
}

#[test]
fn fig3_csv() {
    check(
        "fig3_csv",
        &["fig3", "--sweep", "150", "--samples", "3", "--csv"],
    );
}

#[test]
fn fig4() {
    check(
        "fig4",
        &["fig4", "--n", "300", "--sweep", "2,5", "--samples", "2"],
    );
}

#[test]
fn fig4_paper() {
    check(
        "fig4_paper",
        &["fig4", "--paper", "--n", "200", "--samples", "2"],
    );
}

#[test]
fn fig5() {
    check("fig5", &["fig5", "--n", "400", "--samples", "4"]);
}

#[test]
fn fig6() {
    check(
        "fig6",
        &["fig6", "--n", "300", "--sweep", "4,8", "--samples", "2"],
    );
}

#[test]
fn fig7() {
    check("fig7", &["fig7", "--n", "200"]);
}

#[test]
fn lemma41() {
    check("lemma41", &["lemma41", "--sweep", "8,16,32", "--csv"]);
}

#[test]
fn ratios() {
    check(
        "ratios",
        &["ratios", "--sweep", "150,300", "--samples", "2"],
    );
}

#[test]
fn makespan() {
    check(
        "makespan",
        &["makespan", "--sweep", "150,300", "--samples", "2"],
    );
}

#[test]
fn ablation() {
    check("ablation", &["ablation", "--n", "300", "--samples", "2"]);
}

#[test]
fn runtime() {
    check("runtime", &["runtime", "--sweep", "150,300"]);
}

#[test]
fn dynamics() {
    check("dynamics", &["dynamics", "--n", "300"]);
}

#[test]
fn fairness() {
    check("fairness", &["fairness", "--n", "300", "--samples", "7"]);
}

//! The `figures` command line: each figure's defaults and base-trace size,
//! and the refusals — each kind of bad command line ends with one `error:`
//! line on stderr, nothing on stdout and exit status 2, before any figure
//! is computed. `obs` and `chaos` refuse the same way.

use std::process::Command;

use mris_bench::figures::{figure, run, Params};
use mris_bench::Args;
use mris_core::registry::comparison_algorithms;

fn params(name: &str, flags: &[&str]) -> Params {
    let args = Args::from_args_iter(flags.iter().map(|f| f.to_string())).unwrap();
    Params::parse(figure(name).unwrap(), &args).unwrap()
}

#[test]
fn params_defaults_and_paper_flag() {
    let p = params("fig3", &[]);
    assert_eq!((p.machines, p.samples), (5, 10));
    assert_eq!(p.sweep, [500, 1_000, 2_000, 4_000, 8_000, 16_000]);
    assert_eq!(p.base_jobs, 16_000 * 16);
    let paper = params("fig3", &["--paper"]);
    assert_eq!(paper.machines, 20);
    assert_eq!(paper.sweep, [4_000, 8_000, 16_000, 32_000, 64_000]);
    assert_eq!(paper.base_jobs, 64_000 * 16);
    // Each figure's own N; --paper and --n override it.
    assert_eq!(params("ablation", &[]).n, 8_000);
    assert_eq!(params("dynamics", &["--paper"]).n, 64_000);
    assert_eq!(params("fairness", &["--n", "300"]).n, 300);
}

#[test]
fn only_a_jobs_sweep_or_n_sizes_the_base_trace() {
    let base = |name, flags: &[&str]| params(name, flags).base_jobs;
    assert_eq!(base("fig4", &["--sweep", "2,100000"]), 16_000 * 16);
    assert_eq!(base("fig6", &["--sweep", "4,100000"]), 16_000 * 16);
    assert_eq!(
        base("fig3", &["--sweep", "100000", "--samples", "20"]),
        100_000 * 20
    );
    assert_eq!(base("fig5", &["--n", "30000"]), 30_000 * 16);
    assert_eq!(base("fig5", &["--n", "300"]), 16_000 * 16);
}

#[test]
fn every_algorithm_of_a_figure_is_reported() {
    let p = params("fig3", &["--sweep", "60", "--samples", "2"]);
    let out = run(figure("fig3").unwrap(), &p).unwrap();
    for algo in comparison_algorithms() {
        assert!(out.contains(&algo.name()), "{out}");
    }
}

/// Runs `figures args` and returns its one stderr line.
fn refused(args: &[&str]) -> String {
    refused_by(env!("CARGO_BIN_EXE_figures"), args)
}

/// Runs `exe args`, which must refuse them, and returns its one stderr line.
fn refused_by(exe: &str, args: &[&str]) -> String {
    let out = Command::new(exe).args(args).output().expect("figures runs");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed something");
    assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
    assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
    stderr
}

#[test]
fn a_missing_figure_name_lists_the_figures() {
    assert!(refused(&[]).contains("name a figure (fig1, fig2, fig3,"));
}

#[test]
fn an_unknown_figure_name_lists_the_figures() {
    let err = refused(&["fig8", "--samples", "2"]);
    assert!(
        err.contains("unknown figure `fig8` (figures: fig1,"),
        "{err}"
    );
    assert!(err.contains("dynamics, fairness)"), "{err}");
}

#[test]
fn a_flag_the_figure_does_not_read() {
    let err = refused(&["fig3", "--machines-sweep", "2,3"]);
    assert!(
        err.ends_with(
            "fig3 does not read --machines-sweep \
             (it reads --paper, --samples, --sweep, --csv)\n"
        ),
        "{err}"
    );
    assert!(refused(&["fig7", "--small", "10"]).contains("fig7 does not read --small"));
    assert!(refused(&["lemma41", "--resources", "3"]).contains("does not read --resources"));
    // M is 5 (--paper: 20) and the base trace's seed 0xA2 in every figure.
    assert!(refused(&["fig5", "--machines", "3"]).contains("fig5 does not read --machines"));
    assert!(refused(&["fig3", "--seed", "7"]).contains("fig3 does not read --seed"));
}

#[test]
fn a_value_that_does_not_parse() {
    assert!(refused(&["fig3", "--samples", "many"]).contains("--samples many: "));
    assert!(refused(&["fig4", "--sweep", "2,x"]).contains("--sweep 2,x: "));
    assert!(refused(&["fig3", "--samples", "0"]).contains("at least 1"));
    assert!(refused(&["fig6", "--sweep", "2,4"]).contains("2 is below 4"));
    let huge = usize::MAX.to_string();
    assert!(refused(&["fig3", "--samples", &huge]).contains("is too large"));
}

#[test]
fn a_positional_argument() {
    assert!(refused(&["fig3", "500"]).contains("unexpected argument `500`"));
}

#[test]
fn a_value_flag_without_a_value_or_a_switch_with_one() {
    assert!(refused(&["fig3", "--samples"]).contains("--samples needs a value"));
    assert!(refused(&["fig3", "--paper", "1"]).contains("--paper takes no value"));
}

#[test]
fn a_flag_given_twice() {
    assert!(refused(&["fig3", "--samples", "2", "--samples", "3"]).contains("given twice"));
}

#[test]
fn obs_and_chaos_refuse_flags_they_do_not_read() {
    let chaos = env!("CARGO_BIN_EXE_chaos");
    let err = refused_by(chaos, &["--smoke", "--sampels", "3"]);
    assert!(err.contains("chaos does not read --sampels"), "{err}");
    let err = refused_by(env!("CARGO_BIN_EXE_obs"), &["--smoke", "1"]);
    assert!(err.contains("--smoke takes no value"), "{err}");
    assert!(refused_by(chaos, &["--jobs", "x"]).contains("--jobs x: "));
}

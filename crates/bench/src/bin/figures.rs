//! Regenerates one paper figure or extension experiment by name:
//!
//! `cargo run --release -p mris-bench --bin figures -- fig3 [--paper]
//!  [--samples k] [--n n] [--sweep a,b,c] [--csv]`
//!
//! Each figure reads only the flags its row in `mris_bench::figures::FIGURES`
//! declares. A bad command line exits with status 2, an invalid schedule
//! with status 1, each after a one-line error.

use mris_bench::figures::{figure, run, Params, FIGURES};
use mris_bench::{exit_usage, Args};

fn main() {
    let mut argv = std::env::args().skip(1);
    let names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
    let fig = match argv.next() {
        Some(name) => figure(&name).unwrap_or_else(|e| exit_usage(&e)),
        None => exit_usage(&format!("name a figure ({})", names.join(", "))),
    };
    let params = Args::from_args_iter(argv)
        .and_then(|args| Params::parse(fig, &args))
        .unwrap_or_else(|e| exit_usage(&e));
    match run(fig, &params) {
        Ok(out) => print!("{out}"),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

//! The one command-line parser of the bench binaries (keeps the workspace
//! free of an argument-parsing dependency). A malformed command line is an
//! error value, never a panic; the binaries print it on one line and exit
//! with status 2 ([`exit_usage`]).

use std::collections::HashMap;
use std::fmt::Display;
use std::str::FromStr;

/// Parsed `--key value` flags and bare `--switch`es.
#[derive(Debug, Clone, Default)]
pub struct Args {
    values: HashMap<String, String>,
    switches: Vec<String>,
}

impl Args {
    /// Parses the process arguments, or exits with status 2.
    pub fn parse() -> Self {
        Self::from_args_iter(std::env::args().skip(1)).unwrap_or_else(|e| exit_usage(&e))
    }

    /// Parses `args`: `--key value` pairs become values; `--key` followed
    /// by another flag (or nothing) becomes a switch. A positional argument
    /// or a flag given twice is an error.
    pub fn from_args_iter<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut out = Args::default();
        let mut iter = args.into_iter().peekable();
        while let Some(arg) = iter.next() {
            let Some(key) = arg.strip_prefix("--") else {
                return Err(format!(
                    "unexpected argument `{arg}` (flags are --key value)"
                ));
            };
            if out.keys().any(|k| k == key) {
                return Err(format!("--{key} is given twice"));
            }
            match iter.next_if(|next| !next.starts_with("--")) {
                Some(value) => {
                    out.values.insert(key.to_string(), value);
                }
                None => out.switches.push(key.to_string()),
            }
        }
        Ok(out)
    }

    /// Every flag given, switch or value.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.values.keys().chain(&self.switches).map(String::as_str)
    }

    /// The value of `--key`, parsed; `None` if it is not given.
    pub fn value<T: FromStr>(&self, key: &str) -> Result<Option<T>, String>
    where
        T::Err: Display,
    {
        if self.switches.iter().any(|s| s == key) {
            return Err(format!("--{key} needs a value"));
        }
        self.values
            .get(key)
            .map(|v| v.parse().map_err(|e| format!("--{key} {v}: {e}")))
            .transpose()
    }

    /// [`Args::value`] for a count of at least `least`.
    pub fn count(&self, key: &str, least: usize) -> Result<Option<usize>, String> {
        match self.value::<usize>(key)? {
            Some(v) if v < least => Err(format!("--{key} {v}: must be at least {least}")),
            v => Ok(v),
        }
    }

    /// The comma-separated counts of `--key`, each at least `least`.
    pub fn list(&self, key: &str, least: usize) -> Result<Option<Vec<usize>>, String> {
        let Some(list) = self.value::<String>(key)? else {
            return Ok(None);
        };
        list.split(',')
            .map(|x| match x.trim().parse::<usize>() {
                Ok(v) if v >= least => Ok(v),
                Ok(v) => Err(format!("--{key} {list}: {v} is below {least}")),
                Err(e) => Err(format!("--{key} {list}: {e}")),
            })
            .collect::<Result<_, _>>()
            .map(Some)
    }

    /// Whether the bare switch `--key` is given; an error if it has a value.
    pub fn switch(&self, key: &str) -> Result<bool, String> {
        match self.values.get(key) {
            Some(v) => Err(format!("--{key} takes no value (got `{v}`)")),
            None => Ok(self.switches.iter().any(|s| s == key)),
        }
    }

    /// An error naming `who` if a flag other than `flags` is given.
    pub fn only(&self, who: &str, flags: &[&str]) -> Result<(), String> {
        match self.keys().find(|k| !flags.contains(k)) {
            Some(flag) => Err(format!(
                "{who} does not read --{flag} (it reads --{})",
                flags.join(", --")
            )),
            None => Ok(()),
        }
    }
}

/// Prints `message` as a one-line error and exits with status 2.
pub fn exit_usage(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Result<Args, String> {
        Args::from_args_iter(s.iter().map(|x| x.to_string()))
    }

    #[test]
    fn parses_values_and_switches() {
        let a = args(&["--samples", "5", "--paper", "--machines", "20"]).unwrap();
        assert_eq!(a.value("samples"), Ok(Some(5usize)));
        assert_eq!(a.count("machines", 1), Ok(Some(20)));
        assert_eq!(a.value::<usize>("factor"), Ok(None));
        assert_eq!(a.switch("paper"), Ok(true));
        assert_eq!(a.switch("csv"), Ok(false));
        let mut keys: Vec<&str> = a.keys().collect();
        keys.sort();
        assert_eq!(keys, ["machines", "paper", "samples"]);
    }

    #[test]
    fn refuses_flags_not_declared() {
        let a = args(&["--samples", "5", "--smoke"]).unwrap();
        assert_eq!(a.only("obs", &["samples", "smoke", "out"]), Ok(()));
        assert_eq!(
            a.only("chaos", &["samples", "out"]),
            Err("chaos does not read --smoke (it reads --samples, --out)".to_string())
        );
    }

    #[test]
    fn parses_lists() {
        let a = args(&["--sweep", "100, 200,300"]).unwrap();
        assert_eq!(a.list("sweep", 1), Ok(Some(vec![100, 200, 300])));
        assert_eq!(a.list("other", 1), Ok(None));
    }

    #[test]
    fn malformed_flags_are_errors() {
        assert!(args(&["fig3"])
            .unwrap_err()
            .contains("unexpected argument `fig3`"));
        assert!(args(&["--n", "1", "--n", "2"])
            .unwrap_err()
            .contains("twice"));
        let a = args(&["--samples", "x", "--sweep", "4,0", "--n", "--paper", "1"]).unwrap();
        assert!(a
            .value::<usize>("samples")
            .unwrap_err()
            .starts_with("--samples x: "));
        assert!(a.list("sweep", 1).unwrap_err().contains("0 is below 1"));
        assert_eq!(a.count("n", 1), Err("--n needs a value".to_string()));
        assert!(a.switch("paper").unwrap_err().contains("takes no value"));
    }
}

//! Reading the command line against the [`USAGES`] table: which usage the
//! words select, what its arguments may be, what a refusal says, and what
//! `mris help` prints.

use mris_types::closest_match;

use super::table::USAGES;
use super::CliError;

/// One declared flag: its name without the dashes, the placeholder its
/// value shows in help (empty for a switch), and one line of help.
pub(crate) struct Flag(pub &'static str, pub &'static str, pub &'static str);

/// One way to invoke `mris`: the words that select it (the verb, then an
/// action word or mode flags), what it does, the command that runs it, and
/// the groups of flags it declares. No flag is declared twice in a usage.
pub(crate) struct Usage {
    pub words: &'static str,
    pub about: &'static str,
    pub run: fn(&Flags) -> Result<String, CliError>,
    pub flags: &'static [&'static [Flag]],
}

impl Usage {
    /// The usage `args` (after the verb) selects among `verb`'s, and the
    /// arguments left for its flags. An action word must come first (as in
    /// `client submit`), a mode flag may come anywhere (as in `serve
    /// --listen`); the most specific match wins.
    pub(crate) fn select<'a>(
        verb: &str,
        args: &'a [String],
    ) -> Result<(&'static Usage, &'a [String]), CliError> {
        let usages: Vec<&'static Usage> = USAGES.iter().filter(|u| u.verb() == verb).collect();
        if usages.is_empty() {
            return Err(CliError(format!("unknown command '{verb}'\n\n{}", help())));
        }
        let matching = |usage: &&'static Usage| {
            let mut rest = args;
            for word in usage.words.split(' ').skip(1) {
                match word.strip_prefix("--") {
                    // A mode flag stays among the arguments: its usage declares it.
                    Some(_) if args.iter().any(|a| a == word) => {}
                    None if args.first().is_some_and(|a| a == word) => rest = &args[1..],
                    _ => return None,
                }
            }
            Some((*usage, rest))
        };
        usages
            .iter()
            .filter_map(matching)
            .max_by_key(|(usage, _)| usage.words.len())
            .ok_or_else(|| {
                let words: Vec<&str> = usages.iter().map(|u| u.words).collect();
                CliError(format!("expected `mris {}`", words.join("` or `mris ")))
            })
    }

    fn verb(&self) -> &'static str {
        self.words.split(' ').next().unwrap_or_default()
    }

    pub(crate) fn declared(&self) -> impl Iterator<Item = &'static Flag> {
        self.flags.iter().flat_map(|group| group.iter())
    }

    fn declares(&self, name: &str) -> bool {
        self.declared().any(|f| f.0 == name)
    }

    /// This usage as `mris help` prints it.
    pub(crate) fn render(&self) -> String {
        let mut s = format!("mris {} — {}\n", self.words, self.about);
        for Flag(name, value, help) in self.declared() {
            s.push_str(&format!("  {:<30} {help}\n", format!("--{name} {value}")));
        }
        s
    }

    /// Why `--key` is refused: a did-you-mean among this usage's flags, and
    /// the other usages of the same verb that do take it.
    fn unknown(&self, key: &str) -> String {
        let mut msg = format!("unknown flag --{key}");
        if let Some(near) = closest_match(key, self.declared().map(|f| f.0.to_string())) {
            msg.push_str(&format!(" (did you mean --{near}?)"));
        }
        for other in USAGES {
            if other.verb() == self.verb() && other.declares(key) {
                msg.push_str(&format!("; `mris {}` takes it", other.words));
            }
        }
        msg
    }
}

/// The usage text: every usage with its flags, then the algorithms.
pub(crate) fn help() -> String {
    let mut s = String::from(
        "mris — online non-preemptive multi-resource scheduling (ICPP'24 reproduction)\n\n\
         USAGE: mris <command> [--flag VALUE | --switch]...\n",
    );
    for usage in USAGES {
        s.push('\n');
        s.push_str(&usage.render());
    }
    s.push_str("\nALGORITHMS:\n");
    for (name, desc) in mris_core::registry::known_algorithms() {
        s.push_str(&format!("  {name:<16} {desc}\n"));
    }
    s
}

/// The flags of one invocation, parsed against its [`Usage`].
pub(crate) struct Flags {
    usage: &'static Usage,
    pairs: Vec<(&'static str, String)>,
}

impl Flags {
    /// Parses `args` against `usage`. A bare word, an undeclared or
    /// repeated flag, and a value flag with no value are refused here,
    /// before the command has any effect. A flag followed by a word that
    /// is not a `--flag` takes it as its value; a switch alone records
    /// "true".
    pub(crate) fn parse(usage: &'static Usage, args: &[String]) -> Result<Flags, CliError> {
        let refuse = |problem: String| {
            CliError(format!(
                "mris {}: {problem}\n\n{}",
                usage.words,
                usage.render()
            ))
        };
        let mut pairs: Vec<(&'static str, String)> = Vec::new();
        let mut iter = args.iter().peekable();
        while let Some(arg) = iter.next() {
            let key = arg
                .strip_prefix("--")
                .ok_or_else(|| refuse(format!("expected a --flag, found '{arg}'")))?;
            let Some(&Flag(name, placeholder, _)) = usage.declared().find(|f| f.0 == key) else {
                return Err(refuse(usage.unknown(key)));
            };
            if pairs.iter().any(|&(k, _)| k == name) {
                return Err(refuse(format!("--{key} is given more than once")));
            }
            let value = match iter.next_if(|next| !next.starts_with("--")) {
                Some(value) => value.clone(),
                None if placeholder.is_empty() => "true".to_string(),
                None => return Err(refuse(format!("--{key} needs a value {placeholder}"))),
            };
            pairs.push((name, value));
        }
        Ok(Flags { usage, pairs })
    }

    pub(crate) fn get(&self, key: &str) -> Option<&str> {
        debug_assert!(
            self.usage.declares(key),
            "`mris {}` reads --{key} without declaring it",
            self.usage.words
        );
        self.pairs
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Whether a switch is present (and not explicitly disabled with
    /// `--flag false`).
    pub(crate) fn switch(&self, key: &str) -> bool {
        self.get(key).is_some_and(|v| v != "false" && v != "0")
    }

    pub(crate) fn require(&self, key: &str) -> Result<&str, CliError> {
        self.get(key)
            .ok_or_else(|| CliError(format!("missing required flag --{key}")))
    }

    pub(crate) fn get_parsed<T: std::str::FromStr>(
        &self,
        key: &str,
        default: T,
    ) -> Result<T, CliError>
    where
        T::Err: std::fmt::Display,
    {
        match self.get(key) {
            Some(v) => v.parse().map_err(|e| CliError(format!("--{key}: {e}"))),
            None => Ok(default),
        }
    }
}

//! A small, dependency-free command-line parser for the `ocpt` binary.
//!
//! Flags are `--key value` (or bare `--flag` for booleans). The parser
//! itself knows no option names: each subcommand declares the options it
//! reads through [`Args::expect_only`], and anything else is an error
//! naming the option. Arguments that don't start with `--` are collected
//! as positionals (after the leading subcommand) — `ocpt trace summary
//! FILE` uses them. Kept deliberately simple — the CLI is a front door,
//! not a framework.

use std::collections::BTreeMap;

/// Parsed command line: a subcommand, positional arguments, and
/// `--key value` options.
#[derive(Clone, Debug, Default)]
pub struct Args {
    /// The subcommand (first positional argument).
    pub command: String,
    positionals: Vec<String>,
    opts: BTreeMap<String, String>,
    flags: Vec<String>,
}

/// Parse failure (unknown flag, missing value, bad number).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArgError(pub String);

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parse an iterator of arguments (exclusive of the program name).
    pub fn parse<I: IntoIterator<Item = String>>(
        items: I,
        bool_flags: &[&str],
    ) -> Result<Args, ArgError> {
        let mut out = Args::default();
        let mut it = items.into_iter().peekable();
        if let Some(cmd) = it.peek() {
            if !cmd.starts_with("--") {
                out.command = it.next().unwrap();
            }
        }
        while let Some(a) = it.next() {
            let Some(key) = a.strip_prefix("--") else {
                out.positionals.push(a);
                continue;
            };
            if bool_flags.contains(&key) {
                out.flags.push(key.to_string());
            } else {
                let v = it.next().ok_or_else(|| ArgError(format!("--{key} needs a value")))?;
                out.opts.insert(key.to_string(), v);
            }
        }
        Ok(out)
    }

    /// The `i`-th positional argument after the subcommand.
    pub fn positional(&self, i: usize) -> Option<&str> {
        self.positionals.get(i).map(String::as_str)
    }

    /// All positional arguments after the subcommand.
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }

    /// Reject every option or flag that is not in `known` (names without
    /// the `--`), so a typo such as `--interval` for `--interval-ms` is
    /// an error instead of a silently applied default.
    pub fn expect_only(&self, known: &[&str]) -> Result<(), ArgError> {
        match self.flags.iter().chain(self.opts.keys()).find(|k| !known.contains(&k.as_str())) {
            None => Ok(()),
            Some(k) => Err(ArgError(format!(
                "unknown option --{k} for `ocpt {}` (`ocpt help` lists the options it reads)",
                self.command
            ))),
        }
    }

    /// A boolean flag's presence.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// A string option.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.opts.get(name).map(String::as_str)
    }

    /// A parsed option, `None` when absent.
    pub fn opt<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, ArgError> {
        let parse =
            |v: &String| v.parse().map_err(|_| ArgError(format!("--{name}: cannot parse {v:?}")));
        self.opts.get(name).map(parse).transpose()
    }

    /// A parsed option with default.
    pub fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, ArgError> {
        Ok(self.opt(name)?.unwrap_or(default))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(v: &[&str]) -> Result<Args, ArgError> {
        Args::parse(v.iter().map(|s| s.to_string()), &["trace", "quick"])
    }

    #[test]
    fn subcommand_and_options() {
        let a = parse(&["run", "--n", "8", "--algo", "ocpt", "--trace"]).unwrap();
        assert_eq!(a.command, "run");
        assert_eq!(a.get("algo"), Some("ocpt"));
        assert_eq!(a.num("n", 4usize).unwrap(), 8);
        assert!(a.flag("trace"));
        assert!(!a.flag("quick"));
    }

    #[test]
    fn defaults_apply() {
        let a = parse(&["run"]).unwrap();
        assert_eq!(a.num("n", 4usize).unwrap(), 4);
        assert_eq!(a.get("algo"), None);
    }

    #[test]
    fn errors() {
        assert!(parse(&["run", "--n"]).is_err());
        let a = parse(&["run", "--n", "abc"]).unwrap();
        assert!(a.num("n", 4usize).is_err());
    }

    #[test]
    fn positionals_collected_in_order() {
        let a = parse(&["trace", "diff", "a.jsonl", "--context", "5", "b.jsonl"]).unwrap();
        assert_eq!(a.command, "trace");
        assert_eq!(a.positional(0), Some("diff"));
        assert_eq!(a.positional(1), Some("a.jsonl"));
        assert_eq!(a.positional(2), Some("b.jsonl"));
        assert_eq!(a.positional(3), None);
        assert_eq!(a.positionals().len(), 3);
        assert_eq!(a.num("context", 3usize).unwrap(), 5);
    }

    #[test]
    fn no_subcommand() {
        let a = parse(&["--n", "3"]).unwrap();
        assert_eq!(a.command, "");
        assert_eq!(a.num("n", 0usize).unwrap(), 3);
    }
}

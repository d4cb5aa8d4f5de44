//! Minimal `--key value` argument parsing (no external dependencies; the
//! workspace's dependency policy is documented in DESIGN.md §5).

use std::collections::HashMap;

/// Parsed command line: a subcommand plus `--key value` options.
#[derive(Debug, Clone)]
pub(crate) struct Args {
    pub command: String,
    options: HashMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    /// Parse from an iterator of arguments (excluding the program name).
    pub(crate) fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let command = argv.next().ok_or("missing subcommand")?;
        if command.starts_with('-') {
            return Err(format!("expected a subcommand, found option {command}"));
        }
        let mut options = HashMap::new();
        let mut flags = Vec::new();
        let mut pending: Option<String> = None;
        for arg in argv {
            match pending.take() {
                Some(key) => {
                    if arg.starts_with("--") {
                        flags.push(key);
                        pending = Some(arg.trim_start_matches("--").to_string());
                    } else {
                        options.insert(key, arg);
                    }
                }
                None => {
                    if let Some(key) = arg.strip_prefix("--") {
                        pending = Some(key.to_string());
                    } else {
                        return Err(format!("unexpected positional argument: {arg}"));
                    }
                }
            }
        }
        if let Some(key) = pending {
            flags.push(key);
        }
        Ok(Args {
            command,
            options,
            flags,
        })
    }

    /// Required string option.
    pub(crate) fn req(&self, key: &str) -> Result<&str, String> {
        self.options
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing required option --{key}"))
    }

    /// Optional string option.
    pub(crate) fn opt(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// Optional parsed value with a default.
    pub(crate) fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("option --{key}: cannot parse {v:?}")),
        }
    }

    /// Boolean flag presence (`--verify` style).
    pub(crate) fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    /// Fail on the first given `--key` (in name order) that is not in
    /// `known`, naming it: the parser takes any key, and one the
    /// subcommand never reads would otherwise be dropped silently.
    pub(crate) fn only(&self, known: &[&str]) -> Result<(), String> {
        let mut given: Vec<&str> = self.options.keys().chain(&self.flags).map(String::as_str).collect();
        given.sort_unstable();
        match given.into_iter().find(|key| !known.contains(key)) {
            Some(key) => Err(format!("{} does not take --{key}", self.command)),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(v: &[&str]) -> Result<Args, String> {
        Args::parse(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_command_options_and_flags() {
        let a = parse(&["multiply", "--a", "x.mtx", "--procs", "16", "--verify"]).unwrap();
        assert_eq!(a.command, "multiply");
        assert_eq!(a.req("a").unwrap(), "x.mtx");
        assert_eq!(a.get_or("procs", 0usize).unwrap(), 16);
        assert!(a.flag("verify"));
        assert!(!a.flag("square"));
    }

    #[test]
    fn defaults_apply() {
        let a = parse(&["gen"]).unwrap();
        assert_eq!(a.get_or("layers", 4usize).unwrap(), 4);
    }

    #[test]
    fn rejects_positional_and_missing_command() {
        assert!(parse(&["multiply", "stray"]).is_err());
        assert!(parse(&[]).is_err());
        assert!(parse(&["--procs", "4"]).is_err());
    }

    #[test]
    fn unknown_keys_are_rejected_by_name() {
        let a = parse(&["mcl", "--procs", "4", "--batching", "block", "--overlap"]).unwrap();
        assert!(a.only(&["procs", "batching", "overlap"]).is_ok());
        assert_eq!(a.only(&["procs", "overlap"]).unwrap_err(), "mcl does not take --batching");
        // Flags count as keys too.
        assert_eq!(a.only(&["procs", "batching"]).unwrap_err(), "mcl does not take --overlap");
    }

    #[test]
    fn bad_number_is_an_error() {
        let a = parse(&["gen", "--scale", "abc"]).unwrap();
        assert!(a.get_or("scale", 10u32).is_err());
    }
}

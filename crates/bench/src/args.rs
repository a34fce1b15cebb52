//! Strict flag parsing for the `exp_*` binaries: a flag the binary does
//! not know is an error (exit status 2), never silently ignored — a
//! typo'd `--quik` must not run the full-size experiment. A flag given
//! twice is an error too: `--seed 1 --seed 2` must not quietly run one of
//! the two.

use std::{fmt::Display, str::FromStr};

/// The process arguments, checked against the flags a binary knows.
#[derive(Debug)]
pub struct Args(Vec<String>);

impl Args {
    /// Reads the process arguments; `switches` take no value, `valued`
    /// flags take one, and each may be given once. Exits with status 2,
    /// naming the offending argument (and every known flag when it is
    /// unknown), on anything else.
    #[must_use]
    pub fn from_env(switches: &[&str], valued: &[&str]) -> Self {
        Self::check(std::env::args().skip(1).collect(), switches, valued)
            .unwrap_or_else(|e| fail(&e))
    }

    fn check(argv: Vec<String>, switches: &[&str], valued: &[&str]) -> Result<Self, String> {
        let mut seen = Vec::new();
        let mut rest = argv.iter().map(String::as_str);
        while let Some(arg) = rest.next() {
            if valued.contains(&arg) {
                let value = rest.next().filter(|v| !v.starts_with("--"));
                value.ok_or(format!("{arg} requires a value"))?;
            } else if !switches.contains(&arg) {
                let known = [switches, valued].concat().join(" ");
                return Err(format!("unknown argument `{arg}`; known flags: [{known}]"));
            }
            if seen.contains(&arg) {
                return Err(format!("`{arg}` given more than once"));
            }
            seen.push(arg);
        }
        Ok(Self(argv))
    }

    /// `true` if the switch `name` was given.
    #[must_use]
    pub fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    /// The value following the flag `name`, if it was given.
    #[must_use]
    pub fn value(&self, name: &str) -> Option<&str> {
        self.0.iter().position(|a| a == name).map(|i| self.0[i + 1].as_str())
    }

    /// The value of `name` parsed as `T`, or `default` when the flag is
    /// absent. Exits with status 2 if the value does not parse.
    #[must_use]
    pub fn parsed<T: FromStr<Err: Display>>(&self, name: &str, default: T) -> T {
        self.value(name)
            .map_or(default, |v| v.parse().unwrap_or_else(|e| fail(&format!("{name} `{v}`: {e}"))))
    }
}

/// Reports a usage error and exits with status 2.
pub fn fail(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(argv: &[&str]) -> Result<Args, String> {
        Args::check(
            argv.iter().map(|&a| a.to_owned()).collect(),
            &["--quick"],
            &["--json", "--seed"],
        )
    }

    #[test]
    fn known_flags_parse_and_absent_ones_fall_back() {
        let args = check(&["--seed", "9", "--quick"]).expect("all known");
        assert!(args.flag("--quick"));
        assert_eq!(args.value("--json"), None);
        assert_eq!(args.parsed("--seed", 1u64), 9);
        assert_eq!(check(&[]).expect("empty is fine").parsed("--seed", 1u64), 1);
    }

    #[test]
    fn unknown_flags_and_missing_values_are_errors() {
        let err = check(&["--quik"]).expect_err("typo must be rejected");
        assert!(err.contains("`--quik`") && err.contains("[--quick --json --seed]"), "{err}");
        assert!(check(&["stray"]).is_err(), "positionals are not accepted");
        assert!(check(&["--json"]).expect_err("no value").contains("--json requires a value"));
        assert!(check(&["--json", "--quick"]).is_err(), "a flag is not a value");
        let err = check(&["--seed", "1", "--seed", "2"]).expect_err("one seed only");
        assert!(err.contains("`--seed` given more than once"), "{err}");
        assert!(check(&["--quick", "--quick"]).is_err(), "a switch is given once too");
    }
}

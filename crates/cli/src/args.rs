//! Minimal dependency-free argument parsing for the `coolstream` binary.

use std::collections::BTreeMap;

/// Parsed command line: a subcommand plus `--key value` / `--key=value`
/// flags.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Args {
    /// The subcommand (first positional argument).
    pub command: Option<String>,
    /// `--key value` pairs; a flag without a following value maps to "".
    pub flags: BTreeMap<String, String>,
}

impl Args {
    /// Parse an iterator of raw arguments (without the program name).
    /// Both `--key value` and `--key=value` spellings are accepted; in
    /// the `=` form the value may itself contain `=` or start with `--`.
    pub fn parse<I: IntoIterator<Item = String>>(raw: I) -> Args {
        let mut args = Args::default();
        let mut iter = raw.into_iter().peekable();
        while let Some(a) = iter.next() {
            if let Some(key) = a.strip_prefix("--") {
                if let Some((key, value)) = key.split_once('=') {
                    args.flags.insert(key.to_string(), value.to_string());
                    continue;
                }
                let value = match iter.peek() {
                    Some(v) if !v.starts_with("--") => iter.next().unwrap(),
                    _ => String::new(),
                };
                args.flags.insert(key.to_string(), value);
            } else if args.command.is_none() {
                args.command = Some(a);
            }
        }
        args
    }

    /// Typed flag lookup: `None` when the flag is absent, an error
    /// naming the flag when its value does not parse as `T`.
    pub fn get_opt<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.flags
            .get(key)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{key}: cannot parse value {v:?}"))
            })
            .transpose()
    }

    /// Typed flag lookup with a default for an absent flag. A value
    /// that is present but does not parse is an error, never the default.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        Ok(self.get_opt(key)?.unwrap_or(default))
    }

    /// Fail on the first flag the subcommand does not declare.
    pub fn expect_flags(&self, declared: &[&str]) -> Result<(), String> {
        match self.flags.keys().find(|k| !declared.contains(&k.as_str())) {
            None => Ok(()),
            Some(k) => Err(format!(
                "unknown flag --{k} for `{}` (see `coolstream help`)",
                self.command.as_deref().unwrap_or("help")
            )),
        }
    }

    /// Lookup of a flag whose value is optional: `None` when the flag is
    /// absent, `bare` when it has no value, an error naming the flag when
    /// its value does not parse as `T`.
    pub fn get_or_bare<T: std::str::FromStr>(
        &self,
        key: &str,
        bare: T,
    ) -> Result<Option<T>, String> {
        match self.get_str(key) {
            Some("") => Ok(Some(bare)),
            _ => self.get_opt(key),
        }
    }

    /// String flag lookup.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    /// Whether a bare flag is present.
    pub fn has(&self, key: &str) -> bool {
        self.flags.contains_key(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn subcommand_and_flags() {
        let a = parse("run --scale 0.05 --seed 7 --quiet");
        assert_eq!(a.command.as_deref(), Some("run"));
        assert_eq!(a.get("scale", 0.0f64), Ok(0.05));
        assert_eq!(a.get("seed", 0u64), Ok(7));
        assert!(a.has("quiet"));
        assert!(!a.has("missing"));
    }

    #[test]
    fn default_applies_only_when_the_flag_is_absent() {
        let a = parse("analyze --scale abc --seed");
        assert_eq!(a.get("rate", 1.5f64), Ok(1.5));
        assert_eq!(a.get_opt::<u64>("minutes"), Ok(None));
        // Present but unparsable (or missing its value) names the flag.
        let e = a.get("scale", 1.5f64).unwrap_err();
        assert!(e.contains("--scale") && e.contains("abc"), "{e}");
        let e = a.get_opt::<u64>("seed").unwrap_err();
        assert!(e.contains("--seed"), "{e}");
    }

    #[test]
    fn undeclared_flags_are_named() {
        let a = parse("run --seed 7 --sede 8 --quiet");
        assert_eq!(a.expect_flags(&["seed", "sede", "quiet"]), Ok(()));
        let e = a.expect_flags(&["seed", "quiet"]).unwrap_err();
        assert!(e.contains("--sede") && e.contains("`run`"), "{e}");
        assert_eq!(parse("help").expect_flags(&[]), Ok(()));
    }

    #[test]
    fn bare_flag_takes_its_bare_value() {
        let a = parse("run --check-invariants --telemetry 120 --spans x");
        assert_eq!(a.get_or_bare("check-invariants", 1u64), Ok(Some(1)));
        assert_eq!(a.get_or_bare("telemetry", 300u64), Ok(Some(120)));
        assert_eq!(a.get_or_bare("missing", 300u64), Ok(None));
        let e = a.get_or_bare("spans", 1u64).unwrap_err();
        assert!(e.contains("--spans") && e.contains("\"x\""), "{e}");
    }

    #[test]
    fn empty_input() {
        let a = parse("");
        assert_eq!(a.command, None);
        assert!(a.flags.is_empty());
    }

    #[test]
    fn flag_followed_by_flag_gets_empty_value() {
        let a = parse("run --quiet --seed 1");
        assert_eq!(a.get_str("quiet"), Some(""));
        assert_eq!(a.get("seed", 0u64), Ok(1));
    }

    #[test]
    fn equals_form_matches_space_form() {
        let spaced = parse("run --scale 0.05 --seed 7 --out dir");
        let equals = parse("run --scale=0.05 --seed=7 --out=dir");
        assert_eq!(spaced, equals);
    }

    #[test]
    fn equals_form_edge_cases() {
        // Value containing '=' splits only at the first one.
        let a = parse("run --filter k=v");
        assert_eq!(a.get_str("filter"), Some("k=v"));
        let a = parse("run --filter=k=v");
        assert_eq!(a.get_str("filter"), Some("k=v"));
        // Explicit empty value.
        let a = parse("run --out=");
        assert_eq!(a.get_str("out"), Some(""));
        // '=' lets a value start with "--" (the space form can't).
        let a = parse("run --label=--weird");
        assert_eq!(a.get_str("label"), Some("--weird"));
    }

    #[test]
    fn trailing_flag_without_value_is_empty() {
        let a = parse("run --seed 3 --trace-hash");
        assert_eq!(a.get("seed", 0u64), Ok(3));
        assert_eq!(a.get_str("trace-hash"), Some(""));
        assert!(a.has("trace-hash"));
    }
}

//! Strict command-line flag parsing, shared by every binary in the
//! workspace (`usd-sim`, the experiment binaries and the bench tools).

/// Strict flag parser: each command names its value flags (`--name
/// value` / `--name=value`) and its boolean flags (which may carry an
/// inline `=value`, the `--telemetry[=json]` shape). An unknown flag, a
/// flag given twice and a positional argument are errors naming the
/// offender, so a typo never runs a different experiment.
pub struct Flags {
    pairs: Vec<(String, Option<String>)>,
}

impl Flags {
    /// Parse `args` against the command's `values` and `bools` flags.
    pub fn parse(args: &[String], values: &[&str], bools: &[&str]) -> Result<Self, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let Some(flag) = a.strip_prefix("--") else {
                return Err(format!("unexpected argument '{a}'"));
            };
            let (name, inline) = match flag.split_once('=') {
                Some((name, value)) => (name, Some(value.to_string())),
                None => (flag, None),
            };
            let value = if values.contains(&name) {
                Some(match inline {
                    Some(v) => v,
                    None => it
                        .next()
                        .ok_or_else(|| format!("--{name} needs a value"))?
                        .clone(),
                })
            } else if bools.contains(&name) {
                inline
            } else {
                return Err(format!("unknown flag --{name}"));
            };
            if pairs.iter().any(|(k, _)| k == name) {
                return Err(format!("--{name} given twice"));
            }
            pairs.push((name.to_string(), value));
        }
        Ok(Flags { pairs })
    }

    /// Tri-state lookup for flags with an optional inline value: `None`
    /// when absent, `Some(None)` for the bare flag, `Some(Some(v))` for
    /// `--name=v`.
    pub fn get_opt(&self, name: &str) -> Option<Option<&str>> {
        self.pairs
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_deref())
    }

    /// Look up a value flag and parse it.
    pub fn get<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.get_opt(name) {
            None => Ok(None),
            Some(v) => v
                .ok_or_else(|| format!("--{name} needs a value"))?
                .parse::<T>()
                .map(Some)
                .map_err(|e| format!("--{name}: {e}")),
        }
    }

    /// Whether a boolean flag is present; an inline value is an error.
    pub fn has(&self, name: &str) -> Result<bool, String> {
        match self.get_opt(name) {
            Some(Some(v)) => Err(format!("--{name} takes no value, got '{v}'")),
            present => Ok(present.is_some()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn flags_parse_pairs_bools_positional() {
        let f = Flags::parse(&s(&["--n", "100", "--max-bias"]), &["n"], &["max-bias"]).unwrap();
        assert_eq!(f.get::<u64>("n").unwrap(), Some(100));
        assert!(f.has("max-bias").unwrap());
        assert_eq!(f.get::<u64>("k").unwrap(), None);
        // A positional argument is refused, naming it.
        let err = Flags::parse(&s(&["--max-bias", "file.bin"]), &[], &["max-bias"]);
        assert_eq!(err.err().unwrap(), "unexpected argument 'file.bin'");
        // So is a value on a boolean flag.
        let f = Flags::parse(&s(&["--max-bias=5"]), &[], &["max-bias"]).unwrap();
        assert!(f.has("max-bias").unwrap_err().contains("takes no value"));
    }

    #[test]
    fn flags_report_missing_values() {
        assert!(Flags::parse(&s(&["--n"]), &["n"], &[]).is_err());
    }

    #[test]
    fn flags_split_inline_equals_values() {
        let f = Flags::parse(&s(&["--n=100", "--telemetry=json"]), &["n"], &["telemetry"]).unwrap();
        assert_eq!(f.get::<u64>("n").unwrap(), Some(100));
        assert_eq!(f.get_opt("telemetry"), Some(Some("json")));
        let f = Flags::parse(&s(&["--telemetry"]), &[], &["telemetry"]).unwrap();
        assert_eq!(f.get_opt("telemetry"), Some(None));
        assert_eq!(f.get_opt("missing"), None);
    }

    #[test]
    fn flags_report_bad_parse() {
        let f = Flags::parse(&s(&["--n", "abc"]), &["n"], &[]).unwrap();
        assert!(f.get::<u64>("n").is_err());
    }
}

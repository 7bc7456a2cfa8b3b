//! Typed command-line validation shared by the harness binaries.
//!
//! `soak`, `mesa-top`, and `mesa-serve` all parse their flags by hand (the
//! repo is zero-dependency). Before this module each binary silently fell
//! back to its usage string on any malformed value, which conflated "you
//! typed `--replay 0xZZ`" with "you forgot an argument" and made the
//! failure untestable. These helpers return a typed [`CliError`] naming
//! the flag, the offending value, and the reason; binaries print it and
//! exit with status 2 (the conventional usage-error code, distinct from
//! the divergence/failure exit 1).

use std::fmt;

/// A rejected command-line argument: which flag, what value, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError {
    /// The flag being parsed (e.g. `--replay`).
    pub flag: String,
    /// The offending value, if one was present.
    pub value: Option<String>,
    /// Human-readable reason the value was rejected.
    pub reason: String,
}

impl CliError {
    fn new(flag: &str, value: Option<&str>, reason: impl Into<String>) -> Self {
        CliError {
            flag: flag.to_string(),
            value: value.map(str::to_string),
            reason: reason.into(),
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.value {
            Some(v) => write!(f, "invalid value {v:?} for {}: {}", self.flag, self.reason),
            None => write!(f, "{}: {}", self.flag, self.reason),
        }
    }
}

impl std::error::Error for CliError {}

/// The process's command-line arguments (program name skipped) with the
/// shared `--fast-forward` switch taken out, plus whether it was given.
/// The flag is the only way to turn functional fast-forward on: the
/// binary sets [`mesa_core::SystemConfig::fast_forward`] on every config
/// it builds, or passes the flag to the library helper that builds them.
#[must_use]
pub fn fast_forward_args() -> (bool, Vec<String>) {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let given = args.len();
    args.retain(|a| a != "--fast-forward");
    (args.len() != given, args)
}

/// Takes the value following `flag` at `args[*i + 1]`, advancing `*i`.
///
/// # Errors
/// Returns a [`CliError`] when the flag is the last argument.
pub fn take_value<'a>(flag: &str, args: &'a [String], i: &mut usize) -> Result<&'a str, CliError> {
    *i += 1;
    args.get(*i)
        .map(String::as_str)
        .ok_or_else(|| CliError::new(flag, None, "missing required value"))
}

/// Parses a `u64`, accepting decimal or `0x`-prefixed hexadecimal.
///
/// # Errors
/// Returns a [`CliError`] naming the flag and value on malformed input
/// (e.g. `--replay 0xZZ`).
pub fn parse_u64(flag: &str, value: &str) -> Result<u64, CliError> {
    let parsed = match value.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => value.parse(),
    };
    parsed.map_err(|_| {
        CliError::new(flag, Some(value), "expected a u64 (decimal or 0x-prefixed hex)")
    })
}

/// Parses a `u64` that must be strictly positive (`--tenants 0` is a
/// configuration error, not an empty fleet).
///
/// # Errors
/// Returns a [`CliError`] on malformed input or on zero.
pub fn parse_nonzero_u64(flag: &str, value: &str) -> Result<u64, CliError> {
    match parse_u64(flag, value)? {
        0 => Err(CliError::new(flag, Some(value), "must be greater than zero")),
        n => Ok(n),
    }
}

/// [`parse_u64`] narrowed to `usize`.
///
/// # Errors
/// As [`parse_u64`], plus values that overflow `usize`.
pub fn parse_usize(flag: &str, value: &str) -> Result<usize, CliError> {
    let n = parse_u64(flag, value)?;
    usize::try_from(n)
        .map_err(|_| CliError::new(flag, Some(value), "value does not fit in usize"))
}

/// [`parse_nonzero_u64`] narrowed to `usize`.
///
/// # Errors
/// As [`parse_usize`], plus zero values.
pub fn parse_nonzero_usize(flag: &str, value: &str) -> Result<usize, CliError> {
    match parse_usize(flag, value)? {
        0 => Err(CliError::new(flag, Some(value), "must be greater than zero")),
        n => Ok(n),
    }
}

/// Parses one choice out of a fixed set (e.g. `--grid m64|m128|m512`),
/// returning the matching index into `choices`.
///
/// # Errors
/// Returns a [`CliError`] listing the valid choices.
pub fn parse_choice(flag: &str, value: &str, choices: &[&str]) -> Result<usize, CliError> {
    choices.iter().position(|c| *c == value).ok_or_else(|| {
        CliError::new(flag, Some(value), format!("expected one of: {}", choices.join(", ")))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_decimal_and_hex() {
        assert_eq!(parse_u64("--seed", "42").unwrap(), 42);
        assert_eq!(parse_u64("--seed", "0x2a").unwrap(), 0x2a);
        assert_eq!(parse_u64("--seed", "0xDEADBEEF").unwrap(), 0xDEAD_BEEF);
        assert_eq!(parse_u64("--seed", "0").unwrap(), 0);
    }

    /// The motivating regression: `--replay 0xZZ` used to collapse into
    /// the generic usage message. It must now produce a typed error that
    /// names the flag and the bad value.
    #[test]
    fn rejects_malformed_hex_with_flag_and_value() {
        let err = parse_u64("--replay", "0xZZ").unwrap_err();
        assert_eq!(err.flag, "--replay");
        assert_eq!(err.value.as_deref(), Some("0xZZ"));
        let msg = err.to_string();
        assert!(msg.contains("--replay"), "{msg}");
        assert!(msg.contains("0xZZ"), "{msg}");
        assert!(parse_u64("--iters", "twelve").is_err());
        assert!(parse_u64("--iters", "").is_err());
        assert!(parse_u64("--iters", "0x").is_err());
        assert!(parse_u64("--iters", "-3").is_err());
    }

    #[test]
    fn rejects_zero_where_nonzero_is_required() {
        let err = parse_nonzero_usize("--tenants", "0").unwrap_err();
        assert_eq!(err.flag, "--tenants");
        assert!(err.to_string().contains("greater than zero"));
        assert_eq!(parse_nonzero_usize("--tenants", "3").unwrap(), 3);
        assert!(parse_nonzero_u64("--migrate-every", "0x0").is_err());
        assert_eq!(parse_nonzero_u64("--migrate-every", "0x10").unwrap(), 16);
    }

    #[test]
    fn take_value_requires_a_following_argument() {
        let args: Vec<String> = vec!["--seed".into(), "7".into(), "--replay".into()];
        let mut i = 0;
        assert_eq!(take_value("--seed", &args, &mut i).unwrap(), "7");
        assert_eq!(i, 1);
        i = 2;
        let err = take_value("--replay", &args, &mut i).unwrap_err();
        assert_eq!(err.flag, "--replay");
        assert!(err.to_string().contains("missing required value"));
    }

    #[test]
    fn choice_lists_alternatives() {
        assert_eq!(parse_choice("--grid", "m128", &["m64", "m128", "m512"]).unwrap(), 1);
        let err = parse_choice("--grid", "m1024", &["m64", "m128", "m512"]).unwrap_err();
        assert!(err.to_string().contains("m64, m128, m512"), "{err}");
    }
}

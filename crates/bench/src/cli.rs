//! Shared CLI scaffolding for the bench binaries.
//!
//! Every fig/table/driver binary follows the same contract: malformed
//! invocations die with a one-line `error:` diagnostic on stderr and
//! exit code 2 — never a panic backtrace (see `tests/cli_diagnostics.rs`).
//! This module is the single implementation of that contract: flag-value
//! extraction, chip-name parsing, and the `--profile-dir` knob every
//! fig/table binary accepts.

use plasticine_arch::{ChipSpec, SystemSpec};
use std::path::PathBuf;
use std::sync::OnceLock;

/// This process's arguments, program name dropped.
pub fn args() -> Vec<String> {
    std::env::args().skip(1).collect()
}

/// Die with a one-line usage diagnostic (exit 2).
pub fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// Value of a `--flag VALUE` pair, advancing `i` past the value, or a
/// one-line usage error (exit 2) when the value is missing.
pub fn flag_value(args: &[String], i: &mut usize, flag: &str) -> String {
    *i += 1;
    match args.get(*i) {
        Some(v) => v.clone(),
        None => usage_error(&format!("{flag} requires a value")),
    }
}

/// Parse a `--chip` value through [`ChipSpec::by_name`], or a one-line
/// usage error (exit 2) naming the accepted spellings — including the
/// multi-chip system names, which `--chip` itself does not accept, so a
/// user who typed `--chip 4x8x8` learns the flag they wanted.
pub fn parse_chip_or_exit(name: &str) -> ChipSpec {
    ChipSpec::by_name(name).unwrap_or_else(|| {
        usage_error(&format!(
            "unknown chip {name} (expected {}; multi-chip systems like {} take --system)",
            ChipSpec::NAMES.join(", "),
            SystemSpec::NAMES.join(", "),
        ))
    })
}

/// Parse a `--system` value through [`SystemSpec::by_name`] (plain chip
/// names resolve to their 1-chip system), or a one-line usage error
/// (exit 2) naming both the chip and the system spellings.
pub fn parse_system_or_exit(name: &str) -> SystemSpec {
    SystemSpec::by_name(name).unwrap_or_else(|| {
        usage_error(&format!(
            "unknown system {name} (expected a chip ({}) or <count>x<chip> with 2-16 chips, \
             e.g. {})",
            ChipSpec::NAMES.join(", "),
            SystemSpec::NAMES.join(", "),
        ))
    })
}

static PROFILE_DIR: OnceLock<Option<PathBuf>> = OnceLock::new();

/// Directory for per-run profile artifacts, from `--profile-dir` (see
/// [`parse_profile_dir_flag`]) or `SARA_BENCH_PROFILE_DIR`. `None`
/// disables profiling in [`crate::run`].
pub fn profile_dir() -> Option<PathBuf> {
    PROFILE_DIR
        .get_or_init(|| std::env::var_os("SARA_BENCH_PROFILE_DIR").map(PathBuf::from))
        .clone()
}

/// Consume a `--profile-dir DIR` argument from this process's command
/// line (the one knob the fig/table binaries accept). Call at the top of
/// `main`, before any [`crate::run`].
pub fn parse_profile_dir_flag() {
    let mut dir = std::env::var_os("SARA_BENCH_PROFILE_DIR").map(PathBuf::from);
    let args = args();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--profile-dir" {
            dir = Some(PathBuf::from(flag_value(&args, &mut i, "--profile-dir")));
        }
        i += 1;
    }
    let _ = PROFILE_DIR.set(dir);
}

//! The one argument parser of the bench binaries.
//!
//! Every binary takes an optional positional number (the measurement scale
//! factor) plus the flags it declares; anything else prints the binary's
//! usage line and exits 2. The figure binaries share `--trace <path>`, which
//! turns on observability for the run and writes the recorded spans as
//! Chrome trace-event JSON — open the file in Perfetto (ui.perfetto.dev) to
//! see the simulated job timelines.

use clyde_common::obs::trace;
use clyde_common::Obs;
use std::str::FromStr;
use std::sync::Arc;

pub struct BenchArgs {
    usage: String,
    positional: Option<f64>,
    /// `(flag, value)` in command-line order; switches carry an empty value.
    flags: Vec<(String, String)>,
}

/// Parse `std::env::args` against the flags a binary accepts: `valued`
/// flags consume the next argument, `switches` stand alone. `usage` is
/// printed on `--help` (exit 0) and on any error (exit 2).
pub fn parse(usage: &str, valued: &[&str], switches: &[&str]) -> BenchArgs {
    let mut out = BenchArgs {
        usage: usage.to_string(),
        positional: None,
        flags: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--help" || a == "-h" {
            out.fail("");
        } else if valued.contains(&a.as_str()) {
            match args.next() {
                Some(v) => out.flags.push((a, v)),
                None => out.fail(&format!("{a} needs a value")),
            }
        } else if switches.contains(&a.as_str()) {
            out.flags.push((a, String::new()));
        } else {
            match a.parse::<f64>() {
                Ok(v) if v > 0.0 => out.positional = Some(v),
                _ => out.fail(&format!("unrecognized argument `{a}`")),
            }
        }
    }
    out
}

/// [`parse`] for a figure binary: `[measurement-sf] [--trace <out.json>]`.
pub fn figure(bin: &str) -> BenchArgs {
    parse(
        &format!("usage: {bin} [measurement-sf] [--trace <out.json>]"),
        &["--trace"],
        &[],
    )
}

impl BenchArgs {
    /// Print `err` (if any) and the usage line, then exit: 0 for a bare
    /// usage request, 2 for an error.
    pub fn fail(&self, err: &str) -> ! {
        if !err.is_empty() {
            eprintln!("error: {err}");
        }
        eprintln!("{}", self.usage);
        std::process::exit(if err.is_empty() { 0 } else { 2 });
    }

    /// The positional scale factor, or the binary's default.
    pub fn sf(&self, default: f64) -> f64 {
        self.positional.unwrap_or(default)
    }

    /// The value of a valued flag (the last occurrence wins).
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }

    /// A valued flag parsed as `T`; a value that does not parse is a usage
    /// error.
    pub fn parsed<T: FromStr>(&self, flag: &str) -> Option<T> {
        self.value(flag).map(|v| {
            v.parse()
                .unwrap_or_else(|_| self.fail(&format!("{flag} cannot take `{v}`")))
        })
    }

    /// Whether a flag (valued or switch) was given.
    pub fn has(&self, flag: &str) -> bool {
        self.value(flag).is_some()
    }

    /// `--faults <seed>`: run the figure's queries a second time under the
    /// `combined` fault plan and report the recovery actions and the
    /// simulated cost of the wasted work.
    pub fn faults(&self) -> Option<u64> {
        self.parsed("--faults")
    }

    /// An enabled hub when `--trace` was given, the no-op hub otherwise.
    pub fn obs(&self) -> Arc<Obs> {
        if self.has("--trace") {
            Obs::enabled()
        } else {
            Obs::disabled()
        }
    }

    /// Write the recorded trace to the `--trace` path (no-op without one)
    /// and validate what was written: a trace Perfetto would misrender
    /// (malformed events, timestamps running backwards within a track)
    /// fails the run, with the file left in place for inspection.
    pub fn write_trace(&self, obs: &Obs) {
        let Some(path) = self.value("--trace") else {
            return;
        };
        let text = obs.chrome_trace();
        std::fs::write(path, &text).expect("write trace file");
        match trace::validate(&text) {
            Ok((events, tracks)) => eprintln!(
                "wrote Chrome trace to {path}: {events} duration events across {tracks} tracks \
                 (load in ui.perfetto.dev)"
            ),
            Err(e) => {
                eprintln!("error: {path} is not a well-formed trace: {e}");
                std::process::exit(1);
            }
        }
    }
}

//! The one place in the workspace allowed to read the wall clock.
//!
//! Everything this codebase *reports* — query results, metric snapshots,
//! Chrome traces, job histories — must be a pure function of inputs and
//! seeds, so `clippy.toml` bans `Instant::now` and `SystemTime::now`
//! everywhere (rule **D002**), and [`WallTimer::start`] carries the one
//! exemption. Code that legitimately wants wall time (phase attribution in
//! runners, bench harness stopwatches) goes through [`WallTimer`], which
//! keeps every reading funneled past one audited boundary and makes the
//! call sites grep-able.
//!
//! Wall readings are observability-only: they may be *recorded* (task
//! `wall_ns`, `Phase` attribution, bench reports) but must never feed back
//! into simulated time, scheduling decisions, or result content. They reach
//! artifacts only through the filtered channels — `note_wall_phase` and the
//! catalog's `WallHistogram` series, emitted by `wall_histogram_record` —
//! and `clyde-lint`'s D008 taint pass flags any other flow into a sim-time
//! sink. The shadow dual-run harness (`shadow_check`) checks the result
//! dynamically by byte-diffing the deterministic outputs across runs.

use std::time::Instant;

/// A started stopwatch. The only sanctioned way to measure wall time.
#[derive(Debug, Clone, Copy)]
pub struct WallTimer {
    start: Instant,
}

impl WallTimer {
    /// Start measuring now.
    #[expect(
        clippy::disallowed_methods,
        reason = "D002: the one audited wall-clock read"
    )]
    pub fn start() -> WallTimer {
        WallTimer {
            start: Instant::now(),
        }
    }

    /// Nanoseconds since [`WallTimer::start`], saturating at `u64::MAX`.
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Seconds since [`WallTimer::start`].
    pub fn elapsed_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_is_monotone() {
        let t = WallTimer::start();
        let a = t.elapsed_ns();
        let b = t.elapsed_ns();
        assert!(b >= a);
        assert!(t.elapsed_s() >= 0.0);
    }
}

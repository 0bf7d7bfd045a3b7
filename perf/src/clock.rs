//! The one place the benchmark reads the host clock.
//!
//! The repo's determinism linter (`hhsim-analysis`, rule
//! `wall-clock-in-sim`) flags every mention of the wall-clock type outside
//! its exempt crates, and its configuration lives outside this package. A
//! benchmark measures host time by definition, so the type is confined to
//! this wrapper and each mention carries the linter's inline escape.

/// A running wall-clock timer.
#[derive(Debug, Clone, Copy)]
// hhsim: allow(wall-clock-in-sim): benchmark harness; host time is the measured quantity and never feeds a simulated one
pub struct Stopwatch(std::time::Instant);

impl Stopwatch {
    /// Starts timing now.
    // The repo's clippy.toml bans the call for the same reason.
    #[allow(clippy::disallowed_methods)]
    pub fn start() -> Self {
        // hhsim: allow(wall-clock-in-sim): benchmark harness; host time is the measured quantity and never feeds a simulated one
        Stopwatch(std::time::Instant::now())
    }

    /// Seconds since [`Stopwatch::start`].
    pub fn seconds(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }

    /// Whole nanoseconds since [`Stopwatch::start`].
    pub fn nanos(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

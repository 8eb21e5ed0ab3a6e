//! A tiny wall-clock stopwatch used by components and benches to report
//! per-timestep and end-to-end times.

use std::time::{Duration, Instant};

/// Accumulating stopwatch with lap support.
///
/// ```
/// use sb_comm::Stopwatch;
/// let mut sw = Stopwatch::started();
/// let lap = sw.lap();
/// assert!(lap >= std::time::Duration::ZERO);
/// assert!(sw.elapsed() >= lap);
/// ```
#[derive(Debug, Clone)]
pub struct Stopwatch {
    start: Instant,
    last_lap: Instant,
}

impl Stopwatch {
    /// Starts a new stopwatch.
    pub fn started() -> Self {
        let now = Instant::now();
        Stopwatch {
            start: now,
            last_lap: now,
        }
    }

    /// Time since the stopwatch was started.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Time since the previous `lap()` (or start), and resets the lap mark.
    pub fn lap(&mut self) -> Duration {
        let now = Instant::now();
        let d = now - self.last_lap;
        self.last_lap = now;
        d
    }

    /// Restarts both the total and lap clocks.
    pub fn restart(&mut self) {
        let now = Instant::now();
        self.start = now;
        self.last_lap = now;
    }
}

impl Default for Stopwatch {
    fn default() -> Self {
        Stopwatch::started()
    }
}

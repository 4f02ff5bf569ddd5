//! A restartable stopwatch for the miners' and builders' elapsed-time counters.

use std::time::{Duration, Instant};

/// A restartable stopwatch.
#[derive(Debug, Clone)]
pub struct Stopwatch {
    started: Instant,
}

impl Stopwatch {
    /// Starts a new stopwatch.
    pub fn start() -> Self {
        Stopwatch {
            started: Instant::now(),
        }
    }

    /// Elapsed time since start (or last reset).
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Elapsed seconds as `f64`.
    pub fn elapsed_secs(&self) -> f64 {
        self.elapsed().as_secs_f64()
    }

    /// Resets the stopwatch and returns the elapsed time before the reset.
    pub fn lap(&mut self) -> Duration {
        let e = self.started.elapsed();
        self.started = Instant::now();
        e
    }
}

impl Default for Stopwatch {
    fn default() -> Self {
        Self::start()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_measures_nonzero() {
        let sw = Stopwatch::start();
        std::thread::sleep(Duration::from_millis(2));
        assert!(sw.elapsed_secs() > 0.0);
    }

    #[test]
    fn lap_resets() {
        let mut sw = Stopwatch::start();
        std::thread::sleep(Duration::from_millis(2));
        let first = sw.lap();
        assert!(first.as_secs_f64() > 0.0);
        assert!(sw.elapsed() <= first + Duration::from_millis(50));
    }
}

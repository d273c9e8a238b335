//! Wall-clock measurement helpers for throughput-style experiments.

use std::time::{Duration, Instant};

/// A started stopwatch.
///
/// # Example
///
/// ```
/// use sigma_metrics::Stopwatch;
///
/// let sw = Stopwatch::start();
/// let work: u64 = (0..1000u64).sum();
/// assert!(work > 0);
/// let t = sw.stop(8 << 20);
/// assert!(t.elapsed_secs() >= 0.0);
/// assert!(t.mb_per_sec() > 0.0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    started: Instant,
}

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Self {
        Stopwatch {
            started: Instant::now(),
        }
    }

    /// Elapsed time so far.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Stops and converts to a [`Throughput`] for `bytes` bytes of work.
    pub fn stop(self, bytes: u64) -> Throughput {
        Throughput::new(bytes, self.elapsed())
    }
}

/// Bytes processed over a span of wall-clock time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Throughput {
    /// Bytes of work performed.
    pub bytes: u64,
    /// Elapsed wall-clock seconds.
    pub seconds: f64,
}

impl Throughput {
    /// Creates a measurement from raw parts.
    pub fn new(bytes: u64, elapsed: Duration) -> Self {
        Throughput {
            bytes,
            seconds: elapsed.as_secs_f64(),
        }
    }

    /// Elapsed seconds.
    pub fn elapsed_secs(&self) -> f64 {
        self.seconds
    }

    /// Megabytes (2^20 bytes) processed per second; 0 for a zero-length interval.
    pub fn mb_per_sec(&self) -> f64 {
        if self.seconds <= 0.0 {
            0.0
        } else {
            self.bytes as f64 / (1024.0 * 1024.0) / self.seconds
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_math() {
        let t = Throughput {
            bytes: 10 * 1024 * 1024,
            seconds: 2.0,
        };
        assert!((t.mb_per_sec() - 5.0).abs() < 1e-9);
        let zero = Throughput {
            bytes: 100,
            seconds: 0.0,
        };
        assert_eq!(zero.mb_per_sec(), 0.0);
    }

    #[test]
    fn stopwatch_measures_nonzero_time() {
        let sw = Stopwatch::start();
        std::thread::sleep(Duration::from_millis(2));
        let t = sw.stop(1024);
        assert!(t.elapsed_secs() > 0.0);
    }
}

//! A simple disk model used for I/O accounting in the simulated deduplication nodes.
//!
//! The paper's evaluation measures system overhead in terms of index-lookup messages
//! and attributes the intra-node bottleneck to random disk I/O against the on-disk
//! chunk index.  Since this reproduction runs on a single machine, the storage layer
//! does not actually pay seek latency; instead every structure records the disk
//! operations it *would* perform against this model, so experiments can report
//! comparable I/O counts and derive simulated latency.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Parameters describing the simulated disk.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DiskParams {
    /// Average time of one random I/O operation (seek + rotation), in microseconds.
    pub random_io_us: f64,
    /// Sequential transfer bandwidth in MB/s.
    pub sequential_mb_per_s: f64,
}

impl Default for DiskParams {
    /// A 7200 RPM SATA disk comparable to the paper's testbed (Samsung 250 GB HDD):
    /// ~8 ms per random I/O and ~100 MB/s sequential bandwidth.
    fn default() -> Self {
        DiskParams {
            random_io_us: 8000.0,
            sequential_mb_per_s: 100.0,
        }
    }
}

/// Counters of simulated disk activity.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DiskStats {
    /// Number of random read operations (e.g. chunk-index lookups on disk).
    pub random_reads: u64,
    /// Number of random write operations.
    pub random_writes: u64,
    /// Bytes transferred sequentially (container reads/writes).
    pub sequential_bytes: u64,
    /// Number of sequential transfer operations.
    pub sequential_ops: u64,
}

impl DiskStats {
    /// Total number of I/O operations of any kind.
    pub fn total_ops(&self) -> u64 {
        self.random_reads + self.random_writes + self.sequential_ops
    }
}

/// Thread-safe simulated disk.
///
/// # Example
///
/// ```
/// use sigma_storage::{DiskModel, DiskParams};
///
/// let disk = DiskModel::new(DiskParams::default());
/// disk.record_random_read();
/// disk.record_sequential_transfer(4 << 20);
/// let stats = disk.stats();
/// assert_eq!(stats.random_reads, 1);
/// assert_eq!(stats.sequential_bytes, 4 << 20);
/// assert!(disk.simulated_time_us() > 0.0);
/// ```
#[derive(Debug, Default)]
pub struct DiskModel {
    params: DiskParams,
    random_reads: AtomicU64,
    random_writes: AtomicU64,
    sequential_bytes: AtomicU64,
    sequential_ops: AtomicU64,
}

impl DiskModel {
    /// Creates a disk model with the given parameters.
    pub fn new(params: DiskParams) -> Self {
        DiskModel {
            params,
            ..DiskModel::default()
        }
    }

    /// The disk parameters.
    pub fn params(&self) -> DiskParams {
        self.params
    }

    /// Records one random read (e.g. an on-disk index probe).
    pub fn record_random_read(&self) {
        self.random_reads.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one random write.
    pub fn record_random_write(&self) {
        self.random_writes.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a sequential transfer of `bytes` bytes (container read or write).
    pub fn record_sequential_transfer(&self, bytes: u64) {
        self.sequential_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.sequential_ops.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot of the accumulated counters.
    pub fn stats(&self) -> DiskStats {
        DiskStats {
            random_reads: self.random_reads.load(Ordering::Relaxed),
            random_writes: self.random_writes.load(Ordering::Relaxed),
            sequential_bytes: self.sequential_bytes.load(Ordering::Relaxed),
            sequential_ops: self.sequential_ops.load(Ordering::Relaxed),
        }
    }

    /// Resets all counters to zero.
    pub fn reset(&self) {
        self.random_reads.store(0, Ordering::Relaxed);
        self.random_writes.store(0, Ordering::Relaxed);
        self.sequential_bytes.store(0, Ordering::Relaxed);
        self.sequential_ops.store(0, Ordering::Relaxed);
    }

    /// Total simulated time the recorded operations would take, in microseconds.
    pub fn simulated_time_us(&self) -> f64 {
        let s = self.stats();
        let random = (s.random_reads + s.random_writes) as f64 * self.params.random_io_us;
        let sequential =
            s.sequential_bytes as f64 / (self.params.sequential_mb_per_s * 1_048_576.0) * 1e6;
        random + sequential
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let disk = DiskModel::new(DiskParams::default());
        for _ in 0..5 {
            disk.record_random_read();
        }
        disk.record_random_write();
        disk.record_sequential_transfer(1000);
        disk.record_sequential_transfer(2000);
        let s = disk.stats();
        assert_eq!(s.random_reads, 5);
        assert_eq!(s.random_writes, 1);
        assert_eq!(s.sequential_bytes, 3000);
        assert_eq!(s.sequential_ops, 2);
        assert_eq!(s.total_ops(), 8);
    }

    #[test]
    fn reset_clears_counters() {
        let disk = DiskModel::new(DiskParams::default());
        disk.record_random_read();
        disk.reset();
        assert_eq!(disk.stats().total_ops(), 0);
        assert_eq!(disk.simulated_time_us(), 0.0);
    }

    #[test]
    fn simulated_time_reflects_parameters() {
        let disk = DiskModel::new(DiskParams {
            random_io_us: 1000.0,
            sequential_mb_per_s: 1.0,
        });
        disk.record_random_read();
        disk.record_sequential_transfer(1_048_576);
        // 1 random I/O at 1ms + 1 MB at 1 MB/s = 1ms + 1s.
        let t = disk.simulated_time_us();
        assert!((t - (1000.0 + 1_000_000.0)).abs() < 1.0, "t = {}", t);
    }

    #[test]
    fn concurrent_updates_are_not_lost() {
        let disk = std::sync::Arc::new(DiskModel::new(DiskParams::default()));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let d = disk.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    d.record_random_read();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(disk.stats().random_reads, 4000);
    }
}

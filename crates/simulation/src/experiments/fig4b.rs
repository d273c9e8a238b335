//! Figure 4(b): parallel similarity-index lookup vs. lock granularity.
//!
//! The similarity index is shared by all data-stream threads of a node, so its lock
//! striping granularity determines how well lookups scale.  The paper sweeps the
//! number of locks from 1 to 64 Ki for 1–16 streams and finds that throughput rises
//! until about 1024 locks and that 8 streams (the hardware thread count) performs
//! best.

use sigma_hashkit::{Digest, Sha1};
use sigma_metrics::report::TextTable;
use sigma_metrics::Stopwatch;
use sigma_storage::{ContainerId, SimilarityIndex};
use std::sync::Arc;

/// One measured point.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4bRow {
    /// Number of lock stripes.
    pub locks: usize,
    /// Number of concurrent lookup streams (threads).
    pub streams: usize,
    /// Aggregate lookups per second.
    pub lookups_per_sec: f64,
}

/// Parameters of the experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4bParams {
    /// Entries preloaded into the index.
    pub preload_entries: usize,
    /// Lookups performed per stream.
    pub lookups_per_stream: usize,
    /// Lock counts to sweep.
    pub lock_counts: Vec<usize>,
    /// Stream counts to sweep.
    pub stream_counts: Vec<usize>,
}

impl Default for Fig4bParams {
    fn default() -> Self {
        Fig4bParams {
            preload_entries: 200_000,
            lookups_per_stream: 500_000,
            lock_counts: vec![1, 4, 16, 64, 256, 1024, 4096, 16384, 65536],
            stream_counts: vec![1, 2, 4, 8, 16],
        }
    }
}

/// Runs the experiment.
pub fn run(params: &Fig4bParams) -> Vec<Fig4bRow> {
    let mut rows = Vec::new();
    for &locks in &params.lock_counts {
        for &streams in &params.stream_counts {
            rows.push(Fig4bRow {
                locks,
                streams,
                lookups_per_sec: measure(locks, streams, params),
            });
        }
    }
    rows
}

/// Measures one `(locks, streams)` point.
pub fn measure(locks: usize, streams: usize, params: &Fig4bParams) -> f64 {
    let index = Arc::new(SimilarityIndex::new(locks));
    let keys: Vec<_> = (0..params.preload_entries as u64)
        .map(|i| Sha1::fingerprint(&i.to_le_bytes()))
        .collect();
    for (i, key) in keys.iter().enumerate() {
        index.insert(*key, ContainerId::new(i as u64));
    }

    let total_lookups = (streams * params.lookups_per_stream) as u64;
    let stopwatch = Stopwatch::start();
    std::thread::scope(|scope| {
        for stream in 0..streams {
            let index = index.clone();
            let keys = &keys;
            scope.spawn(move || {
                let mut state = (stream as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15);
                for _ in 0..params.lookups_per_stream {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    let key = &keys[(state % keys.len() as u64) as usize];
                    std::hint::black_box(index.lookup(key));
                }
            });
        }
    });
    let elapsed = stopwatch.elapsed().as_secs_f64();
    if elapsed <= 0.0 {
        0.0
    } else {
        total_lookups as f64 / elapsed
    }
}

/// Renders the figure (lock counts as rows, stream counts as columns).
pub fn render(rows: &[Fig4bRow]) -> String {
    let mut locks: Vec<usize> = rows.iter().map(|r| r.locks).collect();
    locks.sort_unstable();
    locks.dedup();
    let mut streams: Vec<usize> = rows.iter().map(|r| r.streams).collect();
    streams.sort_unstable();
    streams.dedup();

    let mut headers = vec!["locks".to_string()];
    headers.extend(streams.iter().map(|s| format!("{} streams", s)));
    let mut table = TextTable::new(headers.iter().map(|s| s.as_str()).collect());
    for l in locks {
        let mut cells = vec![l.to_string()];
        for &s in &streams {
            let value = rows
                .iter()
                .find(|r| r.locks == l && r.streams == s)
                .map(|r| format!("{:.2} Mops/s", r.lookups_per_sec / 1e6))
                .unwrap_or_default();
            cells.push(value);
        }
        table.add_row(cells);
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_params() -> Fig4bParams {
        Fig4bParams {
            preload_entries: 5_000,
            lookups_per_stream: 20_000,
            lock_counts: vec![1, 64],
            stream_counts: vec![1, 4],
        }
    }

    #[test]
    fn produces_all_combinations_with_positive_throughput() {
        let rows = run(&tiny_params());
        assert_eq!(rows.len(), 4);
        assert!(rows.iter().all(|r| r.lookups_per_sec > 0.0));
    }

    #[test]
    fn striping_helps_concurrent_lookups() {
        // Counted, not timed: replay the key sequence `measure` gives each of
        // four streams and count, step by step, the stream pairs whose
        // lookups land on the same lock stripe — the pairs that could contend.
        let params = Fig4bParams {
            preload_entries: 20_000,
            lookups_per_stream: 10_000,
            ..tiny_params()
        };
        let keys: Vec<_> = (0..params.preload_entries as u64)
            .map(|i| Sha1::fingerprint(&i.to_le_bytes()))
            .collect();
        let streams: Vec<Vec<usize>> = (0..4u64)
            .map(|stream| {
                let mut state = (stream + 1).wrapping_mul(0x9E3779B97F4A7C15);
                (0..params.lookups_per_stream)
                    .map(|_| {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        (state % keys.len() as u64) as usize
                    })
                    .collect()
            })
            .collect();
        let contention = |locks: usize| {
            let index = SimilarityIndex::new(locks);
            let mut stripes_hit = std::collections::HashSet::new();
            let mut same_stripe_pairs = 0u64;
            for step in 0..params.lookups_per_stream {
                let stripes: Vec<usize> = streams
                    .iter()
                    .map(|keys_of| index.stripe_of(&keys[keys_of[step]]))
                    .collect();
                stripes_hit.extend(stripes.iter().copied());
                for (i, a) in stripes.iter().enumerate() {
                    same_stripe_pairs += stripes[i + 1..].iter().filter(|b| *b == a).count() as u64;
                }
            }
            (stripes_hit.len(), same_stripe_pairs)
        };
        let (single_stripes, single_pairs) = contention(1);
        let (striped_stripes, striped_pairs) = contention(64);
        assert_eq!(single_stripes, 1);
        assert_eq!(single_pairs, 6 * params.lookups_per_stream as u64);
        assert_eq!(
            striped_stripes, 64,
            "the four streams spread over every stripe"
        );
        // One stripe in 64: about 6/64 of the pairs still meet.
        assert!(
            striped_pairs * 16 < single_pairs,
            "striped {} vs single {} same-stripe pairs",
            striped_pairs,
            single_pairs
        );
    }

    #[test]
    fn render_shows_mops() {
        let text = render(&run(&tiny_params()));
        assert!(text.contains("Mops/s"));
        assert!(text.contains("locks"));
    }
}

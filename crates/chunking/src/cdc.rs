//! Basic content-defined chunking (CDC) driven by a Rabin rolling hash.

use crate::Chunker;
use sigma_hashkit::{RabinHasher, RabinParams};

/// Rabin-based content-defined chunker with minimum/average/maximum chunk sizes.
///
/// A chunk boundary is declared at the first position `p >= min_size` where the
/// rolling hash `h` of the trailing window satisfies `h % divisor == divisor - 1`
/// (with `divisor` derived from the requested average size), or at `max_size` if no
/// such position is found.  Boundaries therefore move with the *content*, which is
/// what lets CDC re-detect duplicate regions after insertions or deletions — the
/// property the paper relies on for the Linux and VM datasets (Table 2 lists both
/// CDC and SC deduplication ratios).
///
/// # Example
///
/// ```
/// use sigma_chunking::{CdcChunker, Chunker};
///
/// let chunker = CdcChunker::new(1024, 4096, 16 * 1024);
/// let data: Vec<u8> = (0..100_000u32).map(|i| (i.wrapping_mul(2654435761) >> 24) as u8).collect();
/// let boundaries = chunker.chunk_boundaries(&data);
/// assert_eq!(*boundaries.last().unwrap(), data.len());
/// ```
#[derive(Debug, Clone)]
pub struct CdcChunker {
    min_size: usize,
    avg_size: usize,
    max_size: usize,
    divisor: u64,
    hasher_template: RabinHasher,
}

impl CdcChunker {
    /// Creates a CDC chunker with the given minimum, average and maximum chunk sizes.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < min_size <= avg_size <= max_size`.
    pub fn new(min_size: usize, avg_size: usize, max_size: usize) -> Self {
        assert!(min_size > 0, "minimum chunk size must be non-zero");
        assert!(
            min_size <= avg_size && avg_size <= max_size,
            "chunk size parameters must satisfy min <= avg <= max"
        );
        // Use the next power of two of the average size as the divisor so that the
        // boundary condition fires with probability ~1/avg per byte.
        let divisor = (avg_size.next_power_of_two() as u64).max(2);
        CdcChunker {
            min_size,
            avg_size,
            max_size,
            divisor,
            hasher_template: RabinHasher::new(RabinParams::default()),
        }
    }

    /// Creates the paper's default CDC configuration: 4 KB average chunk size with a
    /// 1 KB minimum and 16 KB maximum.
    pub fn with_average_4k() -> Self {
        CdcChunker::new(1024, 4096, 16 * 1024)
    }

    /// Minimum chunk size in bytes.
    pub fn min_size(&self) -> usize {
        self.min_size
    }

    /// Maximum chunk size in bytes.
    pub fn max_size(&self) -> usize {
        self.max_size
    }
}

impl CdcChunker {
    /// Length of the next chunk starting at the beginning of `data`.
    ///
    /// The divisor is a power of two, so `h % divisor == divisor - 1` is tested as
    /// `h & mask == mask` with `mask = divisor - 1`; the [`RabinHasher::scan`]
    /// skip-ahead never even reads the bytes below `min_size - window`.  The
    /// per-call `hasher_template.clone()` of the old implementation (a ~9 KB copy
    /// of both lookup tables per `chunk_boundaries` call) is gone: `scan` borrows
    /// the template's tables and keeps its hash state in a register.
    #[inline]
    fn next_cut(&self, data: &[u8]) -> usize {
        let limit = data.len().min(self.max_size);
        let mask = self.divisor - 1;
        self.hasher_template
            .scan(&data[..limit], self.min_size, |_, h| h & mask == mask)
            .unwrap_or(limit)
    }
}

impl Chunker for CdcChunker {
    fn chunk_boundaries(&self, data: &[u8]) -> Vec<usize> {
        if data.is_empty() {
            return Vec::new();
        }
        let mut boundaries = Vec::with_capacity(data.len() / self.avg_size + 1);
        let mut chunk_start = 0usize;
        while chunk_start < data.len() {
            let cut = self.next_cut(&data[chunk_start..]);
            chunk_start += cut;
            boundaries.push(chunk_start);
        }
        boundaries
    }

    fn average_chunk_size(&self) -> usize {
        self.avg_size
    }

    fn name(&self) -> String {
        format!("cdc-{}", self.avg_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::validate_boundaries;
    use proptest::prelude::*;

    /// Deterministic pseudo-random data (content-defined boundaries need entropy).
    fn random_data(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 32) as u8
            })
            .collect()
    }

    #[test]
    fn boundaries_are_valid() {
        let data = random_data(200_000, 7);
        let c = CdcChunker::with_average_4k();
        let b = c.chunk_boundaries(&data);
        validate_boundaries(data.len(), &b).unwrap();
    }

    #[test]
    fn chunk_sizes_respect_min_and_max() {
        let data = random_data(300_000, 42);
        let c = CdcChunker::new(1024, 4096, 16 * 1024);
        let b = c.chunk_boundaries(&data);
        let mut start = 0usize;
        for (i, &end) in b.iter().enumerate() {
            let len = end - start;
            assert!(len <= c.max_size(), "chunk {} too large: {}", i, len);
            // The final chunk may be smaller than the minimum.
            if i + 1 != b.len() {
                assert!(len >= c.min_size(), "chunk {} too small: {}", i, len);
            }
            start = end;
        }
    }

    #[test]
    fn average_size_is_in_the_right_ballpark() {
        let data = random_data(2_000_000, 3);
        let c = CdcChunker::new(1024, 4096, 16 * 1024);
        let b = c.chunk_boundaries(&data);
        let avg = data.len() / b.len();
        // Expected average is avg_size + min_size-ish; allow a generous band.
        assert!(
            (2048..=12_288).contains(&avg),
            "unexpected average chunk size {}",
            avg
        );
    }

    #[test]
    fn boundaries_resynchronize_after_insertion() {
        // The defining CDC property: inserting bytes near the front only perturbs
        // boundaries locally; most chunks (as content) are unchanged.
        let original = random_data(500_000, 11);
        let mut shifted = original.clone();
        // Insert 100 bytes at offset 1000.
        let insert = random_data(100, 99);
        shifted.splice(1000..1000, insert.iter().copied());

        let c = CdcChunker::new(1024, 4096, 16 * 1024);
        let chunks_a: std::collections::HashSet<Vec<u8>> = c
            .split(&original)
            .into_iter()
            .map(|ch| ch.into_data())
            .collect();
        let chunks_b: Vec<Vec<u8>> = c
            .split(&shifted)
            .into_iter()
            .map(|ch| ch.into_data())
            .collect();

        let shared = chunks_b.iter().filter(|ch| chunks_a.contains(*ch)).count();
        let ratio = shared as f64 / chunks_b.len() as f64;
        assert!(
            ratio > 0.9,
            "expected >90% of chunks to survive an insertion, got {:.2}",
            ratio
        );
    }

    #[test]
    fn static_like_behavior_on_zero_entropy_data() {
        // All-zero data never satisfies the divisor condition (hash is constant), so
        // every chunk is exactly max_size.
        let data = vec![0u8; 100_000];
        let c = CdcChunker::new(1024, 4096, 16 * 1024);
        let b = c.chunk_boundaries(&data);
        let mut start = 0usize;
        for &end in &b[..b.len() - 1] {
            let len = end - start;
            assert!(len == c.max_size() || len == c.min_size());
            start = end;
        }
    }

    #[test]
    #[should_panic(expected = "min <= avg <= max")]
    fn bad_parameters_panic() {
        CdcChunker::new(4096, 1024, 16 * 1024);
    }

    #[test]
    fn boundaries_identical_to_scalar_reference() {
        // Regression for the scan/skip-ahead rewrite (and the removal of the
        // per-call hasher_template.clone()): boundaries must be byte-identical
        // to the original per-byte implementation, including configurations
        // where min_size is below the Rabin window (partial-window testing).
        for (min, avg, max) in [
            (1024, 4096, 16 * 1024),
            (256, 1024, 4096),
            (5, 10, 20),
            (48, 64, 128),
            (2048, 2048, 2048),
        ] {
            let optimized = CdcChunker::new(min, avg, max);
            let reference = crate::reference::ReferenceCdcChunker::new(min, avg, max);
            for seed in [3u64, 7, 11] {
                let data = random_data(150_000, seed);
                assert_eq!(
                    optimized.chunk_boundaries(&data),
                    reference.chunk_boundaries(&data),
                    "cdc({},{},{}) seed {}",
                    min,
                    avg,
                    max,
                    seed
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn prop_boundaries_valid(seed in any::<u64>(), len in 0usize..60_000) {
            let data = random_data(len, seed);
            let c = CdcChunker::new(256, 1024, 4096);
            let b = c.chunk_boundaries(&data);
            prop_assert!(validate_boundaries(len, &b).is_ok());
        }

        #[test]
        fn prop_chunking_is_deterministic(seed in any::<u64>()) {
            let data = random_data(20_000, seed);
            let c = CdcChunker::new(256, 1024, 4096);
            prop_assert_eq!(c.chunk_boundaries(&data), c.chunk_boundaries(&data));
        }
    }
}

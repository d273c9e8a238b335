//! Two-Threshold Two-Divisor (TTTD) content-defined chunking.
//!
//! TTTD (Eshghi & Tang, HP Labs TR 2005) improves on basic CDC by adding a *backup
//! divisor*: while scanning for a boundary with the main divisor, every position that
//! satisfies the (easier) backup-divisor condition is remembered; if the maximum
//! chunk size is reached without a main-divisor match, the most recent backup match
//! is used instead of cutting blindly at the maximum.  This tightens the chunk-size
//! distribution and improves deduplication.
//!
//! The paper uses TTTD with thresholds 1 KB / 2 KB / 4 KB / 32 KB (minimum, minor
//! mean, major mean, maximum) for the super-chunk resemblance study of Section 2.2.

use crate::Chunker;
use sigma_hashkit::{RabinHasher, RabinParams};

/// Parameters of the TTTD chunker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TttdParams {
    /// Minimum chunk size (boundaries are never declared earlier).
    pub min_size: usize,
    /// Minor mean: the expected spacing of the *backup* divisor condition.
    pub minor_mean: usize,
    /// Major mean: the expected spacing of the *main* divisor condition.
    pub major_mean: usize,
    /// Maximum chunk size (a boundary is forced at this length).
    pub max_size: usize,
}

impl Default for TttdParams {
    /// The paper's TTTD configuration: 1 KB / 2 KB / 4 KB / 32 KB.
    fn default() -> Self {
        TttdParams {
            min_size: 1024,
            minor_mean: 2048,
            major_mean: 4096,
            max_size: 32 * 1024,
        }
    }
}

impl TttdParams {
    /// Validates the parameter ordering.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.min_size == 0 {
            return Err("minimum chunk size must be non-zero".to_string());
        }
        if !(self.min_size <= self.minor_mean
            && self.minor_mean <= self.major_mean
            && self.major_mean <= self.max_size)
        {
            return Err(format!(
                "TTTD thresholds must satisfy min <= minor <= major <= max, got {}/{}/{}/{}",
                self.min_size, self.minor_mean, self.major_mean, self.max_size
            ));
        }
        Ok(())
    }
}

/// The TTTD chunker.
///
/// # Example
///
/// ```
/// use sigma_chunking::{Chunker, TttdChunker};
///
/// let chunker = TttdChunker::default();
/// let data: Vec<u8> = (0..200_000u32).map(|i| (i.wrapping_mul(0x9E3779B9) >> 16) as u8).collect();
/// let chunks = chunker.split(&data);
/// assert!(chunks.iter().all(|c| c.len() <= 32 * 1024));
/// ```
#[derive(Debug, Clone)]
pub struct TttdChunker {
    params: TttdParams,
    main_divisor: u64,
    backup_divisor: u64,
    hasher_template: RabinHasher,
}

impl TttdChunker {
    /// Creates a TTTD chunker from the given parameters.
    ///
    /// # Panics
    ///
    /// Panics if the parameters are invalid (see [`TttdParams::validate`]).
    pub fn new(params: TttdParams) -> Self {
        if let Err(e) = params.validate() {
            panic!("invalid TTTD parameters: {}", e);
        }
        let main_divisor = (params.major_mean.next_power_of_two() as u64).max(2);
        let backup_divisor = (params.minor_mean.next_power_of_two() as u64).max(2);
        TttdChunker {
            params,
            main_divisor,
            backup_divisor,
            hasher_template: RabinHasher::new(RabinParams::default()),
        }
    }

    /// The chunker's parameters.
    pub fn params(&self) -> TttdParams {
        self.params
    }
}

impl Default for TttdChunker {
    fn default() -> Self {
        TttdChunker::new(TttdParams::default())
    }
}

impl TttdChunker {
    /// Length of the next chunk starting at the beginning of `data`.
    ///
    /// One [`RabinHasher::scan`] pass (skip-ahead below `min_size`, no template
    /// clone) tests both divisor conditions per position: a main-divisor match
    /// cuts immediately; backup-divisor matches are remembered so that a chunk
    /// reaching `max_size` without a main match falls back to the most recent
    /// backup boundary instead of cutting blindly.  Both divisors are powers of
    /// two, so the modulo conditions reduce to mask tests.
    #[inline]
    fn next_cut(&self, data: &[u8]) -> usize {
        let p = self.params;
        let limit = data.len().min(p.max_size);
        let main_mask = self.main_divisor - 1;
        let backup_mask = self.backup_divisor - 1;
        let mut backup_boundary: Option<usize> = None;
        let found = self
            .hasher_template
            .scan(&data[..limit], p.min_size, |pos, h| {
                if h & main_mask == main_mask {
                    return true;
                }
                if h & backup_mask == backup_mask {
                    backup_boundary = Some(pos);
                }
                false
            });
        match found {
            Some(cut) => cut,
            // Data ran out before max_size: the final (possibly short) chunk.
            None if limit < p.max_size => limit,
            // Forced cut at max_size: prefer the latest backup boundary.
            None => backup_boundary.unwrap_or(limit),
        }
    }
}

impl Chunker for TttdChunker {
    fn chunk_boundaries(&self, data: &[u8]) -> Vec<usize> {
        if data.is_empty() {
            return Vec::new();
        }
        let p = self.params;
        let mut boundaries = Vec::with_capacity(data.len() / p.major_mean + 1);
        let mut chunk_start = 0usize;
        while chunk_start < data.len() {
            let cut = self.next_cut(&data[chunk_start..]);
            chunk_start += cut;
            boundaries.push(chunk_start);
        }
        boundaries
    }

    fn average_chunk_size(&self) -> usize {
        self.params.major_mean
    }

    fn name(&self) -> String {
        format!(
            "tttd-{}-{}-{}-{}",
            self.params.min_size,
            self.params.minor_mean,
            self.params.major_mean,
            self.params.max_size
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::validate_boundaries;
    use proptest::prelude::*;

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
    fn default_params_match_the_paper() {
        let p = TttdParams::default();
        assert_eq!(
            (p.min_size, p.minor_mean, p.major_mean, p.max_size),
            (1024, 2048, 4096, 32 * 1024)
        );
    }

    #[test]
    fn params_validation() {
        assert!(TttdParams::default().validate().is_ok());
        assert!(TttdParams {
            min_size: 0,
            ..TttdParams::default()
        }
        .validate()
        .is_err());
        assert!(TttdParams {
            min_size: 8192,
            ..TttdParams::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn boundaries_are_valid() {
        let data = random_data(400_000, 5);
        let c = TttdChunker::default();
        let b = c.chunk_boundaries(&data);
        validate_boundaries(data.len(), &b).unwrap();
    }

    #[test]
    fn chunk_sizes_within_limits() {
        let data = random_data(400_000, 13);
        let c = TttdChunker::default();
        let b = c.chunk_boundaries(&data);
        let p = c.params();
        let mut start = 0usize;
        for (i, &end) in b.iter().enumerate() {
            let len = end - start;
            assert!(len <= p.max_size, "chunk {} too large: {}", i, len);
            if i + 1 != b.len() {
                assert!(len >= p.min_size, "chunk {} too small: {}", i, len);
            }
            start = end;
        }
    }

    #[test]
    fn tighter_distribution_than_plain_cdc() {
        // With a backup divisor, far fewer chunks should be forced cuts at max_size
        // than with plain CDC configured with the same (min, major, max).
        let data = random_data(2_000_000, 21);
        let tttd = TttdChunker::default();
        let p = tttd.params();
        let cdc = crate::CdcChunker::new(p.min_size, p.major_mean, p.max_size);

        let count_max = |boundaries: &[usize]| {
            let mut start = 0usize;
            let mut n = 0usize;
            for &end in boundaries {
                if end - start == p.max_size {
                    n += 1;
                }
                start = end;
            }
            n
        };
        let tttd_b = tttd.chunk_boundaries(&data);
        let cdc_b = cdc.chunk_boundaries(&data);
        assert!(
            count_max(&tttd_b) <= count_max(&cdc_b),
            "TTTD should not force more max-size cuts than plain CDC"
        );
    }

    #[test]
    fn boundaries_identical_to_scalar_reference() {
        // Regression for the scan rewrite: both divisor conditions, the backup
        // fallback on forced max-size cuts, and the post-cut rescan must all
        // match the original per-byte implementation bit for bit.
        for params in [
            TttdParams::default(),
            TttdParams {
                min_size: 256,
                minor_mean: 512,
                major_mean: 1024,
                max_size: 8192,
            },
            TttdParams {
                min_size: 16,
                minor_mean: 32,
                major_mean: 64,
                max_size: 256,
            },
        ] {
            let optimized = TttdChunker::new(params);
            let reference = crate::reference::ReferenceTttdChunker::new(params);
            for seed in [5u64, 13, 29] {
                let data = random_data(200_000, seed);
                assert_eq!(
                    optimized.chunk_boundaries(&data),
                    reference.chunk_boundaries(&data),
                    "params {:?} seed {}",
                    params,
                    seed
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn prop_boundaries_valid(seed in any::<u64>(), len in 0usize..80_000) {
            let data = random_data(len, seed);
            let c = TttdChunker::new(TttdParams {
                min_size: 256,
                minor_mean: 512,
                major_mean: 1024,
                max_size: 8192,
            });
            let b = c.chunk_boundaries(&data);
            prop_assert!(validate_boundaries(len, &b).is_ok());
        }

        #[test]
        fn prop_deterministic(seed in any::<u64>()) {
            let data = random_data(30_000, seed);
            let c = TttdChunker::default();
            prop_assert_eq!(c.chunk_boundaries(&data), c.chunk_boundaries(&data));
        }
    }
}

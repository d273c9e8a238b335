//! Scalar reference chunkers.
//!
//! These are the original byte-at-a-time implementations of the content-defined
//! chunkers, kept verbatim after the hot paths were rewritten around
//! [`RabinHasher::scan`] / [`GearHasher::find_boundary`] (skip-ahead below
//! `min_size`, mask tests instead of modulo, no per-call template clone).  They
//! are **equivalence oracles**: the `reference_equivalence` proptest suite
//! asserts that every optimized chunker produces bit-identical boundary
//! decisions to its scalar reference across all [`ChunkerParams`] presets.
//!
//! They are deliberately *not* exported from the crate root: production code
//! should never construct one.

use crate::{Chunker, ChunkerParams, StaticChunker, TttdParams};
use sigma_hashkit::{GearHasher, RabinHasher, RabinParams, RollingHash};

/// Builds the scalar reference counterpart of a [`ChunkerParams`] preset.
///
/// [`ChunkerParams::Fixed`] maps to the production [`StaticChunker`] — static
/// chunking has no rolling hash and was never rewritten.
pub fn build(params: &ChunkerParams) -> Box<dyn Chunker> {
    match *params {
        ChunkerParams::Fixed { chunk_size } => Box::new(StaticChunker::new(chunk_size)),
        ChunkerParams::Cdc {
            min_size,
            avg_size,
            max_size,
        } => Box::new(ReferenceCdcChunker::new(min_size, avg_size, max_size)),
        ChunkerParams::GearCdc {
            min_size,
            avg_size,
            max_size,
        } => Box::new(ReferenceGearCdcChunker::new(min_size, avg_size, max_size)),
        ChunkerParams::Tttd(p) => Box::new(ReferenceTttdChunker::new(p)),
    }
}

/// The original Rabin CDC implementation: clones the hasher template per call,
/// rolls every byte through the ring-buffer window, and tests the divisor with
/// a modulo.
#[derive(Debug, Clone)]
pub struct ReferenceCdcChunker {
    min_size: usize,
    avg_size: usize,
    max_size: usize,
    divisor: u64,
    hasher_template: RabinHasher,
}

impl ReferenceCdcChunker {
    /// Mirrors [`crate::CdcChunker::new`], including the divisor derivation.
    pub fn new(min_size: usize, avg_size: usize, max_size: usize) -> Self {
        assert!(min_size > 0, "minimum chunk size must be non-zero");
        assert!(
            min_size <= avg_size && avg_size <= max_size,
            "chunk size parameters must satisfy min <= avg <= max"
        );
        let divisor = (avg_size.next_power_of_two() as u64).max(2);
        ReferenceCdcChunker {
            min_size,
            avg_size,
            max_size,
            divisor,
            hasher_template: RabinHasher::new(RabinParams::default()),
        }
    }
}

impl Chunker for ReferenceCdcChunker {
    fn chunk_boundaries(&self, data: &[u8]) -> Vec<usize> {
        if data.is_empty() {
            return Vec::new();
        }
        let mut boundaries = Vec::with_capacity(data.len() / self.avg_size + 1);
        let mut hasher = self.hasher_template.clone();
        let mut chunk_start = 0usize;
        let mut pos = 0usize;

        while pos < data.len() {
            let h = hasher.roll(data[pos]);
            pos += 1;
            let chunk_len = pos - chunk_start;
            let at_boundary = chunk_len >= self.min_size && h % self.divisor == self.divisor - 1;
            if at_boundary || chunk_len >= self.max_size {
                boundaries.push(pos);
                chunk_start = pos;
                hasher.reset();
            }
        }
        if chunk_start < data.len() {
            boundaries.push(data.len());
        }
        boundaries
    }

    fn average_chunk_size(&self) -> usize {
        self.avg_size
    }

    fn name(&self) -> String {
        format!("ref-cdc-{}", self.avg_size)
    }
}

/// The original TTTD implementation: per-call template clone, per-byte rolling,
/// modulo divisor tests, explicit rewind on a forced max-size cut.
#[derive(Debug, Clone)]
pub struct ReferenceTttdChunker {
    params: TttdParams,
    main_divisor: u64,
    backup_divisor: u64,
    hasher_template: RabinHasher,
}

impl ReferenceTttdChunker {
    /// Mirrors [`crate::TttdChunker::new`], including divisor derivation.
    pub fn new(params: TttdParams) -> Self {
        if let Err(e) = params.validate() {
            panic!("invalid TTTD parameters: {}", e);
        }
        let main_divisor = (params.major_mean.next_power_of_two() as u64).max(2);
        let backup_divisor = (params.minor_mean.next_power_of_two() as u64).max(2);
        ReferenceTttdChunker {
            params,
            main_divisor,
            backup_divisor,
            hasher_template: RabinHasher::new(RabinParams::default()),
        }
    }
}

impl Chunker for ReferenceTttdChunker {
    fn chunk_boundaries(&self, data: &[u8]) -> Vec<usize> {
        if data.is_empty() {
            return Vec::new();
        }
        let p = self.params;
        let mut boundaries = Vec::with_capacity(data.len() / p.major_mean + 1);
        let mut hasher = self.hasher_template.clone();
        let mut chunk_start = 0usize;
        let mut backup_boundary: Option<usize> = None;
        let mut pos = 0usize;

        while pos < data.len() {
            let h = hasher.roll(data[pos]);
            pos += 1;
            let chunk_len = pos - chunk_start;

            if chunk_len < p.min_size {
                continue;
            }
            if h % self.main_divisor == self.main_divisor - 1 {
                boundaries.push(pos);
                chunk_start = pos;
                backup_boundary = None;
                hasher.reset();
                continue;
            }
            if h % self.backup_divisor == self.backup_divisor - 1 {
                backup_boundary = Some(pos);
            }
            if chunk_len >= p.max_size {
                let cut = backup_boundary.unwrap_or(pos);
                boundaries.push(cut);
                chunk_start = cut;
                backup_boundary = None;
                pos = cut;
                hasher.reset();
            }
        }
        if chunk_start < data.len() {
            boundaries.push(data.len());
        }
        boundaries
    }

    fn average_chunk_size(&self) -> usize {
        self.params.major_mean
    }

    fn name(&self) -> String {
        format!(
            "ref-tttd-{}-{}-{}-{}",
            self.params.min_size,
            self.params.minor_mean,
            self.params.major_mean,
            self.params.max_size
        )
    }
}

/// Byte-at-a-time gear CDC: rolls every byte through [`GearHasher`] and tests
/// the same top-bits mask as [`crate::GearCdcChunker`].
#[derive(Debug, Clone, Copy)]
pub struct ReferenceGearCdcChunker {
    min_size: usize,
    avg_size: usize,
    max_size: usize,
    mask: u64,
}

impl ReferenceGearCdcChunker {
    /// Mirrors [`crate::GearCdcChunker::new`], including mask derivation.
    pub fn new(min_size: usize, avg_size: usize, max_size: usize) -> Self {
        assert!(min_size > 0, "minimum chunk size must be non-zero");
        assert!(
            min_size <= avg_size && avg_size <= max_size,
            "chunk size parameters must satisfy min <= avg <= max"
        );
        ReferenceGearCdcChunker {
            min_size,
            avg_size,
            max_size,
            mask: crate::gear_cdc::gear_mask_for_average(avg_size),
        }
    }
}

impl Chunker for ReferenceGearCdcChunker {
    fn chunk_boundaries(&self, data: &[u8]) -> Vec<usize> {
        if data.is_empty() {
            return Vec::new();
        }
        let mut boundaries = Vec::with_capacity(data.len() / self.avg_size + 1);
        let mut hasher = GearHasher::new();
        let mut chunk_start = 0usize;
        let mut pos = 0usize;

        while pos < data.len() {
            let h = hasher.roll(data[pos]);
            pos += 1;
            let chunk_len = pos - chunk_start;
            let at_boundary = chunk_len >= self.min_size && h & self.mask == self.mask;
            if at_boundary || chunk_len >= self.max_size {
                boundaries.push(pos);
                chunk_start = pos;
                hasher.reset();
            }
        }
        if chunk_start < data.len() {
            boundaries.push(data.len());
        }
        boundaries
    }

    fn average_chunk_size(&self) -> usize {
        self.avg_size
    }

    fn name(&self) -> String {
        format!("ref-gear-{}", self.avg_size)
    }
}

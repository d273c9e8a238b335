//! Data chunking for the Σ-Dedupe deduplication framework.
//!
//! The backup client's *data partitioning* module (Figure 2 of the paper) splits each
//! data stream into chunks before fingerprinting.  The paper evaluates two families
//! of chunkers:
//!
//! * **Static chunking (SC)** — fixed-size chunks; negligible CPU cost.  The paper's
//!   prototype settles on SC with 4 KB chunks for the cluster experiments
//!   (Section 4.3, Figure 5(a)).
//! * **Content-defined chunking (CDC)** — chunk boundaries are declared where a
//!   rolling hash of a sliding window satisfies a divisor condition, so insertions
//!   and deletions do not shift every subsequent boundary.  The paper uses the
//!   Two-Threshold Two-Divisor (TTTD) variant for the resemblance study of
//!   Section 2.2 and Rabin-based CDC for the throughput study of Figure 4(a).
//!
//! This crate implements all three chunkers behind one [`Chunker`] trait.
//!
//! # Example
//!
//! ```
//! use sigma_chunking::{Chunker, ChunkerParams};
//!
//! let data = vec![0u8; 64 * 1024];
//! let chunker = ChunkerParams::fixed(4096).build();
//! let chunks = chunker.split(&data);
//! assert_eq!(chunks.len(), 16);
//! assert!(chunks.iter().all(|c| c.len() == 4096));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cdc;
mod chunk;
mod fixed;
mod params;
pub mod reference;
mod tttd;

pub use cdc::CdcChunker;
pub use chunk::Chunk;
pub use fixed::StaticChunker;
pub use params::{ChunkerParams, ChunkingMethod};
pub use tttd::{TttdChunker, TttdParams};

/// A chunking algorithm: splits a byte buffer into consecutive chunks.
///
/// Implementations must return boundaries that tile the input exactly: the last
/// boundary equals `data.len()` and boundaries are strictly increasing.
pub trait Chunker: Send + Sync {
    /// Returns the *end offsets* of every chunk in `data`.
    ///
    /// For non-empty input the returned vector is non-empty, strictly increasing and
    /// ends with `data.len()`.  For empty input it is empty.
    fn chunk_boundaries(&self, data: &[u8]) -> Vec<usize>;

    /// The average (target) chunk size in bytes, used for capacity planning.
    fn average_chunk_size(&self) -> usize;

    /// A short human-readable name for reports (e.g. `"sc-4096"`).
    fn name(&self) -> String;

    /// Splits `data` into owned [`Chunk`]s (convenience wrapper over
    /// [`chunk_boundaries`](Chunker::chunk_boundaries)).
    fn split(&self, data: &[u8]) -> Vec<Chunk> {
        let boundaries = self.chunk_boundaries(data);
        let mut chunks = Vec::with_capacity(boundaries.len());
        let mut start = 0usize;
        for end in boundaries {
            chunks.push(Chunk::new(start as u64, data[start..end].to_vec()));
            start = end;
        }
        chunks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Validates the invariants promised by [`Chunker::chunk_boundaries`], so
    /// every chunker's tests check them the same way; the error describes the
    /// violated invariant.
    pub(crate) fn validate_boundaries(data_len: usize, boundaries: &[usize]) -> Result<(), String> {
        if data_len == 0 {
            if boundaries.is_empty() {
                return Ok(());
            }
            return Err("boundaries must be empty for empty input".to_string());
        }
        if boundaries.is_empty() {
            return Err("boundaries must not be empty for non-empty input".to_string());
        }
        let mut prev = 0usize;
        for (i, &b) in boundaries.iter().enumerate() {
            let ok = if i == 0 { b > 0 } else { b > prev };
            if !ok {
                return Err(format!(
                    "boundary {} at offset {} is not strictly increasing (previous {})",
                    i, b, prev
                ));
            }
            prev = b;
        }
        if *boundaries.last().expect("non-empty") != data_len {
            return Err(format!(
                "last boundary {} does not equal data length {}",
                boundaries.last().unwrap(),
                data_len
            ));
        }
        Ok(())
    }

    #[test]
    fn validate_accepts_good_boundaries() {
        assert!(validate_boundaries(10, &[4, 7, 10]).is_ok());
        assert!(validate_boundaries(0, &[]).is_ok());
    }

    #[test]
    fn validate_rejects_bad_boundaries() {
        assert!(validate_boundaries(10, &[]).is_err());
        assert!(validate_boundaries(10, &[4, 4, 10]).is_err());
        assert!(validate_boundaries(10, &[4, 7, 9]).is_err());
        assert!(validate_boundaries(0, &[1]).is_err());
        assert!(validate_boundaries(10, &[0, 5, 10]).is_err());
    }

    #[test]
    fn split_reassembles_to_original() {
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        for params in [
            ChunkerParams::fixed(512),
            ChunkerParams::cdc(256, 1024, 4096),
            ChunkerParams::tttd_default(),
        ] {
            let chunker = params.build();
            let chunks = chunker.split(&data);
            let mut rebuilt = Vec::new();
            for c in &chunks {
                assert_eq!(c.offset() as usize, rebuilt.len());
                rebuilt.extend_from_slice(c.data());
            }
            assert_eq!(rebuilt, data, "chunker {}", chunker.name());
        }
    }
}

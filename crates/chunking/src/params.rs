//! Runtime-selectable chunker configuration.

use crate::{CdcChunker, Chunker, StaticChunker, TttdChunker, TttdParams};

/// The chunking family to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChunkingMethod {
    /// Static (fixed-size) chunking.
    Static,
    /// Basic content-defined chunking with a Rabin rolling hash.
    Cdc,
    /// Two-Threshold Two-Divisor content-defined chunking.
    Tttd,
}

impl std::fmt::Display for ChunkingMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ChunkingMethod::Static => "SC",
            ChunkingMethod::Cdc => "CDC",
            ChunkingMethod::Tttd => "TTTD",
        };
        f.write_str(s)
    }
}

/// A serializable description of a chunker, buildable into a boxed [`Chunker`].
///
/// This is the type higher layers (backup clients, experiments, benches) store in
/// their configuration, because trait objects cannot be serialized or compared.
///
/// # Example
///
/// ```
/// use sigma_chunking::{Chunker, ChunkerParams, ChunkingMethod};
///
/// let params = ChunkerParams::cdc(1024, 4096, 16 * 1024);
/// assert_eq!(params.method(), ChunkingMethod::Cdc);
/// let chunker = params.build();
/// assert_eq!(chunker.average_chunk_size(), 4096);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkerParams {
    /// Fixed-size chunking with the given chunk size.
    Fixed {
        /// Chunk size in bytes.
        chunk_size: usize,
    },
    /// Basic CDC with minimum / average / maximum chunk sizes.
    Cdc {
        /// Minimum chunk size in bytes.
        min_size: usize,
        /// Target average chunk size in bytes.
        avg_size: usize,
        /// Maximum chunk size in bytes.
        max_size: usize,
    },
    /// TTTD chunking.
    Tttd(TttdParams),
}

impl ChunkerParams {
    /// Fixed-size chunking with `chunk_size` bytes per chunk.
    pub fn fixed(chunk_size: usize) -> Self {
        ChunkerParams::Fixed { chunk_size }
    }

    /// Basic CDC chunking.
    pub fn cdc(min_size: usize, avg_size: usize, max_size: usize) -> Self {
        ChunkerParams::Cdc {
            min_size,
            avg_size,
            max_size,
        }
    }

    /// CDC with an average chunk size of `avg` and conventional min/max of
    /// `avg / 4` and `avg * 4`.
    pub fn cdc_with_average(avg: usize) -> Self {
        ChunkerParams::Cdc {
            min_size: (avg / 4).max(1),
            avg_size: avg,
            max_size: avg * 4,
        }
    }

    /// TTTD chunking with the paper's default thresholds (1K/2K/4K/32K).
    pub fn tttd_default() -> Self {
        ChunkerParams::Tttd(TttdParams::default())
    }

    /// The paper's default for cluster experiments: static chunking with 4 KB chunks.
    pub fn paper_default() -> Self {
        ChunkerParams::fixed(4096)
    }

    /// Which chunking family this configuration selects.
    pub fn method(&self) -> ChunkingMethod {
        match self {
            ChunkerParams::Fixed { .. } => ChunkingMethod::Static,
            ChunkerParams::Cdc { .. } => ChunkingMethod::Cdc,
            ChunkerParams::Tttd(_) => ChunkingMethod::Tttd,
        }
    }

    /// Target average chunk size in bytes.
    pub fn average_chunk_size(&self) -> usize {
        match self {
            ChunkerParams::Fixed { chunk_size } => *chunk_size,
            ChunkerParams::Cdc { avg_size, .. } => *avg_size,
            ChunkerParams::Tttd(p) => p.major_mean,
        }
    }

    /// The largest chunk the configured chunker can emit: the chunk size for
    /// static chunking, `max_size` for CDC and TTTD.
    pub fn max_chunk_size(&self) -> usize {
        match self {
            ChunkerParams::Fixed { chunk_size } => *chunk_size,
            ChunkerParams::Cdc { max_size, .. } => *max_size,
            ChunkerParams::Tttd(p) => p.max_size,
        }
    }

    /// Builds the configured chunker.
    ///
    /// # Panics
    ///
    /// Panics if the parameters are internally inconsistent (e.g. zero chunk size,
    /// `min > max`); use [`validate`](ChunkerParams::validate) first to check.
    pub fn build(&self) -> Box<dyn Chunker> {
        match *self {
            ChunkerParams::Fixed { chunk_size } => Box::new(StaticChunker::new(chunk_size)),
            ChunkerParams::Cdc {
                min_size,
                avg_size,
                max_size,
            } => Box::new(CdcChunker::new(min_size, avg_size, max_size)),
            ChunkerParams::Tttd(p) => Box::new(TttdChunker::new(p)),
        }
    }

    /// Checks the parameters without building a chunker: every size must be
    /// non-zero and CDC sizes must satisfy `min ≤ avg ≤ max`.
    ///
    /// Called by `SigmaConfig::build`, so an inconsistent chunker is rejected at
    /// configuration time with a field-naming error rather than panicking
    /// mid-backup.
    ///
    /// # Errors
    ///
    /// Returns a description naming the offending field and value.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            ChunkerParams::Fixed { chunk_size } => {
                if *chunk_size == 0 {
                    Err("chunker chunk_size = 0 must be non-zero".to_string())
                } else {
                    Ok(())
                }
            }
            ChunkerParams::Cdc {
                min_size,
                avg_size,
                max_size,
            } => {
                for (field, value) in [
                    ("min_size", *min_size),
                    ("avg_size", *avg_size),
                    ("max_size", *max_size),
                ] {
                    if value == 0 {
                        return Err(format!("chunker {} = 0 must be non-zero", field));
                    }
                }
                if min_size > avg_size {
                    return Err(format!(
                        "chunker min_size = {} exceeds avg_size = {} (need min ≤ avg ≤ max)",
                        min_size, avg_size
                    ));
                }
                if avg_size > max_size {
                    return Err(format!(
                        "chunker avg_size = {} exceeds max_size = {} (need min ≤ avg ≤ max)",
                        avg_size, max_size
                    ));
                }
                Ok(())
            }
            ChunkerParams::Tttd(p) => p.validate(),
        }
    }
}

impl Default for ChunkerParams {
    fn default() -> Self {
        ChunkerParams::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_4k_static() {
        let p = ChunkerParams::default();
        assert_eq!(p.method(), ChunkingMethod::Static);
        assert_eq!(p.average_chunk_size(), 4096);
    }

    #[test]
    fn cdc_with_average_derives_min_max() {
        let p = ChunkerParams::cdc_with_average(8192);
        match p {
            ChunkerParams::Cdc {
                min_size,
                avg_size,
                max_size,
            } => {
                assert_eq!(min_size, 2048);
                assert_eq!(avg_size, 8192);
                assert_eq!(max_size, 32768);
            }
            _ => panic!("expected CDC"),
        }
    }

    #[test]
    fn validate_catches_errors() {
        assert!(ChunkerParams::fixed(0).validate().is_err());
        assert!(ChunkerParams::cdc(0, 10, 20).validate().is_err());
        assert!(ChunkerParams::cdc(30, 10, 20).validate().is_err());
        assert!(ChunkerParams::cdc(5, 10, 20).validate().is_ok());
        assert!(ChunkerParams::tttd_default().validate().is_ok());
    }

    #[test]
    fn validate_names_the_offending_field_and_value() {
        let err = ChunkerParams::fixed(0).validate().unwrap_err();
        assert!(err.contains("chunk_size"), "got: {}", err);
        for (params, field) in [
            (ChunkerParams::cdc(0, 10, 20), "min_size"),
            (ChunkerParams::cdc(1, 0, 20), "avg_size"),
            (ChunkerParams::cdc(1, 10, 0), "max_size"),
            (ChunkerParams::cdc(11, 10, 20), "min_size = 11"),
            (ChunkerParams::cdc(1, 21, 20), "avg_size = 21"),
        ] {
            let err = params.validate().unwrap_err();
            assert!(err.contains(field), "expected {:?} in: {}", field, err);
        }
    }

    #[test]
    fn validate_accepts_ordering_boundaries() {
        // min == avg == max is the degenerate-but-legal boundary.
        assert!(ChunkerParams::cdc(10, 10, 10).validate().is_ok());
        assert!(ChunkerParams::cdc(10, 10, 20).validate().is_ok());
        assert!(ChunkerParams::cdc(5, 20, 20).validate().is_ok());
        assert!(ChunkerParams::cdc(1, 1, usize::MAX).validate().is_ok());
        // One past each boundary fails.
        assert!(ChunkerParams::cdc(11, 10, 10).validate().is_err());
        assert!(ChunkerParams::cdc(10, 11, 10).validate().is_err());
    }

    #[test]
    fn build_produces_matching_chunkers() {
        assert_eq!(ChunkerParams::fixed(2048).build().name(), "sc-2048");
        assert_eq!(
            ChunkerParams::cdc(512, 2048, 8192).build().name(),
            "cdc-2048"
        );
        assert!(ChunkerParams::tttd_default()
            .build()
            .name()
            .starts_with("tttd-"));
    }

    #[test]
    fn method_display() {
        assert_eq!(ChunkingMethod::Static.to_string(), "SC");
        assert_eq!(ChunkingMethod::Cdc.to_string(), "CDC");
        assert_eq!(ChunkingMethod::Tttd.to_string(), "TTTD");
    }

    #[test]
    fn built_chunkers_report_requested_average() {
        for avg in [1024usize, 4096, 8192] {
            assert_eq!(
                ChunkerParams::cdc_with_average(avg)
                    .build()
                    .average_chunk_size(),
                avg
            );
            assert_eq!(ChunkerParams::fixed(avg).build().average_chunk_size(), avg);
        }
    }
}

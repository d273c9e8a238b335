//! Static chunking (SC): fixed-size chunk boundaries.

use crate::Chunker;

/// Fixed-size (static) chunker.
///
/// The paper's single-node sensitivity study (Figure 5(a)) finds that SC beats CDC in
/// *deduplication efficiency* (bytes saved per second) because its chunking cost is
/// negligible, and the cluster experiments use SC with 4 KB chunks.
///
/// # Example
///
/// ```
/// use sigma_chunking::{Chunker, StaticChunker};
///
/// let chunker = StaticChunker::new(4096);
/// let boundaries = chunker.chunk_boundaries(&vec![0u8; 10_000]);
/// assert_eq!(boundaries, vec![4096, 8192, 10_000]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaticChunker {
    chunk_size: usize,
}

impl StaticChunker {
    /// Creates a static chunker with the given chunk size in bytes.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_size` is zero.
    pub fn new(chunk_size: usize) -> Self {
        assert!(chunk_size > 0, "chunk size must be non-zero");
        StaticChunker { chunk_size }
    }

    /// The configured chunk size.
    pub fn chunk_size(&self) -> usize {
        self.chunk_size
    }
}

impl Default for StaticChunker {
    /// 4 KB chunks — the paper's default for cluster experiments.
    fn default() -> Self {
        StaticChunker::new(4096)
    }
}

impl Chunker for StaticChunker {
    fn chunk_boundaries(&self, data: &[u8]) -> Vec<usize> {
        if data.is_empty() {
            return Vec::new();
        }
        let n = data.len().div_ceil(self.chunk_size);
        let mut boundaries = Vec::with_capacity(n);
        let mut end = self.chunk_size;
        while end < data.len() {
            boundaries.push(end);
            end += self.chunk_size;
        }
        boundaries.push(data.len());
        boundaries
    }

    fn average_chunk_size(&self) -> usize {
        self.chunk_size
    }

    fn name(&self) -> String {
        format!("sc-{}", self.chunk_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::validate_boundaries;
    use proptest::prelude::*;

    #[test]
    fn exact_multiple() {
        let c = StaticChunker::new(100);
        assert_eq!(c.chunk_boundaries(&[0u8; 300]), vec![100, 200, 300]);
    }

    #[test]
    fn trailing_partial_chunk() {
        let c = StaticChunker::new(100);
        assert_eq!(c.chunk_boundaries(&[0u8; 250]), vec![100, 200, 250]);
    }

    #[test]
    fn input_smaller_than_chunk() {
        let c = StaticChunker::new(100);
        assert_eq!(c.chunk_boundaries(&[0u8; 10]), vec![10]);
    }

    #[test]
    fn empty_input() {
        let c = StaticChunker::new(100);
        assert!(c.chunk_boundaries(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "chunk size must be non-zero")]
    fn zero_chunk_size_panics() {
        StaticChunker::new(0);
    }

    #[test]
    fn default_is_4k() {
        assert_eq!(StaticChunker::default().chunk_size(), 4096);
        assert_eq!(StaticChunker::default().name(), "sc-4096");
    }

    proptest! {
        #[test]
        fn prop_boundaries_valid(len in 0usize..100_000, size in 1usize..8192) {
            let c = StaticChunker::new(size);
            let data = vec![0u8; len];
            let b = c.chunk_boundaries(&data);
            prop_assert!(validate_boundaries(len, &b).is_ok());
        }

        #[test]
        fn prop_all_chunks_at_most_chunk_size(len in 1usize..50_000, size in 1usize..4096) {
            let c = StaticChunker::new(size);
            let data = vec![0u8; len];
            let b = c.chunk_boundaries(&data);
            let mut start = 0;
            for &end in &b {
                prop_assert!(end - start <= size);
                start = end;
            }
        }
    }
}

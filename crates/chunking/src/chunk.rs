//! Chunk value types shared by the chunkers and the deduplication layers.

/// An owned data chunk produced by a [`Chunker`](crate::Chunker).
///
/// # Example
///
/// ```
/// use sigma_chunking::Chunk;
///
/// let c = Chunk::new(4096, vec![7u8; 128]);
/// assert_eq!(c.offset(), 4096);
/// assert_eq!(c.len(), 128);
/// assert!(!c.is_empty());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Chunk {
    offset: u64,
    data: Vec<u8>,
}

impl Chunk {
    /// Creates a chunk at stream offset `offset` holding `data`.
    ///
    /// # Panics
    ///
    /// Panics if `data` is longer than `u32::MAX` bytes (chunks are small by
    /// construction; the largest chunk size used anywhere in the paper is 64 KB).
    pub fn new(offset: u64, data: Vec<u8>) -> Self {
        assert!(
            data.len() <= u32::MAX as usize,
            "chunk larger than u32::MAX bytes"
        );
        Chunk { offset, data }
    }

    /// Byte offset of the chunk within its stream.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Chunk payload.
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Chunk length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the chunk holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Consumes the chunk, returning its payload.
    pub fn into_data(self) -> Vec<u8> {
        self.data
    }
}

impl AsRef<[u8]> for Chunk {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_accessors() {
        let c = Chunk::new(10, b"abcdef".to_vec());
        assert_eq!(c.offset(), 10);
        assert_eq!(c.len(), 6);
        assert_eq!(c.data(), b"abcdef");
        assert_eq!(c.clone().into_data(), b"abcdef".to_vec());
    }

    #[test]
    fn empty_chunk() {
        let c = Chunk::new(0, Vec::new());
        assert!(c.is_empty());
        assert_eq!(c.len(), 0);
    }
}

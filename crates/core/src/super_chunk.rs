//! Super-chunks: the coarse-grained unit of data routing.
//!
//! A super-chunk (the term is borrowed from EMC's data-routing work the paper builds
//! on) is a group of consecutive chunks, 1 MB worth by default.  Routing whole
//! super-chunks instead of individual chunks preserves the locality of the backup
//! stream inside one node — the paper's key intra-node performance lever — while the
//! handprint computed over a super-chunk captures enough similarity for the stateful
//! routing decision.

use crate::{Handprint, Result, SigmaError};
use sigma_hashkit::{Fingerprint, FingerprintAlgorithm};

/// Fingerprint and size of one chunk: the form in which routing and the
/// node's dedup lookups see a chunk once the client has fingerprinted it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChunkDescriptor {
    /// The chunk's fingerprint.
    pub fingerprint: Fingerprint,
    /// The chunk's length in bytes.
    pub len: u32,
}

impl ChunkDescriptor {
    /// Creates a descriptor.
    pub fn new(fingerprint: Fingerprint, len: u32) -> Self {
        ChunkDescriptor { fingerprint, len }
    }
}

/// A group of consecutive chunks routed (and deduplicated) together.
///
/// A super-chunk carries one payload per descriptor: every chunk a node
/// stores has its bytes.  Routing and the node see it through the
/// [`SuperChunkView`] it lends ([`view`](Self::view)), the same form the
/// ingest pipeline builds straight from a request buffer.
///
/// # Example
///
/// ```
/// use sigma_core::SuperChunk;
/// use sigma_hashkit::FingerprintAlgorithm;
///
/// let chunks: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i; 1024]).collect();
/// let sc = SuperChunk::from_payloads(FingerprintAlgorithm::Sha1, 0, chunks);
/// assert_eq!(sc.chunk_count(), 4);
/// assert_eq!(sc.view().logical_size(), 4096);
/// let handprint = sc.handprint(2);
/// assert_eq!(handprint.size(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuperChunk {
    /// Offset of the super-chunk within its stream (bytes).
    offset: u64,
    descriptors: Vec<ChunkDescriptor>,
    /// Parallel to `descriptors`.
    payloads: Vec<Vec<u8>>,
}

impl SuperChunk {
    /// Builds a super-chunk from raw chunk payloads, fingerprinting them with
    /// `algorithm` in one [`FingerprintAlgorithm::fingerprint_batch`] call.
    pub fn from_payloads(
        algorithm: FingerprintAlgorithm,
        offset: u64,
        chunks: Vec<Vec<u8>>,
    ) -> Self {
        let descriptors = algorithm
            .fingerprint_batch(&chunks)
            .into_iter()
            .zip(&chunks)
            .map(|(fingerprint, c)| ChunkDescriptor::new(fingerprint, c.len() as u32))
            .collect();
        SuperChunk {
            offset,
            descriptors,
            payloads: chunks,
        }
    }

    /// Offset of the super-chunk within its stream.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// The chunk descriptors, in stream order.
    pub fn descriptors(&self) -> &[ChunkDescriptor] {
        &self.descriptors
    }

    /// The payload of chunk `index`; `None` past the last chunk.
    pub fn payload(&self, index: usize) -> Option<&[u8]> {
        self.payloads.get(index).map(|v| v.as_slice())
    }

    /// The super-chunk as routing and the node see it: each descriptor
    /// beside a borrowed slice of its payload.
    ///
    /// # Example
    ///
    /// ```
    /// use sigma_core::{ChunkDescriptor, SuperChunkBuilder};
    /// use sigma_hashkit::{Digest, Sha1};
    ///
    /// let stream = b"one chunk, and another".to_vec();
    /// let mut builder = SuperChunkBuilder::new(1 << 20);
    /// for part in [&stream[..10], &stream[10..]] {
    ///     let descriptor = ChunkDescriptor::new(Sha1::fingerprint(part), part.len() as u32);
    ///     assert!(builder.push_chunk(descriptor, part.to_vec()).is_none());
    /// }
    /// let super_chunk = builder.finish().expect("two chunks are pending");
    /// let view = super_chunk.view();
    /// assert_eq!(view.chunk_count(), 2);
    /// assert_eq!(view.logical_size(), stream.len() as u64);
    /// assert_eq!(view.chunks().nth(1).map(|(_, bytes)| bytes), Some(&stream[10..]));
    /// ```
    pub fn view(&self) -> SuperChunkView<'_> {
        SuperChunkView {
            descriptors: &self.descriptors,
            payloads: self.payloads.iter().map(Vec::as_slice).collect(),
        }
    }

    /// Number of chunks in the super-chunk.
    pub fn chunk_count(&self) -> usize {
        self.descriptors.len()
    }

    /// Computes the super-chunk's handprint of size `k`.
    pub fn handprint(&self, k: usize) -> Handprint {
        Handprint::from_fingerprints(self.descriptors.iter().map(|d| d.fingerprint), k)
    }
}

/// Groups a stream of chunks into super-chunks of a target size.
///
/// # Flush-on-drop
///
/// The builder buffers chunks until the target size is reached, so the final,
/// possibly undersized super-chunk only exists after [`finish`] is called.
/// **Dropping a builder silently discards any buffered chunks** — it cannot hand
/// the pending super-chunk to anyone from `Drop`.  Callers that own a builder must
/// call [`finish`] at end of stream; [`pending_chunk_count`] /
/// [`pending_bytes`] expose what would be lost, and the error-path test suite
/// pins this contract down.
///
/// [`finish`]: SuperChunkBuilder::finish
/// [`pending_chunk_count`]: SuperChunkBuilder::pending_chunk_count
/// [`pending_bytes`]: SuperChunkBuilder::pending_bytes
///
/// # Example
///
/// ```
/// use sigma_core::{ChunkDescriptor, SuperChunkBuilder};
/// use sigma_hashkit::{Digest, Sha1};
///
/// let mut builder = SuperChunkBuilder::new(8 * 1024);
/// let mut complete = Vec::new();
/// for i in 0..6u8 {
///     let payload = vec![i; 4096];
///     let d = ChunkDescriptor::new(Sha1::fingerprint(&payload), 4096);
///     if let Some(sc) = builder.push_chunk(d, payload) {
///         complete.push(sc);
///     }
/// }
/// complete.extend(builder.finish());
/// assert_eq!(complete.len(), 3);
/// assert!(complete.iter().all(|sc| sc.chunk_count() == 2));
/// ```
#[derive(Debug)]
pub struct SuperChunkBuilder {
    cut: SuperChunkCut,
    next_offset: u64,
    current_offset: u64,
    descriptors: Vec<ChunkDescriptor>,
    payloads: Vec<Vec<u8>>,
}

impl SuperChunkBuilder {
    /// Creates a builder emitting super-chunks of at least `target_size` bytes
    /// (except possibly the final one).
    ///
    /// # Panics
    ///
    /// Panics if `target_size` is zero.
    pub fn new(target_size: usize) -> Self {
        SuperChunkBuilder {
            cut: SuperChunkCut::new(target_size),
            next_offset: 0,
            current_offset: 0,
            descriptors: Vec::new(),
            payloads: Vec::new(),
        }
    }

    /// Target super-chunk size in bytes.
    pub fn target_size(&self) -> usize {
        self.cut.target_size
    }

    /// Number of chunks buffered but not yet emitted as a super-chunk.
    pub fn pending_chunk_count(&self) -> usize {
        self.descriptors.len()
    }

    /// Bytes buffered but not yet emitted as a super-chunk.
    pub fn pending_bytes(&self) -> usize {
        self.cut.pending_bytes
    }

    /// True when nothing is buffered ([`finish`](SuperChunkBuilder::finish) would
    /// return `None`, and dropping the builder would lose nothing).
    pub fn is_empty(&self) -> bool {
        self.descriptors.is_empty()
    }

    /// Adds a chunk with payload; returns a completed super-chunk once the target
    /// size is reached.
    pub fn push_chunk(
        &mut self,
        descriptor: ChunkDescriptor,
        payload: Vec<u8>,
    ) -> Option<SuperChunk> {
        self.payloads.push(payload);
        self.next_offset += descriptor.len as u64;
        self.descriptors.push(descriptor);
        if self.cut.closes_after(descriptor.len) {
            self.emit()
        } else {
            None
        }
    }

    fn emit(&mut self) -> Option<SuperChunk> {
        if self.descriptors.is_empty() {
            return None;
        }
        let descriptors = std::mem::take(&mut self.descriptors);
        let payloads = std::mem::take(&mut self.payloads);
        let sc = SuperChunk {
            offset: self.current_offset,
            descriptors,
            payloads,
        };
        self.current_offset = self.next_offset;
        self.cut.pending_bytes = 0;
        Some(sc)
    }

    /// Flushes the final, possibly undersized super-chunk (end of stream).
    pub fn finish(&mut self) -> Option<SuperChunk> {
        self.emit()
    }
}

/// The one rule that cuts a chunk stream into super-chunks, shared by
/// [`SuperChunkBuilder`] and the ingest pipeline: a super-chunk closes after
/// the first chunk that brings it to the target size, and the stream's last
/// chunk closes whatever is left.
#[derive(Debug)]
pub(crate) struct SuperChunkCut {
    target_size: usize,
    pending_bytes: usize,
}

impl SuperChunkCut {
    /// # Panics
    ///
    /// Panics if `target_size` is zero.
    pub(crate) fn new(target_size: usize) -> Self {
        assert!(target_size > 0, "super-chunk size must be non-zero");
        SuperChunkCut {
            target_size,
            pending_bytes: 0,
        }
    }

    /// Adds a chunk of `len` bytes; true when the super-chunk closes after it.
    pub(crate) fn closes_after(&mut self, len: u32) -> bool {
        self.pending_bytes += len as usize;
        if self.pending_bytes >= self.target_size {
            self.pending_bytes = 0;
            true
        } else {
            false
        }
    }
}

/// A super-chunk as routing and the node resolve it: each chunk's
/// descriptor beside a borrowed slice of its bytes.
///
/// The ingest pipeline builds views straight from the request buffer, and an
/// owned [`SuperChunk`] lends one ([`SuperChunk::view`]), so both reach the
/// node through one resolve path, and the container append is the only copy
/// of a unique chunk's bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuperChunkView<'a> {
    descriptors: &'a [ChunkDescriptor],
    /// Parallel to `descriptors`.
    payloads: Vec<&'a [u8]>,
}

impl<'a> SuperChunkView<'a> {
    /// Pairs each descriptor with the payload at the same index.  Nothing is
    /// checked here: a node refuses a view whose payloads disagree with its
    /// descriptors (see [`DedupNode::process_super_chunk`](crate::DedupNode::process_super_chunk)).
    pub(crate) fn new(descriptors: &'a [ChunkDescriptor], payloads: Vec<&'a [u8]>) -> Self {
        SuperChunkView {
            descriptors,
            payloads,
        }
    }

    /// The chunk descriptors, in stream order.
    pub fn descriptors(&self) -> &'a [ChunkDescriptor] {
        self.descriptors
    }

    /// Each chunk's descriptor with its payload, in stream order.
    pub fn chunks(&self) -> impl Iterator<Item = (&'a ChunkDescriptor, &'a [u8])> + '_ {
        self.descriptors.iter().zip(self.payloads.iter().copied())
    }

    /// Number of chunks.
    pub fn chunk_count(&self) -> usize {
        self.descriptors.len()
    }

    /// True when the view holds no chunks.
    pub fn is_empty(&self) -> bool {
        self.descriptors.is_empty()
    }

    /// Total logical size in bytes, as the descriptors give it.
    pub fn logical_size(&self) -> u64 {
        self.descriptors.iter().map(|d| d.len as u64).sum()
    }

    /// Iterator over the chunk fingerprints in stream order.
    pub fn fingerprints(&self) -> impl Iterator<Item = Fingerprint> + 'a {
        self.descriptors.iter().map(|d| d.fingerprint)
    }

    /// Computes the handprint of size `k`.
    pub fn handprint(&self, k: usize) -> Handprint {
        Handprint::from_fingerprints(self.fingerprints(), k)
    }

    /// Checks that there is one payload per descriptor and that each is as
    /// long as its descriptor says.  Fingerprints are not recomputed.
    ///
    /// # Errors
    ///
    /// Returns [`SigmaError::PayloadMismatch`] naming the first chunk that
    /// disagrees.
    pub(crate) fn check_payloads(&self) -> Result<()> {
        let descriptor_len = |i: usize| self.descriptors.get(i).map(|d| d.len as usize);
        let payload_len = |i: usize| self.payloads.get(i).map(|p| p.len());
        let chunks = self.descriptors.len().max(self.payloads.len());
        match (0..chunks).find(|&i| descriptor_len(i) != payload_len(i)) {
            None => Ok(()),
            Some(chunk) => Err(SigmaError::PayloadMismatch {
                chunk,
                descriptor_len: descriptor_len(chunk),
                payload_len: payload_len(chunk),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sigma_hashkit::{Digest, Sha1};

    /// Pushes chunk `i`: `len` bytes of `i`'s low byte, fingerprinted by `i`.
    fn push(b: &mut SuperChunkBuilder, i: u64, len: u32) -> Option<SuperChunk> {
        let descriptor = ChunkDescriptor::new(Sha1::fingerprint(&i.to_le_bytes()), len);
        b.push_chunk(descriptor, vec![i as u8; len as usize])
    }

    #[test]
    fn from_payloads_fingerprints_each_chunk() {
        let chunks = vec![b"aaa".to_vec(), b"bbb".to_vec()];
        let sc = SuperChunk::from_payloads(FingerprintAlgorithm::Sha1, 10, chunks);
        assert_eq!(sc.offset(), 10);
        assert_eq!(sc.descriptors()[0].fingerprint, Sha1::fingerprint(b"aaa"));
        assert_eq!(sc.descriptors()[1].fingerprint, Sha1::fingerprint(b"bbb"));
        assert_eq!(sc.payload(0).unwrap(), b"aaa");
        assert_eq!(sc.payload(2), None);
        assert_eq!(sc.view().logical_size(), 6);
    }

    #[test]
    fn builder_keeps_each_payload_beside_its_descriptor() {
        let mut b = SuperChunkBuilder::new(1000);
        assert!(push(&mut b, 1, 100).is_none());
        assert!(push(&mut b, 2, 200).is_none());
        let sc = b.finish().unwrap();
        assert_eq!(sc.view().logical_size(), 300);
        assert_eq!(sc.chunk_count(), 2);
        assert!(!sc.view().is_empty());
        assert_eq!(sc.payload(1), Some(&[2u8; 200][..]));
        let view = sc.view();
        let chunks: Vec<(&ChunkDescriptor, &[u8])> = view.chunks().collect();
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[0], (&sc.descriptors()[0], &[1u8; 100][..]));
    }

    #[test]
    fn builder_groups_by_target_size() {
        let mut b = SuperChunkBuilder::new(1000);
        let mut done = Vec::new();
        for i in 0..10u64 {
            if let Some(sc) = push(&mut b, i, 300) {
                done.push(sc);
            }
        }
        done.extend(b.finish());
        // 300 * 4 = 1200 >= 1000 => 4 chunks per super-chunk, 10 chunks => 2 full + 1 partial.
        assert_eq!(done.len(), 3);
        assert_eq!(done[0].chunk_count(), 4);
        assert_eq!(done[1].chunk_count(), 4);
        assert_eq!(done[2].chunk_count(), 2);
        // Offsets are contiguous.
        assert_eq!(done[0].offset(), 0);
        assert_eq!(done[1].offset(), 1200);
        assert_eq!(done[2].offset(), 2400);
    }

    #[test]
    fn builder_finish_on_empty_returns_none() {
        let mut b = SuperChunkBuilder::new(1000);
        assert!(b.finish().is_none());
        assert!(b.is_empty());
    }

    #[test]
    fn builder_exposes_pending_state() {
        let mut b = SuperChunkBuilder::new(1000);
        assert_eq!(b.pending_chunk_count(), 0);
        assert_eq!(b.pending_bytes(), 0);
        assert!(push(&mut b, 1, 300).is_none());
        assert!(push(&mut b, 2, 300).is_none());
        assert_eq!(b.pending_chunk_count(), 2);
        assert_eq!(b.pending_bytes(), 600);
        assert!(!b.is_empty());
        // Emitting drains the buffer.
        assert!(push(&mut b, 3, 600).is_some());
        assert_eq!(b.pending_chunk_count(), 0);
        assert_eq!(b.pending_bytes(), 0);
    }

    #[test]
    #[should_panic(expected = "super-chunk size must be non-zero")]
    fn zero_target_panics() {
        SuperChunkBuilder::new(0);
    }

    #[test]
    fn handprint_of_super_chunk_is_k_smallest() {
        let chunks = (0..100u64).map(|i| i.to_le_bytes().to_vec()).collect();
        let sc = SuperChunk::from_payloads(FingerprintAlgorithm::Sha1, 0, chunks);
        let hp = sc.handprint(5);
        let mut all: Vec<Fingerprint> = sc.view().fingerprints().collect();
        all.sort();
        assert_eq!(hp.representative_fingerprints(), &all[..5]);
    }

    proptest! {
        #[test]
        fn prop_builder_preserves_all_chunks_and_sizes(
            lens in proptest::collection::vec(1u32..5000, 1..100),
            target in 1usize..20_000,
        ) {
            let mut b = SuperChunkBuilder::new(target);
            let mut supers = Vec::new();
            for (i, &len) in lens.iter().enumerate() {
                if let Some(sc) = push(&mut b, i as u64, len) {
                    supers.push(sc);
                }
            }
            supers.extend(b.finish());

            let total_chunks: usize = supers.iter().map(|s| s.chunk_count()).sum();
            prop_assert_eq!(total_chunks, lens.len());
            let total_bytes: u64 = supers.iter().map(|s| s.view().logical_size()).sum();
            prop_assert_eq!(total_bytes, lens.iter().map(|&l| l as u64).sum::<u64>());
            // All but the last super-chunk reach the target size.
            for sc in &supers[..supers.len().saturating_sub(1)] {
                prop_assert!(sc.view().logical_size() as usize >= target);
            }
            // Offsets are contiguous.
            let mut expected_offset = 0u64;
            for sc in &supers {
                prop_assert_eq!(sc.offset(), expected_offset);
                expected_offset += sc.view().logical_size();
            }
        }
    }
}

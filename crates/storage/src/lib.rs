//! Storage substrate for Σ-Dedupe deduplication server nodes.
//!
//! Figure 3 of the paper shows the data structures inside a deduplication server:
//!
//! * a **similarity index** in RAM mapping representative fingerprints (RFPs) of
//!   stored super-chunks to the **container ID** (CID) where they live, protected by
//!   per-bucket locks so multiple backup streams can look up concurrently;
//! * a **chunk fingerprint cache** that holds the full fingerprint lists of recently
//!   accessed containers (prefetched from container metadata sections) with an LRU
//!   replacement policy;
//! * self-describing **containers** on disk, each with a data section (the chunks)
//!   and a metadata section (fingerprint, offset, length per chunk), managed in
//!   parallel with one open container per incoming data stream;
//! * a traditional hash-table based **on-disk chunk index** kept only as a fallback
//!   for fingerprints that miss in the cache.
//!
//! This crate implements all four structures over a pluggable [`StorageBackend`]
//! (RAM objects or real files), and counts the index lookups the higher layers
//! report as the paper's overhead metric.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod chunk_index;
mod container;
mod container_store;
mod error;
mod fingerprint_cache;
mod journal;
mod read_cache;
mod similarity_index;

pub use backend::{
    BackendKind, FileBackend, MemoryBackend, SharedBytes, StorageBackend, StorageObject,
};
pub use chunk_index::{ChunkIndex, ChunkIndexStats, ChunkLocation, ClaimOutcome};
pub use container::{
    ChunkRecord, Container, ContainerBuilder, ContainerId, ContainerMeta, ContainerSummary,
    CONTAINER_BLOB_DATA_OFFSET,
};
pub use container_store::{
    BatchedReadStats, ChunkFetch, CompactionOutcome, ContainerLiveness, ContainerState,
    ContainerStore, ContainerStoreStats, StoredChunk, StreamId, DEFAULT_CONTAINER_CAPACITY,
};
pub use error::StorageError;
pub use fingerprint_cache::{CacheStats, FingerprintCache};
pub use journal::{CrashMode, Journal, JournalRecord, NodeSnapshot, ReplaySummary};
pub use read_cache::ReadCacheStats;
pub use similarity_index::{SimilarityIndex, SimilarityIndexStats};

/// Convenient result alias for storage operations.
pub type Result<T> = std::result::Result<T, StorageError>;

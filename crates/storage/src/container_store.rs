//! Parallel container management.
//!
//! The deduplication server keeps one *open* container per incoming data stream so
//! that the chunks of different backup streams do not interleave (which would destroy
//! the locality the fingerprint cache depends on).  When an open container fills up
//! it is sealed, charged to the disk model as a sequential write, and a new one is
//! opened.  Sealed containers can be read back for restores and for fingerprint
//! prefetching.
//!
//! One layout on every backend: a sealed container's chunk bytes live only in
//! its backend object, durable before its journal record is appended and
//! before it is visible in the sealed directory, which (like the journal)
//! holds [`ContainerSummary`] metadata only.  A container leaving the store
//! loses its object only after the journal record saying so.
//!
//! A container passes through three stages: *open* (a stream's builder),
//! *sealing* (sealed in RAM while its object is written and its record
//! appended) and *sealed* (a summary in the directory, the bytes in the
//! object).  It enters each stage before it leaves the previous one, and a
//! reader that misses the sealed directory checks the stages in that order,
//! so a container stays readable at every instant of its seal.
//!
//! Concurrency: each open container sits behind its own mutex, so streams append
//! in parallel and only contend when they touch the *same* stream's container —
//! which, by construction, only happens for requests of that one stream.  The
//! open-, sealing- and sealed-container directories are reader/writer-locked
//! maps, and the aggregate counters are atomics, so reads (restores, metadata
//! prefetches) never block writers of unrelated containers.  Lock order is
//! always open directory → slot → sealing/sealed map; no path takes them in
//! another order, which is what the concurrency stress suite exercises.

use crate::read_cache::{ContainerReadCache, ReadCacheStats};
use crate::{
    ChunkLocation, Container, ContainerBuilder, ContainerId, ContainerMeta, ContainerSummary,
    DiskModel, Journal, JournalRecord, MemoryBackend, Result, SharedBytes, StorageBackend,
    StorageError, StorageObject, CONTAINER_BLOB_DATA_OFFSET,
};
use parking_lot::{Mutex, RwLock};
use serde::{Deserialize, Serialize};
use sigma_hashkit::{Digest, Fingerprint, Sha1};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Identifier of a backup data stream within one node.
pub type StreamId = u64;

/// Default container data-section capacity: 4 MB, as in the Data Domain design the
/// paper builds on.
pub const DEFAULT_CONTAINER_CAPACITY: usize = 4 * 1024 * 1024;

/// Aggregate statistics of a [`ContainerStore`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ContainerStoreStats {
    /// Containers sealed and written to (simulated) disk.
    pub sealed_containers: u64,
    /// Containers still open.
    pub open_containers: u64,
    /// Total bytes stored in sealed containers' data sections.
    pub stored_bytes: u64,
    /// Total chunks stored in sealed containers.
    pub stored_chunks: u64,
    /// Container metadata sections read back (fingerprint prefetches).
    pub metadata_reads: u64,
    /// Full container data reads (restores).
    pub data_reads: u64,
    /// Containers dropped by the garbage collector (no live chunks).
    pub gc_dropped_containers: u64,
    /// Containers compacted by the garbage collector (live chunks rewritten).
    pub gc_compacted_containers: u64,
    /// Bytes reclaimed by garbage collection (drops + compactions).
    pub gc_reclaimed_bytes: u64,
}

/// Per-container live/dead byte accounting, as of the last GC mark that scored
/// the container (see [`ContainerStore::container_liveness`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ContainerLiveness {
    /// Bytes of chunks referenced by at least one surviving recipe.
    pub live_bytes: u64,
    /// Bytes of chunks no surviving recipe references.
    pub dead_bytes: u64,
    /// Chunks referenced by at least one surviving recipe.
    pub live_chunks: u64,
    /// Chunks no surviving recipe references.
    pub dead_chunks: u64,
}

impl ContainerLiveness {
    /// Fraction of the container's data section that is live (1.0 when empty).
    pub fn liveness(&self) -> f64 {
        let total = self.live_bytes + self.dead_bytes;
        if total == 0 {
            1.0
        } else {
            self.live_bytes as f64 / total as f64
        }
    }
}

/// What one container compaction did (see [`ContainerStore::compact_container`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompactionOutcome {
    /// The container that was compacted away.
    pub victim: ContainerId,
    /// The fresh container now holding the victim's live chunks.
    pub replacement: ContainerId,
    /// The live chunks' records *at their new offsets* in the replacement.
    pub live_records: Vec<crate::ChunkRecord>,
    /// The dead chunks' records (old offsets; their index entries must go).
    pub dead_records: Vec<crate::ChunkRecord>,
    /// Physical bytes reclaimed (victim data size − replacement data size).
    pub reclaimed_bytes: u64,
}

/// One stream's open container.  `builder` is `None` once the slot has been
/// retired by a flush racing with a store; the storer re-fetches a fresh slot
/// from the directory instead of appending to a container that was just sealed.
struct OpenSlot {
    builder: Option<ContainerBuilder>,
}

/// A node-local store of open and sealed containers.
///
/// # Example
///
/// ```
/// use sigma_storage::ContainerStore;
/// use sigma_hashkit::{Digest, Sha1};
///
/// let store = ContainerStore::new(1024 * 1024);
/// let payload = b"a unique chunk".to_vec();
/// let fp = Sha1::fingerprint(&payload);
/// let location = store.store_chunk(0, fp, &payload).unwrap();
/// store.flush().unwrap();
/// assert_eq!(store.read_chunk(&location.container, &fp).unwrap(), payload);
/// ```
pub struct ContainerStore {
    capacity: usize,
    /// The medium holding one object per sealed container — the only copy of
    /// its chunk bytes, on every backend.
    backend: Arc<dyn StorageBackend>,
    /// Write-ahead journal, when the node is durable: container seals, adoptions
    /// and their chunk-index finalizations are appended *before* they take effect
    /// in memory, so a crash can lose at most the open (unacknowledged) tail.
    journal: Option<Arc<Journal>>,
    next_id: AtomicU64,
    open: RwLock<HashMap<StreamId, Arc<Mutex<OpenSlot>>>>,
    /// Containers between the open and the sealed directory: their object is
    /// being written and their record appended, and readers are served from
    /// these in-RAM copies meanwhile.
    sealing: RwLock<HashMap<ContainerId, Arc<Container>>>,
    /// The sealed-container directory: metadata only, never payload.
    sealed: RwLock<HashMap<ContainerId, ContainerSummary>>,
    /// Adoption ledger: `(origin node, origin container) → local container`.
    /// Adopting the same origin twice (a retried rebalance step, or replay of a
    /// duplicated migration record) returns the existing local container instead
    /// of double-storing the data.
    adopted: RwLock<HashMap<(u64, ContainerId), ContainerId>>,
    /// Per-container live/dead byte accounting, refreshed by every GC mark that
    /// scores the container and dropped with it.  Containers never scored (no GC
    /// ran yet) are absent.
    liveness: RwLock<HashMap<ContainerId, ContainerLiveness>>,
    /// Bounded LRU of container data sections serving repeat restore reads;
    /// `None` when disabled (the default).
    read_cache: Option<ContainerReadCache>,
    sealed_containers: AtomicU64,
    stored_bytes: AtomicU64,
    stored_chunks: AtomicU64,
    metadata_reads: AtomicU64,
    data_reads: AtomicU64,
    gc_dropped: AtomicU64,
    gc_compacted: AtomicU64,
    gc_reclaimed_bytes: AtomicU64,
}

impl std::fmt::Debug for ContainerStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ContainerStore")
            .field("capacity", &self.capacity)
            .field("open", &self.open.read().len())
            .field("sealed", &self.sealed.read().len())
            .finish()
    }
}

/// Where [`ContainerStore::locate`] found a container.
enum Located<T> {
    /// Sealed: a view of its summary; the bytes are in its object.
    Sealed(T),
    /// Open or sealing: the whole container, bytes included, in RAM.
    InRam(Arc<Container>),
}

/// Maximum gap (bytes) between two record extents that still coalesces them
/// into one backend read: streaming a small skipped stretch is cheaper than
/// paying a second seek + syscall.
const COALESCE_GAP: usize = 64 * 1024;

/// One chunk's worth of work for [`ContainerStore::read_chunks_batched`]: a
/// record extent to read and the output slice to decode it into.  The caller
/// resolves fingerprints to extents via the chunk index; `out.len()` is the
/// record length.
pub struct ChunkFetch<'a> {
    /// Fingerprint the extent was resolved from (error reporting only).
    pub fingerprint: Fingerprint,
    /// Record offset within the container's data section.
    pub offset: u32,
    /// Destination slice, typically a window of the restore's preallocated
    /// output buffer.
    pub out: &'a mut [u8],
}

/// What one [`ContainerStore::read_chunks_batched`] call did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchedReadStats {
    /// Chunk payloads decoded.
    pub chunks: u64,
    /// Bytes actually read from the backend (0 on a cache hit or a serve
    /// from a container still open or sealing); divided into logical bytes
    /// this is the read amplification.
    pub backend_bytes_read: u64,
    /// Backend reads issued after coalescing (0 when served from RAM).
    pub coalesced_runs: u64,
    /// Batches served entirely from the container read cache.
    pub cache_hits: u64,
    /// Batches that had to read the backend with a cache attached.
    pub cache_misses: u64,
}

/// Location information returned when a chunk is stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoredChunk {
    /// Container the chunk was appended to.
    pub container: ContainerId,
    /// Offset within the container's data section.
    pub offset: u32,
    /// Chunk length in bytes.
    pub len: u32,
}

impl ContainerStore {
    /// Creates a store with the given per-container data capacity (bytes).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "container capacity must be non-zero");
        ContainerStore {
            capacity,
            backend: Arc::new(MemoryBackend::new()),
            journal: None,
            next_id: AtomicU64::new(0),
            open: RwLock::new(HashMap::new()),
            sealing: RwLock::new(HashMap::new()),
            sealed: RwLock::new(HashMap::new()),
            adopted: RwLock::new(HashMap::new()),
            liveness: RwLock::new(HashMap::new()),
            read_cache: None,
            sealed_containers: AtomicU64::new(0),
            stored_bytes: AtomicU64::new(0),
            stored_chunks: AtomicU64::new(0),
            metadata_reads: AtomicU64::new(0),
            data_reads: AtomicU64::new(0),
            gc_dropped: AtomicU64::new(0),
            gc_compacted: AtomicU64::new(0),
            gc_reclaimed_bytes: AtomicU64::new(0),
        }
    }

    /// Creates a store with the default 4 MB container capacity.
    pub fn with_default_capacity() -> Self {
        ContainerStore::new(DEFAULT_CONTAINER_CAPACITY)
    }

    /// Attaches a storage backend: every sealed container becomes one object
    /// on it.  Disk-model charging follows the backend's own
    /// [`disk`](StorageBackend::disk).
    pub fn with_backend(mut self, backend: Arc<dyn StorageBackend>) -> Self {
        self.backend = backend;
        self
    }

    fn disk(&self) -> Option<Arc<DiskModel>> {
        self.backend.disk()
    }

    /// Attaches a write-ahead journal: every seal and adoption appends its records
    /// before taking effect in memory.
    pub fn with_journal(mut self, journal: Arc<Journal>) -> Self {
        self.journal = Some(journal);
        self
    }

    /// Gives the restore path a [`ContainerReadCache`] bounded at
    /// `capacity_bytes`; `0` disables caching.
    pub fn with_read_cache_bytes(mut self, capacity_bytes: u64) -> Self {
        self.read_cache = (capacity_bytes > 0).then(|| ContainerReadCache::new(capacity_bytes));
        self
    }

    /// The read cache's counters and occupancy, `None` when caching is off.
    pub fn read_cache_stats(&self) -> Option<ReadCacheStats> {
        self.read_cache.as_ref().map(|c| c.stats())
    }

    fn invalidate_cached(&self, container: &ContainerId) {
        if let Some(cache) = &self.read_cache {
            cache.invalidate(container);
        }
    }

    /// Per-container data capacity in bytes.
    pub fn container_capacity(&self) -> usize {
        self.capacity
    }

    fn alloc_id(&self) -> ContainerId {
        ContainerId::new(self.next_id.fetch_add(1, Ordering::Relaxed))
    }

    /// Appends a unique chunk to the open container of `stream`, sealing and rolling
    /// over to a fresh container when the current one is full.
    ///
    /// Returns where the chunk was stored.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::ChunkTooLarge`] when a single chunk exceeds the
    /// container capacity.
    pub fn store_chunk(
        &self,
        stream: StreamId,
        fingerprint: Fingerprint,
        data: &[u8],
    ) -> Result<StoredChunk> {
        self.store_impl(stream, fingerprint, data.len(), Some(data))
    }

    /// Appends a *synthetic* chunk of `len` bytes: only its metadata record and
    /// logical length are tracked, no payload is kept.  Used when a node is driven by
    /// a fingerprint trace instead of real data; such chunks cannot be read back.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::ChunkTooLarge`] when a single chunk exceeds the
    /// container capacity.
    pub fn store_chunk_synthetic(
        &self,
        stream: StreamId,
        fingerprint: Fingerprint,
        len: u32,
    ) -> Result<StoredChunk> {
        self.store_impl(stream, fingerprint, len as usize, None)
    }

    fn store_impl(
        &self,
        stream: StreamId,
        fingerprint: Fingerprint,
        len: usize,
        data: Option<&[u8]>,
    ) -> Result<StoredChunk> {
        if len > self.capacity {
            return Err(StorageError::ChunkTooLarge {
                chunk_size: len,
                container_capacity: self.capacity,
            });
        }
        loop {
            // Fetch (or create) this stream's open slot; only the directory lock is
            // held while doing so, never a slot lock.
            let slot = {
                let open = self.open.read();
                open.get(&stream).cloned()
            };
            let slot = match slot {
                Some(slot) => slot,
                None => {
                    let mut open = self.open.write();
                    open.entry(stream)
                        .or_insert_with(|| {
                            Arc::new(Mutex::new(OpenSlot {
                                builder: Some(ContainerBuilder::new(
                                    self.alloc_id(),
                                    self.capacity,
                                )),
                            }))
                        })
                        .clone()
                }
            };

            let mut guard = slot.lock();
            if guard.builder.is_none() {
                // A concurrent flush retired this slot between our directory fetch
                // and the lock; start over with a fresh container.
                continue;
            }

            // Roll over if the chunk does not fit.  The full container moves
            // to the sealing stage while the slot is still locked.
            if !guard.builder.as_ref().expect("checked above").fits(len) {
                let fresh = ContainerBuilder::new(self.alloc_id(), self.capacity);
                let full = guard.builder.replace(fresh).expect("checked above");
                let full = self.begin_seal(full);
                self.seal_group(vec![full])?;
            }

            let builder = guard.builder.as_mut().expect("fresh after rollover");
            let offset = builder.used() as u32;
            let appended = match data {
                Some(bytes) => builder.try_append(fingerprint, bytes),
                None => builder.try_append_synthetic(fingerprint, len as u32),
            };
            debug_assert!(appended, "chunk must fit after rollover");
            return Ok(StoredChunk {
                container: builder.id(),
                offset,
                len: len as u32,
            });
        }
    }

    /// The container currently open for `stream`, if any.
    pub fn open_container(&self, stream: StreamId) -> Option<ContainerId> {
        let slot = self.open.read().get(&stream).cloned()?;
        let guard = slot.lock();
        guard.builder.as_ref().map(|b| b.id())
    }

    /// The chunk-index entries a container's seal makes durable: one batched
    /// finalize record per sealed container.
    fn finalize_entries(container: &ContainerSummary) -> Vec<(Fingerprint, ChunkLocation)> {
        container
            .meta
            .records
            .iter()
            .map(|r| {
                (
                    r.fingerprint,
                    ChunkLocation {
                        container: container.id,
                        offset: r.offset,
                        len: r.len,
                    },
                )
            })
            .collect()
    }

    /// Writes a sealed container's object — durable once this returns — and
    /// returns the summary: once the caller drops the container, the object
    /// is its one copy of the chunk bytes.
    fn write_object(&self, container: &Container) -> Result<ContainerSummary> {
        let (summary, object) = container.to_object();
        self.backend
            .put_object(StorageObject::Container(summary.id), object)?;
        Ok(summary)
    }

    /// Adds a newly visible sealed container to the aggregate counters.
    fn count_sealed(&self, container: &ContainerSummary) {
        self.sealed_containers.fetch_add(1, Ordering::Relaxed);
        self.stored_bytes
            .fetch_add(container.logical_size, Ordering::Relaxed);
        self.stored_chunks
            .fetch_add(container.chunk_count() as u64, Ordering::Relaxed);
    }

    /// Moves a retired builder to the sealing stage.  Callers hold its slot
    /// lock, so no reader sees the container in neither stage.
    fn begin_seal(&self, builder: ContainerBuilder) -> Arc<Container> {
        let container = Arc::new(builder.seal());
        self.sealing
            .write()
            .insert(container.id(), container.clone());
        container
    }

    /// Seals a group of full containers as one buffered write: every container's
    /// seal and batched chunk-index finalize goes into a single journal group
    /// commit, and the containers' data+metadata sections are charged to the
    /// disk model as one coalesced sequential transfer.  A rollover seals a
    /// group of one; [`flush`](Self::flush) seals every retired stream at once.
    ///
    /// Ordering: every object is durable, then the group's records are
    /// appended, then the seals become visible in the sealed directory, and
    /// only then do they leave the sealing stage.  A crash before the records
    /// leaves only orphan objects, which recovery sweeps; a crash mid-group
    /// keeps the journaled prefix and drops the unacknowledged rest, exactly
    /// as an interrupted session would drop it.
    fn seal_group(&self, containers: Vec<Arc<Container>>) -> Result<()> {
        let outcome = self.publish_sealed(&containers);
        let mut sealing = self.sealing.write();
        for container in &containers {
            sealing.remove(&container.id());
        }
        outcome
    }

    /// Everything [`seal_group`](Self::seal_group) does before the group
    /// leaves the sealing stage.
    fn publish_sealed(&self, containers: &[Arc<Container>]) -> Result<()> {
        if containers.is_empty() {
            return Ok(());
        }
        let containers = containers
            .iter()
            .map(|c| self.write_object(c))
            .collect::<Result<Vec<ContainerSummary>>>()?;
        if let Some(journal) = &self.journal {
            let mut records = Vec::with_capacity(containers.len() * 2);
            for container in &containers {
                records.push(JournalRecord::ContainerSeal {
                    container: container.clone(),
                });
                records.push(JournalRecord::ChunkIndexFinalize {
                    container: container.id,
                    entries: Self::finalize_entries(container),
                });
            }
            journal.append_batch(&records)?;
        }
        if let Some(disk) = self.disk() {
            let total: u64 = containers
                .iter()
                .map(|c| (c.data_size() + c.meta.serialized_size()) as u64)
                .sum();
            disk.record_sequential_transfer(total);
        }
        let mut sealed = self.sealed.write();
        for container in containers {
            self.count_sealed(&container);
            sealed.insert(container.id, container);
        }
        Ok(())
    }

    /// Seals every open container (end of a backup session) as one coalesced
    /// group write — one journal group commit, one sequential disk transfer —
    /// instead of a per-container trickle.
    ///
    /// # Errors
    ///
    /// Returns the journal crash hit while sealing; every open container of the
    /// session is then dropped, exactly as a crash would drop them.
    pub fn flush(&self) -> Result<()> {
        // Retire every open slot.  A store racing with the flush either
        // appended before its slot was retired (its chunk is sealed here) or
        // finds the retired slot and opens a fresh container.  The directory
        // lock is held until every retired container is in the sealing stage,
        // so a reader that finds no slot for it finds it sealing.
        let containers: Vec<Arc<Container>> = {
            let mut open = self.open.write();
            open.drain()
                .filter_map(|(_, slot)| {
                    let mut guard = slot.lock();
                    let builder = guard.builder.take().filter(|b| b.chunk_count() > 0)?;
                    Some(self.begin_seal(builder))
                })
                .collect()
        };
        self.seal_group(containers)
    }

    /// Snapshots a still-open container holding `container`, if any.
    fn clone_open(&self, container: &ContainerId) -> Option<Container> {
        let slots: Vec<Arc<Mutex<OpenSlot>>> = self.open.read().values().cloned().collect();
        for slot in slots {
            let guard = slot.lock();
            if let Some(builder) = guard.builder.as_ref() {
                if builder.id() == *container {
                    return Some(builder.clone().seal());
                }
            }
        }
        None
    }

    /// Finds a container for a reader: `view` of its summary when sealed,
    /// else the container itself while it is open or sealing.
    ///
    /// After a fast look at the sealed and sealing directories the stages are
    /// checked in lifecycle order — open, sealing, sealed.  A container enters
    /// each stage before it leaves the previous one, so one that is missed in
    /// a stage is found in a later one; `None` means it is not in this store.
    /// No directory guard is held across the open check, which takes slot
    /// mutexes (the store path holds a slot mutex while it seals).
    fn locate<T>(
        &self,
        container: &ContainerId,
        view: impl Fn(&ContainerSummary) -> T,
    ) -> Option<Located<T>> {
        let sealed = || self.sealed.read().get(container).map(&view);
        let sealing = || self.sealing.read().get(container).cloned();
        if let Some(hit) = sealed() {
            return Some(Located::Sealed(hit));
        }
        let in_ram = sealing()
            .or_else(|| self.clone_open(container).map(Arc::new))
            .or_else(sealing);
        match in_ram {
            Some(container) => Some(Located::InRam(container)),
            None => sealed().map(Located::Sealed),
        }
    }

    /// True if a reader can find `container` here: open, sealing or sealed.
    pub fn contains(&self, container: &ContainerId) -> bool {
        let sealed = || self.sealed.read().contains_key(container);
        let sealing = || self.sealing.read().contains_key(container);
        sealed() || sealing() || self.contains_open(container) || sealing() || sealed()
    }

    /// Reads a sealed container's metadata section (fingerprint list).
    ///
    /// Charged to the disk model as a sequential read of the metadata section; this
    /// is the "prefetch" operation behind the chunk fingerprint cache.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::ContainerNotFound`] if the container is not sealed.
    pub fn read_metadata(&self, container: &ContainerId) -> Result<ContainerMeta> {
        self.metadata_reads.fetch_add(1, Ordering::Relaxed);
        // Open and sealing containers (written moments ago by some stream) are
        // visible too: their fingerprints are in memory on a real server.
        let meta = match self.locate(container, |c| c.meta.clone()) {
            Some(Located::Sealed(meta)) => meta,
            Some(Located::InRam(c)) => c.meta().clone(),
            None => return Err(StorageError::ContainerNotFound(*container)),
        };
        if let Some(disk) = self.disk() {
            // A metadata prefetch is a seek into the container object followed
            // by a short stream of the metadata section: charge the seek via
            // the random-read model instead of pretending the whole operation
            // was one sequential transfer.
            disk.record_random_read();
            disk.record_sequential_transfer(meta.serialized_size() as u64);
        }
        Ok(meta)
    }

    /// Reads one chunk's payload from a sealed container (restore path).
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::ContainerNotFound`] if the container is unknown, or
    /// [`StorageError::ChunkNotInContainer`] if the fingerprint is not stored there.
    pub fn read_chunk(&self, container: &ContainerId, fp: &Fingerprint) -> Result<Vec<u8>> {
        self.data_reads.fetch_add(1, Ordering::Relaxed);
        // Containers not yet sealed are in memory on a real server and
        // readable immediately.  No lock of ours is held across the backend
        // read.
        let extent = |c: &ContainerSummary| {
            c.meta
                .records
                .iter()
                .find(|r| &r.fingerprint == fp)
                // Synthetic (trace-driven) chunks have no payload: their
                // records point past the real data section.
                .filter(|r| r.offset + r.len <= c.data_len)
                .map(|r| (r.offset, r.len))
        };
        let data = match self.locate(container, extent) {
            Some(Located::Sealed(Some((offset, len)))) => Some(self.backend.read_at(
                StorageObject::Container(*container),
                (CONTAINER_BLOB_DATA_OFFSET + offset as usize) as u64,
                len as usize,
            )?),
            Some(Located::Sealed(None)) => None,
            Some(Located::InRam(c)) => c.chunk_data(fp).map(<[u8]>::to_vec),
            None => return Err(StorageError::ContainerNotFound(*container)),
        };
        let data = data.ok_or_else(|| StorageError::ChunkNotInContainer {
            container: *container,
            fingerprint: fp.to_string(),
        })?;
        if let Some(disk) = self.disk() {
            disk.record_sequential_transfer(data.len() as u64);
        }
        Ok(data)
    }

    /// Reads a batch of chunk payloads out of **one** container, decoding each
    /// directly into its caller-provided output slice (restore path).
    ///
    /// Where the serial [`read_chunk`](Self::read_chunk) issues one backend
    /// read per chunk, this coalesces: adjacent/nearby record extents become
    /// one [`read_at`](StorageBackend::read_at) per coalesced run — or, when a
    /// [read cache](Self::with_read_cache_bytes) is attached and the section
    /// fits its budget, one whole-section read that also fills the cache, with
    /// repeat visits served from RAM.  Disk-model charging is identical to the
    /// serial path (one sequential transfer per chunk), so simulated figures do
    /// not shift because reads were batched.
    ///
    /// The caller resolves fingerprints to record extents first (via the chunk
    /// index); each [`ChunkFetch`]'s `out` length is the record length.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::ContainerNotFound`] if the container is unknown,
    /// or [`StorageError::ChunkNotInContainer`] if any extent points past the
    /// data section (a synthetic trace-driven chunk, which has no payload).
    /// On error the output slices are in an unspecified partially-written
    /// state; callers fall back to the serial path.
    pub fn read_chunks_batched(
        &self,
        container: &ContainerId,
        fetches: &mut [ChunkFetch<'_>],
    ) -> Result<BatchedReadStats> {
        if fetches.is_empty() {
            return Ok(BatchedReadStats::default());
        }
        self.data_reads
            .fetch_add(fetches.len() as u64, Ordering::Relaxed);
        let mut stats = BatchedReadStats {
            chunks: fetches.len() as u64,
            ..BatchedReadStats::default()
        };
        match self.locate(container, |c| c.data_len as usize) {
            Some(Located::Sealed(data_len)) => {
                // Synthetic (trace-driven) chunks have no payload: their
                // records point past the real data section.
                if let Some(f) = fetches
                    .iter()
                    .find(|f| f.offset as usize + f.out.len() > data_len)
                {
                    return Err(StorageError::ChunkNotInContainer {
                        container: *container,
                        fingerprint: f.fingerprint.to_string(),
                    });
                }
                self.read_extents(container, fetches, data_len, &mut stats)?;
            }
            Some(Located::InRam(open)) => {
                for f in fetches.iter_mut() {
                    let data = open
                        .chunk_data(&f.fingerprint)
                        .filter(|d| d.len() == f.out.len())
                        .ok_or_else(|| StorageError::ChunkNotInContainer {
                            container: *container,
                            fingerprint: f.fingerprint.to_string(),
                        })?;
                    f.out.copy_from_slice(data);
                }
            }
            None => return Err(StorageError::ContainerNotFound(*container)),
        }
        if let Some(disk) = self.disk() {
            // Chunk-for-chunk the same charge as the serial read path: the
            // simulated figures must not shift because reads were batched.
            for f in fetches.iter() {
                disk.record_sequential_transfer(f.out.len() as u64);
            }
        }
        Ok(stats)
    }

    /// The sealed-container arm of [`read_chunks_batched`]: cache, then
    /// whole-section readahead, then coalesced extent runs.
    ///
    /// [`read_chunks_batched`]: Self::read_chunks_batched
    fn read_extents(
        &self,
        container: &ContainerId,
        fetches: &mut [ChunkFetch<'_>],
        data_len: usize,
        stats: &mut BatchedReadStats,
    ) -> Result<()> {
        let obj = StorageObject::Container(*container);
        if let Some(cache) = &self.read_cache {
            if let Some(section) = cache.get(container) {
                if section.len() == data_len {
                    stats.cache_hits += 1;
                    for f in fetches.iter_mut() {
                        let start = f.offset as usize;
                        f.out.copy_from_slice(&section[start..start + f.out.len()]);
                    }
                    return Ok(());
                }
                // A resident section of the wrong length can only be stale —
                // never serve it.
                cache.invalidate(container);
            }
            stats.cache_misses += 1;
            if data_len as u64 <= cache.capacity_bytes() {
                // Read the whole data section once: restores revisit
                // containers, so the readahead doubles as the cache fill —
                // the buffer the backend returned is the one cached, uncopied
                // (on the in-RAM backends, the object's own buffer).
                let section =
                    self.backend
                        .read_shared(obj, CONTAINER_BLOB_DATA_OFFSET as u64, data_len)?;
                stats.backend_bytes_read += data_len as u64;
                stats.coalesced_runs += 1;
                for f in fetches.iter_mut() {
                    let start = f.offset as usize;
                    f.out.copy_from_slice(&section[start..start + f.out.len()]);
                }
                cache.insert(*container, section);
                return Ok(());
            }
            // Section bigger than the whole cache budget: fall through to
            // plain coalesced runs without caching.
        }
        // Walk the extents in offset order, coalescing neighbours whose gap is
        // at most COALESCE_GAP into one backend read per run.
        let mut order: Vec<usize> = (0..fetches.len()).collect();
        order.sort_unstable_by_key(|&i| fetches[i].offset);
        let mut next = 0;
        while next < order.len() {
            let mut run = vec![order[next]];
            let run_start = fetches[order[next]].offset as usize;
            let mut run_end = run_start + fetches[order[next]].out.len();
            next += 1;
            while next < order.len() {
                let idx = order[next];
                let start = fetches[idx].offset as usize;
                if start > run_end + COALESCE_GAP {
                    break;
                }
                run_end = run_end.max(start + fetches[idx].out.len());
                run.push(idx);
                next += 1;
            }
            let run_len = run_end - run_start;
            if run.len() == 1 {
                // A lone extent reads straight into its output slice — no
                // intermediate buffer at all.
                let f = &mut fetches[run[0]];
                self.backend.read_at_into(
                    obj,
                    (CONTAINER_BLOB_DATA_OFFSET + run_start) as u64,
                    &mut f.out[..],
                )?;
            } else {
                let buf = self.backend.read_at(
                    obj,
                    (CONTAINER_BLOB_DATA_OFFSET + run_start) as u64,
                    run_len,
                )?;
                for &idx in &run {
                    let f = &mut fetches[idx];
                    let start = f.offset as usize - run_start;
                    f.out.copy_from_slice(&buf[start..start + f.out.len()]);
                }
            }
            stats.backend_bytes_read += run_len as u64;
            stats.coalesced_runs += 1;
        }
        Ok(())
    }

    /// Identifiers of every sealed container, sorted ascending.
    ///
    /// Sorted so that rebalancing plans built from this list are deterministic.
    pub fn sealed_container_ids(&self) -> Vec<ContainerId> {
        let mut ids: Vec<ContainerId> = self.sealed.read().keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Logical data-section size of a sealed container, if it exists.
    pub fn sealed_data_size(&self, container: &ContainerId) -> Option<usize> {
        self.sealed.read().get(container).map(|c| c.data_size())
    }

    /// A sealed container's whole data section: the read cache's buffer when
    /// resident, else one backend read.
    fn section(&self, container: &ContainerSummary) -> Result<SharedBytes> {
        let cached = self
            .read_cache
            .as_ref()
            .and_then(|cache| cache.get(&container.id))
            .filter(|section| section.len() == container.data_len as usize);
        match cached {
            Some(section) => Ok(section),
            None => self.backend.read_shared(
                StorageObject::Container(container.id),
                CONTAINER_BLOB_DATA_OFFSET as u64,
                container.data_len as usize,
            ),
        }
    }

    /// Reads a sealed container out of the store for migration to another node.
    ///
    /// Charged to the disk model as a sequential read of the container's data and
    /// metadata sections (the rebalancer streaming it off this node's disk).  The
    /// container stays in the store until [`remove_sealed`](Self::remove_sealed).
    /// Returns `Ok(None)` when no sealed container has this ID.
    ///
    /// The data section is not hashed here: the container travels with its
    /// journaled checksum, not a fresh one, so a section that rotted on this
    /// node is written to the destination as it is and caught there by the
    /// next recovery's [`verify_objects`](Self::verify_objects).
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::Io`] when the object cannot be read.
    pub fn export_sealed(&self, container: &ContainerId) -> Result<Option<Container>> {
        let Some(summary) = self.sealed.read().get(container).cloned() else {
            return Ok(None);
        };
        let data = self.section(&summary)?;
        if let Some(disk) = self.disk() {
            disk.record_sequential_transfer(
                (summary.data_size() + summary.meta.serialized_size()) as u64,
            );
        }
        Ok(Some(Container::from_summary(summary, data)))
    }

    /// Adopts a container migrated from another node, re-identifying it in this
    /// store's ID space (per-node container IDs would otherwise collide).
    ///
    /// `origin_node` is the stable ID of the node the container came from; the
    /// `(origin node, origin container)` pair keys an adoption ledger that makes
    /// this operation **idempotent**: adopting the same origin again (a retried
    /// rebalance step after a crash, or replay of a duplicated migration record)
    /// returns the already-assigned local identifier without storing the data a
    /// second time.  `rfps` are the representative fingerprints travelling with
    /// the container; they are journaled with it so the adoption is one atomic
    /// durable event.
    ///
    /// Returns the container's (possibly pre-existing) local identifier.  First
    /// adoptions are charged to the disk model as a sequential write, exactly like
    /// sealing a locally filled container, and follow the same ordering: object
    /// durable, then the journal record, then visible.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::Crashed`] when the journal refuses the append,
    /// and [`StorageError::Io`] when the object cannot be written.
    pub fn adopt_sealed(
        &self,
        origin_node: u64,
        container: Container,
        rfps: &[Fingerprint],
    ) -> Result<ContainerId> {
        let origin = (origin_node, container.id());
        // The ledger write-lock is held across the whole adoption (check,
        // journal appends, counters, install): a bare check-then-act would let
        // two overlapping rebalance plans racing on the same origin both pass
        // the check and double-store the container.  The ledger lock is taken
        // before the journal's internal lock on this path and nothing takes
        // them in the opposite order, and migrations are rare enough that the
        // serialization cost is irrelevant.
        let mut adopted = self.adopted.write();
        if let Some(existing) = adopted.get(&origin) {
            return Ok(*existing);
        }
        let new_id = self.alloc_id();
        let container = self.write_object(&container.with_id(new_id))?;
        if let Some(journal) = &self.journal {
            journal.append_batch(&[
                JournalRecord::ContainerAdopt {
                    origin_node,
                    origin_container: origin.1,
                    container: container.clone(),
                    rfps: rfps.to_vec(),
                },
                JournalRecord::ChunkIndexFinalize {
                    container: new_id,
                    entries: Self::finalize_entries(&container),
                },
            ])?;
        }
        if let Some(disk) = self.disk() {
            disk.record_sequential_transfer(
                (container.data_size() + container.meta.serialized_size()) as u64,
            );
        }
        self.count_sealed(&container);
        adopted.insert(origin, new_id);
        self.sealed.write().insert(new_id, container);
        Ok(new_id)
    }

    /// Installs a container summary during journal replay, preserving its
    /// identifier; its object is already on the medium (recovery checks it
    /// afterwards with [`verify_objects`](Self::verify_objects)).
    ///
    /// Unlike [`adopt_sealed`](Self::adopt_sealed) this writes nothing (the
    /// record being replayed *is* the durable copy) and charges no disk I/O
    /// (the replay itself is charged as one sequential journal read).
    /// Returns `false` when `origin` was already adopted — the guard that keeps a
    /// duplicated migration record from double-installing a container.
    pub fn install_recovered(
        &self,
        origin: Option<(u64, ContainerId)>,
        container: ContainerSummary,
    ) -> bool {
        if let Some(origin) = origin {
            let mut adopted = self.adopted.write();
            if adopted.contains_key(&origin) {
                return false;
            }
            adopted.insert(origin, container.id);
        }
        let id = container.id;
        self.next_id.fetch_max(id.as_u64() + 1, Ordering::Relaxed);
        self.count_sealed(&container);
        self.sealed.write().insert(id, container);
        true
    }

    /// The adoption ledger: `(origin node, origin container, local container)` for
    /// every container this store adopted, sorted for deterministic iteration.
    pub fn adopted_origins(&self) -> Vec<(u64, ContainerId, ContainerId)> {
        let mut out: Vec<(u64, ContainerId, ContainerId)> = self
            .adopted
            .read()
            .iter()
            .map(|(&(node, origin), &local)| (node, origin, local))
            .collect();
        out.sort_unstable();
        out
    }

    /// Every sealed container's summary together with its adoption origin (if
    /// any), sorted by container ID — the container half of a compaction
    /// snapshot.
    pub fn sealed_snapshot(&self) -> Vec<(Option<(u64, ContainerId)>, ContainerSummary)> {
        let by_local: HashMap<ContainerId, (u64, ContainerId)> = self
            .adopted
            .read()
            .iter()
            .map(|(&origin, &local)| (local, origin))
            .collect();
        let mut out: Vec<(Option<(u64, ContainerId)>, ContainerSummary)> = self
            .sealed
            .read()
            .values()
            .map(|c| (by_local.get(&c.id).copied(), c.clone()))
            .collect();
        out.sort_unstable_by_key(|(_, c)| c.id);
        out
    }

    /// The container ID the next allocation will use.
    pub fn peek_next_id(&self) -> u64 {
        self.next_id.load(Ordering::Relaxed)
    }

    /// Sets the next container ID to allocate to at least `next` (snapshot replay).
    pub fn restore_next_id(&self, next: u64) {
        self.next_id.fetch_max(next, Ordering::Relaxed);
    }

    /// True if a sealed container with this ID is present.
    pub fn contains_sealed(&self, container: &ContainerId) -> bool {
        self.sealed.read().contains_key(container)
    }

    /// Identifiers of the currently open containers (one per active stream).
    pub fn open_container_ids(&self) -> Vec<ContainerId> {
        let slots: Vec<Arc<Mutex<OpenSlot>>> = self.open.read().values().cloned().collect();
        slots
            .iter()
            .filter_map(|slot| slot.lock().builder.as_ref().map(|b| b.id()))
            .collect()
    }

    /// Removes a sealed container and deletes its object (the final step of
    /// migrating it away or collecting it), subtracting its bytes and chunks
    /// from this store's accounting.  Callers journal the removal first.
    pub fn remove_sealed(&self, container: &ContainerId) -> Option<ContainerSummary> {
        let removed = self.sealed.write().remove(container)?;
        self.invalidate_cached(container);
        // Best-effort: the journal record preceding the removal is the
        // durable authority; an object a failed delete leaves behind is an
        // orphan the next recovery sweeps.
        let _ = self.backend.delete(StorageObject::Container(*container));
        self.liveness.write().remove(container);
        self.sealed_containers.fetch_sub(1, Ordering::Relaxed);
        self.stored_bytes
            .fetch_sub(removed.logical_size, Ordering::Relaxed);
        self.stored_chunks
            .fetch_sub(removed.chunk_count() as u64, Ordering::Relaxed);
        Some(removed)
    }

    // ---- Garbage collection (mark-and-sweep support) ----

    /// Scores a sealed container against the GC mark phase's live-fingerprint
    /// set, recording (and returning) its live/dead byte accounting.
    ///
    /// Returns `None` when no sealed container with this ID exists.  The figure
    /// is a *mark-time snapshot*: it is refreshed by every GC and dropped with
    /// the container; [`recorded_liveness`](Self::recorded_liveness) reads it
    /// back without rescoring.
    pub fn container_liveness(
        &self,
        container: &ContainerId,
        live: &std::collections::HashSet<Fingerprint>,
    ) -> Option<ContainerLiveness> {
        let mut acct = ContainerLiveness::default();
        {
            let sealed = self.sealed.read();
            let c = sealed.get(container)?;
            for record in &c.meta.records {
                if live.contains(&record.fingerprint) {
                    acct.live_bytes += record.len as u64;
                    acct.live_chunks += 1;
                } else {
                    acct.dead_bytes += record.len as u64;
                    acct.dead_chunks += 1;
                }
            }
        }
        self.liveness.write().insert(*container, acct);
        Some(acct)
    }

    /// The live/dead accounting the last GC mark recorded for a container, if
    /// the container still exists and has been scored.
    pub fn recorded_liveness(&self, container: &ContainerId) -> Option<ContainerLiveness> {
        self.liveness.read().get(container).copied()
    }

    /// Drops a sealed container the GC found fully dead, journaling a
    /// [`JournalRecord::GcDrop`] *before* the object goes (write-ahead, like
    /// every other state change).  Returns the dropped container's summary so
    /// the caller can clean up the indexes that referenced it, or `None` if the
    /// container does not exist.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::Crashed`] when the journal refuses the append;
    /// the container is then *not* dropped.
    pub fn drop_sealed_gc(&self, container: &ContainerId) -> Result<Option<ContainerSummary>> {
        if !self.sealed.read().contains_key(container) {
            return Ok(None);
        }
        if let Some(journal) = &self.journal {
            journal.append(&JournalRecord::GcDrop {
                container: *container,
            })?;
        }
        let removed = self.remove_sealed(container);
        if removed.is_some() {
            self.gc_dropped.fetch_add(1, Ordering::Relaxed);
            if let Some(c) = &removed {
                self.gc_reclaimed_bytes
                    .fetch_add(c.logical_size, Ordering::Relaxed);
            }
        }
        Ok(removed)
    }

    /// Compacts a sealed container: its chunks in `live` are rewritten into a
    /// fresh container (the same install path an adopted migrated container
    /// takes: new local ID, sealed directly, journaled as one atomic record) and
    /// the victim is dropped.  `rfps` are the representative fingerprints
    /// travelling to the replacement, journaled with it so replay re-homes the
    /// similarity entries exactly as the live path does.
    ///
    /// Returns `None` — journaling nothing — when the container does not exist,
    /// has no dead bytes (nothing to reclaim), or has no live bytes (use
    /// [`drop_sealed_gc`](Self::drop_sealed_gc)).
    ///
    /// Must run at a GC-quiescent point, like the sweep that calls it: no
    /// concurrent ingest may be deduplicating against the victim.
    ///
    /// Ordering: the replacement's object is durable before the `GcCompact`
    /// record is appended, and the victim's object is deleted only after it.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::Crashed`] when the journal refuses the append,
    /// and [`StorageError::Io`] when the victim's object cannot be read or
    /// fails its checksum, or the replacement cannot be written; the victim
    /// then remains in place, untouched.
    pub fn compact_container(
        &self,
        victim: &ContainerId,
        live: &std::collections::HashSet<Fingerprint>,
        rfps: &[Fingerprint],
    ) -> Result<Option<CompactionOutcome>> {
        let Some(old) = self.sealed.read().get(victim).cloned() else {
            return Ok(None);
        };
        let (live_src, dead_records): (Vec<_>, Vec<_>) = old
            .meta
            .records
            .iter()
            .copied()
            .partition(|record| live.contains(&record.fingerprint));
        if dead_records.is_empty() || live_src.is_empty() {
            return Ok(None);
        }
        // The replacement is read, checked, built and written before the
        // sealed directory is locked, so restores and seals on this node only
        // wait for the journal append and the swap.  The live chunks get a
        // fresh checksum in the replacement, so rot in the victim must be
        // caught here rather than laundered into it.
        let data = self.section(&old)?;
        if Sha1::fingerprint(&data) != old.checksum {
            return Err(StorageError::Io(format!(
                "{}: data section fails its checksum",
                old.id
            )));
        }
        let new_id = self.alloc_id();
        let mut builder = ContainerBuilder::new(new_id, self.capacity);
        for record in &live_src {
            let end = (record.offset + record.len) as usize;
            // Synthetic (trace-driven) chunks carry no payload; their records
            // point past the real data section and travel metadata-only.
            let appended = if end <= data.len() {
                builder.try_append(record.fingerprint, &data[record.offset as usize..end])
            } else {
                builder.try_append_synthetic(record.fingerprint, record.len)
            };
            debug_assert!(appended, "a live subset always fits its own container");
        }
        drop(data);
        let replacement = self.write_object(&builder.seal())?;
        // Lock order stays slot → sealed (we take no slot locks), and the
        // journal, read cache and backend locks are leaves acquired and
        // released inside their calls, so this cannot deadlock against a
        // concurrent rollover seal.
        let mut sealed = self.sealed.write();
        if !sealed.contains_key(victim) {
            // Migrated or collected while the replacement was being built
            // (IDs are never reused): nothing journaled names the
            // replacement, so its object goes again.
            drop(sealed);
            let _ = self.backend.delete(StorageObject::Container(new_id));
            return Ok(None);
        }
        let live_records = replacement.meta.records.clone();
        let reclaimed = old.logical_size - replacement.logical_size;
        if let Some(journal) = &self.journal {
            journal.append(&JournalRecord::GcCompact {
                victim: *victim,
                replacement: replacement.clone(),
                rfps: rfps.to_vec(),
            })?;
        }
        if let Some(disk) = self.disk() {
            // Read the victim off disk, write the replacement back.
            disk.record_sequential_transfer((old.data_size() + old.meta.serialized_size()) as u64);
            disk.record_sequential_transfer(
                (replacement.data_size() + replacement.meta.serialized_size()) as u64,
            );
        }
        let _ = self.backend.delete(StorageObject::Container(*victim));
        sealed.remove(victim);
        sealed.insert(new_id, replacement);
        drop(sealed);
        self.invalidate_cached(victim);
        self.liveness.write().remove(victim);
        self.stored_bytes.fetch_sub(reclaimed, Ordering::Relaxed);
        self.stored_chunks
            .fetch_sub(dead_records.len() as u64, Ordering::Relaxed);
        self.gc_compacted.fetch_add(1, Ordering::Relaxed);
        self.gc_reclaimed_bytes
            .fetch_add(reclaimed, Ordering::Relaxed);
        Ok(Some(CompactionOutcome {
            victim: *victim,
            replacement: new_id,
            live_records,
            dead_records,
            reclaimed_bytes: reclaimed,
        }))
    }

    /// True if a container with this ID is currently *open* (still being filled
    /// by some stream) — open containers are invisible to the GC sweep.
    pub fn contains_open(&self, container: &ContainerId) -> bool {
        let slots: Vec<Arc<Mutex<OpenSlot>>> = self.open.read().values().cloned().collect();
        slots.iter().any(|slot| {
            slot.lock()
                .builder
                .as_ref()
                .is_some_and(|b| b.id() == *container)
        })
    }

    /// Total physical bytes stored (sealed + open containers' data sections).
    pub fn physical_bytes(&self) -> u64 {
        let slots: Vec<Arc<Mutex<OpenSlot>>> = self.open.read().values().cloned().collect();
        let open: u64 = slots
            .iter()
            .map(|slot| {
                slot.lock()
                    .builder
                    .as_ref()
                    .map(|b| b.used() as u64)
                    .unwrap_or(0)
            })
            .sum();
        self.stored_bytes.load(Ordering::Relaxed) + open
    }

    /// Physical bytes *as the backend sees them*: the logical data sizes
    /// decoded from every container object actually on the medium.
    /// [`verify_consistency`] on the node cross-checks this against the
    /// directory, so the medium cannot silently drift from it.
    ///
    /// [`verify_consistency`]: ../../sigma_core/struct.DedupNode.html#method.verify_consistency
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::Io`] when an object cannot be read or decoded.
    pub fn backend_physical_bytes(&self) -> Result<u64> {
        let mut total = 0u64;
        for obj in self.backend.list()? {
            if let StorageObject::Container(id) = obj {
                let container = ContainerSummary::from_object(&self.backend.read_all(obj)?)
                    .ok_or_else(|| StorageError::Io(format!("{}: undecodable object", id)))?;
                total += container.logical_size;
            }
        }
        Ok(total)
    }

    /// Checks the medium against the directory journal replay rebuilt
    /// (recovery runs this once, before the node serves).  A sealed container
    /// whose object is missing, has the wrong length or fails its checksum is
    /// discarded — dropped from the directory and the adoption ledger, and
    /// returned so the caller can drop its index entries.  Every container
    /// object no sealed container claims is deleted: a crash between an
    /// object write and its record, or between a record and the delete it
    /// licensed, leaves exactly such orphans.  Verified data sections go into
    /// the read cache, as any read's would.
    ///
    /// Returns the discarded containers and the number of orphans deleted;
    /// every container still sealed afterwards was verified.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::Io`] when the backend cannot be listed, read or
    /// written.
    pub fn verify_objects(&self) -> Result<(Vec<ContainerSummary>, u64)> {
        let mut discarded = Vec::new();
        for (_, container) in self.sealed_snapshot() {
            let obj = StorageObject::Container(container.id);
            let object = match self.backend.object_len(obj)? {
                Some(len) => Some(self.backend.read_shared(obj, 0, len as usize)?),
                None => None,
            };
            let intact =
                object.filter(|o| ContainerSummary::from_object(o).as_ref() == Some(&container));
            let Some(object) = intact else {
                self.adopted
                    .write()
                    .retain(|_, local| *local != container.id);
                discarded.extend(self.remove_sealed(&container.id));
                continue;
            };
            if let Some(cache) = &self.read_cache {
                // Checking the object just read its data section: keep it,
                // like any other read, for the restores a restart serves.
                let data = CONTAINER_BLOB_DATA_OFFSET
                    ..CONTAINER_BLOB_DATA_OFFSET + container.data_len as usize;
                cache.insert(container.id, object.slice(data));
            }
        }
        let sealed = self.sealed.read();
        let mut orphans = 0;
        for obj in self.backend.list()? {
            if matches!(obj, StorageObject::Container(id) if !sealed.contains_key(&id)) {
                self.backend.delete(obj)?;
                orphans += 1;
            }
        }
        Ok((discarded, orphans))
    }

    /// Number of sealed containers.
    pub fn sealed_count(&self) -> usize {
        self.sealed.read().len()
    }

    /// Snapshot of the store statistics.
    pub fn stats(&self) -> ContainerStoreStats {
        ContainerStoreStats {
            sealed_containers: self.sealed_containers.load(Ordering::Relaxed),
            open_containers: self.open.read().len() as u64,
            stored_bytes: self.stored_bytes.load(Ordering::Relaxed),
            stored_chunks: self.stored_chunks.load(Ordering::Relaxed),
            metadata_reads: self.metadata_reads.load(Ordering::Relaxed),
            data_reads: self.data_reads.load(Ordering::Relaxed),
            gc_dropped_containers: self.gc_dropped.load(Ordering::Relaxed),
            gc_compacted_containers: self.gc_compacted.load(Ordering::Relaxed),
            gc_reclaimed_bytes: self.gc_reclaimed_bytes.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DiskParams, SimDiskBackend};
    use sigma_hashkit::{Digest, Sha1};

    fn payload(i: u64, len: usize) -> (Fingerprint, Vec<u8>) {
        let data: Vec<u8> = (0..len).map(|j| ((i as usize + j) % 251) as u8).collect();
        (Sha1::fingerprint(&data), data)
    }

    #[test]
    fn store_and_read_back() {
        let store = ContainerStore::new(1024);
        let (fp, data) = payload(1, 100);
        let loc = store.store_chunk(0, fp, &data).unwrap();
        store.flush().unwrap();
        assert_eq!(store.read_chunk(&loc.container, &fp).unwrap(), data);
        assert_eq!(store.physical_bytes(), 100);
    }

    #[test]
    fn rollover_when_container_fills() {
        let store = ContainerStore::new(250);
        let mut containers = std::collections::HashSet::new();
        for i in 0..10u64 {
            let (fp, data) = payload(i, 100);
            let loc = store.store_chunk(0, fp, &data).unwrap();
            containers.insert(loc.container);
        }
        // 100-byte chunks, 250-byte containers => 2 chunks per container => 5 containers.
        assert_eq!(containers.len(), 5);
        assert_eq!(store.stats().sealed_containers, 4, "last one still open");
        store.flush().unwrap();
        assert_eq!(store.stats().sealed_containers, 5);
        assert_eq!(store.stats().stored_chunks, 10);
    }

    #[test]
    fn per_stream_containers_do_not_interleave() {
        let store = ContainerStore::new(1024);
        let (fp_a, data_a) = payload(1, 64);
        let (fp_b, data_b) = payload(2, 64);
        let loc_a = store.store_chunk(1, fp_a, &data_a).unwrap();
        let loc_b = store.store_chunk(2, fp_b, &data_b).unwrap();
        assert_ne!(loc_a.container, loc_b.container);
        assert_eq!(store.stats().open_containers, 2);
    }

    #[test]
    fn oversized_chunk_is_rejected() {
        let store = ContainerStore::new(100);
        let (fp, data) = payload(1, 200);
        assert_eq!(
            store.store_chunk(0, fp, &data),
            Err(StorageError::ChunkTooLarge {
                chunk_size: 200,
                container_capacity: 100
            })
        );
    }

    #[test]
    fn metadata_read_returns_fingerprints_in_write_order() {
        let store = ContainerStore::new(10_000);
        let mut expect = Vec::new();
        let mut container = None;
        for i in 0..5u64 {
            let (fp, data) = payload(i, 50);
            let loc = store.store_chunk(0, fp, &data).unwrap();
            container = Some(loc.container);
            expect.push(fp);
        }
        store.flush().unwrap();
        let meta = store.read_metadata(&container.unwrap()).unwrap();
        let got: Vec<Fingerprint> = meta.fingerprints().collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn missing_container_and_chunk_errors() {
        let store = ContainerStore::new(1024);
        let missing = ContainerId::new(99);
        assert!(matches!(
            store.read_metadata(&missing),
            Err(StorageError::ContainerNotFound(_))
        ));
        let (fp, data) = payload(1, 10);
        let loc = store.store_chunk(0, fp, &data).unwrap();
        store.flush().unwrap();
        let (other_fp, _) = payload(2, 10);
        assert!(matches!(
            store.read_chunk(&loc.container, &other_fp),
            Err(StorageError::ChunkNotInContainer { .. })
        ));
    }

    #[test]
    fn disk_accounting_records_sequential_io() {
        let disk = Arc::new(DiskModel::new(DiskParams::default()));
        let store =
            ContainerStore::new(200).with_backend(Arc::new(SimDiskBackend::new(disk.clone())));
        for i in 0..4u64 {
            let (fp, data) = payload(i, 100);
            store.store_chunk(0, fp, &data).unwrap();
        }
        store.flush().unwrap();
        let d = disk.stats();
        assert!(d.sequential_ops >= 2, "sealed containers must be written");
        assert!(d.sequential_bytes >= 400);
    }

    #[test]
    fn flush_skips_empty_containers() {
        let store = ContainerStore::new(1024);
        store.flush().unwrap();
        assert_eq!(store.stats().sealed_containers, 0);
    }

    #[test]
    fn synthetic_chunks_account_bytes_without_payload() {
        let store = ContainerStore::new(1000);
        let mut containers = std::collections::HashSet::new();
        for i in 0..6u64 {
            let (fp, _) = payload(i, 1);
            let loc = store.store_chunk_synthetic(0, fp, 400).unwrap();
            containers.insert(loc.container);
        }
        // 400-byte logical chunks in 1000-byte containers => 2 per container.
        assert_eq!(containers.len(), 3);
        store.flush().unwrap();
        assert_eq!(store.physical_bytes(), 2400);
        assert_eq!(store.stats().stored_chunks, 6);
        // Synthetic chunks cannot be read back.
        let (fp0, _) = payload(0, 1);
        let cid = *containers.iter().min().unwrap();
        assert!(
            store.read_chunk(&cid, &fp0).is_err()
                || store.read_chunk(&cid, &fp0).unwrap().is_empty()
        );
    }

    #[test]
    fn metadata_of_open_container_is_visible() {
        let store = ContainerStore::new(1_000_000);
        let (fp, data) = payload(1, 100);
        let loc = store.store_chunk(0, fp, &data).unwrap();
        // Not flushed: the container is still open, but its metadata must be readable.
        let meta = store.read_metadata(&loc.container).unwrap();
        assert_eq!(meta.fingerprints().collect::<Vec<_>>(), vec![fp]);
        assert_eq!(store.open_container(0), Some(loc.container));
        assert_eq!(store.open_container(7), None);
    }

    #[test]
    fn concurrent_streams_store_without_interleaving_or_loss() {
        let store = Arc::new(ContainerStore::new(2048));
        let mut handles = Vec::new();
        for stream in 0..8u64 {
            let store = store.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..64u64 {
                    let (fp, data) = payload(stream * 1_000 + i, 128);
                    store.store_chunk(stream, fp, &data).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        store.flush().unwrap();
        let stats = store.stats();
        assert_eq!(stats.stored_chunks, 8 * 64, "no chunk may be lost");
        assert_eq!(store.physical_bytes(), 8 * 64 * 128);
        assert_eq!(stats.open_containers, 0);
    }

    #[test]
    fn open_container_reads_race_rollover_without_deadlock() {
        // Regression test: read_metadata/read_chunk of a still-open container must
        // not hold the sealed-map lock while taking slot mutexes, or they deadlock
        // against a concurrent rollover (which seals while holding a slot mutex).
        let store = Arc::new(ContainerStore::new(512));
        let mut handles = Vec::new();
        for stream in 0..4u64 {
            let store = store.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..400u64 {
                    // 128-byte chunks in 512-byte containers: rollover every 4th.
                    let (fp, data) = payload(stream * 10_000 + i, 128);
                    store.store_chunk(stream, fp, &data).unwrap();
                }
            }));
        }
        for _ in 0..2 {
            let store = store.clone();
            handles.push(std::thread::spawn(move || {
                for stream in (0..4u64).cycle().take(2_000) {
                    if let Some(cid) = store.open_container(stream) {
                        // The container may seal under us; both outcomes are fine,
                        // only a deadlock is not.
                        let _ = store.read_metadata(&cid);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        store.flush().unwrap();
        assert_eq!(store.stats().stored_chunks, 4 * 400);
    }

    #[test]
    fn liveness_accounting_scores_live_and_dead_bytes() {
        let store = ContainerStore::new(4096);
        let mut fps = Vec::new();
        for i in 0..4u64 {
            let (fp, data) = payload(i, 100);
            store.store_chunk(0, fp, &data).unwrap();
            fps.push(fp);
        }
        store.flush().unwrap();
        let cid = store.sealed_container_ids()[0];
        let live: std::collections::HashSet<Fingerprint> = fps[..3].iter().copied().collect();
        let acct = store.container_liveness(&cid, &live).unwrap();
        assert_eq!(acct.live_bytes, 300);
        assert_eq!(acct.dead_bytes, 100);
        assert_eq!(acct.live_chunks, 3);
        assert_eq!(acct.dead_chunks, 1);
        assert!((acct.liveness() - 0.75).abs() < 1e-12);
        assert_eq!(store.recorded_liveness(&cid), Some(acct));
        // Unknown containers score nothing.
        assert!(store
            .container_liveness(&ContainerId::new(999), &live)
            .is_none());
    }

    #[test]
    fn compact_container_rewrites_live_chunks_and_reclaims_dead_bytes() {
        let store = ContainerStore::new(4096);
        let chunks: Vec<(Fingerprint, Vec<u8>)> = (0..4u64).map(|i| payload(i, 100)).collect();
        for (fp, data) in &chunks {
            store.store_chunk(0, *fp, data).unwrap();
        }
        store.flush().unwrap();
        let victim = store.sealed_container_ids()[0];
        let live: std::collections::HashSet<Fingerprint> =
            [chunks[1].0, chunks[3].0].into_iter().collect();
        let outcome = store
            .compact_container(&victim, &live, &[])
            .unwrap()
            .expect("half-dead container compacts");
        assert_eq!(outcome.victim, victim);
        assert_ne!(outcome.replacement, victim);
        assert_eq!(outcome.reclaimed_bytes, 200);
        assert_eq!(outcome.live_records.len(), 2);
        assert_eq!(outcome.dead_records.len(), 2);
        // Live chunks read back from the replacement at their new offsets.
        assert!(!store.contains_sealed(&victim));
        assert_eq!(
            store
                .read_chunk(&outcome.replacement, &chunks[1].0)
                .unwrap(),
            chunks[1].1
        );
        assert_eq!(
            store
                .read_chunk(&outcome.replacement, &chunks[3].0)
                .unwrap(),
            chunks[3].1
        );
        assert_eq!(store.physical_bytes(), 200);
        let stats = store.stats();
        assert_eq!(stats.sealed_containers, 1);
        assert_eq!(stats.stored_chunks, 2);
        assert_eq!(stats.gc_compacted_containers, 1);
        assert_eq!(stats.gc_reclaimed_bytes, 200);
    }

    #[test]
    fn compact_container_declines_fully_live_and_fully_dead_containers() {
        let store = ContainerStore::new(4096);
        let chunks: Vec<(Fingerprint, Vec<u8>)> = (0..2u64).map(|i| payload(i, 100)).collect();
        for (fp, data) in &chunks {
            store.store_chunk(0, *fp, data).unwrap();
        }
        store.flush().unwrap();
        let cid = store.sealed_container_ids()[0];
        let all: std::collections::HashSet<Fingerprint> =
            chunks.iter().map(|(fp, _)| *fp).collect();
        assert!(store.compact_container(&cid, &all, &[]).unwrap().is_none());
        let none = std::collections::HashSet::new();
        assert!(store.compact_container(&cid, &none, &[]).unwrap().is_none());
        assert!(store
            .compact_container(&ContainerId::new(7), &all, &[])
            .unwrap()
            .is_none());
        assert_eq!(
            store.physical_bytes(),
            200,
            "declined compactions change nothing"
        );
    }

    #[test]
    fn drop_sealed_gc_journals_before_dropping() {
        let journal = Arc::new(crate::Journal::new());
        let store = ContainerStore::new(4096).with_journal(journal.clone());
        let (fp, data) = payload(1, 100);
        store.store_chunk(0, fp, &data).unwrap();
        store.flush().unwrap();
        let cid = store.sealed_container_ids()[0];
        let frames_before = journal.frame_count();
        let dropped = store.drop_sealed_gc(&cid).unwrap().expect("present");
        assert_eq!(dropped.id, cid);
        assert_eq!(journal.frame_count(), frames_before + 1);
        assert_eq!(store.physical_bytes(), 0);
        assert_eq!(store.stats().gc_dropped_containers, 1);
        assert_eq!(store.stats().gc_reclaimed_bytes, 100);
        // Absent containers journal nothing.
        assert!(store.drop_sealed_gc(&cid).unwrap().is_none());
        assert_eq!(journal.frame_count(), frames_before + 1);
    }

    #[test]
    fn flush_coalesces_seals_into_one_group_write() {
        let disk = Arc::new(DiskModel::new(DiskParams::default()));
        let journal = Arc::new(
            crate::Journal::with_backend(Arc::new(SimDiskBackend::new(disk.clone()))).unwrap(),
        );
        let store = ContainerStore::new(4096)
            .with_backend(Arc::new(SimDiskBackend::new(disk.clone())))
            .with_journal(journal.clone());
        for stream in 0..6u64 {
            let (fp, data) = payload(stream, 100);
            store.store_chunk(stream, fp, &data).unwrap();
        }
        let ops_before = disk.stats().sequential_ops;
        store.flush().unwrap();
        // Six open containers seal as ONE coalesced container write plus ONE
        // journal group commit — not twelve appends and six transfers.
        assert_eq!(disk.stats().sequential_ops, ops_before + 2);
        assert_eq!(store.stats().sealed_containers, 6);
        // Every seal and finalize still reached the journal individually.
        let (records, _) = crate::Journal::replay(&journal.bytes()).unwrap();
        assert_eq!(records.len(), 12);
        assert_eq!(
            records
                .iter()
                .filter(|r| matches!(r, JournalRecord::ContainerSeal { .. }))
                .count(),
            6
        );
    }

    /// Runs `read_chunks_batched` for `chunks` against `store`, asserting every
    /// payload matches, and returns the stats.
    fn batched_roundtrip(
        store: &ContainerStore,
        container: &ContainerId,
        chunks: &[(Fingerprint, Vec<u8>, u32)],
    ) -> BatchedReadStats {
        let total: usize = chunks.iter().map(|(_, d, _)| d.len()).sum();
        let mut out = vec![0u8; total];
        let mut fetches = Vec::new();
        let mut rest = out.as_mut_slice();
        for (fp, data, offset) in chunks {
            let (head, tail) = rest.split_at_mut(data.len());
            fetches.push(ChunkFetch {
                fingerprint: *fp,
                offset: *offset,
                out: head,
            });
            rest = tail;
        }
        let stats = store.read_chunks_batched(container, &mut fetches).unwrap();
        drop(fetches);
        let expect: Vec<u8> = chunks.iter().flat_map(|(_, d, _)| d.clone()).collect();
        assert_eq!(out, expect, "batched payloads must match what was stored");
        stats
    }

    #[test]
    fn batched_read_matches_serial_on_memory_store() {
        let store = ContainerStore::new(4096);
        let mut chunks = Vec::new();
        for i in 0..5u64 {
            let (fp, data) = payload(i, 100);
            let loc = store.store_chunk(0, fp, &data).unwrap();
            chunks.push((fp, data, loc.offset));
        }
        store.flush().unwrap();
        let cid = store.sealed_container_ids()[0];
        // Out-of-order and repeated extents must both decode correctly.
        chunks.swap(0, 3);
        let repeat = chunks[1].clone();
        chunks.push(repeat);
        let stats = batched_roundtrip(&store, &cid, &chunks);
        assert_eq!(stats.chunks, 6);
        assert_eq!(
            (stats.coalesced_runs, stats.backend_bytes_read),
            (1, 500),
            "served off the object, like every backend: one coalesced read"
        );
        assert_eq!(
            stats.cache_hits + stats.cache_misses,
            0,
            "no cache attached"
        );
    }

    #[test]
    fn batched_read_coalesces_file_backend_extents() {
        let root = std::env::temp_dir().join(format!(
            "sigma-batched-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        let backend = Arc::new(crate::FileBackend::open(&root).unwrap());
        let store = ContainerStore::new(4096).with_backend(backend);
        let mut chunks = Vec::new();
        for i in 0..6u64 {
            let (fp, data) = payload(i, 100);
            let loc = store.store_chunk(0, fp, &data).unwrap();
            chunks.push((fp, data, loc.offset));
        }
        store.flush().unwrap();
        let cid = store.sealed_container_ids()[0];
        let stats = batched_roundtrip(&store, &cid, &chunks);
        assert_eq!(stats.chunks, 6);
        assert_eq!(
            stats.coalesced_runs, 1,
            "six adjacent extents coalesce into one backend read"
        );
        assert_eq!(stats.backend_bytes_read, 600);
        // A sparse subset (gaps of 100 bytes) still coalesces: the gap is far
        // below COALESCE_GAP.
        let sparse: Vec<_> = chunks.iter().step_by(2).cloned().collect();
        let stats = batched_roundtrip(&store, &cid, &sparse);
        assert_eq!(stats.coalesced_runs, 1);
        assert_eq!(stats.backend_bytes_read, 500, "reads through the gaps");
        // A lone extent reads exactly its own bytes.
        let one = vec![chunks[2].clone()];
        let stats = batched_roundtrip(&store, &cid, &one);
        assert_eq!((stats.coalesced_runs, stats.backend_bytes_read), (1, 100));
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn batched_read_serves_repeats_from_the_cache_until_invalidated() {
        let root = std::env::temp_dir().join(format!(
            "sigma-cached-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        let backend = Arc::new(crate::FileBackend::open(&root).unwrap());
        let store = ContainerStore::new(4096)
            .with_backend(backend)
            .with_read_cache_bytes(1 << 20);
        let mut chunks = Vec::new();
        for i in 0..4u64 {
            let (fp, data) = payload(i, 100);
            let loc = store.store_chunk(0, fp, &data).unwrap();
            chunks.push((fp, data, loc.offset));
        }
        store.flush().unwrap();
        let cid = store.sealed_container_ids()[0];
        let first = batched_roundtrip(&store, &cid, &chunks);
        assert_eq!((first.cache_hits, first.cache_misses), (0, 1));
        assert_eq!(
            first.backend_bytes_read, 400,
            "miss reads the whole data section once"
        );
        let second = batched_roundtrip(&store, &cid, &chunks);
        assert_eq!((second.cache_hits, second.cache_misses), (1, 0));
        assert_eq!(second.backend_bytes_read, 0, "repeat visit never hits disk");
        let cache = store.read_cache_stats().expect("cache attached");
        assert_eq!(cache.resident_containers, 1);
        assert_eq!(cache.resident_bytes, 400);
        // GC-compacting the container must invalidate its cached section.
        let live: std::collections::HashSet<Fingerprint> =
            [chunks[0].0, chunks[1].0].into_iter().collect();
        let outcome = store
            .compact_container(&cid, &live, &[])
            .unwrap()
            .expect("half-dead container compacts");
        assert_eq!(
            store.read_cache_stats().unwrap().resident_containers,
            0,
            "victim's section dropped"
        );
        // Live chunks re-read correctly from the replacement at new offsets.
        let relocated: Vec<_> = outcome
            .live_records
            .iter()
            .map(|r| {
                let data = chunks
                    .iter()
                    .find(|(fp, _, _)| *fp == r.fingerprint)
                    .unwrap()
                    .1
                    .clone();
                (r.fingerprint, data, r.offset)
            })
            .collect();
        batched_roundtrip(&store, &outcome.replacement, &relocated);
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn batched_read_rejects_synthetic_chunks_and_unknown_containers() {
        let store = ContainerStore::new(4096);
        let (fp, _) = payload(1, 1);
        let loc = store.store_chunk_synthetic(0, fp, 64).unwrap();
        store.flush().unwrap();
        let mut out = vec![0u8; 64];
        let mut fetches = [ChunkFetch {
            fingerprint: fp,
            offset: loc.offset,
            out: &mut out,
        }];
        assert!(matches!(
            store.read_chunks_batched(&loc.container, &mut fetches),
            Err(StorageError::ChunkNotInContainer { .. })
        ));
        let mut fetches = [ChunkFetch {
            fingerprint: fp,
            offset: 0,
            out: &mut out,
        }];
        assert!(matches!(
            store.read_chunks_batched(&ContainerId::new(999), &mut fetches),
            Err(StorageError::ContainerNotFound(_))
        ));
    }

    #[test]
    fn batched_read_of_a_still_open_container_serves_from_memory() {
        let store = ContainerStore::new(1_000_000);
        let (fp, data) = payload(1, 128);
        let loc = store.store_chunk(0, fp, &data).unwrap();
        // Not flushed: the container is still open.
        let chunks = vec![(fp, data, loc.offset)];
        let stats = batched_roundtrip(&store, &loc.container, &chunks);
        assert_eq!(stats.chunks, 1);
        assert_eq!(stats.backend_bytes_read, 0);
    }

    #[test]
    fn flushed_store_keeps_no_payload_in_ram() {
        let backend = Arc::new(MemoryBackend::new());
        let store = ContainerStore::new(4096).with_backend(backend.clone());
        let mut chunks = Vec::new();
        for i in 0..6u64 {
            let (fp, data) = payload(i, 300);
            let loc = store.store_chunk(i % 2, fp, &data).unwrap();
            chunks.push((fp, loc));
        }
        store.flush().unwrap();
        let objects: u64 = backend
            .list()
            .unwrap()
            .into_iter()
            .map(|obj| backend.object_len(obj).unwrap().unwrap())
            .sum();
        assert!(objects >= 6 * 300, "every payload byte is in an object");
        // With the objects gone, nothing in the store can produce a payload
        // byte: the directory keeps metadata only.
        for obj in backend.list().unwrap() {
            backend.delete(obj).unwrap();
        }
        for (fp, loc) in &chunks {
            assert!(matches!(
                store.read_chunk(&loc.container, fp),
                Err(StorageError::Io(_))
            ));
            let mut out = vec![0u8; loc.len as usize];
            let mut fetches = [ChunkFetch {
                fingerprint: *fp,
                offset: loc.offset,
                out: &mut out,
            }];
            assert!(store
                .read_chunks_batched(&loc.container, &mut fetches)
                .is_err());
            assert!(store.export_sealed(&loc.container).is_err());
            let meta = store.read_metadata(&loc.container).unwrap();
            assert!(meta.fingerprints().any(|f| f == *fp), "metadata stays");
        }
    }

    #[test]
    fn verify_objects_discards_damaged_containers_and_sweeps_orphans() {
        let backend = Arc::new(MemoryBackend::new());
        let store = ContainerStore::new(4096).with_backend(backend.clone());
        for stream in 0..4u64 {
            let (fp, data) = payload(stream, 200);
            store.store_chunk(stream, fp, &data).unwrap();
        }
        store.flush().unwrap();
        let ids = store.sealed_container_ids();
        assert_eq!(ids.len(), 4);
        // Remove one object, flip a data byte of another, truncate a third,
        // and leave an object no container claims.
        backend.delete(StorageObject::Container(ids[0])).unwrap();
        let rotten = StorageObject::Container(ids[1]);
        let mut bytes = backend.read_all(rotten).unwrap();
        bytes[CONTAINER_BLOB_DATA_OFFSET + 7] ^= 0x10;
        backend.write_object(rotten, &bytes).unwrap();
        let (_, migrated) = store
            .export_sealed(&ids[1])
            .unwrap()
            .expect("sealed")
            .to_object();
        assert_eq!(
            ContainerSummary::from_object(&migrated),
            None,
            "a migrated rotten section keeps failing its journaled checksum"
        );
        let short = StorageObject::Container(ids[2]);
        let bytes = backend.read_all(short).unwrap();
        backend
            .write_object(short, &bytes[..bytes.len() - 1])
            .unwrap();
        let orphan = StorageObject::Container(ContainerId::new(99));
        backend.write_object(orphan, b"never recorded").unwrap();

        let (discarded, orphans) = store.verify_objects().unwrap();
        let discarded: Vec<ContainerId> = discarded.iter().map(|c| c.id).collect();
        assert_eq!(discarded, ids[..3].to_vec());
        assert_eq!(orphans, 1);
        assert_eq!(store.sealed_container_ids(), vec![ids[3]]);
        assert_eq!(store.physical_bytes(), 200);
        assert_eq!(
            backend.list().unwrap(),
            vec![StorageObject::Container(ids[3])],
            "only the healthy container's object is left"
        );
        assert_eq!(store.backend_physical_bytes().unwrap(), 200);
    }

    #[test]
    fn compaction_refuses_a_rotten_victim() {
        let backend = Arc::new(MemoryBackend::new());
        let store = ContainerStore::new(4096).with_backend(backend.clone());
        let chunks: Vec<(Fingerprint, Vec<u8>)> = (0..4u64).map(|i| payload(i, 100)).collect();
        for (fp, data) in &chunks {
            store.store_chunk(0, *fp, data).unwrap();
        }
        store.flush().unwrap();
        let victim = store.sealed_container_ids()[0];
        let obj = StorageObject::Container(victim);
        let mut bytes = backend.read_all(obj).unwrap();
        bytes[CONTAINER_BLOB_DATA_OFFSET + 150] ^= 0x01;
        backend.write_object(obj, &bytes).unwrap();
        let live: std::collections::HashSet<Fingerprint> = [chunks[0].0].into_iter().collect();
        assert!(
            matches!(
                store.compact_container(&victim, &live, &[]),
                Err(StorageError::Io(_))
            ),
            "live chunks must not be re-checksummed from rotten bytes"
        );
        assert_eq!(
            store.sealed_container_ids(),
            vec![victim],
            "victim untouched"
        );
        assert_eq!(store.physical_bytes(), 400);
    }

    /// A memory backend whose container-object writes park until released:
    /// a sealer writing through it stops between leaving the open directory
    /// and entering the sealed one.
    #[derive(Debug)]
    struct ParkingBackend {
        inner: MemoryBackend,
        parked: Mutex<std::sync::mpsc::Sender<()>>,
        release: Mutex<std::sync::mpsc::Receiver<()>>,
    }

    impl StorageBackend for ParkingBackend {
        fn kind(&self) -> crate::BackendKind {
            self.inner.kind()
        }
        fn append(&self, obj: StorageObject, bytes: &[u8]) -> Result<u64> {
            self.inner.append(obj, bytes)
        }
        fn write_object(&self, obj: StorageObject, bytes: &[u8]) -> Result<()> {
            if matches!(obj, StorageObject::Container(_)) {
                self.parked.lock().send(()).unwrap();
                self.release.lock().recv().unwrap();
            }
            self.inner.write_object(obj, bytes)
        }
        fn read_all(&self, obj: StorageObject) -> Result<Vec<u8>> {
            self.inner.read_all(obj)
        }
        fn read_at(&self, obj: StorageObject, offset: u64, len: usize) -> Result<Vec<u8>> {
            self.inner.read_at(obj, offset, len)
        }
        fn object_len(&self, obj: StorageObject) -> Result<Option<u64>> {
            self.inner.object_len(obj)
        }
        fn truncate(&self, obj: StorageObject, len: u64) -> Result<()> {
            self.inner.truncate(obj, len)
        }
        fn fsync(&self, obj: StorageObject) -> Result<()> {
            self.inner.fsync(obj)
        }
        fn delete(&self, obj: StorageObject) -> Result<()> {
            self.inner.delete(obj)
        }
        fn list(&self) -> Result<Vec<StorageObject>> {
            self.inner.list()
        }
    }

    #[test]
    fn a_container_parked_mid_seal_stays_readable() {
        // Both ways into a seal: a flush, and a rollover (whose sealer holds
        // its stream's slot lock throughout).
        for rollover in [false, true] {
            let (parked_tx, parked) = std::sync::mpsc::channel();
            let (release, release_rx) = std::sync::mpsc::channel();
            let store = Arc::new(
                ContainerStore::new(256).with_backend(Arc::new(ParkingBackend {
                    inner: MemoryBackend::new(),
                    parked: Mutex::new(parked_tx),
                    release: Mutex::new(release_rx),
                })),
            );
            let (fp, data) = payload(1, 200);
            let loc = store.store_chunk(0, fp, &data).unwrap();
            let sealer = {
                let store = store.clone();
                std::thread::spawn(move || {
                    if rollover {
                        let (fp, data) = payload(2, 200);
                        store.store_chunk(0, fp, &data).map(|_| ())
                    } else {
                        store.flush()
                    }
                })
            };
            parked.recv().unwrap();
            // Parked inside the object write: out of the open directory, not
            // yet in the sealed one.
            assert!(!store.contains_sealed(&loc.container));
            if !rollover {
                assert!(!store.contains_open(&loc.container));
            }
            assert!(store.contains(&loc.container));
            assert_eq!(store.read_chunk(&loc.container, &fp).unwrap(), data);
            let stats = batched_roundtrip(&store, &loc.container, &[(fp, data.clone(), 0)]);
            assert_eq!(stats.backend_bytes_read, 0, "served from RAM");
            assert_eq!(
                store.read_metadata(&loc.container).unwrap().len(),
                1,
                "metadata of a sealing container is visible"
            );
            release.send(()).unwrap();
            sealer.join().unwrap().unwrap();
            assert!(store.contains_sealed(&loc.container));
            assert_eq!(store.read_chunk(&loc.container, &fp).unwrap(), data);
            assert!(store.sealing.read().is_empty(), "no container left sealing");
        }
    }

    #[test]
    fn store_racing_with_flush_loses_no_chunks() {
        let store = Arc::new(ContainerStore::new(4096));
        let writer = {
            let store = store.clone();
            std::thread::spawn(move || {
                for i in 0..512u64 {
                    let (fp, data) = payload(i, 64);
                    store.store_chunk(i % 4, fp, &data).unwrap();
                }
            })
        };
        for _ in 0..32 {
            store.flush().unwrap();
            std::thread::yield_now();
        }
        writer.join().unwrap();
        store.flush().unwrap();
        assert_eq!(store.stats().stored_chunks, 512);
        assert_eq!(store.physical_bytes(), 512 * 64);
    }
}

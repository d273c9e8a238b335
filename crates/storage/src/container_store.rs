//! Parallel container management.
//!
//! The deduplication server keeps one *open* container per incoming data stream so
//! that the chunks of different backup streams do not interleave (which would destroy
//! the locality the fingerprint cache depends on).  When an open container fills up
//! a new one is opened and the full one is sealed — its object written beside
//! ingest in one sequential write.  Sealed containers can be read back for
//! restores and for fingerprint prefetching.
//!
//! One layout on every backend: a sealed container's chunk bytes live only in
//! its backend object, durable before its journal record is appended and
//! before it is visible as sealed, and the store (like the journal) keeps
//! [`ContainerSummary`] metadata only.  A container leaving the store loses
//! its object only after the journal record saying so.
//!
//! # The container table
//!
//! Every container the store knows is one entry of one table, keyed by
//! [`ContainerId`] behind one reader/writer lock.  An entry holds the
//! container's stage, its adoption origin (for a container migrated in) and
//! the live/dead accounting of the last GC mark.  [`ContainerState`] is the
//! stage as [`ContainerStore::state`] reports it:
//!
//! | stage | the entry holds | a reader gets |
//! |---|---|---|
//! | open | the stream's slot | the chunk, from the builder in RAM |
//! | sealing | the sealed container | the chunk, from RAM |
//! | sealed | the [`ContainerSummary`] | the chunk, read from the object |
//! | compacted | the replacement's ID | the chunk, found by fingerprint in the replacement |
//! | migrated | the successor node | `ContainerNotFound` (the node answers `ChunkMigrated`) |
//! | no entry | — | `ContainerNotFound` |
//!
//! Each transition is one method that does its I/O first, then swaps the
//! entry in one write-locked step — the sealed/sealing/stored counters change
//! in the same step — and deletes an object only after the record that
//! retires it:
//!
//! | transition | I/O before the swap | swap | after the swap |
//! |---|---|---|---|
//! | start seal (rollover, [`flush`](ContainerStore::flush)) | — | open → sealing (a rollover also enters the stream's fresh container as open) | a rollover's object write starts on the sealer thread; a flush writes its objects inline |
//! | finish seal (a rollover's: the store's next rollover, [`flush`](ContainerStore::flush) or [`finish_rollover_seal`](ContainerStore::finish_rollover_seal); a flush's: that flush) | object write joined or done, the group's `ContainerSeal`s as one group commit | sealing → sealed | — |
//! | failed seal | — | stays sealing, in the retry list | the next flush retries it |
//! | [adopt](ContainerStore::adopt_sealed) | object write, `ContainerAdopt` | none → sealed, with origin | — |
//! | [GC drop](ContainerStore::drop_sealed_gc) | `GcDrop` | sealed → none | object deleted |
//! | [compaction](ContainerStore::compact_container) | victim read, replacement write, `GcCompact` | victim → compacted, replacement → sealed | victim object deleted |
//! | [forget compacted](ContainerStore::forget_compacted) (next GC sweep, end of replay) | — | compacted → none | — |
//! | [retire](ContainerStore::retire_container) | `Tombstone` | sealed → migrated | object deleted |
//! | [recovery](ContainerStore::verify_objects) install / discard | replay / object check | none → sealed / sealed → none | discarded object deleted |
//! | read-cache fill | data-section read | the section is cached only while the entry is still the sealed one it was read from | — |
//!
//! A reader makes one lookup and answers from the state it got.  When its
//! backend read fails it looks again: a transition that deletes an object
//! swaps the entry first, so the reader answers from the new state — the
//! bytes via the replacement, or `ContainerNotFound` — and never reports an
//! I/O error for an object a transition removed.
//!
//! Concurrency: each open container sits behind its own slot mutex, so
//! streams append in parallel and only contend when they touch the *same*
//! stream's container.  A rollover does not write the full container's
//! object itself: it starts the write (a copy into the object and a SHA-1
//! of the data section, then the backend's durable put) on a sealer thread
//! and goes back to ingest.  A store has at most one such write in flight.
//! It is finished — joined, journaled, swapped sealed — at a point the input
//! fixes: the store's next rollover, the next flush, or a restart of the
//! node.  So journal record order and crash-point numbering never depend on
//! when the sealer thread ran, and the flush stays the acknowledgement
//! point.  The sealer thread touches only the backend and its own container;
//! it takes no store lock.  Lock order is always stream map → slot → sealer
//! → table; the read cache's lock and the backend's are leaves.  No table
//! lock is held across an object write, a journal append or a backend read.
//! Adoptions, GC drops, compactions and retirements also hold one transition
//! mutex across their check, I/O and swap (taken before any of the locks
//! above), so two of them never journal conflicting records for one
//! container; seals and readers never take it.

use crate::read_cache::{ContainerReadCache, ReadCacheStats};
use crate::{
    container, Container, ContainerBuilder, ContainerId, ContainerMeta, ContainerSummary, Journal,
    JournalRecord, MemoryBackend, Result, SharedBytes, StorageBackend, StorageError, StorageObject,
    CONTAINER_BLOB_DATA_OFFSET,
};
use parking_lot::{Mutex, RwLock};
use serde::{Deserialize, Serialize};
use sigma_hashkit::Fingerprint;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Identifier of a backup data stream within one node.
pub type StreamId = u64;

/// Default container data-section capacity: 4 MB, as in the Data Domain design the
/// paper builds on.
pub const DEFAULT_CONTAINER_CAPACITY: usize = 4 * 1024 * 1024;

/// Aggregate statistics of a [`ContainerStore`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ContainerStoreStats {
    /// Containers sealed and written to the backend.
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

/// Where a container is in its lifecycle: the answer of one lookup in a
/// store's container table (see [`ContainerStore::state`] and the module
/// docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContainerState {
    /// Being filled by a stream; its chunks are served from RAM.
    Open,
    /// Sealed in RAM until its seal finishes: while its object is written
    /// and, after a rollover, until the store's next rollover or flush
    /// journals it — or, after a failed seal, until the next flush retries
    /// it.  Its chunks are served from RAM.
    Sealing,
    /// Sealed: the summary is in the table, the chunk bytes in its object.
    Sealed,
    /// Compacted away by the garbage collector; the entry lasts until the
    /// node's next sweep (see [`ContainerStore::forget_compacted`]).
    Compacted {
        /// The container now holding the victim's live chunks.
        replacement: ContainerId,
    },
    /// Migrated to another node: a forwarding tombstone.
    Migrated {
        /// Stable ID of the node that adopted the container.
        successor: u64,
    },
    /// Unknown here: never created, dropped by GC, or discarded by recovery.
    Absent,
}

impl ContainerState {
    /// True while the store holds the container's chunks itself: open,
    /// sealing or sealed.
    pub fn is_local(&self) -> bool {
        matches!(
            self,
            ContainerState::Open | ContainerState::Sealing | ContainerState::Sealed
        )
    }
}

/// One stream's open container.  `builder` is `None` once the slot has been
/// retired by a flush racing with a store; the storer re-fetches a fresh slot
/// from the stream map instead of appending to a container that was just sealed.
struct OpenSlot {
    builder: Option<ContainerBuilder>,
}

type Slot = Arc<Mutex<OpenSlot>>;

/// A container's stage, with what a reader needs in it.
enum Stage {
    Open(Slot),
    Sealing(Arc<Container>),
    Sealed(Arc<ContainerSummary>),
    Compacted(ContainerId),
    Migrated(u64),
}

/// One container's row of the table.
struct Entry {
    stage: Stage,
    /// `(origin node, origin container)` of an adopted container.
    origin: Option<(u64, ContainerId)>,
    /// The accounting of the last GC mark that scored the sealed container.
    liveness: Option<ContainerLiveness>,
}

impl Entry {
    fn new(stage: Stage, origin: Option<(u64, ContainerId)>) -> Self {
        Entry {
            stage,
            origin,
            liveness: None,
        }
    }
}

/// Every container the store knows, and the counters of the sealed ones.
#[derive(Default)]
struct Table {
    entries: HashMap<ContainerId, Entry>,
    /// Origin → local ID of every adopted entry: adopting the same origin
    /// again (a retried rebalance step, or replay of a duplicated migration
    /// record) is answered from here instead of storing the data twice.
    by_origin: HashMap<(u64, ContainerId), ContainerId>,
    /// Containers whose seal failed: they stay sealing, and readable, until
    /// the next flush seals them again.
    retry: Vec<Arc<Container>>,
    sealed_containers: u64,
    stored_bytes: u64,
    stored_chunks: u64,
    /// Data-section bytes of the sealing entries, retried ones included.
    sealing_bytes: u64,
}

impl Table {
    fn stage(&self, id: &ContainerId) -> Option<&Stage> {
        self.entries.get(id).map(|entry| &entry.stage)
    }

    /// True while `summary` is the sealed entry of its container.
    fn holds(&self, summary: &Arc<ContainerSummary>) -> bool {
        matches!(self.stage(&summary.id), Some(Stage::Sealed(s)) if Arc::ptr_eq(s, summary))
    }

    /// Enters a container as sealing and counts its bytes.
    fn begin_seal(&mut self, container: Arc<Container>) {
        self.sealing_bytes += container.data_size() as u64;
        let entry = Entry::new(Stage::Sealing(container.clone()), None);
        self.entries.insert(container.id(), entry);
    }

    /// Enters a container as sealed — replacing its sealing entry, if any,
    /// and uncounting that — and counts it.
    fn seal(&mut self, summary: ContainerSummary, origin: Option<(u64, ContainerId)>) {
        let id = summary.id;
        self.sealed_containers += 1;
        self.stored_bytes += summary.logical_size;
        self.stored_chunks += summary.chunk_count() as u64;
        if let Some(origin) = origin {
            self.by_origin.insert(origin, id);
        }
        let entry = Entry::new(Stage::Sealed(Arc::new(summary)), origin);
        if let Some(Entry {
            stage: Stage::Sealing(sealing),
            ..
        }) = self.entries.insert(id, entry)
        {
            self.sealing_bytes -= sealing.data_size() as u64;
        }
    }

    /// Swaps a sealed container's entry to `next` — or drops it, origin and
    /// all, when `next` is `None` — and uncounts it; returns the summary it
    /// held.  Open and sealing entries are left alone: nothing retires a
    /// container before its seal.
    fn retire(&mut self, id: ContainerId, next: Option<Stage>) -> Option<Arc<ContainerSummary>> {
        if matches!(self.stage(&id), Some(Stage::Open(_) | Stage::Sealing(_))) {
            return None;
        }
        let old = self.entries.remove(&id);
        let origin = old.as_ref().and_then(|entry| entry.origin);
        match (next, origin) {
            (Some(stage), _) => {
                self.entries.insert(id, Entry::new(stage, origin));
            }
            (None, Some(origin)) => {
                self.by_origin.remove(&origin);
            }
            (None, None) => {}
        }
        let Stage::Sealed(summary) = old?.stage else {
            return None;
        };
        self.sealed_containers -= 1;
        self.stored_bytes -= summary.logical_size;
        self.stored_chunks -= summary.chunk_count() as u64;
        Some(summary)
    }
}

/// A rollover's seal whose object write runs on a sealer thread while
/// ingest goes on (see the module docs).
struct Sealer {
    container: Arc<Container>,
    write: JoinHandle<Result<ContainerSummary>>,
}

impl Sealer {
    /// Waits for the object write.  A panic on the sealer thread resumes
    /// here, on the thread that finishes the seal.
    fn join(self) -> (Arc<Container>, Result<ContainerSummary>) {
        let written = self
            .write
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        (self.container, written)
    }
}

/// Writes a sealed container's object — durable once this returns — and
/// returns the summary: once the caller drops the container, the object is
/// its one copy of the chunk bytes.  The object goes out as its parts, so
/// the data section is written from the buffer it was appended into.
fn write_object(backend: &dyn StorageBackend, container: &Container) -> Result<ContainerSummary> {
    let obj = StorageObject::Container(container.id());
    let (summary, written) =
        container.with_object_parts(|parts| backend.write_object_parts(obj, parts));
    written.map(|()| summary)
}

/// What one reader lookup found.
enum View {
    /// Open or sealing: the whole container, bytes included, in RAM.
    InRam(Arc<Container>),
    /// Sealed: the summary; the bytes are in the object.
    Sealed(Arc<ContainerSummary>),
    /// Compacted: the live chunks are in this container.
    Compacted(ContainerId),
    /// Migrated away, or not here at all.
    Gone,
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
    /// Which open container each stream appends to.
    streams: RwLock<HashMap<StreamId, Slot>>,
    /// Every container's lifecycle entry (see the module docs).
    table: RwLock<Table>,
    /// Held by adoptions, GC drops, compactions and retirements across their
    /// check, I/O and swap.
    transitions: Mutex<()>,
    /// The rollover seal whose object write is in flight, if any.  Held by
    /// whoever starts or finishes a seal, across the finish.
    sealer: Mutex<Option<Sealer>>,
    /// Bounded LRU of container data sections serving repeat restore reads,
    /// [`READ_CACHE_CONTAINERS`] full containers in size.
    read_cache: ContainerReadCache,
    metadata_reads: AtomicU64,
    data_reads: AtomicU64,
    gc_dropped: AtomicU64,
    gc_compacted: AtomicU64,
    gc_reclaimed_bytes: AtomicU64,
}

impl std::fmt::Debug for ContainerStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let open = self.streams.read().len();
        let sealed = self.table.read().sealed_containers;
        f.debug_struct("ContainerStore")
            .field("capacity", &self.capacity)
            .field("open", &open)
            .field("sealed", &sealed)
            .finish()
    }
}

impl Drop for ContainerStore {
    /// Waits for a rollover's object write still in flight, so no write of
    /// a dropped store lands on the medium later.  Its container was never
    /// journaled: the object is an orphan the next recovery sweeps.
    fn drop(&mut self) {
        if let Some(sealer) = self.sealer.get_mut().take() {
            let _ = sealer.write.join();
        }
    }
}

/// Every store's read-cache budget, in full containers: 64 MiB at the
/// default 4 MiB capacity.
const READ_CACHE_CONTAINERS: u64 = 16;

/// One chunk's worth of work for [`ContainerStore::read_chunks_batched`]: a
/// record extent to read and the output slice to decode it into.  The caller
/// resolves fingerprints to extents via the chunk index; `out.len()` is the
/// record length.
pub struct ChunkFetch<'a> {
    /// Fingerprint the extent was resolved from.
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
    /// Backend reads issued: one whole-section read per cache miss (0 when
    /// served from RAM).
    pub coalesced_runs: u64,
    /// Batches served entirely from the container read cache.
    pub cache_hits: u64,
    /// Batches that had to read the backend.
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
            streams: RwLock::new(HashMap::new()),
            table: RwLock::new(Table::default()),
            transitions: Mutex::new(()),
            sealer: Mutex::new(None),
            read_cache: ContainerReadCache::new(READ_CACHE_CONTAINERS * capacity as u64),
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
    /// on it.
    pub fn with_backend(mut self, backend: Arc<dyn StorageBackend>) -> Self {
        self.backend = backend;
        self
    }

    /// Attaches a write-ahead journal: every seal and adoption appends its records
    /// before taking effect in memory.
    pub fn with_journal(mut self, journal: Arc<Journal>) -> Self {
        self.journal = Some(journal);
        self
    }

    /// The read cache's counters and occupancy.
    pub fn read_cache_stats(&self) -> ReadCacheStats {
        self.read_cache.stats()
    }

    /// Per-container data capacity in bytes.
    pub fn container_capacity(&self) -> usize {
        self.capacity
    }

    fn alloc_id(&self) -> ContainerId {
        ContainerId::new(self.next_id.fetch_add(1, Ordering::Relaxed))
    }

    /// Appends `records` to the journal as one group commit, when the store
    /// has one.
    fn log(&self, records: &[JournalRecord]) -> Result<()> {
        match &self.journal {
            Some(journal) => journal.append_batch(records).map(drop),
            None => Ok(()),
        }
    }

    /// Where `container` is in its lifecycle, from one table lookup.
    pub fn state(&self, container: &ContainerId) -> ContainerState {
        match self.table.read().stage(container) {
            Some(Stage::Open(_)) => ContainerState::Open,
            Some(Stage::Sealing(_)) => ContainerState::Sealing,
            Some(Stage::Sealed(_)) => ContainerState::Sealed,
            Some(Stage::Compacted(replacement)) => ContainerState::Compacted {
                replacement: *replacement,
            },
            Some(Stage::Migrated(successor)) => ContainerState::Migrated {
                successor: *successor,
            },
            None => ContainerState::Absent,
        }
    }

    /// Appends a unique chunk to the open container of `stream`, sealing and rolling
    /// over to a fresh container when the current one is full.
    ///
    /// Returns where the chunk was stored.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::ChunkTooLarge`] when a single chunk exceeds the
    /// container capacity, and a seal's error when a rollover finishes the
    /// previous rollover's seal and that seal failed: a failed object write
    /// surfaces at the store's next rollover or [`flush`](Self::flush), not
    /// at the rollover that started it.  The failed container, and the full
    /// one whose write the failing rollover did not start, stay readable in
    /// the retry list, and the next flush seals them again.
    pub fn store_chunk(
        &self,
        stream: StreamId,
        fingerprint: Fingerprint,
        data: &[u8],
    ) -> Result<StoredChunk> {
        let len = data.len();
        if len > self.capacity {
            return Err(StorageError::ChunkTooLarge {
                chunk_size: len,
                container_capacity: self.capacity,
            });
        }
        loop {
            // Fetch (or create) this stream's open slot; only the stream map's
            // lock is held while doing so, never a slot lock.
            let slot = self.streams.read().get(&stream).cloned();
            let slot = match slot {
                Some(slot) => slot,
                None => self
                    .streams
                    .write()
                    .entry(stream)
                    .or_insert_with(|| self.open_slot())
                    .clone(),
            };

            let mut guard = slot.lock();
            let Some(builder) = guard.builder.as_mut() else {
                // A concurrent flush retired this slot between our fetch and
                // the lock; start over with a fresh container.
                continue;
            };

            // Roll over if the chunk does not fit: the full container turns
            // sealing and the fresh one open in one swap, under the slot lock.
            if !builder.fits(len) {
                let fresh = ContainerBuilder::new(self.alloc_id(), self.capacity);
                let full = std::mem::replace(builder, fresh);
                let full = self.begin_seal(full, Some((builder.id(), &slot)));
                self.roll_over(full)?;
            }

            let offset = builder.used() as u32;
            let appended = builder.try_append(fingerprint, data);
            debug_assert!(appended, "chunk must fit after rollover");
            return Ok(StoredChunk {
                container: builder.id(),
                offset,
                len: len as u32,
            });
        }
    }

    /// A slot holding a fresh open container, entered in the table.  Called
    /// under the stream map's write lock.
    fn open_slot(&self) -> Slot {
        let builder = ContainerBuilder::new(self.alloc_id(), self.capacity);
        let id = builder.id();
        let slot = Arc::new(Mutex::new(OpenSlot {
            builder: Some(builder),
        }));
        self.table
            .write()
            .entries
            .insert(id, Entry::new(Stage::Open(slot.clone()), None));
        slot
    }

    /// The container currently open for `stream`, if any.
    pub fn open_container(&self, stream: StreamId) -> Option<ContainerId> {
        let slot = self.streams.read().get(&stream).cloned()?;
        let guard = slot.lock();
        guard.builder.as_ref().map(|b| b.id())
    }

    /// Moves a retired builder to the sealing stage — and, on a rollover,
    /// enters the stream's fresh container as open — in one swap.  Callers
    /// hold the slot lock, so no reader finds the container in neither stage.
    fn begin_seal(
        &self,
        builder: ContainerBuilder,
        opened: Option<(ContainerId, &Slot)>,
    ) -> Arc<Container> {
        let container = Arc::new(builder.seal());
        let mut table = self.table.write();
        table.begin_seal(container.clone());
        if let Some((id, slot)) = opened {
            table
                .entries
                .insert(id, Entry::new(Stage::Open(slot.clone()), None));
        }
        container
    }

    /// A rollover's seal, called under the rolling stream's slot lock:
    /// finishes the seal in flight, then starts `full`'s object write on a
    /// sealer thread and returns without waiting for it.
    ///
    /// When the seal in flight failed, `full`'s write is not started: both
    /// stay sealing in the retry list, and the error is returned.
    fn roll_over(&self, full: Arc<Container>) -> Result<()> {
        let mut in_flight = self.sealer.lock();
        if let Err(e) = self.finish_in_flight(&mut in_flight) {
            self.table.write().retry.push(full);
            return Err(e);
        }
        let backend = self.backend.clone();
        let container = full.clone();
        let write = std::thread::spawn(move || write_object(&*backend, &container));
        *in_flight = Some(Sealer {
            container: full,
            write,
        });
        Ok(())
    }

    /// Finishes the rollover seal in flight, if any, as a group of its own:
    /// one journal group commit per rollover, wherever it is finished.
    fn finish_in_flight(&self, in_flight: &mut Option<Sealer>) -> Result<()> {
        match in_flight.take() {
            Some(sealer) => self.finish_seal(vec![sealer.join()]),
            None => Ok(()),
        }
    }

    /// Finishes a group of seals whose object writes are done: every
    /// container's seal record goes into a single journal group commit.  A
    /// rollover's seal is a group of one; [`flush`](Self::flush) seals every
    /// retired stream at once.
    ///
    /// Ordering: every object is durable, then the group's records are
    /// appended, then one swap turns the group sealed.  A crash before the
    /// records leaves only orphan objects, which recovery sweeps; a crash
    /// mid-group keeps the journaled prefix and drops the unacknowledged rest,
    /// exactly as an interrupted session would drop it.  When a write failed
    /// or the records cannot be appended, the group stays sealing — readable,
    /// its index entries valid — and goes to the retry list for the next
    /// flush.
    fn finish_seal(&self, group: Vec<(Arc<Container>, Result<ContainerSummary>)>) -> Result<()> {
        if group.is_empty() {
            return Ok(());
        }
        let (containers, written): (Vec<_>, Vec<_>) = group.into_iter().unzip();
        match written
            .into_iter()
            .collect::<Result<Vec<ContainerSummary>>>()
            .and_then(|summaries| self.publish(summaries))
        {
            Ok(summaries) => {
                let mut table = self.table.write();
                for summary in summaries {
                    table.seal(summary, None);
                }
                Ok(())
            }
            Err(e) => {
                self.table.write().retry.extend(containers);
                Err(e)
            }
        }
    }

    /// The records of [`finish_seal`](Self::finish_seal): one
    /// `ContainerSeal` per container, whose record table is the journal's only
    /// copy of the container's chunk-index entries.
    fn publish(&self, summaries: Vec<ContainerSummary>) -> Result<Vec<ContainerSummary>> {
        let records: Vec<JournalRecord> = summaries
            .iter()
            .map(|summary| JournalRecord::ContainerSeal {
                container: summary.clone(),
            })
            .collect();
        self.log(&records)?;
        Ok(summaries)
    }

    /// Seals every open container (end of a backup session) as one coalesced
    /// group write — one journal group commit — instead of a per-container
    /// trickle.  Containers whose earlier seal failed are sealed again in the
    /// same group.  The rollover seal in flight is finished first, as its own
    /// group; the group's objects are then written on the calling thread.  When this returns `Ok`, every
    /// container the store held before the call is sealed: the flush is the
    /// acknowledgement point.
    ///
    /// # Errors
    ///
    /// Returns the error the seal hit (a journal crash, a failed object
    /// write, here or in the rollover seal it finished).  The group then
    /// stays sealing — its chunks readable — and the next flush retries it.
    pub fn flush(&self) -> Result<()> {
        let mut containers = std::mem::take(&mut self.table.write().retry);
        // Retire every open slot.  A store racing with the flush either
        // appended before its slot was retired (its chunk is sealed here) or
        // finds the retired slot and opens a fresh container.  Each builder
        // leaves its slot under the slot lock in the same swap that turns it
        // sealing, so a reader that finds the slot empty finds it sealing.
        for (_, slot) in self.streams.write().drain() {
            let mut guard = slot.lock();
            let Some(builder) = guard.builder.take() else {
                continue;
            };
            if builder.chunk_count() > 0 {
                containers.push(self.begin_seal(builder, None));
            } else {
                self.table.write().entries.remove(&builder.id());
            }
        }
        let mut in_flight = self.sealer.lock();
        if let Err(e) = self.finish_in_flight(&mut in_flight) {
            self.table.write().retry.extend(containers);
            return Err(e);
        }
        let group = containers
            .into_iter()
            .map(|container| {
                let written = write_object(&*self.backend, &container);
                (container, written)
            })
            .collect();
        self.finish_seal(group)
    }

    /// Finishes the rollover seal in flight, if any — its object write
    /// joined, its records appended, its entry swapped sealed — and leaves
    /// the open containers alone.  A node restart calls this on the store of
    /// the incarnation it discards, before recovery lists and sweeps the
    /// medium: a write still running there could otherwise land after the
    /// orphan sweep, or over the object of a container ID the recovered
    /// node reuses.
    ///
    /// # Errors
    ///
    /// As [`flush`](Self::flush): a crashed journal or a failed object
    /// write.  The object write has ended either way.
    pub fn finish_rollover_seal(&self) -> Result<()> {
        self.finish_in_flight(&mut self.sealer.lock())
    }

    /// One lookup of `container` for a reader.  An open container is copied
    /// out of its slot, whose lock is taken only after the table's is
    /// released.
    fn view(&self, container: &ContainerId) -> View {
        loop {
            let slot = match self.table.read().stage(container) {
                Some(Stage::Open(slot)) => slot.clone(),
                Some(Stage::Sealing(c)) => return View::InRam(c.clone()),
                Some(Stage::Sealed(summary)) => return View::Sealed(summary.clone()),
                Some(Stage::Compacted(replacement)) => return View::Compacted(*replacement),
                Some(Stage::Migrated(_)) | None => return View::Gone,
            };
            let guard = slot.lock();
            if let Some(builder) = guard.builder.as_ref().filter(|b| b.id() == *container) {
                return View::InRam(Arc::new(builder.clone().seal()));
            }
            // The builder left its slot — under the slot lock, in the swap
            // that moved its entry on: look again.
        }
    }

    /// The summary of a sealed container.
    fn sealed_summary(&self, container: &ContainerId) -> Option<Arc<ContainerSummary>> {
        match self.table.read().stage(container) {
            Some(Stage::Sealed(summary)) => Some(summary.clone()),
            _ => None,
        }
    }

    /// Runs a backend `read` of the sealed container `summary` describes.  A
    /// failed read whose container has meanwhile left that sealed entry is
    /// `Ok(None)`: a transition swapped the entry before it deleted the
    /// object, so the caller answers from the new state.  Any other failure
    /// is the read's error.
    fn read_sealed<T>(
        &self,
        summary: &Arc<ContainerSummary>,
        read: impl FnOnce() -> Result<T>,
    ) -> Result<Option<T>> {
        match read() {
            Ok(value) => Ok(Some(value)),
            Err(e) if self.table.read().holds(summary) => Err(e),
            Err(_) => Ok(None),
        }
    }

    /// Reads a sealed container's metadata section (fingerprint list).
    ///
    /// This is the "prefetch" operation behind the chunk fingerprint cache.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::ContainerNotFound`] unless the container is
    /// open, sealing or sealed here.
    pub fn read_metadata(&self, container: &ContainerId) -> Result<ContainerMeta> {
        self.metadata_reads.fetch_add(1, Ordering::Relaxed);
        // Open and sealing containers (written moments ago by some stream) are
        // visible too: their fingerprints are in memory on a real server.
        match self.view(container) {
            View::Sealed(summary) => Ok(summary.meta.clone()),
            View::InRam(c) => Ok(c.meta().clone()),
            View::Compacted(_) | View::Gone => Err(StorageError::ContainerNotFound(*container)),
        }
    }

    /// Reads one chunk's payload (restore path).  A compacted container is
    /// followed to its replacement, where the chunk is found by fingerprint.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::ContainerNotFound`] naming the container that
    /// is migrated away or absent (the end of a compaction chain, if one was
    /// followed), or [`StorageError::ChunkNotInContainer`] if the fingerprint
    /// is not stored there.
    pub fn read_chunk(&self, container: &ContainerId, fp: &Fingerprint) -> Result<Vec<u8>> {
        self.data_reads.fetch_add(1, Ordering::Relaxed);
        let mut id = *container;
        let data = loop {
            match self.view(&id) {
                View::InRam(c) => break c.chunk_data(fp).map(<[u8]>::to_vec),
                View::Sealed(summary) => {
                    // A record past the data section has no bytes to read:
                    // the object is corrupt, or an older build wrote it for
                    // a trace-driven node.  It reads as not stored.
                    let Some(record) = summary
                        .meta
                        .records
                        .iter()
                        .find(|r| &r.fingerprint == fp)
                        .filter(|r| r.offset as u64 + r.len as u64 <= summary.data_len as u64)
                    else {
                        break None;
                    };
                    let read = self.read_sealed(&summary, || {
                        self.backend.read_at(
                            StorageObject::Container(id),
                            (CONTAINER_BLOB_DATA_OFFSET + record.offset as usize) as u64,
                            record.len as usize,
                        )
                    })?;
                    if let Some(data) = read {
                        break Some(data);
                    }
                }
                View::Compacted(replacement) => id = replacement,
                View::Gone => return Err(StorageError::ContainerNotFound(id)),
            }
        };
        data.ok_or_else(|| StorageError::ChunkNotInContainer {
            container: id,
            fingerprint: fp.to_string(),
        })
    }

    /// Reads a batch of chunk payloads out of **one** container, decoding each
    /// directly into its caller-provided output slice (restore path).
    ///
    /// Where the serial [`read_chunk`](Self::read_chunk) issues one backend
    /// read per chunk, this reads a sealed container at most once: a read-cache
    /// hit serves every chunk from RAM, and a miss reads the whole data section
    /// with one [`read_shared`](StorageBackend::read_shared) that then fills
    /// the cache for the next visit.
    ///
    /// The caller resolves fingerprints to record extents first (via the chunk
    /// index); each [`ChunkFetch`]'s `out` length is the record length.  A
    /// batch planned against a container that has since been compacted is
    /// re-aimed at the replacement: each fetch's `offset` is rewritten to its
    /// chunk's record there, found by fingerprint.
    ///
    /// # Errors
    ///
    /// As [`read_chunk`](Self::read_chunk); [`StorageError::ChunkNotInContainer`]
    /// also when any extent points past the data section, which only a
    /// corrupt record, or a payload-less one from an object an older build
    /// wrote, can do.  On error the output slices
    /// are in an unspecified partially-written state; callers fall back to
    /// the serial path.
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
        let fresh = BatchedReadStats {
            chunks: fetches.len() as u64,
            ..BatchedReadStats::default()
        };
        let mut stats = fresh;
        let mut id = *container;
        let mut compacted = false;
        loop {
            match self.view(&id) {
                View::Sealed(summary) => {
                    if compacted {
                        Self::relocate(&summary, fetches)?;
                    }
                    // An extent past the data section has no bytes to read
                    // (a corrupt or payload-less record), and would read past
                    // the section into the record table.
                    if let Some(f) = fetches
                        .iter()
                        .find(|f| f.offset as usize + f.out.len() > summary.data_len as usize)
                    {
                        return Err(StorageError::ChunkNotInContainer {
                            container: id,
                            fingerprint: f.fingerprint.to_string(),
                        });
                    }
                    let read = self.read_sealed(&summary, || {
                        self.read_extents(&summary, fetches, &mut stats)
                    })?;
                    if read.is_some() {
                        break;
                    }
                    stats = fresh;
                }
                View::InRam(c) => {
                    for f in fetches.iter_mut() {
                        let data = c
                            .chunk_data(&f.fingerprint)
                            .filter(|d| d.len() == f.out.len())
                            .ok_or_else(|| StorageError::ChunkNotInContainer {
                                container: id,
                                fingerprint: f.fingerprint.to_string(),
                            })?;
                        f.out.copy_from_slice(data);
                    }
                    break;
                }
                View::Compacted(replacement) => {
                    id = replacement;
                    compacted = true;
                }
                View::Gone => return Err(StorageError::ContainerNotFound(id)),
            }
        }
        Ok(stats)
    }

    /// Re-aims fetches planned against a compacted container at the record
    /// of each chunk in `replacement`.
    fn relocate(replacement: &ContainerSummary, fetches: &mut [ChunkFetch<'_>]) -> Result<()> {
        for f in fetches.iter_mut() {
            let record = replacement
                .meta
                .records
                .iter()
                .find(|r| r.fingerprint == f.fingerprint && r.len as usize == f.out.len())
                .ok_or_else(|| StorageError::ChunkNotInContainer {
                    container: replacement.id,
                    fingerprint: f.fingerprint.to_string(),
                })?;
            f.offset = record.offset;
        }
        Ok(())
    }

    /// The sealed-container arm of [`read_chunks_batched`]: a cache hit, else
    /// one read of the whole data section, which then fills the cache.
    ///
    /// [`read_chunks_batched`]: Self::read_chunks_batched
    fn read_extents(
        &self,
        summary: &Arc<ContainerSummary>,
        fetches: &mut [ChunkFetch<'_>],
        stats: &mut BatchedReadStats,
    ) -> Result<()> {
        let container = &summary.id;
        let data_len = summary.data_len as usize;
        let section = match self.read_cache.get(container) {
            Some(section) if section.len() == data_len => {
                stats.cache_hits += 1;
                section
            }
            resident => {
                if resident.is_some() {
                    // A resident section of the wrong length can only be
                    // stale — never serve it.
                    self.read_cache.invalidate(container);
                }
                // Restores revisit containers, so the read doubles as the
                // cache fill — the buffer the backend returned is the one
                // cached, uncopied (on the in-RAM backends, the object's own
                // buffer).
                stats.cache_misses += 1;
                let section = self.backend.read_shared(
                    StorageObject::Container(*container),
                    CONTAINER_BLOB_DATA_OFFSET as u64,
                    data_len,
                )?;
                stats.backend_bytes_read += data_len as u64;
                stats.coalesced_runs += 1;
                self.fill_cache(summary, section.clone());
                section
            }
        };
        for f in fetches.iter_mut() {
            let start = f.offset as usize;
            f.out.copy_from_slice(&section[start..start + f.out.len()]);
        }
        Ok(())
    }

    /// Caches a data section read from `summary`'s object — only while
    /// `summary` is still the container's sealed entry.  A removal swaps the
    /// entry before it invalidates the cache, and this check and the insert
    /// happen under the table's read lock, so a section can never outlive the
    /// removal of its container.
    fn fill_cache(&self, summary: &Arc<ContainerSummary>, section: SharedBytes) {
        let table = self.table.read();
        if table.holds(summary) {
            self.read_cache.insert(summary.id, section);
        }
    }

    /// Identifiers of every sealed container, sorted ascending.
    ///
    /// Sorted so that rebalancing plans built from this list are deterministic.
    pub fn sealed_container_ids(&self) -> Vec<ContainerId> {
        let mut ids: Vec<ContainerId> = self
            .table
            .read()
            .entries
            .iter()
            .filter(|(_, entry)| matches!(entry.stage, Stage::Sealed(_)))
            .map(|(id, _)| *id)
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Data-section size of a sealed container, if it exists.
    pub fn sealed_data_size(&self, container: &ContainerId) -> Option<usize> {
        self.sealed_summary(container).map(|c| c.data_size())
    }

    /// A sealed container's whole data section: the read cache's buffer when
    /// resident, else one backend read.
    fn section(&self, container: &ContainerSummary) -> Result<SharedBytes> {
        let cached = self
            .read_cache
            .get(&container.id)
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
    /// The container stays in the store until
    /// [`retire_container`](Self::retire_container).  Returns `Ok(None)` when no
    /// sealed container has this ID — including one retired or collected while
    /// it was being read.
    ///
    /// The data section is not hashed here: the container travels with its
    /// journaled checksum, not a fresh one, so a section that rotted on this
    /// node is written to the destination as it is and caught there by the
    /// next recovery's [`verify_objects`](Self::verify_objects).
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::Io`] when the object of a still-sealed
    /// container cannot be read.
    pub fn export_sealed(&self, container: &ContainerId) -> Result<Option<Container>> {
        let Some(summary) = self.sealed_summary(container) else {
            return Ok(None);
        };
        let Some(data) = self.read_sealed(&summary, || self.section(&summary))? else {
            return Ok(None);
        };
        Ok(Some(Container::from_summary((*summary).clone(), data)))
    }

    /// Adopts a container migrated from another node, re-identifying it in this
    /// store's ID space (per-node container IDs would otherwise collide).
    ///
    /// `origin_node` is the stable ID of the node the container came from; the
    /// `(origin node, origin container)` pair keys the adoption ledger that makes
    /// this operation **idempotent**: adopting the same origin again (a retried
    /// rebalance step after a crash, or replay of a duplicated migration record)
    /// returns the already-assigned local identifier without storing the data a
    /// second time.  `rfps` are the representative fingerprints travelling with
    /// the container; they are journaled with it so the adoption is one atomic
    /// durable event.
    ///
    /// Returns the container's (possibly pre-existing) local identifier.  First
    /// adoptions follow the ordering of sealing a locally filled container:
    /// object durable, then the journal record, then one swap makes it sealed.
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
        // The transition mutex covers the whole adoption (check, object,
        // records, swap): a bare check-then-act would let two overlapping
        // rebalance plans racing on the same origin both pass the check and
        // double-store the container.  Migrations are rare enough that the
        // serialization costs nothing.
        let _transition = self.transitions.lock();
        if let Some(existing) = self.table.read().by_origin.get(&origin) {
            return Ok(*existing);
        }
        let new_id = self.alloc_id();
        let summary = write_object(&*self.backend, &container.with_id(new_id))?;
        self.log(&[JournalRecord::ContainerAdopt {
            origin_node,
            origin_container: origin.1,
            container: summary.clone(),
            rfps: rfps.to_vec(),
        }])?;
        self.table.write().seal(summary, Some(origin));
        Ok(new_id)
    }

    /// Installs a container summary during journal replay, preserving its
    /// identifier; its object is already on the medium (recovery checks it
    /// afterwards with [`verify_objects`](Self::verify_objects)).
    ///
    /// Unlike [`adopt_sealed`](Self::adopt_sealed) this writes nothing (the
    /// record being replayed *is* the durable copy).
    /// Returns `false` when `origin` was already adopted — the guard that keeps a
    /// duplicated migration record from double-installing a container.
    pub fn install_recovered(
        &self,
        origin: Option<(u64, ContainerId)>,
        container: ContainerSummary,
    ) -> bool {
        let mut table = self.table.write();
        if origin.is_some_and(|origin| table.by_origin.contains_key(&origin)) {
            return false;
        }
        self.next_id
            .fetch_max(container.id.as_u64() + 1, Ordering::Relaxed);
        table.seal(container, origin);
        true
    }

    /// The adoption ledger: `(origin node, origin container, local container)` for
    /// every container this store adopted and still knows (sealed, compacted or
    /// migrated on), sorted for deterministic iteration.
    pub fn adopted_origins(&self) -> Vec<(u64, ContainerId, ContainerId)> {
        let mut out: Vec<(u64, ContainerId, ContainerId)> = self
            .table
            .read()
            .by_origin
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
        let mut out: Vec<(Option<(u64, ContainerId)>, ContainerSummary)> = self
            .table
            .read()
            .entries
            .values()
            .filter_map(|entry| match &entry.stage {
                Stage::Sealed(summary) => Some((entry.origin, (**summary).clone())),
                _ => None,
            })
            .collect();
        out.sort_unstable_by_key(|(_, c)| c.id);
        out
    }

    /// Every forwarding tombstone — `(container, successor node)` of each
    /// container migrated away — sorted by container ID.
    pub fn tombstones(&self) -> Vec<(ContainerId, u64)> {
        let mut out: Vec<(ContainerId, u64)> = self
            .table
            .read()
            .entries
            .iter()
            .filter_map(|(id, entry)| match entry.stage {
                Stage::Migrated(successor) => Some((*id, successor)),
                _ => None,
            })
            .collect();
        out.sort_unstable();
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

    /// Swaps a sealed container out of the table (to `next`, or no entry),
    /// then drops its cached section and deletes its object — after the
    /// swap, so a reader whose read of the object fails finds the new entry.
    fn remove(&self, container: ContainerId, next: Option<Stage>) -> Option<Arc<ContainerSummary>> {
        let removed = self.table.write().retire(container, next)?;
        self.drop_object(container);
        Some(removed)
    }

    fn drop_object(&self, container: ContainerId) {
        self.read_cache.invalidate(&container);
        // Best-effort: the journal record preceding the removal is the
        // durable authority; an object a failed delete leaves behind is an
        // orphan the next recovery sweeps.
        let _ = self.backend.delete(StorageObject::Container(container));
    }

    /// Completes the migration of a sealed container to node `successor`:
    /// journals a [`JournalRecord::Tombstone`], swaps the entry to
    /// [`ContainerState::Migrated`], then deletes the object.  Journal replay
    /// calls this too, on a store without a journal.  Returns the retired
    /// container's summary, `None` if it was not sealed (the tombstone is
    /// recorded either way).
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::Crashed`] when the journal refuses the append;
    /// the container then stays sealed.
    pub fn retire_container(
        &self,
        container: ContainerId,
        successor: u64,
    ) -> Result<Option<Arc<ContainerSummary>>> {
        let _transition = self.transitions.lock();
        self.log(&[JournalRecord::Tombstone {
            container,
            successor,
        }])?;
        Ok(self.remove(container, Some(Stage::Migrated(successor))))
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
        live: &HashSet<Fingerprint>,
    ) -> Option<ContainerLiveness> {
        let summary = self.sealed_summary(container)?;
        let mut acct = ContainerLiveness::default();
        for record in &summary.meta.records {
            if live.contains(&record.fingerprint) {
                acct.live_bytes += record.len as u64;
                acct.live_chunks += 1;
            } else {
                acct.dead_bytes += record.len as u64;
                acct.dead_chunks += 1;
            }
        }
        let mut table = self.table.write();
        if table.holds(&summary) {
            if let Some(entry) = table.entries.get_mut(container) {
                entry.liveness = Some(acct);
            }
        }
        Some(acct)
    }

    /// The live/dead accounting the last GC mark recorded for a container, if
    /// the container is still sealed and has been scored.
    pub fn recorded_liveness(&self, container: &ContainerId) -> Option<ContainerLiveness> {
        self.table.read().entries.get(container)?.liveness
    }

    /// Drops a sealed container the GC found fully dead, journaling a
    /// [`JournalRecord::GcDrop`] *before* the swap that removes its entry and
    /// the delete of its object (write-ahead, like every other state change).
    /// Journal replay calls this too, on a store without a journal.  Returns
    /// the dropped container's summary so the caller can clean up the indexes
    /// that referenced it, or `None` if the container is not sealed.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::Crashed`] when the journal refuses the append;
    /// the container is then *not* dropped.
    pub fn drop_sealed_gc(&self, container: &ContainerId) -> Result<Option<Arc<ContainerSummary>>> {
        let _transition = self.transitions.lock();
        if self.sealed_summary(container).is_none() {
            return Ok(None);
        }
        self.log(&[JournalRecord::GcDrop {
            container: *container,
        }])?;
        let dropped = self.remove(*container, None);
        if let Some(c) = &dropped {
            self.gc_dropped.fetch_add(1, Ordering::Relaxed);
            self.gc_reclaimed_bytes
                .fetch_add(c.logical_size, Ordering::Relaxed);
        }
        Ok(dropped)
    }

    /// Compacts a sealed container: its chunks in `live` are rewritten into a
    /// fresh container (new local ID, sealed directly, journaled as one atomic
    /// record) and the victim is dropped, leaving a
    /// [`ContainerState::Compacted`] entry that sends readers still holding
    /// the victim's location to the replacement.  `rfps` are the
    /// representative fingerprints travelling to the replacement, journaled
    /// with it so replay re-homes the similarity entries exactly as the live
    /// path does.
    ///
    /// Returns `None` — journaling nothing — when the container is not sealed
    /// (or stops being sealed while the replacement is built), has no dead
    /// bytes (nothing to reclaim), or has no live bytes (use
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
    /// and [`StorageError::Io`] when a live record points past the victim's
    /// data section, the victim's object cannot be read or fails its
    /// checksum, or the replacement cannot be written; the victim then
    /// remains in place, untouched.
    pub fn compact_container(
        &self,
        victim: &ContainerId,
        live: &HashSet<Fingerprint>,
        rfps: &[Fingerprint],
    ) -> Result<Option<CompactionOutcome>> {
        let Some(old) = self.sealed_summary(victim) else {
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
        // A live record with no bytes in the section cannot be carried over:
        // the victim is corrupt (or an older build wrote it payload-less).
        if let Some(record) = live_src
            .iter()
            .find(|r| r.offset as u64 + r.len as u64 > old.data_len as u64)
        {
            return Err(StorageError::Io(format!(
                "{}: record for {} lies past the data section",
                old.id, record.fingerprint
            )));
        }
        // The replacement is read, checked, built and written before any lock
        // is taken, so restores and seals on this node never wait for it.
        // The live chunks get a fresh checksum in the replacement, so rot in
        // the victim must be caught here rather than laundered into it.
        let Some(data) = self.read_sealed(&old, || self.section(&old))? else {
            return Ok(None);
        };
        if container::section_checksum(&data) != old.checksum {
            return Err(StorageError::Io(format!(
                "{}: data section fails its checksum",
                old.id
            )));
        }
        let new_id = self.alloc_id();
        let mut builder = ContainerBuilder::new(new_id, self.capacity);
        for record in &live_src {
            let start = record.offset as usize;
            let appended = builder.try_append(
                record.fingerprint,
                &data[start..start + record.len as usize],
            );
            debug_assert!(appended, "a live subset always fits its own container");
        }
        drop(data);
        let replacement = write_object(&*self.backend, &builder.seal())?;
        let _transition = self.transitions.lock();
        if !self.table.read().holds(&old) {
            // Migrated or collected while the replacement was being built
            // (IDs are never reused): nothing journaled names the
            // replacement, so its object goes again.
            let _ = self.backend.delete(StorageObject::Container(new_id));
            return Ok(None);
        }
        self.log(&[JournalRecord::GcCompact {
            victim: *victim,
            replacement: replacement.clone(),
            rfps: rfps.to_vec(),
        }])?;
        let live_records = replacement.meta.records.clone();
        let reclaimed = old.logical_size - replacement.logical_size;
        self.swap_compacted(*victim, replacement);
        Ok(Some(CompactionOutcome {
            victim: *victim,
            replacement: new_id,
            live_records,
            dead_records,
            reclaimed_bytes: reclaimed,
        }))
    }

    /// Replays a journaled compaction: the swap of
    /// [`compact_container`](Self::compact_container) without its I/O.
    /// Returns the victim's summary, if it was sealed.
    pub fn install_compacted(
        &self,
        victim: ContainerId,
        replacement: ContainerSummary,
    ) -> Option<Arc<ContainerSummary>> {
        self.next_id
            .fetch_max(replacement.id.as_u64() + 1, Ordering::Relaxed);
        self.swap_compacted(victim, replacement)
    }

    /// One swap: the replacement turns sealed and the victim compacted; then
    /// the victim's object goes.
    fn swap_compacted(
        &self,
        victim: ContainerId,
        replacement: ContainerSummary,
    ) -> Option<Arc<ContainerSummary>> {
        let new_id = replacement.id;
        let kept = replacement.logical_size;
        let old = {
            let mut table = self.table.write();
            table.seal(replacement, None);
            table.retire(victim, Some(Stage::Compacted(new_id)))
        }?;
        self.drop_object(victim);
        self.gc_compacted.fetch_add(1, Ordering::Relaxed);
        self.gc_reclaimed_bytes
            .fetch_add(old.logical_size.saturating_sub(kept), Ordering::Relaxed);
        Some(old)
    }

    /// Removes every compacted entry, adoption origin and all.  A compacted
    /// entry only serves readers that resolved the victim's location before
    /// the swap; the chunk index names the replacement from then on.  The
    /// node calls this when its next GC sweep starts and at the end of
    /// journal replay (which has no readers), so the table holds at most
    /// one sweep's compactions and a recovered table holds none — as one
    /// recovered from a compacted journal, whose snapshot carries none.
    pub fn forget_compacted(&self) {
        let mut table = self.table.write();
        let Table {
            entries, by_origin, ..
        } = &mut *table;
        entries.retain(|_, entry| {
            if !matches!(entry.stage, Stage::Compacted(_)) {
                return true;
            }
            if let Some(origin) = entry.origin {
                by_origin.remove(&origin);
            }
            false
        });
    }

    /// Total physical bytes stored: the data sections of the sealed, sealing
    /// (retried ones included) and open containers.
    pub fn physical_bytes(&self) -> u64 {
        let slots: Vec<Slot> = self.streams.read().values().cloned().collect();
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
        let table = self.table.read();
        table.stored_bytes + table.sealing_bytes + open
    }

    /// Physical bytes *as the backend sees them*: the logical data sizes
    /// decoded from every container object actually on the medium.
    /// [`verify_consistency`] on the node cross-checks this against the
    /// table, so the medium cannot silently drift from it.
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

    /// Checks the medium against the table journal replay rebuilt (recovery
    /// runs this once, before the node serves).  A sealed container whose
    /// object is missing, has the wrong length or fails its checksum is
    /// discarded — its entry (adoption origin included) removed in one swap —
    /// and returned so the caller can drop its index entries.  Every container
    /// object no sealed container claims is deleted: a crash between an
    /// object write and its record, or between a record and the delete it
    /// licensed, leaves exactly such orphans.
    ///
    /// Each object is read as its parts: the head first, which must be the
    /// journaled summary's; only then the data section alone — the read a
    /// restore's cache fill makes, so the verified section goes into the read
    /// cache as any read's would — and last the record table, which runs to
    /// the object's end.  [`ContainerSummary::from_parts`] checks the three.
    ///
    /// Returns the discarded containers and the number of orphans deleted;
    /// every container still sealed afterwards was verified.
    ///
    /// An object whose magic is intact but whose header names another format
    /// version is neither rot nor garbage: this version cannot check it, so
    /// recovery refuses the medium rather than discarding the container, as
    /// the journal refuses an intact frame it cannot decode.  An orphan is
    /// deleted whatever its version, since no record claims it.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::UnreadableObject`] for a sealed container whose
    /// object another format version wrote; nothing on the medium has been
    /// deleted then.  Returns [`StorageError::Io`] when the backend cannot be
    /// listed, read or written.
    pub fn verify_objects(&self) -> Result<(Vec<Arc<ContainerSummary>>, u64)> {
        let sealed: Vec<Arc<ContainerSummary>> = self
            .sealed_container_ids()
            .iter()
            .filter_map(|id| self.sealed_summary(id))
            .collect();
        // Damaged containers are discarded (their objects deleted) only once
        // every object has been read, so a refusal leaves the medium whole.
        let mut damaged = Vec::new();
        for summary in sealed {
            match self.verified_data_section(&summary)? {
                // Checking the object just read its data section: keep it,
                // like any other read, for the restores a restart serves.
                Some(data) => self.fill_cache(&summary, data),
                None => damaged.push(summary.id),
            }
        }
        let discarded = damaged
            .into_iter()
            .filter_map(|id| self.remove(id, None))
            .collect();
        let sealed: HashSet<ContainerId> = self.sealed_container_ids().into_iter().collect();
        let mut orphans = 0;
        for obj in self.backend.list()? {
            if matches!(obj, StorageObject::Container(id) if !sealed.contains(&id)) {
                self.backend.delete(obj)?;
                orphans += 1;
            }
        }
        Ok((discarded, orphans))
    }

    /// The data section of `summary`'s object, read as its parts, when the
    /// object is intact; `None` when it is absent, too short for the head or
    /// the data section that head names, or fails
    /// [`ContainerSummary::from_parts`].  Nothing past the object's end is
    /// read.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::UnreadableObject`] when the head names another
    /// format version, and the backend's error when a read fails.
    fn verified_data_section(&self, summary: &ContainerSummary) -> Result<Option<SharedBytes>> {
        let obj = StorageObject::Container(summary.id);
        let Some(len) = self.backend.object_len(obj)? else {
            return Ok(None);
        };
        let len = len as usize;
        let head = self
            .backend
            .read_at(obj, 0, len.min(CONTAINER_BLOB_DATA_OFFSET))?;
        if let Some(version) = container::foreign_version(&head) {
            return Err(StorageError::UnreadableObject {
                container: summary.id,
                version,
            });
        }
        let data_end = CONTAINER_BLOB_DATA_OFFSET + summary.data_len as usize;
        if head != summary.object_head() || len < data_end {
            return Ok(None);
        }
        let data = self.backend.read_shared(
            obj,
            CONTAINER_BLOB_DATA_OFFSET as u64,
            summary.data_len as usize,
        )?;
        let records = self.backend.read_at(obj, data_end as u64, len - data_end)?;
        let intact = ContainerSummary::from_parts(&head, &data, &records).as_ref() == Some(summary);
        Ok(intact.then_some(data))
    }

    /// Number of sealed containers.
    pub fn sealed_count(&self) -> usize {
        self.table.read().sealed_containers as usize
    }

    /// Snapshot of the store statistics.
    pub fn stats(&self) -> ContainerStoreStats {
        let open_containers = self.streams.read().len() as u64;
        let table = self.table.read();
        ContainerStoreStats {
            sealed_containers: table.sealed_containers,
            open_containers,
            stored_bytes: table.stored_bytes,
            stored_chunks: table.stored_chunks,
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
        // Each rollover finishes the seal the previous one started: the
        // last full container stays sealing until the next rollover or flush.
        let ids: Vec<ContainerId> = containers
            .into_iter()
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        let states: Vec<ContainerState> = ids.iter().map(|id| store.state(id)).collect();
        use ContainerState::{Open, Sealed, Sealing};
        assert_eq!(states, vec![Sealed, Sealed, Sealed, Sealing, Open]);
        assert_eq!(store.stats().sealed_containers, 3);
        assert_eq!(store.physical_bytes(), 1000, "a sealing container counts");
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
    fn flush_skips_empty_containers() {
        let store = ContainerStore::new(1024);
        store.flush().unwrap();
        assert_eq!(store.stats().sealed_containers, 0);
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
        assert_eq!(
            store.state(&victim),
            ContainerState::Compacted {
                replacement: outcome.replacement
            }
        );
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
        let backend = Arc::new(crate::journal::tests::SyncLog::default());
        let journal = Arc::new(crate::Journal::with_backend(backend.clone()).unwrap());
        let store = ContainerStore::new(4096)
            .with_backend(backend.clone())
            .with_journal(journal.clone());
        for stream in 0..6u64 {
            let (fp, data) = payload(stream, 100);
            store.store_chunk(stream, fp, &data).unwrap();
        }
        let appends_before = backend.appends.lock().len();
        store.flush().unwrap();
        // Six open containers seal as ONE journal group commit — not six
        // appends.
        assert_eq!(backend.appends.lock().len(), appends_before + 1);
        assert_eq!(store.stats().sealed_containers, 6);
        // Every seal still reached the journal as its own frame, and the seal
        // is the only record a container's seal writes.
        let (records, _) = crate::Journal::replay(&journal.bytes()).unwrap();
        assert_eq!(records.len(), 6);
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
            "served off the object, like every backend: one whole-section read"
        );
        assert_eq!((stats.cache_hits, stats.cache_misses), (0, 1));
    }

    #[test]
    fn a_cold_batch_reads_the_whole_section_once_whatever_it_asks_for() {
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
        // A lone extent, cold: the read is the whole 600-byte section.
        let one = vec![chunks[2].clone()];
        let stats = batched_roundtrip(&store, &cid, &one);
        assert_eq!((stats.coalesced_runs, stats.backend_bytes_read), (1, 600));
        // Every other subset is then served from the cache.
        let sparse: Vec<_> = chunks.iter().step_by(2).cloned().collect();
        let stats = batched_roundtrip(&store, &cid, &sparse);
        assert_eq!((stats.coalesced_runs, stats.backend_bytes_read), (0, 0));
        assert_eq!((stats.cache_hits, stats.cache_misses), (1, 0));
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn every_store_caches_sixteen_containers() {
        let stats = ContainerStore::with_default_capacity().read_cache_stats();
        assert_eq!(stats.capacity_bytes, 64 << 20);
        assert_eq!(
            ContainerStore::new(4096).read_cache_stats().capacity_bytes,
            16 * 4096
        );
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
        let store = ContainerStore::new(4096).with_backend(backend);
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
        let cache = store.read_cache_stats();
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
            store.read_cache_stats().resident_containers,
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

    /// A format-3 container object encoded field by field: head, data
    /// section, then one `(fingerprint, offset, len)` per record.
    fn object_by_hand(
        id: ContainerId,
        size: u64,
        data: &[u8],
        records: &[(Fingerprint, u32, u32)],
    ) -> Vec<u8> {
        let mut object = Vec::new();
        object.extend_from_slice(&0x5343_4E54u32.to_le_bytes());
        object.push(3);
        object.extend_from_slice(&id.as_u64().to_le_bytes());
        object.extend_from_slice(&size.to_le_bytes());
        object.extend_from_slice(&(data.len() as u32).to_le_bytes());
        object.extend_from_slice(container::section_checksum(data).as_bytes());
        assert_eq!(object.len(), CONTAINER_BLOB_DATA_OFFSET);
        object.extend_from_slice(data);
        object.extend_from_slice(&(records.len() as u32).to_le_bytes());
        for (fp, offset, len) in records {
            object.extend_from_slice(fp.as_bytes());
            object.extend_from_slice(&offset.to_le_bytes());
            object.extend_from_slice(&len.to_le_bytes());
        }
        object
    }

    #[test]
    fn a_record_past_the_data_section_is_an_error_on_every_read_and_in_compaction() {
        // A sealed container whose record table names one chunk more than
        // its data section holds: a corrupt record, or what an older build
        // wrote for a trace-driven node.  Its object is written and its
        // summary installed by hand, as journal replay would install it.
        let backend = Arc::new(MemoryBackend::new());
        let store = ContainerStore::new(4096).with_backend(backend.clone());
        let chunks: Vec<(Fingerprint, Vec<u8>)> = (0..3u64).map(|i| payload(i, 100)).collect();
        let data: Vec<u8> = chunks.iter().flat_map(|(_, d)| d.clone()).collect();
        let (ghost, _) = payload(9, 1);
        let mut records: Vec<(Fingerprint, u32, u32)> =
            (0..3).map(|i| (chunks[i].0, 100 * i as u32, 100)).collect();
        records.push((ghost, 300, 64));
        let id = ContainerId::new(7);
        let object = object_by_hand(id, 364, &data, &records);
        backend
            .write_object(StorageObject::Container(id), &object)
            .unwrap();
        let summary = ContainerSummary::from_object(&object).expect("a well-formed object");
        assert!(store.install_recovered(None, summary));

        fn not_stored<T>(read: Result<T>) -> bool {
            matches!(read, Err(StorageError::ChunkNotInContainer { .. }))
        }
        let batched = |fetched: &[(Fingerprint, u32, u32)]| {
            let mut outs: Vec<Vec<u8>> = fetched.iter().map(|r| vec![0; r.2 as usize]).collect();
            let mut fetches: Vec<ChunkFetch<'_>> = fetched
                .iter()
                .zip(&mut outs)
                .map(|(r, out)| ChunkFetch {
                    fingerprint: r.0,
                    offset: r.1,
                    out: out.as_mut_slice(),
                })
                .collect();
            store.read_chunks_batched(&id, &mut fetches).map(|_| ())
        };
        assert!(not_stored(store.read_chunk(&id, &ghost)));
        assert!(not_stored(batched(&records[3..])), "cold");
        assert_eq!(store.read_cache_stats().resident_containers, 0);
        batched(&records[..3]).unwrap();
        assert_eq!(store.read_cache_stats().resident_containers, 1);
        assert!(not_stored(batched(&records[3..])), "after a cache fill");
        assert!(
            not_stored(batched(&records[2..])),
            "beside a chunk with bytes"
        );
        assert!(not_stored(store.read_chunk(&id, &ghost)));
        assert_eq!(store.read_chunk(&id, &chunks[2].0).unwrap(), chunks[2].1);

        // Restart's check keeps it: the object is intact as written.
        let (discarded, orphans) = store.verify_objects().unwrap();
        assert!(discarded.is_empty());
        assert_eq!(orphans, 0);
        assert_eq!(store.sealed_container_ids(), vec![id]);

        // Compaction cannot carry the live ghost over, so it refuses.
        let live: HashSet<Fingerprint> = [chunks[0].0, ghost].into_iter().collect();
        assert!(matches!(
            store.compact_container(&id, &live, &[]),
            Err(StorageError::Io(_))
        ));
        assert_eq!(
            store.sealed_container_ids(),
            vec![id],
            "victim still sealed"
        );
        assert_eq!(store.physical_bytes(), 364);
        assert_eq!(
            backend.read_all(StorageObject::Container(id)).unwrap(),
            object
        );

        let mut out = vec![0u8; 64];
        let mut fetches = [ChunkFetch {
            fingerprint: ghost,
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
        for stream in 0..6u64 {
            let (fp, data) = payload(stream, 200);
            store.store_chunk(stream, fp, &data).unwrap();
        }
        store.flush().unwrap();
        let mut ids = store.sealed_container_ids();
        assert_eq!(ids.len(), 6);
        // The healthy one last: the damaged ones are discarded in id order.
        ids.swap(3, 5);
        // Remove one object, flip a data byte of another, truncate a third,
        // add a byte after a fourth's record table, make a fifth's head name
        // a data section running past the object's end, and leave an object
        // no container claims.
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
        let trailing = StorageObject::Container(ids[3]);
        let mut bytes = backend.read_all(trailing).unwrap();
        bytes.push(0);
        backend.write_object(trailing, &bytes).unwrap();
        let overlong = StorageObject::Container(ids[4]);
        let mut bytes = backend.read_all(overlong).unwrap();
        let past_end = (bytes.len() - CONTAINER_BLOB_DATA_OFFSET + 1) as u32;
        bytes[21..25].copy_from_slice(&past_end.to_le_bytes());
        backend.write_object(overlong, &bytes).unwrap();
        for obj in [trailing, overlong] {
            assert_eq!(
                ContainerSummary::from_object(&backend.read_all(obj).unwrap()),
                None
            );
        }
        let orphan = StorageObject::Container(ContainerId::new(99));
        backend.write_object(orphan, b"never recorded").unwrap();

        // A read past an object's end fails on the memory backend, so an
        // `Ok` here also says none was made.
        let (discarded, orphans) = store.verify_objects().unwrap();
        let discarded: Vec<ContainerId> = discarded.iter().map(|c| c.id).collect();
        let mut damaged = ids[..5].to_vec();
        damaged.sort();
        assert_eq!(discarded, damaged);
        assert_eq!(orphans, 1);
        assert_eq!(store.sealed_container_ids(), vec![ids[5]]);
        assert_eq!(store.physical_bytes(), 200);
        assert_eq!(
            backend.list().unwrap(),
            vec![StorageObject::Container(ids[5])],
            "only the healthy container's object is left"
        );
        assert_eq!(store.backend_physical_bytes().unwrap(), 200);
    }

    #[test]
    fn container_objects_are_head_data_and_record_table_on_every_backend() {
        let root = std::env::temp_dir().join(format!(
            "sigma-layout-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        let backends: [Arc<dyn StorageBackend>; 2] = [
            Arc::new(MemoryBackend::new()),
            Arc::new(crate::FileBackend::open(&root).unwrap()),
        ];
        for backend in backends {
            // Three 300-byte chunks fill a container: streams 0 and 1 roll
            // over three times each, and the flush seals the partly full
            // ones.
            let store = ContainerStore::new(1000).with_backend(backend.clone());
            let mut written: HashMap<ContainerId, Vec<(Fingerprint, u32, Vec<u8>)>> =
                HashMap::new();
            for i in 0..20u64 {
                let (fp, data) = payload(i, 300);
                let loc = store.store_chunk(i % 2, fp, &data).unwrap();
                assert_eq!(loc.len, 300);
                written
                    .entry(loc.container)
                    .or_default()
                    .push((fp, loc.offset, data));
            }
            store.flush().unwrap();
            let ids = store.sealed_container_ids();
            assert_eq!(ids.len(), 8, "{backend:?}");
            for id in ids {
                let chunks = &written[&id];
                let data: Vec<u8> = chunks.iter().flat_map(|c| c.2.clone()).collect();
                let records: Vec<(Fingerprint, u32, u32)> =
                    chunks.iter().map(|c| (c.0, c.1, 300)).collect();
                let expected = object_by_hand(id, data.len() as u64, &data, &records);
                let object = backend.read_all(StorageObject::Container(id)).unwrap();
                assert!(object == expected, "{backend:?}: {id} differs");
                let summary = store.sealed_summary(&id).expect("sealed");
                let data_end = CONTAINER_BLOB_DATA_OFFSET + data.len();
                assert_eq!(
                    ContainerSummary::from_object(&object).as_ref(),
                    Some(&*summary)
                );
                assert_eq!(
                    ContainerSummary::from_parts(
                        &object[..CONTAINER_BLOB_DATA_OFFSET],
                        &object[CONTAINER_BLOB_DATA_OFFSET..data_end],
                        &object[data_end..]
                    )
                    .as_ref(),
                    Some(&*summary)
                );
            }
            let (discarded, orphans) = store.verify_objects().unwrap();
            assert_eq!((discarded.len(), orphans), (0, 0));
        }
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn verify_objects_refuses_another_format_version_before_deleting_anything() {
        let backend = Arc::new(MemoryBackend::new());
        let store = ContainerStore::new(4096).with_backend(backend.clone());
        for stream in 0..3u64 {
            let (fp, data) = payload(stream, 200);
            store.store_chunk(stream, fp, &data).unwrap();
        }
        store.flush().unwrap();
        let ids = store.sealed_container_ids();
        // A rotten container ahead of one whose header names version 2, and
        // an orphan: none of the three may be deleted.
        let rotten = StorageObject::Container(ids[0]);
        let mut bytes = backend.read_all(rotten).unwrap();
        bytes[CONTAINER_BLOB_DATA_OFFSET + 7] ^= 0x10;
        backend.write_object(rotten, &bytes).unwrap();
        let foreign = StorageObject::Container(ids[1]);
        let mut bytes = backend.read_all(foreign).unwrap();
        bytes[4] = 2;
        backend.write_object(foreign, &bytes).unwrap();
        let orphan = StorageObject::Container(ContainerId::new(99));
        backend.write_object(orphan, b"never recorded").unwrap();
        let medium = |backend: &MemoryBackend| -> Vec<(StorageObject, Vec<u8>)> {
            let objects = backend.list().unwrap();
            objects
                .into_iter()
                .map(|obj| (obj, backend.read_all(obj).unwrap()))
                .collect()
        };
        let before = medium(&backend);
        assert_eq!(
            store.verify_objects(),
            Err(StorageError::UnreadableObject {
                container: ids[1],
                version: 2
            })
        );
        assert_eq!(medium(&backend), before, "the medium is left untouched");
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

    /// Where a [`ParkingBackend`] stops a container-object operation.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Park {
        /// Before the object is written.
        Write,
        /// Before the bytes are read.
        ReadAt,
        /// After the bytes are read, before they are returned.
        ReadShared,
        /// Before the object is deleted.
        Delete,
    }

    /// A memory backend that parks the next container-object operation of
    /// the armed kind until the test releases it: the yield point every
    /// transition test stops a reader or a transition at.  It can also fail
    /// the next container-object write.
    #[derive(Debug)]
    struct ParkingBackend {
        inner: MemoryBackend,
        armed: Mutex<Option<Park>>,
        fail_next_write: std::sync::atomic::AtomicBool,
        parked: Mutex<std::sync::mpsc::Sender<()>>,
        release: Mutex<std::sync::mpsc::Receiver<()>>,
    }

    /// The test's ends of a [`ParkingBackend`].
    struct Gate {
        parked: std::sync::mpsc::Receiver<()>,
        release: std::sync::mpsc::Sender<()>,
    }

    impl Gate {
        /// Blocks until an operation parks.
        fn wait(&self) {
            self.parked.recv().unwrap();
        }

        /// Lets the parked operation go on.
        fn open(&self) {
            self.release.send(()).unwrap();
        }
    }

    impl ParkingBackend {
        fn arm(&self, at: Park) {
            *self.armed.lock() = Some(at);
        }

        /// Parks the caller if `op` on `obj` is what the backend is armed
        /// for; the arming is used up.
        fn yield_point(&self, op: Park, obj: StorageObject) {
            let hit = matches!(obj, StorageObject::Container(_)) && {
                let mut armed = self.armed.lock();
                let hit = *armed == Some(op);
                if hit {
                    *armed = None;
                }
                hit
            };
            if hit {
                self.parked.lock().send(()).unwrap();
                self.release.lock().recv().unwrap();
            }
        }
    }

    impl StorageBackend for ParkingBackend {
        fn kind(&self) -> crate::BackendKind {
            self.inner.kind()
        }
        fn append(&self, obj: StorageObject, bytes: &[u8]) -> Result<u64> {
            self.inner.append(obj, bytes)
        }
        fn write_object(&self, obj: StorageObject, bytes: &[u8]) -> Result<()> {
            self.yield_point(Park::Write, obj);
            if matches!(obj, StorageObject::Container(_))
                && self.fail_next_write.swap(false, Ordering::SeqCst)
            {
                return Err(StorageError::Io(format!("{obj}: injected write failure")));
            }
            self.inner.write_object(obj, bytes)
        }
        fn read_all(&self, obj: StorageObject) -> Result<Vec<u8>> {
            self.inner.read_all(obj)
        }
        fn read_at(&self, obj: StorageObject, offset: u64, len: usize) -> Result<Vec<u8>> {
            self.yield_point(Park::ReadAt, obj);
            self.inner.read_at(obj, offset, len)
        }
        fn read_shared(&self, obj: StorageObject, offset: u64, len: usize) -> Result<SharedBytes> {
            let bytes = self.inner.read_shared(obj, offset, len)?;
            self.yield_point(Park::ReadShared, obj);
            Ok(bytes)
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
            self.yield_point(Park::Delete, obj);
            self.inner.delete(obj)
        }
        fn list(&self) -> Result<Vec<StorageObject>> {
            self.inner.list()
        }
    }

    /// A store over a disarmed [`ParkingBackend`].
    fn parked_store(capacity: usize) -> (Arc<ContainerStore>, Arc<ParkingBackend>, Gate) {
        let (parked_tx, parked) = std::sync::mpsc::channel();
        let (release, release_rx) = std::sync::mpsc::channel();
        let backend = Arc::new(ParkingBackend {
            inner: MemoryBackend::new(),
            armed: Mutex::new(None),
            fail_next_write: std::sync::atomic::AtomicBool::new(false),
            parked: Mutex::new(parked_tx),
            release: Mutex::new(release_rx),
        });
        let store = ContainerStore::new(capacity).with_backend(backend.clone());
        (Arc::new(store), backend, Gate { parked, release })
    }

    /// Stores `count` 100-byte chunks on stream 0 and flushes them into one
    /// sealed container; returns it and `(fingerprint, payload, offset)` per
    /// chunk.
    fn sealed_chunks(
        store: &ContainerStore,
        count: u64,
    ) -> (ContainerId, Vec<(Fingerprint, Vec<u8>, u32)>) {
        let chunks: Vec<_> = (0..count)
            .map(|i| {
                let (fp, data) = payload(i, 100);
                let loc = store.store_chunk(0, fp, &data).unwrap();
                (fp, data, loc.offset)
            })
            .collect();
        store.flush().unwrap();
        (store.sealed_container_ids()[0], chunks)
    }

    #[test]
    fn a_container_parked_mid_seal_stays_readable() {
        // Both ways into a seal: a flush, which writes the object on the
        // flushing thread, and a rollover, which starts the write on its
        // sealer thread and returns at once.
        for rollover in [false, true] {
            let (store, backend, gate) = parked_store(256);
            let (fp, data) = payload(1, 200);
            let loc = store.store_chunk(0, fp, &data).unwrap();
            assert_eq!(store.state(&loc.container), ContainerState::Open);
            backend.arm(Park::Write);
            let flusher = if rollover {
                let (fp, data) = payload(2, 200);
                store.store_chunk(0, fp, &data).unwrap();
                None
            } else {
                let store = store.clone();
                Some(std::thread::spawn(move || store.flush()))
            };
            gate.wait();
            // Parked inside the object write: out of its slot, not yet sealed.
            assert_eq!(store.state(&loc.container), ContainerState::Sealing);
            assert_eq!(store.stats().sealed_containers, 0);
            assert_eq!(store.read_chunk(&loc.container, &fp).unwrap(), data);
            let stats = batched_roundtrip(&store, &loc.container, &[(fp, data.clone(), 0)]);
            assert_eq!(stats.backend_bytes_read, 0, "served from RAM");
            assert_eq!(
                store.read_metadata(&loc.container).unwrap().len(),
                1,
                "metadata of a sealing container is visible"
            );
            gate.open();
            match flusher {
                Some(flusher) => flusher.join().unwrap().unwrap(),
                // Written or not, the rollover's seal is finished only by
                // the store's next rollover or flush.
                None => {
                    assert_eq!(store.state(&loc.container), ContainerState::Sealing);
                    store.flush().unwrap();
                }
            }
            assert_eq!(store.state(&loc.container), ContainerState::Sealed);
            assert_eq!(
                store.stats().sealed_containers,
                if rollover { 2 } else { 1 },
                "a rollover's flush also seals the fresh container"
            );
            assert_eq!(store.read_chunk(&loc.container, &fp).unwrap(), data);
        }
    }

    #[test]
    fn sealer_keeps_physical_bytes_across_a_parked_and_a_failed_seal() {
        let (store, backend, gate) = parked_store(256);
        let (fp, data) = payload(1, 200);
        let first = store.store_chunk(0, fp, &data).unwrap().container;
        assert_eq!(store.physical_bytes(), 200);
        // Parked: the rollover's write waits on its sealer thread.
        backend.arm(Park::Write);
        let (fp2, data2) = payload(2, 200);
        store.store_chunk(0, fp2, &data2).unwrap();
        gate.wait();
        assert_eq!(store.state(&first), ContainerState::Sealing);
        assert_eq!(store.physical_bytes(), 400, "sealing bytes count");
        gate.open();
        store.flush().unwrap();
        assert_eq!(store.physical_bytes(), 400);
        assert_eq!(store.stats().stored_bytes, 400);
        // Failed: the container stays sealing in the retry list, and counts.
        let (fp3, data3) = payload(3, 100);
        let third = store.store_chunk(1, fp3, &data3).unwrap().container;
        backend.fail_next_write.store(true, Ordering::SeqCst);
        assert!(matches!(store.flush(), Err(StorageError::Io(_))));
        assert_eq!(store.state(&third), ContainerState::Sealing);
        assert_eq!(store.physical_bytes(), 500);
        store.flush().unwrap();
        assert_eq!(store.state(&third), ContainerState::Sealed);
        assert_eq!(store.physical_bytes(), 500);
        assert_eq!(store.stats().stored_bytes, 500);
    }

    #[test]
    fn sealer_failure_surfaces_at_the_next_rollover_and_the_flush_retries_it() {
        let (store, backend, _gate) = parked_store(256);
        let chunks: Vec<(Fingerprint, Vec<u8>)> = (0..4u64).map(|i| payload(i, 200)).collect();
        let mut locs = Vec::new();
        locs.push(store.store_chunk(0, chunks[0].0, &chunks[0].1).unwrap());
        // The second chunk's rollover starts a write that fails on the
        // sealer thread; the store itself succeeds.
        backend.fail_next_write.store(true, Ordering::SeqCst);
        locs.push(store.store_chunk(0, chunks[1].0, &chunks[1].1).unwrap());
        // The third chunk's rollover finishes that seal and reports it; the
        // chunk is not stored, and both full containers stay readable.
        assert!(matches!(
            store.store_chunk(0, chunks[2].0, &chunks[2].1),
            Err(StorageError::Io(_))
        ));
        for (loc, (fp, data)) in locs.iter().zip(&chunks) {
            assert_eq!(store.state(&loc.container), ContainerState::Sealing);
            assert_eq!(&store.read_chunk(&loc.container, fp).unwrap(), data);
        }
        assert_eq!(store.physical_bytes(), 400);
        // The stream goes on in a fresh container; the flush seals all three.
        locs.push(store.store_chunk(0, chunks[3].0, &chunks[3].1).unwrap());
        store.flush().unwrap();
        assert_eq!(store.stats().sealed_containers, 3);
        for (loc, (fp, data)) in locs.iter().zip([&chunks[0], &chunks[1], &chunks[3]]) {
            assert_eq!(store.state(&loc.container), ContainerState::Sealed);
            assert_eq!(&store.read_chunk(&loc.container, fp).unwrap(), data);
        }
        assert_eq!(store.physical_bytes(), 600);
    }

    #[test]
    fn sealer_journals_a_rollover_seal_at_the_next_rollover_or_flush() {
        let journal = Arc::new(crate::Journal::new());
        let store = ContainerStore::new(256).with_journal(journal.clone());
        let seals = || {
            let (records, _) = crate::Journal::replay(&journal.bytes()).unwrap();
            records
                .iter()
                .filter_map(|r| match r {
                    JournalRecord::ContainerSeal { container } => Some(container.id),
                    _ => None,
                })
                .collect::<Vec<_>>()
        };
        let mut containers = Vec::new();
        for i in 0..3u64 {
            let (fp, data) = payload(i, 200);
            containers.push(store.store_chunk(0, fp, &data).unwrap().container);
            // Chunk i rolled over container i - 1; only the seal before it
            // is journaled.
            assert_eq!(seals(), containers[..i.saturating_sub(1) as usize].to_vec());
        }
        store.flush().unwrap();
        assert_eq!(seals(), containers);
    }

    #[test]
    fn an_adoption_parked_mid_write_is_invisible_until_its_swap() {
        let source = ContainerStore::new(4096);
        let (origin, chunks) = sealed_chunks(&source, 3);
        let exported = source.export_sealed(&origin).unwrap().expect("sealed");
        let (store, backend, gate) = parked_store(4096);
        backend.arm(Park::Write);
        let adopt = |store: &Arc<ContainerStore>| {
            let (store, exported) = (store.clone(), exported.clone());
            std::thread::spawn(move || store.adopt_sealed(9, exported, &[]))
        };
        let first = adopt(&store);
        gate.wait();
        // Before the swap: no entry, no counters, no ledger row.
        let new_id = ContainerId::new(store.peek_next_id() - 1);
        assert_eq!(store.state(&new_id), ContainerState::Absent);
        assert!(matches!(
            store.read_chunk(&new_id, &chunks[0].0),
            Err(StorageError::ContainerNotFound(_))
        ));
        assert_eq!(store.stats().stored_bytes, 0);
        assert!(store.adopted_origins().is_empty());
        // A second adoption of the same origin waits for the first one and
        // gets its local ID instead of a second copy.
        let second = adopt(&store);
        gate.open();
        assert_eq!(first.join().unwrap(), Ok(new_id));
        assert_eq!(second.join().unwrap(), Ok(new_id));
        assert_eq!(store.state(&new_id), ContainerState::Sealed);
        assert_eq!(store.stats().sealed_containers, 1);
        assert_eq!(store.stats().stored_bytes, 300);
        assert_eq!(store.adopted_origins(), vec![(9, origin, new_id)]);
        batched_roundtrip(&store, &new_id, &chunks);
    }

    #[test]
    fn a_gc_drop_parked_before_its_delete_has_already_swapped() {
        let (store, backend, gate) = parked_store(4096);
        let (cid, chunks) = sealed_chunks(&store, 2);
        batched_roundtrip(&store, &cid, &chunks);
        assert_eq!(store.read_cache_stats().resident_containers, 1);
        backend.arm(Park::Delete);
        let dropper = {
            let store = store.clone();
            std::thread::spawn(move || store.drop_sealed_gc(&cid))
        };
        gate.wait();
        // The entry and its counters went in the swap, the cached section
        // right after it; only the object is still on the medium.
        assert_eq!(store.state(&cid), ContainerState::Absent);
        assert_eq!(store.stats().sealed_containers, 0);
        assert_eq!(store.stats().stored_bytes, 0);
        assert_eq!(store.read_cache_stats().resident_containers, 0);
        let obj = StorageObject::Container(cid);
        assert!(backend.inner.object_len(obj).unwrap().is_some());
        assert_eq!(
            store.read_chunk(&cid, &chunks[0].0),
            Err(StorageError::ContainerNotFound(cid))
        );
        assert!(store.export_sealed(&cid).unwrap().is_none());
        gate.open();
        let dropped = dropper.join().unwrap().unwrap().expect("was sealed");
        assert_eq!(dropped.id, cid);
        assert_eq!(backend.inner.object_len(obj).unwrap(), None);
    }

    #[test]
    fn a_read_parked_across_a_compaction_follows_the_replacement() {
        let (store, backend, gate) = parked_store(4096);
        let (victim, chunks) = sealed_chunks(&store, 4);
        backend.arm(Park::ReadAt);
        let reader = {
            let (store, fp) = (store.clone(), chunks[1].0);
            std::thread::spawn(move || store.read_chunk(&victim, &fp))
        };
        gate.wait();
        let live: HashSet<Fingerprint> = [chunks[1].0, chunks[3].0].into_iter().collect();
        let outcome = store
            .compact_container(&victim, &live, &[])
            .unwrap()
            .expect("half-dead container compacts");
        assert_eq!(
            store.state(&victim),
            ContainerState::Compacted {
                replacement: outcome.replacement
            }
        );
        gate.open();
        // The victim's object went while the reader was parked; the reader
        // finds the chunk in the replacement.
        assert_eq!(reader.join().unwrap().unwrap(), chunks[1].1);
        // So does a batch planned against the victim's offsets.
        let planned = vec![chunks[3].clone(), chunks[1].clone()];
        batched_roundtrip(&store, &victim, &planned);
        assert!(matches!(
            store.read_chunk(&victim, &chunks[0].0),
            Err(StorageError::ChunkNotInContainer { .. })
        ));
    }

    #[test]
    fn repeated_compactions_do_not_grow_the_table() {
        let source = ContainerStore::new(4096);
        let (origin, chunks) = sealed_chunks(&source, 8);
        let exported = source.export_sealed(&origin).unwrap().expect("sealed");
        let store = ContainerStore::new(4096);
        let mut current = store.adopt_sealed(9, exported, &[]).unwrap();
        // Each round is one sweep: it forgets the previous sweep's compacted
        // entry, then compacts the survivor down by one more chunk.
        for keep in (1..8).rev() {
            store.forget_compacted();
            let live: HashSet<Fingerprint> = chunks[..keep].iter().map(|c| c.0).collect();
            let victim = current;
            current = store
                .compact_container(&victim, &live, &[])
                .unwrap()
                .expect("partly dead container compacts")
                .replacement;
            assert_eq!(
                store.state(&victim),
                ContainerState::Compacted {
                    replacement: current
                }
            );
            assert_eq!(store.table.read().entries.len(), 2, "replacement + victim");
        }
        store.forget_compacted();
        assert_eq!(store.table.read().entries.len(), 1);
        assert!(
            store.adopted_origins().is_empty(),
            "the origin went with its entry"
        );
        assert_eq!(
            store.read_chunk(&current, &chunks[0].0).unwrap(),
            chunks[0].1
        );
    }

    #[test]
    fn a_read_parked_across_a_retirement_finds_the_tombstone() {
        let (store, backend, gate) = parked_store(4096);
        let (cid, chunks) = sealed_chunks(&store, 1);
        backend.arm(Park::ReadAt);
        let reader = {
            let (store, fp) = (store.clone(), chunks[0].0);
            std::thread::spawn(move || store.read_chunk(&cid, &fp))
        };
        gate.wait();
        let retired = store.retire_container(cid, 7).unwrap();
        assert_eq!(retired.map(|c| c.id), Some(cid));
        assert_eq!(store.state(&cid), ContainerState::Migrated { successor: 7 });
        gate.open();
        assert_eq!(
            reader.join().unwrap(),
            Err(StorageError::ContainerNotFound(cid)),
            "a typed answer from the tombstone, never the read's I/O error"
        );
        assert_eq!(store.stats().sealed_containers, 0);
        assert_eq!(store.tombstones(), vec![(cid, 7)]);
    }

    #[test]
    fn a_cache_fill_racing_a_removal_leaves_nothing_resident() {
        let (store, backend, gate) = parked_store(4096);
        let (cid, chunks) = sealed_chunks(&store, 4);
        // Parks the restore after it read the whole section, before it
        // offers the section to the cache.
        backend.arm(Park::ReadShared);
        let reader = {
            let (store, chunks) = (store.clone(), chunks.clone());
            std::thread::spawn(move || batched_roundtrip(&store, &cid, &chunks))
        };
        gate.wait();
        store.drop_sealed_gc(&cid).unwrap().expect("sealed");
        gate.open();
        // The reader answers with the bytes it read before the drop...
        assert_eq!(reader.join().unwrap().cache_misses, 1);
        // ...but no section of the dropped container stays resident.
        assert_eq!(store.read_cache_stats().resident_containers, 0);
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

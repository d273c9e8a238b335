//! The deduplication server node.
//!
//! A node receives super-chunks routed to it, identifies duplicate chunks and stores
//! the unique ones in containers.  The intra-node design follows Section 3.3 of the
//! paper:
//!
//! 1. look the super-chunk's representative fingerprints up in the **similarity
//!    index**;
//! 2. **prefetch** the chunk-fingerprint lists of the matched containers into the
//!    chunk-fingerprint cache (one sequential metadata read per container);
//! 3. resolve every chunk fingerprint against the cache; only cache misses may fall
//!    back to the traditional on-disk chunk index (one counted index lookup), and
//!    that fallback can be disabled entirely for the approximate mode of Fig. 5(b);
//! 4. store unique chunks into the per-stream open container and finally map the
//!    super-chunk's representative fingerprints to that container in the similarity
//!    index.

use crate::{ChunkDescriptor, Handprint, Result, SigmaConfig, SigmaError, SuperChunk};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use sigma_hashkit::Fingerprint;
use sigma_storage::{
    BackendKind, CacheStats, ChunkIndex, ChunkIndexStats, ChunkLocation, ClaimOutcome, Container,
    ContainerId, ContainerState, ContainerStore, ContainerStoreStats, ContainerSummary,
    FileBackend, FingerprintCache, Journal, JournalRecord, MemoryBackend, NodeSnapshot,
    SimilarityIndex, SimilarityIndexStats, StorageBackend, StreamId,
};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Lock stripes of each node's similarity index: the paper's 1024-way
/// striping.
const SIMILARITY_INDEX_LOCKS: usize = 1024;

/// Result of deduplicating one super-chunk on a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct SuperChunkReceipt {
    /// Node that processed the super-chunk.
    pub node_id: usize,
    /// Chunks found to be duplicates (not stored again).
    pub duplicate_chunks: u64,
    /// Chunks stored as new unique data.
    pub unique_chunks: u64,
    /// Bytes of duplicate chunks.
    pub duplicate_bytes: u64,
    /// Bytes of unique chunks (what a source-deduplicating client must transfer).
    pub unique_bytes: u64,
    /// Duplicate chunks resolved by the chunk-fingerprint cache.
    pub cache_hits: u64,
    /// Duplicate chunks resolved by the on-disk chunk-index fallback.
    pub index_fallback_hits: u64,
    /// Containers prefetched into the cache for this super-chunk.
    pub containers_prefetched: u64,
}

impl SuperChunkReceipt {
    /// Total chunks in the super-chunk.
    pub fn total_chunks(&self) -> u64 {
        self.duplicate_chunks + self.unique_chunks
    }

    /// Total logical bytes in the super-chunk.
    pub fn logical_bytes(&self) -> u64 {
        self.duplicate_bytes + self.unique_bytes
    }
}

/// Point-in-time statistics of a [`DedupNode`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct NodeStats {
    /// Node identifier.
    pub node_id: usize,
    /// Logical bytes received.
    pub logical_bytes: u64,
    /// Physical bytes stored after deduplication.
    pub physical_bytes: u64,
    /// Total chunks received.
    pub total_chunks: u64,
    /// Unique chunks stored.
    pub unique_chunks: u64,
    /// Super-chunks processed.
    pub super_chunks: u64,
    /// Deduplication ratio (logical / physical); 1.0 when nothing is stored.
    pub dedup_ratio: f64,
    /// Similarity-index statistics.
    pub similarity_index: SimilarityIndexStats,
    /// Chunk-fingerprint cache statistics.
    pub cache: CacheStats,
    /// On-disk chunk-index statistics.
    pub chunk_index: ChunkIndexStats,
    /// Container store statistics.
    pub containers: ContainerStoreStats,
    /// Estimated RAM used by the similarity index, in bytes.
    pub similarity_index_ram_bytes: u64,
    /// Estimated size of the full chunk index, in bytes (what a traditional design
    /// would need to keep hot).
    pub chunk_index_bytes: u64,
}

/// A deduplication server node.
///
/// All methods take `&self`; internal state is protected by striped locks so that
/// multiple backup streams (threads) can be deduplicated in parallel, as in the
/// paper's multi-stream prototype.
///
/// # Example
///
/// ```
/// use sigma_core::{DedupNode, SigmaConfig, SuperChunk};
/// use sigma_hashkit::FingerprintAlgorithm;
///
/// let node = DedupNode::new(0, &SigmaConfig::default());
/// let chunks: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i; 4096]).collect();
/// let sc = SuperChunk::from_payloads(FingerprintAlgorithm::Sha1, 0, chunks);
/// let handprint = sc.handprint(8);
///
/// let first = node.process_super_chunk(0, &sc, &handprint).unwrap();
/// assert_eq!(first.unique_chunks, 4);
/// let second = node.process_super_chunk(0, &sc, &handprint).unwrap();
/// assert_eq!(second.duplicate_chunks, 4);
/// assert!(node.stats().dedup_ratio > 1.9);
/// ```
#[derive(Debug)]
pub struct DedupNode {
    id: usize,
    chunk_index_fallback: bool,
    similarity_index: SimilarityIndex,
    cache: FingerprintCache,
    chunk_index: ChunkIndex,
    store: ContainerStore,
    logical_bytes: AtomicU64,
    total_chunks: AtomicU64,
    unique_chunks: AtomicU64,
    super_chunks: AtomicU64,
    /// Fingerprints written to the currently open container of each stream; catches
    /// duplicates within the active container before it is sealed.
    open_fingerprints: Mutex<HashMap<StreamId, (ContainerId, HashSet<Fingerprint>)>>,
    /// Write-ahead journal (None unless [`SigmaConfig::durability`] is set): the
    /// node's durable medium, surviving a crash that destroys everything above.
    journal: Option<Arc<Journal>>,
}

/// What one journal replay rebuilt — returned by [`DedupNode::recover`] and
/// [`DedupCluster::restart_node`](crate::DedupCluster::restart_node).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// The recovered node's stable ID.
    pub node_id: usize,
    /// Journal frames replayed.
    pub frames_replayed: u64,
    /// Journal bytes replayed.
    pub bytes_replayed: u64,
    /// Trailing journal bytes discarded as a torn or corrupt tail.
    pub bytes_discarded: u64,
    /// Sealed containers reinstalled (locally sealed and adopted).
    pub containers_recovered: u64,
    /// Chunk-index entries rebuilt.
    pub chunks_indexed: u64,
    /// Similarity-index entries rebuilt.
    pub similarity_entries: u64,
    /// Forwarding tombstones restored.
    pub tombstones_restored: u64,
    /// Duplicated adopt records skipped by the origin-keyed idempotence guard.
    pub duplicate_adopts_skipped: u64,
    /// Garbage-collection records replayed (`GcCompact` + `GcDrop`): the sweep
    /// history folded back into the recovered state, so recovery converges to
    /// the post-GC world rather than resurrecting collected containers.
    pub gc_records_replayed: u64,
    /// `RecipeDelete` audit records seen during replay.
    pub recipe_deletes_replayed: u64,
    /// Half-completed migrations finished by cluster-level reconciliation (only
    /// set by [`DedupCluster::restart_node`](crate::DedupCluster::restart_node)).
    pub reconciled_migrations: u64,
    /// Replayed containers whose backend object decoded and matched its
    /// journaled length, records and checksum.
    pub backend_objects_verified: u64,
    /// Replayed containers discarded, index entries and all, because their
    /// object was missing, had the wrong length or failed its checksum.
    pub containers_discarded: u64,
    /// Container objects no replayed record claims (a crash between an object
    /// write and its record, or a record and its delete), deleted.
    pub orphan_objects_swept: u64,
}

/// What one node-local GC sweep reclaimed — the per-node half of a
/// [`GcReport`](crate::GcReport).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NodeGcReport {
    /// The swept node's stable ID.
    pub node_id: usize,
    /// Sealed containers examined.
    pub containers_scanned: u64,
    /// Containers dropped outright (no live chunks).
    pub containers_dropped: u64,
    /// Containers compacted (live chunks rewritten into a fresh container).
    pub containers_compacted: u64,
    /// Containers kept despite dead bytes (liveness at or above the threshold).
    pub containers_kept_partial: u64,
    /// Dead chunks discarded by drops and compactions.
    pub chunks_discarded: u64,
    /// Physical bytes reclaimed.
    pub bytes_reclaimed: u64,
}

impl DedupNode {
    /// Creates a node with identifier `id` configured by `config`.
    ///
    /// A new node starts from a clean slate, deleting whatever a previous
    /// incarnation left on its medium.  With
    /// [`SigmaConfig::durability`] set, the node opens a write-ahead
    /// [`Journal`] and writes through it on every seal, adoption, similarity
    /// publication and tombstone, so it can later be rebuilt by
    /// [`recover`](Self::recover).
    ///
    /// # Panics
    ///
    /// Panics if the configured file backend's directory cannot be opened or
    /// reset — a node whose durable medium is unusable must not come up.
    pub fn new(id: usize, config: &SigmaConfig) -> Self {
        let backend: Arc<dyn StorageBackend> = match config.storage_backend {
            BackendKind::Memory => Arc::new(MemoryBackend::new()),
            BackendKind::File => {
                let dir = config
                    .node_storage_dir(id)
                    .expect("validated: file backend has a storage root");
                Arc::new(FileBackend::open(dir).expect("open node storage directory"))
            }
        };
        for obj in backend.list().expect("scan node storage directory") {
            backend.delete(obj).expect("reset node storage directory");
        }
        let journal = config.durability.then(|| {
            Arc::new(Journal::with_backend(backend.clone()).expect("initialize journal object"))
        });
        Self::assemble(id, config, backend, journal)
    }

    /// The one place a node's structures are wired together, on the medium
    /// `backend`: `new` passes its journal for immediate write-through,
    /// `recover` passes none (replay must not append to the journal it is
    /// reading) and attaches it afterwards.
    fn assemble(
        id: usize,
        config: &SigmaConfig,
        backend: Arc<dyn StorageBackend>,
        journal: Option<Arc<Journal>>,
    ) -> Self {
        let mut store = ContainerStore::new(config.container_capacity).with_backend(backend);
        if let Some(journal) = &journal {
            store = store.with_journal(journal.clone());
        }
        DedupNode {
            id,
            chunk_index_fallback: config.chunk_index_fallback,
            similarity_index: SimilarityIndex::new(SIMILARITY_INDEX_LOCKS),
            cache: FingerprintCache::new(config.cache_containers),
            chunk_index: ChunkIndex::new(),
            store,
            logical_bytes: AtomicU64::new(0),
            total_chunks: AtomicU64::new(0),
            unique_chunks: AtomicU64::new(0),
            super_chunks: AtomicU64::new(0),
            open_fingerprints: Mutex::new(HashMap::new()),
            journal,
        }
    }

    /// Rebuilds a node from its medium — the journal and the container
    /// objects beside it on [`Journal::backend`] (crash recovery).
    ///
    /// The journal's torn tail — an append interrupted by the crash — is
    /// discarded, then every surviving record is replayed in order: container
    /// summaries are reinstalled under their original identifiers, the chunk
    /// index and similarity index are rebuilt, forwarding tombstones are
    /// restored (dropping the container they tombstone, exactly as the live
    /// path does), and the ingest counters come back from the last durable
    /// checkpoint.  Then the medium is checked against the replayed state: a
    /// container whose object is missing, has the wrong length or fails its
    /// checksum is discarded together with its chunk-index and similarity
    /// entries, and container objects no record claims are deleted.  The
    /// journal is then reattached as the recovered node's write-ahead log.
    ///
    /// The replay state machine is idempotent where the crash protocol needs it
    /// to be: a duplicated [`JournalRecord::ContainerAdopt`] is skipped by the
    /// origin-keyed adoption ledger, and re-upserted index entries overwrite
    /// themselves.
    ///
    /// # Errors
    ///
    /// Returns [`SigmaError::Storage`] when the journal holds an intact frame
    /// this version cannot decode, or a replayed container's object was
    /// written in another container format version (the medium is then left
    /// untouched: nothing is discarded or swept), or the medium cannot be
    /// read or swept.
    pub fn recover(
        id: usize,
        config: &SigmaConfig,
        journal: Arc<Journal>,
    ) -> Result<(Self, RecoveryReport)> {
        let mut node = Self::assemble(id, config, journal.backend(), None);
        let (records, summary) = journal.recover_truncating()?;
        let mut report = RecoveryReport {
            node_id: id,
            frames_replayed: summary.frames,
            bytes_replayed: summary.bytes_replayed,
            bytes_discarded: summary.bytes_discarded,
            ..RecoveryReport::default()
        };
        for record in records {
            node.apply_record(record, &mut report)?;
        }
        node.store.forget_compacted();
        let (discarded, orphans) = node.store.verify_objects()?;
        for lost in &discarded {
            node.drop_index_entries(lost);
        }
        report.backend_objects_verified = node.store.sealed_count() as u64;
        report.containers_discarded = discarded.len() as u64;
        report.orphan_objects_swept = orphans;
        node.prune_dangling_similarity_entries();
        node.store = node.store.with_journal(journal.clone());
        node.journal = Some(journal);
        Ok((node, report))
    }

    /// Rebuilds a node from the on-disk directory a previous *process* left
    /// behind — the restart path for [`BackendKind::File`] storage, where the
    /// journal handle itself did not survive.
    ///
    /// Opens `storage_root/node-<id>`, adopts the `journal.wal` found there and
    /// runs the ordinary [`recover`](Self::recover) against the directory
    /// (torn tails are truncated, container objects checked, orphans swept).
    ///
    /// # Errors
    ///
    /// Returns [`SigmaError::InvalidConfig`] when `config` does not select the
    /// file backend, and [`SigmaError::Storage`] when the directory cannot be
    /// opened or read, or [`recover`](Self::recover) refuses it.
    pub fn recover_from_dir(id: usize, config: &SigmaConfig) -> Result<(Self, RecoveryReport)> {
        let dir = config.node_storage_dir(id).ok_or_else(|| {
            SigmaError::InvalidConfig(
                "recover_from_dir requires storage_backend = file and a storage_root".to_string(),
            )
        })?;
        let backend: Arc<dyn StorageBackend> =
            Arc::new(FileBackend::open(dir).map_err(SigmaError::Storage)?);
        let journal = Arc::new(Journal::open(backend).map_err(SigmaError::Storage)?);
        Self::recover(id, config, journal)
    }

    /// Drops replayed similarity entries whose container never became durable.
    ///
    /// A `SimilarityPublish` record may name a container that was still *open*
    /// at the crash (its seal never journaled): the mapping points at data that
    /// no longer exists, would inflate resemblance counts, and — worse — the
    /// never-sealed container's ID is still allocatable, so a later seal could
    /// silently alias it.  Pruning restores the invariant that every similarity
    /// entry names a sealed or tombstoned container.
    fn prune_dangling_similarity_entries(&self) {
        let dangling: HashSet<ContainerId> = self
            .similarity_index
            .entries()
            .into_iter()
            .map(|(_, cid)| cid)
            .filter(|cid| !self.is_durable(cid))
            .collect();
        for cid in dangling {
            let _ = self.similarity_index.extract_container(cid);
        }
    }

    /// True if `container` is sealed here or tombstoned: the containers a
    /// journal snapshot and a recovered similarity index may name.
    fn is_durable(&self, container: &ContainerId) -> bool {
        matches!(
            self.store.state(container),
            ContainerState::Sealed | ContainerState::Migrated { .. }
        )
    }

    /// Applies one replayed journal record to this (journal-detached) node,
    /// through the same store transitions the live path takes.
    fn apply_record(&self, record: JournalRecord, report: &mut RecoveryReport) -> Result<()> {
        match record {
            JournalRecord::ContainerSeal { container } => {
                // The seal's record table is the journal's only copy of the
                // container's chunk-index entries: installing the container
                // indexes its chunks, in the one frame that makes it durable.
                self.index_container_records(&container);
                report.chunks_indexed += container.chunk_count() as u64;
                self.store.install_recovered(None, container);
                report.containers_recovered += 1;
            }
            JournalRecord::SimilarityPublish { container, rfps } => {
                for rfp in rfps {
                    self.similarity_index.insert(rfp, container);
                }
                report.similarity_entries += 1;
            }
            JournalRecord::ContainerAdopt {
                origin_node,
                origin_container,
                container,
                rfps,
            } => {
                let origin = Some((origin_node, origin_container));
                // Check-then-install is race-free here: replay is single-threaded
                // on a node nothing else references yet.
                if self.store.install_recovered(origin, container.clone()) {
                    self.index_container_records(&container);
                    report.chunks_indexed += container.chunk_count() as u64;
                    for rfp in rfps {
                        self.similarity_index.insert(rfp, container.id);
                    }
                    report.containers_recovered += 1;
                } else {
                    report.duplicate_adopts_skipped += 1;
                }
            }
            JournalRecord::Tombstone {
                container,
                successor,
            } => {
                self.retire_container(container, successor as usize)?;
                report.tombstones_restored += 1;
            }
            JournalRecord::RecipeDelete { .. } => {
                // Recipes are director state; the record is a durable witness
                // that later GC records were computed against a post-delete
                // root set (and a crash boundary between deletion and sweep).
                report.recipe_deletes_replayed += 1;
            }
            JournalRecord::GcCompact {
                victim,
                replacement,
                rfps,
            } => {
                // One atomic swap, exactly as the live sweep performed it: the
                // victim (installed by an earlier seal/adopt replay) goes, its
                // dead chunk entries with it; the replacement comes back with
                // its chunks indexed at their new offsets and the travelling
                // RFPs re-homed.
                if let Some(old) = self.store.install_compacted(victim, replacement.clone()) {
                    self.drop_index_entries(&old);
                }
                self.index_container_records(&replacement);
                for rfp in rfps {
                    self.similarity_index.insert(rfp, replacement.id);
                }
                report.gc_records_replayed += 1;
            }
            JournalRecord::GcDrop { container } => {
                // Unlike a tombstone, nothing forwards anywhere: the data was
                // unreferenced, so its index and similarity entries die with it.
                if let Some(old) = self.store.drop_sealed_gc(&container)? {
                    self.drop_index_entries(&old);
                }
                report.gc_records_replayed += 1;
            }
            JournalRecord::StatsCheckpoint {
                logical_bytes,
                total_chunks,
                unique_chunks,
                super_chunks,
            } => {
                self.logical_bytes.store(logical_bytes, Ordering::Relaxed);
                self.total_chunks.store(total_chunks, Ordering::Relaxed);
                self.unique_chunks.store(unique_chunks, Ordering::Relaxed);
                self.super_chunks.store(super_chunks, Ordering::Relaxed);
            }
            JournalRecord::Snapshot(snapshot) => {
                self.apply_snapshot(snapshot, report)?;
            }
        }
        Ok(())
    }

    /// Applies a compaction snapshot (always the first record of a compacted log).
    fn apply_snapshot(&self, snapshot: NodeSnapshot, report: &mut RecoveryReport) -> Result<()> {
        let NodeSnapshot {
            next_container_id,
            containers,
            chunk_entries,
            similarity,
            tombstones,
            logical_bytes,
            total_chunks,
            unique_chunks,
            super_chunks,
        } = snapshot;
        // Each table is indexed in snapshot order, as `compact_journal`
        // assumed when it kept only the entries the tables do not give; those
        // then go on top.
        for (origin, container) in containers {
            if self.store.install_recovered(origin, container.clone()) {
                self.index_container_records(&container);
                report.chunks_indexed += container.chunk_count() as u64;
                report.containers_recovered += 1;
            } else {
                report.duplicate_adopts_skipped += 1;
            }
        }
        report.chunks_indexed += chunk_entries.len() as u64;
        for (fp, loc) in chunk_entries {
            self.chunk_index.insert(fp, loc);
        }
        report.similarity_entries += similarity.len() as u64;
        for (rfp, cid) in similarity {
            self.similarity_index.insert(rfp, cid);
        }
        report.tombstones_restored += tombstones.len() as u64;
        for (cid, successor) in tombstones {
            self.store.retire_container(cid, successor)?;
        }
        self.store.restore_next_id(next_container_id);
        self.logical_bytes.store(logical_bytes, Ordering::Relaxed);
        self.total_chunks.store(total_chunks, Ordering::Relaxed);
        self.unique_chunks.store(unique_chunks, Ordering::Relaxed);
        self.super_chunks.store(super_chunks, Ordering::Relaxed);
        Ok(())
    }

    fn index_container_records(&self, container: &ContainerSummary) {
        for (fp, loc) in container.chunk_locations() {
            self.chunk_index.insert(fp, loc);
        }
    }

    /// Drops every chunk-index and similarity entry pointing at a container
    /// that is gone — collected by GC, or lost from the medium.
    fn drop_index_entries(&self, container: &ContainerSummary) {
        for record in &container.meta.records {
            self.chunk_index
                .remove_if_at(&record.fingerprint, container.id);
        }
        let _ = self.similarity_index.extract_container(container.id);
    }

    /// The node identifier.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Counts how many of a handprint's representative fingerprints this node has in
    /// its similarity index (the resemblance value returned to a pre-routing query,
    /// step 2 of Algorithm 1).
    pub fn resemblance_count(&self, handprint: &Handprint) -> usize {
        self.similarity_index
            .count_matches(handprint.representative_fingerprints())
    }

    /// Counts how many of the given chunk fingerprints this node already stores.
    ///
    /// Used by the *stateful* baseline router, which consults every node's stored
    /// state; the probe does not count as an index lookup (the paper's stateful
    /// scheme keeps a sampled in-RAM index for this purpose).
    pub fn count_stored_fingerprints(&self, fingerprints: &[Fingerprint]) -> usize {
        fingerprints
            .iter()
            .filter(|fp| self.chunk_index.contains_silent(fp))
            .count()
    }

    /// Physical bytes stored on this node — open, sealing and sealed
    /// containers alike (the storage-usage figure used for load balancing and
    /// skew metrics).
    pub fn storage_usage(&self) -> u64 {
        self.store.physical_bytes()
    }

    /// Logical bytes routed to this node so far.
    pub fn logical_bytes(&self) -> u64 {
        self.logical_bytes.load(Ordering::Relaxed)
    }

    /// Deduplicates one super-chunk arriving on `stream`.
    ///
    /// The handprint is passed in (rather than recomputed) because in the real
    /// protocol the backup client computes it once and sends it both to the routing
    /// candidates and to the target node.
    ///
    /// # Errors
    ///
    /// Returns an error if a unique chunk cannot be stored (e.g. it exceeds the
    /// container capacity).
    pub fn process_super_chunk(
        &self,
        stream: StreamId,
        super_chunk: &SuperChunk,
        handprint: &Handprint,
    ) -> Result<SuperChunkReceipt> {
        let mut receipt = SuperChunkReceipt {
            node_id: self.id,
            ..SuperChunkReceipt::default()
        };

        // Step 1 + 2: similarity-index lookup and container prefetch.
        let matched = self
            .similarity_index
            .matched_containers(handprint.representative_fingerprints());
        for cid in &matched {
            if !self.cache.contains_container(*cid) {
                if let Ok(meta) = self.store.read_metadata(cid) {
                    self.cache.insert_container(*cid, meta.fingerprints());
                    receipt.containers_prefetched += 1;
                    // A migration that retired the container after its
                    // metadata was read has already purged the cache, so
                    // look again and purge it here.
                    if !self.store.state(cid).is_local() {
                        self.cache.remove_container(*cid);
                    }
                }
            }
        }

        // Step 3: resolve each chunk.
        let mut first_target: Option<ContainerId> = None;
        for (descriptor, payload) in super_chunk.chunks() {
            let resolution = self.resolve_chunk(stream, descriptor, payload)?;
            match resolution {
                ChunkResolution::CacheHit => {
                    receipt.duplicate_chunks += 1;
                    receipt.duplicate_bytes += descriptor.len as u64;
                    receipt.cache_hits += 1;
                }
                ChunkResolution::IndexHit => {
                    receipt.duplicate_chunks += 1;
                    receipt.duplicate_bytes += descriptor.len as u64;
                    receipt.index_fallback_hits += 1;
                }
                ChunkResolution::OpenContainerHit => {
                    receipt.duplicate_chunks += 1;
                    receipt.duplicate_bytes += descriptor.len as u64;
                    receipt.cache_hits += 1;
                }
                ChunkResolution::Stored(container) => {
                    receipt.unique_chunks += 1;
                    receipt.unique_bytes += descriptor.len as u64;
                    if first_target.is_none() {
                        first_target = Some(container);
                    }
                }
            }
        }

        // Step 4: index the super-chunk's handprint under the container it went to.
        let target = first_target.or_else(|| matched.first().copied());
        if let Some(cid) = target {
            // Write-ahead: the publication is journaled before it lands in the
            // similarity index, so recovery rebuilds exactly the mappings that
            // reached the journal.  It is a routing hint, so its append is not
            // fsynced: the next seal or `try_flush` record makes it durable,
            // and a power cut before that costs deduplication, never data.
            if let Some(journal) = &self.journal {
                journal.append(&JournalRecord::SimilarityPublish {
                    container: cid,
                    rfps: handprint.representative_fingerprints().to_vec(),
                })?;
            }
            for rfp in handprint.representative_fingerprints() {
                self.similarity_index.insert(*rfp, cid);
            }
        }

        self.logical_bytes
            .fetch_add(super_chunk.logical_size(), Ordering::Relaxed);
        self.total_chunks
            .fetch_add(super_chunk.chunk_count() as u64, Ordering::Relaxed);
        self.unique_chunks
            .fetch_add(receipt.unique_chunks, Ordering::Relaxed);
        self.super_chunks.fetch_add(1, Ordering::Relaxed);
        Ok(receipt)
    }

    fn resolve_chunk(
        &self,
        stream: StreamId,
        descriptor: &ChunkDescriptor,
        payload: &[u8],
    ) -> Result<ChunkResolution> {
        let fp = descriptor.fingerprint;

        // Ingest deduplicates only against containers this node still holds
        // (open, sealing or sealed): a container migrated away can be
        // collected at the far end of its tombstone once no recipe reaches
        // it, and one compacted or collected here no longer holds its dead
        // chunks.  Every way out purges the container from the fingerprint
        // cache, so a cache hit needs no check; the chunk index keeps a
        // migrated container's entries for restores to follow, so a claim
        // checks the entry it finds.

        // 3a: chunk-fingerprint cache (container-locality hits).
        if self.cache.lookup(&fp).is_some() {
            return Ok(ChunkResolution::CacheHit);
        }

        // 3b: fingerprints already written to this stream's open container.
        {
            let open = self.open_fingerprints.lock();
            if let Some((cid, set)) = open.get(&stream) {
                if self.store.open_container(stream) == Some(*cid) && set.contains(&fp) {
                    return Ok(ChunkResolution::OpenContainerHit);
                }
            }
        }

        // An oversized chunk can never be stored, so it must be rejected *before*
        // any claim: if it were claimed first and the store then failed, a
        // concurrent stream racing on the same fingerprint would have seen
        // `Duplicate` and reported a successful backup referencing a chunk that
        // ends up existing nowhere.  Failing here keeps every racer on the same
        // error path the serial client takes.
        if descriptor.len as usize > self.store.container_capacity() {
            return Err(sigma_storage::StorageError::ChunkTooLarge {
                chunk_size: descriptor.len as usize,
                container_capacity: self.store.container_capacity(),
            }
            .into());
        }

        // 3c: optional on-disk chunk-index fallback.  In exact mode the index
        // doubles as the uniqueness arbiter: the fingerprint is *claimed* before
        // the chunk is appended to a container, so of several streams racing on the
        // same new fingerprint exactly one stores it and the rest see a duplicate.
        // This keeps the unique-chunk set — and the node's physical bytes —
        // identical whether super-chunks arrive serially or concurrently.
        if self.chunk_index_fallback {
            match self.chunk_index.claim(fp, |location| {
                self.store.state(&location.container).is_local()
            }) {
                ClaimOutcome::Duplicate => return Ok(ChunkResolution::IndexHit),
                ClaimOutcome::Claimed => {}
            }
        }

        // Unique: store it.
        let stored = match self.store.store_chunk(stream, fp, payload) {
            Ok(stored) => stored,
            Err(e) => {
                if self.chunk_index_fallback {
                    // Roll the claim back so a later, smaller-capacity retry (or
                    // another stream) can store the chunk.
                    self.chunk_index.abandon(&fp);
                }
                return Err(e.into());
            }
        };
        let location = ChunkLocation {
            container: stored.container,
            offset: stored.offset,
            len: stored.len,
        };
        if self.chunk_index_fallback {
            self.chunk_index.finalize(fp, location);
        } else {
            self.chunk_index.insert(fp, location);
        }
        // Track the open container's fingerprints for intra-container duplicate hits.
        {
            let mut open = self.open_fingerprints.lock();
            let entry = open
                .entry(stream)
                .or_insert_with(|| (stored.container, HashSet::new()));
            if entry.0 != stored.container {
                *entry = (stored.container, HashSet::new());
            }
            entry.1.insert(fp);
        }
        Ok(ChunkResolution::Stored(stored.container))
    }

    /// Reads a chunk's payload back (restore path).
    ///
    /// # Errors
    ///
    /// Returns [`SigmaError::ChunkMissing`] when the fingerprint is unknown to this
    /// node, and [`SigmaError::ChunkMigrated`] when the chunk's container was
    /// migrated away by the rebalancer — the error names the node now holding
    /// it, and [`DedupCluster`](crate::DedupCluster) restores follow that
    /// forwarding chain transparently.  Any other storage error, such as a
    /// record past its container's data section, passes through as
    /// [`SigmaError::Storage`].
    pub fn read_chunk(&self, fingerprint: &Fingerprint) -> Result<Vec<u8>> {
        let location =
            self.chunk_index
                .lookup(fingerprint)
                .ok_or_else(|| SigmaError::ChunkMissing {
                    node: self.id,
                    fingerprint: fingerprint.to_string(),
                })?;
        match self.store.read_chunk(&location.container, fingerprint) {
            Ok(data) => Ok(data),
            Err(sigma_storage::StorageError::ContainerNotFound(cid)) => {
                Err(self.not_here(&cid, fingerprint.to_string()))
            }
            Err(e) => Err(e.into()),
        }
    }

    /// The error for a chunk whose container this node no longer holds:
    /// [`SigmaError::ChunkMigrated`] when the container's entry is a
    /// forwarding tombstone, [`SigmaError::ChunkMissing`] otherwise.
    fn not_here(&self, container: &ContainerId, fingerprint: String) -> SigmaError {
        match self.store.state(container) {
            ContainerState::Migrated { successor } => SigmaError::ChunkMigrated {
                fingerprint,
                node: successor as usize,
            },
            _ => SigmaError::ChunkMissing {
                node: self.id,
                fingerprint,
            },
        }
    }

    /// Resolves a fingerprint to its record extent for the planned restore
    /// pipeline, with exactly [`read_chunk`](Self::read_chunk)'s error mapping
    /// (including the tombstone hop into [`SigmaError::ChunkMigrated`]) but
    /// without touching any payload.  The chunk-index lookup is counted
    /// identically to the serial path's.
    ///
    /// # Errors
    ///
    /// Same as [`read_chunk`](Self::read_chunk), except that a record past its
    /// container's data section is not detected here — it still resolves to
    /// an extent, and the batched read rejects it.
    pub fn plan_chunk_read(&self, fingerprint: &Fingerprint) -> Result<ChunkLocation> {
        let location =
            self.chunk_index
                .lookup(fingerprint)
                .ok_or_else(|| SigmaError::ChunkMissing {
                    node: self.id,
                    fingerprint: fingerprint.to_string(),
                })?;
        match self.store.state(&location.container) {
            ContainerState::Migrated { .. } | ContainerState::Absent => {
                Err(self.not_here(&location.container, fingerprint.to_string()))
            }
            _ => Ok(location),
        }
    }

    /// Reads a batch of chunk payloads out of one of this node's containers,
    /// decoding each directly into its output slice — the per-container unit
    /// of work of the restore pipeline (see
    /// [`ContainerStore::read_chunks_batched`]).
    ///
    /// # Errors
    ///
    /// Maps storage errors exactly as [`read_chunk`](Self::read_chunk) does:
    /// a migrated-away container as [`SigmaError::ChunkMigrated`] (or
    /// [`SigmaError::ChunkMissing`] when no tombstone points onward).  On error
    /// the output slices are partially written; the pipeline falls back to the
    /// serial path for the whole group.
    pub fn read_chunks_batched(
        &self,
        container: &ContainerId,
        fetches: &mut [sigma_storage::ChunkFetch<'_>],
    ) -> Result<sigma_storage::BatchedReadStats> {
        match self.store.read_chunks_batched(container, fetches) {
            Ok(stats) => Ok(stats),
            Err(sigma_storage::StorageError::ContainerNotFound(cid)) => {
                let fingerprint = fetches
                    .first()
                    .map(|f| f.fingerprint.to_string())
                    .unwrap_or_default();
                Err(self.not_here(&cid, fingerprint))
            }
            Err(e) => Err(e.into()),
        }
    }

    /// The container read cache's counters and occupancy.
    pub fn read_cache_stats(&self) -> sigma_storage::ReadCacheStats {
        self.store.read_cache_stats()
    }

    // ---- Garbage collection (used by `DedupCluster::collect_garbage`) ----

    /// The finalized chunk-index location of a fingerprint, without touching
    /// the lookup statistics — the GC mark phase's resolver.
    pub fn chunk_location(&self, fingerprint: &Fingerprint) -> Option<ChunkLocation> {
        self.chunk_index.lookup_silent(fingerprint)
    }

    /// Where `container` is in this node's lifecycle table: open, sealing,
    /// sealed, compacted into a replacement, migrated to a successor node
    /// (a forwarding tombstone), or absent.  One lookup, one answer.
    pub fn container_state(&self, container: &ContainerId) -> ContainerState {
        self.store.state(container)
    }

    /// Journals that a file recipe referencing this node was deleted; the
    /// note is durable with the next synced record (the sweep's first GC
    /// record, say), as its own append is not fsynced.
    ///
    /// Best-effort and advisory: recipes are director state, so the record has
    /// no structural replay effect — it witnesses that any later GC record was
    /// computed against a post-delete root set and gives fault plans a journal
    /// boundary between deletion and sweep.  A crashed journal is ignored (the
    /// deletion itself is a director-side fact either way; the node's next
    /// sweep will surface the crash).
    pub fn note_recipe_deleted(&self, file_id: u64) {
        if let Some(journal) = &self.journal {
            let _ = journal.append(&JournalRecord::RecipeDelete { file_id });
        }
    }

    /// Sweeps this node's sealed containers against the mark phase's live set.
    ///
    /// `live` maps each of this node's containers to the fingerprints some
    /// surviving recipe still references there (containers absent from the map
    /// are fully dead).  Containers with no live chunks are dropped; containers
    /// whose live fraction falls below `threshold` are *compacted* — their live
    /// chunks rewritten into a fresh container (the same install path an
    /// adopted migrated container takes) before the victim drops; everything
    /// else is kept, with its live/dead accounting refreshed.  Open containers
    /// are never touched.
    ///
    /// Every structural change is journaled write-ahead (`GcDrop` /
    /// `GcCompact`), so a crash at any record boundary recovers to a state the
    /// sweep can simply be re-run from.
    ///
    /// Must run at a GC-quiescent point: no concurrent backup may be
    /// deduplicating against containers this sweep might collect, or a chunk
    /// could be declared duplicate against data that is about to vanish.
    /// Restores and migrations are safe to interleave.
    ///
    /// # Errors
    ///
    /// Returns a crash error when the journal refuses an append; the sweep
    /// stops at that boundary (completed drops/compactions stand, the rest of
    /// the plan is untouched) and can be retried after recovery.
    pub fn sweep_garbage(
        &self,
        live: &HashMap<ContainerId, HashSet<Fingerprint>>,
        threshold: f64,
    ) -> Result<NodeGcReport> {
        let mut report = NodeGcReport {
            node_id: self.id,
            ..NodeGcReport::default()
        };
        // The previous sweep's compacted entries have served the readers that
        // raced it; this sweep leaves its own until the next one.
        self.store.forget_compacted();
        let empty = HashSet::new();
        for cid in self.store.sealed_container_ids() {
            let live_fps = live.get(&cid).unwrap_or(&empty);
            let Some(acct) = self.store.container_liveness(&cid, live_fps) else {
                continue;
            };
            report.containers_scanned += 1;
            if acct.live_chunks == 0 {
                if let Some(dropped) = self.store.drop_sealed_gc(&cid)? {
                    self.drop_index_entries(&dropped);
                    self.cache.remove_container(cid);
                    report.containers_dropped += 1;
                    report.chunks_discarded += dropped.chunk_count() as u64;
                    report.bytes_reclaimed += dropped.data_size() as u64;
                }
            } else if acct.dead_chunks > 0 && acct.liveness() < threshold {
                // The RFPs are peeked (not extracted) before the durable
                // append, mirroring a migration: if the append crashes, the
                // victim — and its similarity state — is untouched.
                let rfps = self.similarity_index.peek_container(cid);
                if let Some(outcome) = self.store.compact_container(&cid, live_fps, &rfps)? {
                    self.cache.remove_container(cid);
                    for record in &outcome.dead_records {
                        self.chunk_index.remove_if_at(&record.fingerprint, cid);
                    }
                    for record in &outcome.live_records {
                        self.chunk_index.retarget(
                            &record.fingerprint,
                            cid,
                            ChunkLocation {
                                container: outcome.replacement,
                                offset: record.offset,
                                len: record.len,
                            },
                        );
                    }
                    let moved = self.similarity_index.extract_container(cid);
                    for rfp in moved {
                        self.similarity_index.insert(rfp, outcome.replacement);
                    }
                    report.containers_compacted += 1;
                    report.chunks_discarded += outcome.dead_records.len() as u64;
                    report.bytes_reclaimed += outcome.reclaimed_bytes;
                }
            } else if acct.dead_chunks > 0 {
                report.containers_kept_partial += 1;
            }
        }
        Ok(report)
    }

    // ---- Elastic-membership support (used by the cluster's `Rebalancer`) ----

    /// Identifiers of every sealed container on this node, sorted ascending.
    pub fn sealed_container_ids(&self) -> Vec<ContainerId> {
        self.store.sealed_container_ids()
    }

    /// Logical data-section size of a sealed container, if it exists.
    pub fn container_data_size(&self, container: &ContainerId) -> Option<usize> {
        self.store.sealed_data_size(container)
    }

    /// Reads a sealed container out of this node for migration; `Ok(None)`
    /// when it is not sealed here.
    /// The container remains readable here until
    /// [`retire_container`](Self::retire_container) completes the hand-off.
    ///
    /// # Errors
    ///
    /// Returns [`SigmaError::Storage`] when the container's object cannot be
    /// read.  The bytes are not re-hashed on export: the container carries its
    /// journaled checksum, so a section that rotted here is caught by the
    /// destination's next recovery, which discards it (see
    /// [`ContainerStore::export_sealed`](sigma_storage::ContainerStore::export_sealed)).
    pub fn export_container(&self, container: &ContainerId) -> Result<Option<Container>> {
        Ok(self.store.export_sealed(container)?)
    }

    /// The similarity-index entries (representative fingerprints) currently
    /// pointing at `container`, without removing them.
    ///
    /// This is what a migration hands to the destination's
    /// [`adopt_container`](Self::adopt_container): the source keeps its entries
    /// until [`retire_container`](Self::retire_container) — so a destination
    /// that crashes mid-adopt leaves the source's similarity state untouched.
    pub fn similarity_entries_for(&self, container: ContainerId) -> Vec<Fingerprint> {
        self.similarity_index.peek_container(container)
    }

    /// Removes and returns the similarity-index entries (representative
    /// fingerprints) pointing at `container`, for re-insertion on the destination
    /// node under the container's new identifier.
    pub fn take_similarity_entries(&self, container: ContainerId) -> Vec<Fingerprint> {
        self.similarity_index.extract_container(container)
    }

    /// Adopts a container migrated from node `origin_node`.
    ///
    /// The container is re-identified in this node's ID space, every chunk record
    /// is indexed at its new location, and the given representative fingerprints
    /// are mapped to the new container so future similar super-chunks deduplicate
    /// here.  Returns the container's new local identifier.
    ///
    /// Adoption is **idempotent** per `(origin node, origin container)`: a
    /// retried rebalance step (or a replayed migration record) that adopts the
    /// same origin again gets the existing local identifier back and stores
    /// nothing twice.
    ///
    /// # Errors
    ///
    /// Returns a crash error when the write-ahead journal refuses the append; the
    /// adoption then never happened, and the source still owns the container.
    pub fn adopt_container(
        &self,
        origin_node: usize,
        container: Container,
        rfps: &[Fingerprint],
    ) -> Result<ContainerId> {
        let records: Vec<sigma_storage::ChunkRecord> = container.meta().records.clone();
        let new_id = self
            .store
            .adopt_sealed(origin_node as u64, container, rfps)?;
        for record in records {
            self.chunk_index.insert(
                record.fingerprint,
                ChunkLocation {
                    container: new_id,
                    offset: record.offset,
                    len: record.len,
                },
            );
        }
        for rfp in rfps {
            self.similarity_index.insert(*rfp, new_id);
        }
        Ok(new_id)
    }

    /// Completes the migration of `container` to node `successor`: the
    /// `Tombstone` record is journaled, one swap turns the container's entry
    /// into a forwarding tombstone, and only then is its object deleted.  A
    /// restore racing with the hand-off either still reads the chunk locally
    /// or gets [`SigmaError::ChunkMigrated`] — also when its read of the
    /// object was already under way — so there is no window in which the
    /// chunk is unreachable, live or across a crash.  Journal replay of a
    /// `Tombstone` runs this same method.
    ///
    /// # Errors
    ///
    /// Returns a crash error when the journal refuses the tombstone append; the
    /// data is then *not* dropped (the destination may hold a duplicate copy,
    /// which [`DedupCluster::restart_node`](crate::DedupCluster::restart_node)
    /// reconciles after recovery).
    pub fn retire_container(&self, container: ContainerId, successor: usize) -> Result<()> {
        self.store.retire_container(container, successor as u64)?;
        // The similarity entries travelled with the container (the destination
        // re-published them at adopt time); dropping any stragglers here keeps
        // the live path, the reconciliation path and Tombstone replay identical:
        // a retired container never answers resemblance queries again.
        let _ = self.similarity_index.extract_container(container);
        // Nor does it answer ingest.  A duplicate a concurrent backup counted
        // against it before this purge is safe: its recipe reaches the
        // successor's copy through the tombstone, so the GC mark keeps it.
        self.cache.remove_container(container);
        Ok(())
    }

    /// The adoption ledger: `(origin node, origin container, local container)`
    /// for every container this node adopted, sorted for deterministic
    /// reconciliation sweeps.
    pub fn adopted_origins(&self) -> Vec<(usize, ContainerId, ContainerId)> {
        self.store
            .adopted_origins()
            .into_iter()
            .map(|(node, origin, local)| (node as usize, origin, local))
            .collect()
    }

    /// Seals all open containers and journals a stats checkpoint — the durable
    /// acknowledgement point: once `try_flush` returns `Ok`, everything ingested
    /// so far survives a crash.  It first finishes the rollover seal whose
    /// object is being written beside ingest (a full container's seal is
    /// journaled at the store's next rollover or here, never at an instant
    /// that depends on the sealer thread), then seals the rest in the same
    /// group commit.  The checkpoint's fsync also makes durable the
    /// similarity publishes journaled unsynced since the last synced record.
    ///
    /// # Errors
    ///
    /// Returns the error a seal hit: a journal crash or a failed object
    /// write, including one a rollover's sealer thread hit since the last
    /// rollover.  Containers whose seal failed stay readable, and the next
    /// flush seals them again; after a crash they never became durable, and
    /// recovery drops them as the crash would.
    pub fn try_flush(&self) -> Result<()> {
        self.store.flush()?;
        self.open_fingerprints.lock().clear();
        if let Some(journal) = &self.journal {
            journal.append(&JournalRecord::StatsCheckpoint {
                logical_bytes: self.logical_bytes.load(Ordering::Relaxed),
                total_chunks: self.total_chunks.load(Ordering::Relaxed),
                unique_chunks: self.unique_chunks.load(Ordering::Relaxed),
                super_chunks: self.super_chunks.load(Ordering::Relaxed),
            })?;
        }
        Ok(())
    }

    /// Finishes the rollover seal whose object is being written beside
    /// ingest, if any, ignoring the error a crashed journal gives.  A restart
    /// calls this on the incarnation it discards before recovery lists and
    /// sweeps the medium, so no write of the dead node lands after it.
    pub(crate) fn finish_rollover_seal(&self) {
        let _ = self.store.finish_rollover_seal();
    }

    /// The node's write-ahead journal, when durability is enabled.
    pub fn journal(&self) -> Option<&Arc<Journal>> {
        self.journal.as_ref()
    }

    /// True once the node's journal hit a crash point; the node must be rebuilt
    /// via [`recover`](Self::recover) (or
    /// [`DedupCluster::restart_node`](crate::DedupCluster::restart_node)).
    pub fn crashed(&self) -> bool {
        self.journal.as_ref().is_some_and(|j| j.crashed())
    }

    /// Folds the journal into a single snapshot frame.
    ///
    /// Call at a quiescent point (no in-flight backups or migrations on this
    /// node); the snapshot captures sealed state only, so anything still open is
    /// — by the durability contract — not yet acknowledged anyway.
    ///
    /// # Errors
    ///
    /// Returns a crash error if the journal has crashed, and an invalid-config
    /// error if the node has no journal.
    pub fn compact_journal(&self) -> Result<()> {
        let journal = self
            .journal
            .as_ref()
            .ok_or_else(|| SigmaError::InvalidConfig("node has no journal".to_string()))?;
        // The sealed containers' record tables are the snapshot's copy of the
        // chunk index: replay indexes them in this order, so an entry goes
        // into `chunk_entries` only when the tables would not give it — one
        // naming a tombstoned container, or another sealed copy of the chunk.
        //
        // The snapshot may only name *durable* containers.  Index entries that
        // point at a still-open container describe unacknowledged chunks; if
        // they were snapshotted, recovery would install phantom entries whose
        // claim() answers "duplicate" for data that exists nowhere — silently
        // corrupting a later acknowledged backup.  Dropping them mirrors what
        // a crash does to the live journal: the open tail simply never existed,
        // and a chunk stored again there stays indexed at its sealed copy.
        let containers = self.store.sealed_snapshot();
        let from_tables: HashMap<Fingerprint, ChunkLocation> = containers
            .iter()
            .flat_map(|(_, container)| container.chunk_locations())
            .collect();
        let snapshot = NodeSnapshot {
            next_container_id: self.store.peek_next_id(),
            chunk_entries: self
                .chunk_index
                .finalized_entries()
                .into_iter()
                .filter(|(fp, loc)| {
                    self.is_durable(&loc.container) && from_tables.get(fp) != Some(loc)
                })
                .collect(),
            containers,
            similarity: self
                .similarity_index
                .entries()
                .into_iter()
                .filter(|(_, cid)| self.is_durable(cid))
                .collect(),
            tombstones: self.store.tombstones(),
            logical_bytes: self.logical_bytes.load(Ordering::Relaxed),
            total_chunks: self.total_chunks.load(Ordering::Relaxed),
            unique_chunks: self.unique_chunks.load(Ordering::Relaxed),
            super_chunks: self.super_chunks.load(Ordering::Relaxed),
        };
        journal.compact(snapshot)?;
        Ok(())
    }

    /// Structural consistency check used by the crash-recovery suites: every
    /// finalized chunk-index entry must resolve to a present, open or tombstoned
    /// container, and the store's byte/chunk counters must match its contents.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn verify_consistency(&self) -> std::result::Result<(), String> {
        // Index entries may name a container held here (open, sealing or
        // sealed) or tombstoned; never one compacted away or absent.
        let resolvable = |cid: &ContainerId| {
            !matches!(
                self.store.state(cid),
                ContainerState::Compacted { .. } | ContainerState::Absent
            )
        };
        for (fp, loc) in self.chunk_index.finalized_entries() {
            if !resolvable(&loc.container) {
                return Err(format!(
                    "chunk {} points at container {} which is neither stored nor tombstoned on node {}",
                    fp, loc.container, self.id
                ));
            }
        }
        for (rfp, cid) in self.similarity_index.entries() {
            if !resolvable(&cid) {
                return Err(format!(
                    "similarity entry {} points at container {} which is neither stored nor tombstoned on node {}",
                    rfp, cid, self.id
                ));
            }
        }
        let mut bytes = 0u64;
        let mut chunks = 0u64;
        for (_, container) in self.store.sealed_snapshot() {
            bytes += container.data_size() as u64;
            chunks += container.chunk_count() as u64;
        }
        let stats = self.store.stats();
        if stats.stored_bytes != bytes {
            return Err(format!(
                "store counts {} stored bytes but containers hold {}",
                stats.stored_bytes, bytes
            ));
        }
        if stats.stored_chunks != chunks {
            return Err(format!(
                "store counts {} stored chunks but containers hold {}",
                stats.stored_chunks, chunks
            ));
        }
        // The same figure derived from the storage *backend* (decoded from the
        // container objects actually on the medium) must agree with the
        // counter- and directory-derived figures above: no orphan object, no
        // missing one.
        match self.store.backend_physical_bytes() {
            Ok(backend_bytes) => {
                if backend_bytes != bytes {
                    return Err(format!(
                        "storage backend holds {} bytes of container objects but the directory holds {}",
                        backend_bytes, bytes
                    ));
                }
            }
            Err(e) => return Err(format!("storage backend unreadable: {}", e)),
        }
        Ok(())
    }

    /// The node's deduplication ratio (logical bytes / physical bytes); 1.0 when no
    /// data has been stored.
    pub fn dedup_ratio(&self) -> f64 {
        let physical = self.storage_usage();
        if physical == 0 {
            1.0
        } else {
            self.logical_bytes() as f64 / physical as f64
        }
    }

    /// Point-in-time statistics.
    pub fn stats(&self) -> NodeStats {
        NodeStats {
            node_id: self.id,
            logical_bytes: self.logical_bytes(),
            physical_bytes: self.storage_usage(),
            total_chunks: self.total_chunks.load(Ordering::Relaxed),
            unique_chunks: self.unique_chunks.load(Ordering::Relaxed),
            super_chunks: self.super_chunks.load(Ordering::Relaxed),
            dedup_ratio: self.dedup_ratio(),
            similarity_index: self.similarity_index.stats(),
            cache: self.cache.stats(),
            chunk_index: self.chunk_index.stats(),
            containers: self.store.stats(),
            similarity_index_ram_bytes: self.similarity_index.estimated_ram_bytes() as u64,
            chunk_index_bytes: self.chunk_index.estimated_bytes() as u64,
        }
    }
}

enum ChunkResolution {
    CacheHit,
    OpenContainerHit,
    IndexHit,
    Stored(ContainerId),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SuperChunkBuilder;
    use sigma_hashkit::{Digest, FingerprintAlgorithm, Sha1};
    use sigma_storage::{StorageError, StorageObject};

    fn config() -> SigmaConfig {
        SigmaConfig::builder()
            .super_chunk_size(64 * 1024)
            .container_capacity(256 * 1024)
            .cache_containers(8)
            .build()
            .unwrap()
    }

    fn payload_super_chunk(seed: u8, chunks: usize, chunk_len: usize) -> SuperChunk {
        let data: Vec<Vec<u8>> = (0..chunks)
            .map(|i| {
                (0..chunk_len)
                    .map(|j| seed.wrapping_add((i * 31 + j) as u8))
                    .collect()
            })
            .collect();
        SuperChunk::from_payloads(FingerprintAlgorithm::Sha1, 0, data)
    }

    /// One super-chunk of a chunk per id, fingerprinted `Sha1(id)` and
    /// `len` bytes of the id's low byte.
    fn id_super_chunk(ids: &[u64], len: u32) -> SuperChunk {
        let mut builder = SuperChunkBuilder::new(usize::MAX);
        for &i in ids {
            let descriptor = ChunkDescriptor::new(Sha1::fingerprint(&i.to_le_bytes()), len);
            assert!(builder
                .push_chunk(descriptor, vec![i as u8; len as usize])
                .is_none());
        }
        builder.finish().expect("at least one id")
    }

    #[test]
    fn unique_then_duplicate_super_chunk() {
        let node = DedupNode::new(3, &config());
        let sc = payload_super_chunk(1, 16, 4096);
        let hp = sc.handprint(8);
        let first = node.process_super_chunk(0, &sc, &hp).unwrap();
        assert_eq!(first.node_id, 3);
        assert_eq!(first.unique_chunks, 16);
        assert_eq!(first.duplicate_chunks, 0);
        assert_eq!(first.unique_bytes, 16 * 4096);

        let second = node.process_super_chunk(0, &sc, &hp).unwrap();
        assert_eq!(second.unique_chunks, 0);
        assert_eq!(second.duplicate_chunks, 16);
        assert_eq!(second.total_chunks(), 16);
        assert_eq!(second.logical_bytes(), 16 * 4096);

        let stats = node.stats();
        assert_eq!(stats.logical_bytes, 2 * 16 * 4096);
        assert_eq!(stats.physical_bytes, 16 * 4096);
        assert!((stats.dedup_ratio - 2.0).abs() < 1e-9);
        assert_eq!(stats.super_chunks, 2);
    }

    #[test]
    fn duplicates_within_one_super_chunk_are_caught() {
        let node = DedupNode::new(0, &config());
        // The same chunk id repeated many times inside one super-chunk.
        let sc = id_super_chunk(&[7, 7, 7, 7, 8], 4096);
        let hp = sc.handprint(8);
        let r = node.process_super_chunk(0, &sc, &hp).unwrap();
        assert_eq!(r.unique_chunks, 2);
        assert_eq!(r.duplicate_chunks, 3);
    }

    #[test]
    fn similarity_only_mode_still_detects_similar_super_chunks() {
        let cfg = SigmaConfig::builder()
            .super_chunk_size(64 * 1024)
            .chunk_index_fallback(false)
            .cache_containers(8)
            .build()
            .unwrap();
        let node = DedupNode::new(0, &cfg);
        let sc = id_super_chunk(&(0..64).collect::<Vec<u64>>(), 4096);
        let hp = sc.handprint(8);
        node.process_super_chunk(0, &sc, &hp).unwrap();
        node.try_flush().unwrap();
        // The identical super-chunk arrives again: the handprint matches, the
        // container is prefetched, every chunk hits the cache.
        let r = node.process_super_chunk(0, &sc, &hp).unwrap();
        assert_eq!(r.duplicate_chunks, 64);
        assert_eq!(r.unique_chunks, 0);
        assert!(r.containers_prefetched >= 1);
    }

    #[test]
    fn similarity_only_mode_misses_dissimilar_duplicates() {
        // Without the chunk-index fallback, duplicates arriving in a super-chunk
        // whose handprint does not match anything go undetected — that is the
        // approximate-dedup trade-off of Fig. 5(b).
        let cfg = SigmaConfig::builder()
            .chunk_index_fallback(false)
            .cache_containers(8)
            .build()
            .unwrap();
        let node = DedupNode::new(0, &cfg);
        // First super-chunk: chunks 0..64.
        let a = id_super_chunk(&(0..64).collect::<Vec<u64>>(), 4096);
        node.process_super_chunk(0, &a, &a.handprint(8)).unwrap();
        node.try_flush().unwrap();
        // Second super-chunk shares only one low-similarity chunk and has a disjoint
        // handprint (we force that by computing the handprint from different data).
        let mut ids: Vec<u64> = (1000..1063).collect();
        ids.push(5); // one duplicate chunk hidden among new data
        let b = id_super_chunk(&ids, 4096);
        // Handprint intentionally computed only over the new chunks so it cannot
        // match the stored container.
        let hp_b = Handprint::from_fingerprints(
            ids[..32]
                .iter()
                .map(|i| Sha1::fingerprint(&i.to_le_bytes())),
            8,
        );
        let r = node.process_super_chunk(0, &b, &hp_b).unwrap();
        // The hidden duplicate may or may not be caught via the open container (it is
        // a different container), so in similarity-only mode it is stored again.
        assert_eq!(r.duplicate_chunks, 0);
        assert_eq!(r.unique_chunks, 64);

        // With the fallback enabled the same scenario catches the duplicate.
        let exact = DedupNode::new(1, &SigmaConfig::default());
        exact.process_super_chunk(0, &a, &a.handprint(8)).unwrap();
        exact.try_flush().unwrap();
        let r2 = exact.process_super_chunk(0, &b, &hp_b).unwrap();
        assert_eq!(r2.duplicate_chunks, 1);
    }

    #[test]
    fn oversized_chunk_fails_before_claiming_its_fingerprint() {
        let node = DedupNode::new(0, &config());
        // 300 KB chunk vs. 256 KB containers: must fail up front, leaving the
        // fingerprint unclaimed so no racer can mistake it for a duplicate.
        let sc = id_super_chunk(&[7], 300 * 1024);
        let fp = sc.descriptors()[0].fingerprint;
        assert!(node.process_super_chunk(0, &sc, &sc.handprint(4)).is_err());
        assert_eq!(node.count_stored_fingerprints(&[fp]), 0);
        // The same fingerprint with a storable length is still accepted later.
        let ok = id_super_chunk(&[7], 4096);
        let receipt = node.process_super_chunk(0, &ok, &ok.handprint(4)).unwrap();
        assert_eq!(receipt.unique_chunks, 1);
    }

    #[test]
    fn read_back_restores_payloads() {
        let node = DedupNode::new(0, &config());
        let sc = payload_super_chunk(9, 8, 1024);
        let hp = sc.handprint(8);
        node.process_super_chunk(0, &sc, &hp).unwrap();
        node.try_flush().unwrap();
        for (i, d) in sc.descriptors().iter().enumerate() {
            let data = node.read_chunk(&d.fingerprint).unwrap();
            assert_eq!(data.as_slice(), sc.payload(i).unwrap());
        }
    }

    #[test]
    fn read_chunk_errors() {
        let node = DedupNode::new(0, &config());
        let missing = Sha1::fingerprint(b"never stored");
        assert!(matches!(
            node.read_chunk(&missing),
            Err(SigmaError::ChunkMissing { .. })
        ));

        // A storage error passes through as itself: here the object holding
        // the chunk's bytes is gone.
        let backend = Arc::new(FaultyBackend::default());
        let node = node_over(backend.clone());
        let sc = payload_super_chunk(3, 4, 512);
        node.process_super_chunk(0, &sc, &sc.handprint(4)).unwrap();
        node.try_flush().unwrap();
        for obj in backend.list().unwrap() {
            if matches!(obj, StorageObject::Container(_)) {
                backend.delete(obj).unwrap();
            }
        }
        assert!(matches!(
            node.read_chunk(&sc.descriptors()[0].fingerprint),
            Err(SigmaError::Storage(StorageError::Io(_)))
        ));
    }

    #[test]
    fn resemblance_count_reflects_similarity_index() {
        let node = DedupNode::new(0, &config());
        let sc = id_super_chunk(&(0..32).collect::<Vec<u64>>(), 4096);
        let hp = sc.handprint(8);
        assert_eq!(node.resemblance_count(&hp), 0);
        node.process_super_chunk(0, &sc, &hp).unwrap();
        assert_eq!(node.resemblance_count(&hp), 8);
        // A disjoint super-chunk has zero resemblance.
        let other = id_super_chunk(&(100..132).collect::<Vec<u64>>(), 4096);
        assert_eq!(node.resemblance_count(&other.handprint(8)), 0);
    }

    #[test]
    fn count_stored_fingerprints_for_stateful_routing() {
        let node = DedupNode::new(0, &config());
        let sc = id_super_chunk(&(0..16).collect::<Vec<u64>>(), 4096);
        node.process_super_chunk(0, &sc, &sc.handprint(8)).unwrap();
        let probe: Vec<Fingerprint> = (8..24u64)
            .map(|i| Sha1::fingerprint(&i.to_le_bytes()))
            .collect();
        assert_eq!(node.count_stored_fingerprints(&probe), 8);
    }

    fn durable_config() -> SigmaConfig {
        SigmaConfig::builder()
            .super_chunk_size(64 * 1024)
            .container_capacity(16 * 1024)
            .cache_containers(8)
            .durability(true)
            .build()
            .unwrap()
    }

    #[test]
    fn recovery_rebuilds_flushed_state_byte_identically() {
        let cfg = durable_config();
        let node = DedupNode::new(4, &cfg);
        let sc = payload_super_chunk(11, 16, 4096);
        let hp = sc.handprint(8);
        node.process_super_chunk(0, &sc, &hp).unwrap();
        node.try_flush().unwrap();
        let stats_before = node.stats();
        let journal = node.journal().unwrap().clone();
        drop(node); // the crash: all in-memory state gone, the journal survives

        let (recovered, report) = DedupNode::recover(4, &cfg, journal).unwrap();
        assert_eq!(report.node_id, 4);
        assert!(report.containers_recovered > 0);
        assert_eq!(report.bytes_discarded, 0);
        for (i, d) in sc.descriptors().iter().enumerate() {
            assert_eq!(
                recovered.read_chunk(&d.fingerprint).unwrap(),
                sc.payload(i).unwrap()
            );
        }
        let stats_after = recovered.stats();
        assert_eq!(stats_after.physical_bytes, stats_before.physical_bytes);
        assert_eq!(stats_after.logical_bytes, stats_before.logical_bytes);
        assert_eq!(stats_after.unique_chunks, stats_before.unique_chunks);
        assert_eq!(recovered.resemblance_count(&hp), hp.size());
        recovered.verify_consistency().unwrap();
        // The journal is live again: the recovered node keeps journaling.
        let sc2 = payload_super_chunk(99, 4, 4096);
        recovered
            .process_super_chunk(0, &sc2, &sc2.handprint(4))
            .unwrap();
        recovered.try_flush().unwrap();
    }

    #[test]
    fn recovery_drops_unflushed_open_containers() {
        let cfg = durable_config();
        let node = DedupNode::new(0, &cfg);
        // First super-chunk flushed (acknowledged), second one left open.
        let acked = payload_super_chunk(1, 8, 2048);
        node.process_super_chunk(0, &acked, &acked.handprint(4))
            .unwrap();
        node.try_flush().unwrap();
        let lost = payload_super_chunk(2, 2, 1024);
        node.process_super_chunk(0, &lost, &lost.handprint(4))
            .unwrap();
        let physical_at_ack = {
            let journal = node.journal().unwrap().clone();
            let (recovered, _) = DedupNode::recover(0, &cfg, journal).unwrap();
            // Acked chunks are all there; the open container's chunks are gone.
            for (i, d) in acked.descriptors().iter().enumerate() {
                assert_eq!(
                    recovered.read_chunk(&d.fingerprint).unwrap(),
                    acked.payload(i).unwrap()
                );
            }
            assert!(recovered
                .read_chunk(&lost.descriptors()[0].fingerprint)
                .is_err());
            recovered.verify_consistency().unwrap();
            recovered.storage_usage()
        };
        // Torn tail rule: physical bytes only ever shrink back to the ack point.
        assert!(physical_at_ack <= node.storage_usage());
    }

    #[test]
    fn compaction_preserves_recovery_and_shrinks_the_journal() {
        let cfg = durable_config();
        let node = DedupNode::new(0, &cfg);
        for seed in 0..6u8 {
            let sc = payload_super_chunk(seed, 8, 2048);
            node.process_super_chunk(seed as u64, &sc, &sc.handprint(4))
                .unwrap();
        }
        node.try_flush().unwrap();
        let journal = node.journal().unwrap().clone();
        let long = journal.len_bytes();
        let stats_before = node.stats();
        node.compact_journal().unwrap();
        assert!(journal.len_bytes() < long, "snapshot must fold the log");

        let (recovered, report) = DedupNode::recover(0, &cfg, journal).unwrap();
        assert_eq!(report.frames_replayed, 1, "one snapshot frame");
        let stats_after = recovered.stats();
        assert_eq!(stats_after.physical_bytes, stats_before.physical_bytes);
        assert_eq!(stats_after.logical_bytes, stats_before.logical_bytes);
        assert_eq!(
            stats_after.containers.sealed_containers,
            stats_before.containers.sealed_containers
        );
        recovered.verify_consistency().unwrap();
        // Post-compaction ingest still lands in fresh container IDs.
        let sc = payload_super_chunk(77, 4, 2048);
        recovered
            .process_super_chunk(0, &sc, &sc.handprint(4))
            .unwrap();
        recovered.try_flush().unwrap();
        recovered.verify_consistency().unwrap();
    }

    #[test]
    fn compaction_with_open_containers_does_not_snapshot_phantom_entries() {
        // Regression: compacting while a container is still open must not
        // snapshot that container's chunk-index entries — recovery would
        // otherwise install phantom entries whose claim() reports "duplicate"
        // for chunks that exist nowhere, silently corrupting a later
        // acknowledged backup of the same data.
        let cfg = durable_config();
        let node = DedupNode::new(0, &cfg);
        let acked = payload_super_chunk(1, 4, 2048);
        node.process_super_chunk(0, &acked, &acked.handprint(4))
            .unwrap();
        node.try_flush().unwrap();
        // This super-chunk stays in an open container across the compaction.
        let pending = payload_super_chunk(2, 3, 1024);
        node.process_super_chunk(0, &pending, &pending.handprint(4))
            .unwrap();
        node.compact_journal().unwrap();

        let journal = node.journal().unwrap().clone();
        let (recovered, _) = DedupNode::recover(0, &cfg, journal).unwrap();
        recovered.verify_consistency().unwrap();
        // The pending chunks died with the crash; re-ingesting them must store
        // them for real, and the re-acknowledged data must be restorable.
        let receipt = recovered
            .process_super_chunk(0, &pending, &pending.handprint(4))
            .unwrap();
        assert_eq!(
            receipt.unique_chunks, 3,
            "phantom snapshot entries must not swallow the re-ingest"
        );
        recovered.try_flush().unwrap();
        for (i, d) in pending.descriptors().iter().enumerate() {
            assert_eq!(
                recovered.read_chunk(&d.fingerprint).unwrap(),
                pending.payload(i).unwrap()
            );
        }
        for (i, d) in acked.descriptors().iter().enumerate() {
            assert_eq!(
                recovered.read_chunk(&d.fingerprint).unwrap(),
                acked.payload(i).unwrap()
            );
        }
    }

    #[test]
    fn compaction_in_approximate_mode_keeps_acknowledged_chunks() {
        // Without the chunk-index fallback, an acknowledged chunk arriving
        // again under an unrelated handprint is stored again, in an open
        // container, and its index entry moves there.  The snapshot must
        // still recover the sealed, acknowledged copy.
        let cfg = SigmaConfig::builder()
            .super_chunk_size(64 * 1024)
            .container_capacity(16 * 1024)
            .cache_containers(8)
            .chunk_index_fallback(false)
            .durability(true)
            .build()
            .unwrap();
        let node = DedupNode::new(0, &cfg);
        let acked = payload_super_chunk(1, 4, 2048);
        node.process_super_chunk(0, &acked, &acked.handprint(4))
            .unwrap();
        node.try_flush().unwrap();
        let unrelated = payload_super_chunk(9, 4, 2048).handprint(4);
        let receipt = node.process_super_chunk(0, &acked, &unrelated).unwrap();
        assert_eq!(receipt.unique_chunks, 4, "stored again, left open");
        node.compact_journal().unwrap();

        let journal = node.journal().unwrap().clone();
        let (recovered, _) = DedupNode::recover(0, &cfg, journal).unwrap();
        recovered.verify_consistency().unwrap();
        for (i, d) in acked.descriptors().iter().enumerate() {
            assert_eq!(
                recovered.read_chunk(&d.fingerprint).unwrap(),
                acked.payload(i).unwrap()
            );
        }
    }

    #[test]
    fn replay_of_duplicated_adopt_records_cannot_double_adopt() {
        let cfg = durable_config();
        let donor = DedupNode::new(1, &cfg);
        let sc = payload_super_chunk(5, 8, 2048);
        donor.process_super_chunk(0, &sc, &sc.handprint(4)).unwrap();
        donor.try_flush().unwrap();
        let cid = donor.sealed_container_ids()[0];
        let exported = donor.export_container(&cid).unwrap().unwrap();
        let rfps = donor.take_similarity_entries(cid);

        // An adopter whose journal ends up with the same migration record twice
        // (e.g. a retried step replayed on top of the original).
        let adopter = DedupNode::new(2, &cfg);
        adopter.adopt_container(1, exported.clone(), &rfps).unwrap();
        let journal = adopter.journal().unwrap();
        journal
            .append(&JournalRecord::ContainerAdopt {
                origin_node: 1,
                origin_container: cid,
                container: exported
                    .clone()
                    .with_id(sigma_storage::ContainerId::new(999))
                    .to_object()
                    .0,
                rfps: rfps.clone(),
            })
            .unwrap();
        let bytes_before = adopter.storage_usage();

        let (recovered, report) = DedupNode::recover(2, &cfg, journal.clone()).unwrap();
        assert_eq!(report.duplicate_adopts_skipped, 1);
        assert_eq!(report.containers_recovered, 1);
        assert_eq!(recovered.storage_usage(), bytes_before, "no double-adopt");
        assert_eq!(recovered.stats().containers.sealed_containers, 1);
        recovered.verify_consistency().unwrap();
    }

    #[test]
    fn tombstone_replay_keeps_the_forwarding_chain() {
        let cfg = durable_config();
        let a = DedupNode::new(0, &cfg);
        let b = DedupNode::new(1, &cfg);
        let sc = payload_super_chunk(9, 8, 2048);
        a.process_super_chunk(0, &sc, &sc.handprint(4)).unwrap();
        a.try_flush().unwrap();
        let cid = a.sealed_container_ids()[0];
        let exported = a.export_container(&cid).unwrap().unwrap();
        let rfps = a.take_similarity_entries(cid);
        b.adopt_container(0, exported, &rfps).unwrap();
        a.retire_container(cid, 1).unwrap();

        let journal = a.journal().unwrap().clone();
        let (recovered, report) = DedupNode::recover(0, &cfg, journal).unwrap();
        assert_eq!(report.tombstones_restored, 1);
        assert_eq!(
            recovered.container_state(&cid),
            ContainerState::Migrated { successor: 1 }
        );
        assert_eq!(
            recovered.storage_usage(),
            0,
            "tombstoned data stays dropped"
        );
        assert!(matches!(
            recovered.read_chunk(&sc.descriptors()[0].fingerprint),
            Err(SigmaError::ChunkMigrated { node: 1, .. })
        ));
        recovered.verify_consistency().unwrap();
    }

    /// Live map for `sweep_garbage` built from the node's own index: every
    /// fingerprint in `survivors` marked at the container that holds it.
    fn live_map(
        node: &DedupNode,
        survivors: &[Fingerprint],
    ) -> HashMap<ContainerId, HashSet<Fingerprint>> {
        let mut live: HashMap<ContainerId, HashSet<Fingerprint>> = HashMap::new();
        for fp in survivors {
            let loc = node.chunk_location(fp).expect("survivor is indexed");
            live.entry(loc.container).or_default().insert(*fp);
        }
        live
    }

    #[test]
    fn sweep_drops_dead_containers_and_compacts_half_dead_ones() {
        let node = DedupNode::new(0, &config());
        // Stream 0: all chunks survive.  Stream 1: half survive (compaction).
        // Stream 2: nothing survives (drop).
        let keep = payload_super_chunk(1, 8, 1024);
        let half = payload_super_chunk(2, 8, 1024);
        let dead = payload_super_chunk(3, 8, 1024);
        for (stream, sc) in [(0u64, &keep), (1, &half), (2, &dead)] {
            node.process_super_chunk(stream, sc, &sc.handprint(4))
                .unwrap();
        }
        node.try_flush().unwrap();
        let physical_before = node.storage_usage();

        let mut survivors: Vec<Fingerprint> =
            keep.descriptors().iter().map(|d| d.fingerprint).collect();
        survivors.extend(half.descriptors()[..4].iter().map(|d| d.fingerprint));
        let report = node
            .sweep_garbage(&live_map(&node, &survivors), 0.75)
            .unwrap();

        assert_eq!(report.containers_scanned, 3);
        assert_eq!(report.containers_dropped, 1);
        assert_eq!(report.containers_compacted, 1);
        assert_eq!(report.chunks_discarded, 8 + 4);
        assert_eq!(report.bytes_reclaimed, 12 * 1024);
        assert_eq!(node.storage_usage(), physical_before - 12 * 1024);

        // Survivors read back byte-identically (the compacted ones through
        // their retargeted index entries).
        for (i, d) in keep.descriptors().iter().enumerate() {
            assert_eq!(
                node.read_chunk(&d.fingerprint).unwrap(),
                keep.payload(i).unwrap()
            );
        }
        for (i, d) in half.descriptors().iter().enumerate().take(4) {
            assert_eq!(
                node.read_chunk(&d.fingerprint).unwrap(),
                half.payload(i).unwrap()
            );
        }
        // Dead chunks are gone — cleanly, with their index entries.
        for d in dead.descriptors() {
            assert!(matches!(
                node.read_chunk(&d.fingerprint),
                Err(SigmaError::ChunkMissing { .. })
            ));
        }
        for d in &half.descriptors()[4..] {
            assert!(node.read_chunk(&d.fingerprint).is_err());
        }
        node.verify_consistency().unwrap();

        // A second sweep with the same root set reclaims nothing more.
        let again = node
            .sweep_garbage(&live_map(&node, &survivors), 0.75)
            .unwrap();
        assert_eq!(again.bytes_reclaimed, 0);
        assert_eq!(again.containers_dropped, 0);
        assert_eq!(again.containers_compacted, 0);
    }

    #[test]
    fn sweep_respects_the_liveness_threshold() {
        let node = DedupNode::new(0, &config());
        let sc = payload_super_chunk(5, 8, 1024);
        node.process_super_chunk(0, &sc, &sc.handprint(4)).unwrap();
        node.try_flush().unwrap();
        let survivors: Vec<Fingerprint> = sc.descriptors()[..6]
            .iter()
            .map(|d| d.fingerprint)
            .collect();
        // 6/8 = 0.75 live: at threshold 0.5 the container is kept...
        let report = node
            .sweep_garbage(&live_map(&node, &survivors), 0.5)
            .unwrap();
        assert_eq!(report.containers_compacted, 0);
        assert_eq!(report.containers_kept_partial, 1);
        assert_eq!(report.bytes_reclaimed, 0);
        // ...and the per-container accounting still records the dead fraction.
        let cid = node.sealed_container_ids()[0];
        let acct = node.stats().containers;
        assert_eq!(acct.gc_reclaimed_bytes, 0);
        assert_eq!(
            node.store.recorded_liveness(&cid).unwrap().dead_bytes,
            2 * 1024
        );
        // At threshold 0.9 it is compacted.
        let report = node
            .sweep_garbage(&live_map(&node, &survivors), 0.9)
            .unwrap();
        assert_eq!(report.containers_compacted, 1);
        assert_eq!(report.bytes_reclaimed, 2 * 1024);
        node.verify_consistency().unwrap();
    }

    #[test]
    fn sweep_rehomes_similarity_entries_with_the_replacement() {
        let node = DedupNode::new(0, &config());
        let sc = payload_super_chunk(9, 8, 1024);
        let hp = sc.handprint(8);
        node.process_super_chunk(0, &sc, &hp).unwrap();
        node.try_flush().unwrap();
        assert_eq!(node.resemblance_count(&hp), 8);
        let survivors: Vec<Fingerprint> = sc.descriptors()[..2]
            .iter()
            .map(|d| d.fingerprint)
            .collect();
        let report = node
            .sweep_garbage(&live_map(&node, &survivors), 0.5)
            .unwrap();
        assert_eq!(report.containers_compacted, 1);
        // The handprint still resolves — to the replacement container.
        assert_eq!(node.resemblance_count(&hp), 8);
        node.verify_consistency().unwrap();

        // Dropping the rest kills the similarity entries too.
        let report = node.sweep_garbage(&HashMap::new(), 0.5).unwrap();
        assert_eq!(report.containers_dropped, 1);
        assert_eq!(node.resemblance_count(&hp), 0);
        assert_eq!(node.storage_usage(), 0);
        node.verify_consistency().unwrap();
    }

    #[test]
    fn gc_records_replay_to_the_post_gc_state() {
        let cfg = durable_config();
        let node = DedupNode::new(0, &cfg);
        let keep = payload_super_chunk(1, 6, 2048);
        let dead = payload_super_chunk(2, 6, 2048);
        node.process_super_chunk(0, &keep, &keep.handprint(4))
            .unwrap();
        node.process_super_chunk(1, &dead, &dead.handprint(4))
            .unwrap();
        node.try_flush().unwrap();
        node.note_recipe_deleted(7);
        let survivors: Vec<Fingerprint> = keep.descriptors()[..3]
            .iter()
            .map(|d| d.fingerprint)
            .collect();
        let report = node
            .sweep_garbage(&live_map(&node, &survivors), 0.9)
            .unwrap();
        assert_eq!(report.containers_dropped, 1);
        assert_eq!(report.containers_compacted, 1);
        let physical_after_gc = node.storage_usage();

        let journal = node.journal().unwrap().clone();
        let (recovered, recovery) = DedupNode::recover(0, &cfg, journal).unwrap();
        assert_eq!(recovery.gc_records_replayed, 2, "one drop + one compact");
        assert_eq!(recovery.recipe_deletes_replayed, 1);
        assert_eq!(
            recovered.storage_usage(),
            physical_after_gc,
            "collected containers must not resurrect"
        );
        for (i, d) in keep.descriptors().iter().enumerate().take(3) {
            assert_eq!(
                recovered.read_chunk(&d.fingerprint).unwrap(),
                keep.payload(i).unwrap()
            );
        }
        for d in dead.descriptors() {
            assert!(recovered.read_chunk(&d.fingerprint).is_err());
        }
        recovered.verify_consistency().unwrap();

        // Compaction folds the GC history into the snapshot too.
        recovered.compact_journal().unwrap();
        let journal = recovered.journal().unwrap().clone();
        let (again, _) = DedupNode::recover(0, &cfg, journal).unwrap();
        assert_eq!(again.storage_usage(), physical_after_gc);
        again.verify_consistency().unwrap();
    }

    #[test]
    fn sweep_crash_on_the_gc_append_leaves_the_victim_untouched() {
        let cfg = durable_config();
        let node = DedupNode::new(0, &cfg);
        let sc = payload_super_chunk(4, 6, 2048);
        node.process_super_chunk(0, &sc, &sc.handprint(4)).unwrap();
        node.try_flush().unwrap();
        let physical_before = node.storage_usage();

        let journal = node.journal().unwrap().clone();
        journal.arm_crash_at_seq(journal.next_seq(), sigma_storage::CrashMode::Clean);
        let err = node.sweep_garbage(&HashMap::new(), 0.5);
        assert!(err.is_err(), "the GcDrop append must crash");
        assert_eq!(
            node.storage_usage(),
            physical_before,
            "write-ahead: no drop"
        );

        // Recovery and a re-run finish the sweep.
        let (recovered, _) = DedupNode::recover(0, &cfg, journal).unwrap();
        let report = recovered.sweep_garbage(&HashMap::new(), 0.5).unwrap();
        assert_eq!(report.containers_dropped, 1);
        assert_eq!(recovered.storage_usage(), 0);
        recovered.verify_consistency().unwrap();
    }

    /// A memory backend with two one-shot faults on container objects: the
    /// next write fails with an I/O error, or the next `read_at` parks until
    /// the test releases it.  It also notes the journal's length at every
    /// fsync of the journal.
    #[derive(Debug, Default)]
    struct FaultyBackend {
        inner: MemoryBackend,
        journal_syncs: Mutex<Vec<u64>>,
        fail_next_write: std::sync::atomic::AtomicBool,
        /// `(parked, release)`: signalled when the read parks, then awaited.
        park_next_read: Mutex<Option<(std::sync::mpsc::Sender<()>, std::sync::mpsc::Receiver<()>)>>,
    }

    impl StorageBackend for FaultyBackend {
        fn kind(&self) -> BackendKind {
            self.inner.kind()
        }
        fn append(&self, obj: StorageObject, bytes: &[u8]) -> sigma_storage::Result<u64> {
            self.inner.append(obj, bytes)
        }
        fn write_object(&self, obj: StorageObject, bytes: &[u8]) -> sigma_storage::Result<()> {
            if matches!(obj, StorageObject::Container(_))
                && self.fail_next_write.swap(false, Ordering::SeqCst)
            {
                return Err(StorageError::Io(format!("{obj}: injected write failure")));
            }
            self.inner.write_object(obj, bytes)
        }
        fn read_all(&self, obj: StorageObject) -> sigma_storage::Result<Vec<u8>> {
            self.inner.read_all(obj)
        }
        fn read_at(
            &self,
            obj: StorageObject,
            offset: u64,
            len: usize,
        ) -> sigma_storage::Result<Vec<u8>> {
            let park = self.park_next_read.lock().take();
            if let Some((parked, release)) = park {
                parked.send(()).unwrap();
                release.recv().unwrap();
            }
            self.inner.read_at(obj, offset, len)
        }
        fn object_len(&self, obj: StorageObject) -> sigma_storage::Result<Option<u64>> {
            self.inner.object_len(obj)
        }
        fn truncate(&self, obj: StorageObject, len: u64) -> sigma_storage::Result<()> {
            self.inner.truncate(obj, len)
        }
        fn fsync(&self, obj: StorageObject) -> sigma_storage::Result<()> {
            if obj == StorageObject::Journal {
                let len = self.inner.object_len(obj)?.unwrap_or(0);
                self.journal_syncs.lock().push(len);
            }
            self.inner.fsync(obj)
        }
        fn delete(&self, obj: StorageObject) -> sigma_storage::Result<()> {
            self.inner.delete(obj)
        }
        fn list(&self) -> sigma_storage::Result<Vec<StorageObject>> {
            self.inner.list()
        }
    }

    /// A durable node over `backend` (recovered from an empty journal there).
    fn node_over(backend: Arc<FaultyBackend>) -> DedupNode {
        let journal = Arc::new(Journal::with_backend(backend).unwrap());
        DedupNode::recover(0, &durable_config(), journal).unwrap().0
    }

    #[test]
    fn the_journal_is_fsynced_at_the_ack_not_per_super_chunk() {
        let backend = Arc::new(FaultyBackend::default());
        let node = node_over(backend.clone());
        let journal = node.journal().unwrap().clone();
        let syncs = || backend.journal_syncs.lock().clone();
        // Super-chunks that fill no container: each journals a similarity
        // publish and nothing else, so nothing is fsynced before the ack.
        let acked: Vec<SuperChunk> = (0..4)
            .map(|i| payload_super_chunk(40 + i, 2, 1024))
            .collect();
        let before = syncs().len();
        for sc in &acked {
            node.process_super_chunk(0, sc, &sc.handprint(4)).unwrap();
        }
        assert!(journal.frame_count() >= acked.len() as u64);
        assert_eq!(syncs().len(), before, "no journal fsync before the ack");
        node.try_flush().unwrap();
        assert_eq!(
            syncs().last().copied(),
            Some(journal.len_bytes() as u64),
            "the ack syncs the whole journal"
        );
        let acked_len = journal.len_bytes();
        // An unacknowledged round after the ack stays unsynced.
        let unacked = payload_super_chunk(50, 2, 1024);
        node.process_super_chunk(0, &unacked, &unacked.handprint(4))
            .unwrap();
        assert!(journal.len_bytes() > acked_len);
        assert_eq!(syncs().last().copied(), Some(acked_len as u64));

        // A power cut keeps the journal up to its last fsync.
        let medium = MemoryBackend::copy_of(&backend.inner).unwrap();
        medium
            .truncate(StorageObject::Journal, acked_len as u64)
            .unwrap();
        let cut = Arc::new(Journal::open(Arc::new(medium)).unwrap());
        let (recovered, report) = DedupNode::recover(0, &durable_config(), cut).unwrap();
        assert_eq!(report.bytes_discarded, 0);
        for sc in &acked {
            for (i, d) in sc.descriptors().iter().enumerate() {
                assert_eq!(
                    recovered.read_chunk(&d.fingerprint).unwrap(),
                    sc.payload(i).unwrap()
                );
            }
            let hp = sc.handprint(4);
            assert_eq!(recovered.resemblance_count(&hp), hp.size());
        }
        recovered.verify_consistency().unwrap();
    }

    #[test]
    fn a_failed_seal_keeps_its_chunks_readable_and_the_next_flush_seals_them() {
        let backend = Arc::new(FaultyBackend::default());
        let node = node_over(backend.clone());
        let sc = payload_super_chunk(3, 4, 1024);
        let hp = sc.handprint(4);
        assert_eq!(
            node.process_super_chunk(0, &sc, &hp).unwrap().unique_chunks,
            4
        );
        backend.fail_next_write.store(true, Ordering::SeqCst);
        assert!(matches!(
            node.try_flush(),
            Err(SigmaError::Storage(StorageError::Io(_)))
        ));
        assert!(!node.crashed());
        // The index entries finalized at store time still point at the
        // container: the same chunks again are all duplicates of it...
        let again = node.process_super_chunk(0, &sc, &hp).unwrap();
        assert_eq!(again.duplicate_chunks, 4);
        // ...which the next flush seals, so the acknowledged backup restores.
        node.try_flush().unwrap();
        let journal = node.journal().unwrap().clone();
        let (recovered, _) = DedupNode::recover(0, &durable_config(), journal).unwrap();
        for n in [&node, &recovered] {
            for (i, d) in sc.descriptors().iter().enumerate() {
                assert_eq!(
                    n.read_chunk(&d.fingerprint).unwrap(),
                    sc.payload(i).unwrap()
                );
            }
            n.verify_consistency().unwrap();
        }
    }

    #[test]
    fn a_read_racing_retirement_follows_the_tombstone() {
        let backend = Arc::new(FaultyBackend::default());
        let node = Arc::new(node_over(backend.clone()));
        let sc = payload_super_chunk(4, 2, 1024);
        node.process_super_chunk(0, &sc, &sc.handprint(4)).unwrap();
        node.try_flush().unwrap();
        let cid = node.sealed_container_ids()[0];
        let (parked_tx, parked) = std::sync::mpsc::channel();
        let (release, release_rx) = std::sync::mpsc::channel();
        *backend.park_next_read.lock() = Some((parked_tx, release_rx));
        let reader = {
            let (node, fp) = (node.clone(), sc.descriptors()[0].fingerprint);
            std::thread::spawn(move || node.read_chunk(&fp))
        };
        // The read resolved the sealed container and sits in the backend
        // while the container is retired and its object deleted.
        parked.recv().unwrap();
        node.retire_container(cid, 1).unwrap();
        release.send(()).unwrap();
        assert!(matches!(
            reader.join().unwrap(),
            Err(SigmaError::ChunkMigrated { node: 1, .. })
        ));
    }

    #[test]
    fn ingest_never_deduplicates_against_a_container_it_no_longer_holds() {
        let a = DedupNode::new(0, &config());
        let b = DedupNode::new(1, &config());
        let sc = payload_super_chunk(6, 4, 1024);
        let hp = sc.handprint(4);
        a.process_super_chunk(0, &sc, &hp).unwrap();
        a.try_flush().unwrap();
        // A second pass prefetches the container into A's fingerprint cache.
        assert_eq!(a.process_super_chunk(0, &sc, &hp).unwrap().cache_hits, 4);
        let cid = a.sealed_container_ids()[0];
        let exported = a.export_container(&cid).unwrap().unwrap();
        b.adopt_container(0, exported, &a.similarity_entries_for(cid))
            .unwrap();
        a.retire_container(cid, 1).unwrap();
        // No recipe reaches B's copy, so B's GC collects it...
        b.sweep_garbage(&HashMap::new(), 0.5).unwrap();
        assert_eq!(b.storage_usage(), 0);
        // ...while A's index still names the tombstoned container (its cache
        // forgot it at retirement): the same chunks are stored again, not
        // matched against it.
        let again = a.process_super_chunk(0, &sc, &hp).unwrap();
        assert_eq!(again.unique_chunks, 4);
        a.try_flush().unwrap();
        for (i, d) in sc.descriptors().iter().enumerate() {
            assert_eq!(
                a.read_chunk(&d.fingerprint).unwrap(),
                sc.payload(i).unwrap()
            );
        }
        a.verify_consistency().unwrap();
    }

    #[test]
    fn ingest_never_deduplicates_against_chunks_gc_reclaimed() {
        let node = DedupNode::new(0, &config());
        let sc = payload_super_chunk(7, 4, 1024);
        let hp = sc.handprint(4);
        node.process_super_chunk(0, &sc, &hp).unwrap();
        node.try_flush().unwrap();
        assert_eq!(node.process_super_chunk(0, &sc, &hp).unwrap().cache_hits, 4);
        // Half the chunks die; the sweep compacts the container.
        let cid = node.sealed_container_ids()[0];
        let live: HashSet<Fingerprint> = sc.descriptors()[..2]
            .iter()
            .map(|d| d.fingerprint)
            .collect();
        let report = node
            .sweep_garbage(&HashMap::from([(cid, live)]), 1.0)
            .unwrap();
        assert_eq!(report.containers_compacted, 1);
        // The cache had prefetched the victim: its dead chunks are stored
        // again, its live ones match the replacement.
        let again = node.process_super_chunk(0, &sc, &hp).unwrap();
        assert_eq!((again.unique_chunks, again.duplicate_chunks), (2, 2));
        node.try_flush().unwrap();
        for (i, d) in sc.descriptors().iter().enumerate() {
            assert_eq!(
                node.read_chunk(&d.fingerprint).unwrap(),
                sc.payload(i).unwrap()
            );
        }
        node.verify_consistency().unwrap();
    }

    #[test]
    fn multi_stream_processing_is_thread_safe() {
        let node = Arc::new(DedupNode::new(0, &config()));
        let mut handles = Vec::new();
        for stream in 0..4u64 {
            let node = node.clone();
            handles.push(std::thread::spawn(move || {
                let mut builder = SuperChunkBuilder::new(32 * 1024);
                let mut supers = Vec::new();
                for i in 0..64u64 {
                    let id = stream * 1000 + i;
                    let d = ChunkDescriptor::new(Sha1::fingerprint(&id.to_le_bytes()), 4096);
                    if let Some(sc) = builder.push_chunk(d, vec![id as u8; 4096]) {
                        supers.push(sc);
                    }
                }
                supers.extend(builder.finish());
                for sc in supers {
                    node.process_super_chunk(stream, &sc, &sc.handprint(8))
                        .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let stats = node.stats();
        assert_eq!(stats.total_chunks, 4 * 64);
        assert_eq!(stats.unique_chunks, 4 * 64);
        assert_eq!(stats.physical_bytes, 4 * 64 * 4096);
    }
}

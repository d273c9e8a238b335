//! The deduplication server cluster.
//!
//! [`DedupCluster`] wires together N [`DedupNode`]s, a [`DataRouter`] and a
//! [`Director`], and accounts for the fingerprint-lookup messages the routing and
//! deduplication process generates — the overhead metric of Figure 7.
//!
//! Membership is **elastic**: nodes can be added and removed on a live cluster
//! (see the [`membership`](crate::membership) module).  Every routing decision is
//! made against a generation-stamped [`NodeMap`] snapshot, node IDs recorded in
//! file recipes are stable forever, and the [`Rebalancer`] leaves forwarding
//! tombstones behind migrated containers so restores stay byte-identical across
//! any sequence of joins, leaves and migrations.

use crate::membership::{NodeMap, PlannedMove, RebalanceReport, Rebalancer};
use crate::node::{NodeGcReport, RecoveryReport};
use crate::{
    DataRouter, DedupNode, Director, FileId, FileRecipe, Handprint, NodeStats, Result,
    RoutingContext, SigmaConfig, SigmaError, SimilarityRouter, SuperChunk, SuperChunkReceipt,
};
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use sigma_hashkit::Fingerprint;
use sigma_storage::{BackendKind, ContainerId, ContainerState};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Fingerprint-lookup message counters (the paper's system-overhead metric).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MessageStats {
    /// Lookups sent to candidate nodes before routing (representative fingerprints).
    pub prerouting_lookups: u64,
    /// Lookups sent to the target node after routing (one per chunk fingerprint in
    /// the batched duplicate-or-unique query).
    pub postrouting_lookups: u64,
    /// Remote nodes contacted by pre-routing queries.
    pub nodes_contacted: u64,
    /// Super-chunks routed.
    pub super_chunks_routed: u64,
}

impl MessageStats {
    /// Total fingerprint-lookup messages.
    pub fn total_lookups(&self) -> u64 {
        self.prerouting_lookups + self.postrouting_lookups
    }
}

/// Cluster-wide statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct ClusterStats {
    /// Name of the routing scheme in use.
    pub router: String,
    /// Number of deduplication nodes.
    pub node_count: usize,
    /// Logical bytes backed up across the cluster.
    pub logical_bytes: u64,
    /// Physical bytes stored across the cluster.
    pub physical_bytes: u64,
    /// Cluster-wide deduplication ratio (logical / physical).
    pub dedup_ratio: f64,
    /// Physical storage usage per node.
    pub node_usage: Vec<u64>,
    /// Standard deviation of per-node storage usage divided by its mean
    /// (the load-imbalance term of the paper's "effective deduplication ratio").
    pub usage_skew: f64,
    /// Message counters.
    pub messages: MessageStats,
    /// Per-node statistics.
    pub nodes: Vec<NodeStats>,
}

impl ClusterStats {
    /// The paper's *effective deduplication ratio*: the cluster deduplication ratio
    /// divided by `1 + skew`.  Normalising it by a single-node exact-deduplication
    /// ratio yields the EDR curves of Figure 8.
    pub fn effective_dedup_ratio(&self) -> f64 {
        self.dedup_ratio / (1.0 + self.usage_skew)
    }
}

/// What one cluster-wide garbage collection marked and reclaimed.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct GcReport {
    /// Surviving recipes the mark phase walked (the root set).
    pub recipes_marked: u64,
    /// Distinct live chunks marked across the cluster.
    pub live_chunks: u64,
    /// Bytes of distinct live chunks — physical bytes can never be swept below
    /// this figure.
    pub live_bytes: u64,
    /// Sealed containers the sweep examined.
    pub containers_scanned: u64,
    /// Containers dropped outright (no live chunks).
    pub containers_dropped: u64,
    /// Containers compacted (live chunks rewritten into fresh containers).
    pub containers_compacted: u64,
    /// Containers kept despite dead bytes (liveness at or above the threshold).
    pub containers_kept_partial: u64,
    /// Dead chunks discarded.
    pub chunks_discarded: u64,
    /// Physical bytes reclaimed cluster-wide.
    pub bytes_reclaimed: u64,
    /// Per-node sweep reports, sorted by stable node ID.
    pub nodes: Vec<NodeGcReport>,
}

/// A cluster of deduplication nodes behind a data-routing scheme.
///
/// # Example
///
/// ```
/// use sigma_core::{DedupCluster, SigmaConfig, SuperChunk};
/// use sigma_hashkit::FingerprintAlgorithm;
///
/// let cluster = DedupCluster::with_similarity_router(4, SigmaConfig::default());
/// let chunks: Vec<Vec<u8>> = (0..16u8).map(|i| vec![i; 4096]).collect();
/// let sc = SuperChunk::from_payloads(FingerprintAlgorithm::Sha1, 0, chunks);
/// let receipt = cluster.backup_super_chunk(0, &sc, None).unwrap();
/// assert_eq!(receipt.unique_chunks, 16);
/// let stats = cluster.stats();
/// assert_eq!(stats.logical_bytes, 16 * 4096);
/// ```
pub struct DedupCluster {
    config: SigmaConfig,
    membership: Arc<RwLock<Membership>>,
    router: Box<dyn DataRouter>,
    director: Director,
    prerouting_lookups: AtomicU64,
    postrouting_lookups: AtomicU64,
    nodes_contacted: AtomicU64,
    super_chunks_routed: AtomicU64,
    /// Logical bytes routed, accounted cluster-wide rather than summed from
    /// per-node counters: a removed node takes its historical ingest counter out
    /// of the active set, but the bytes it ingested (now migrated elsewhere) are
    /// still protected by the cluster and must keep counting toward its
    /// deduplication ratio.
    logical_bytes_routed: AtomicU64,
    /// The next unused file-boundary hint; see
    /// [`reserve_file_hints`](Self::reserve_file_hints).
    file_hints: AtomicU64,
}

/// Mutable membership state: the current active-node snapshot plus a directory of
/// every node the cluster has ever had.  Retired nodes stay in the directory so
/// recipes written before their removal still resolve (their data has migrated,
/// but their forwarding tombstones have not).
#[derive(Debug)]
pub(crate) struct Membership {
    pub(crate) map: Arc<NodeMap>,
    directory: HashMap<usize, Arc<DedupNode>>,
    next_node_id: usize,
}

impl std::fmt::Debug for DedupCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let map = self.node_map();
        f.debug_struct("DedupCluster")
            .field("nodes", &map.len())
            .field("generation", &map.generation())
            .field("router", &self.router.name())
            .finish()
    }
}

impl DedupCluster {
    /// Creates a cluster of `node_count` nodes using the given routing scheme.
    ///
    /// # Panics
    ///
    /// Panics if `node_count` is zero.
    pub fn new(node_count: usize, config: SigmaConfig, router: Box<dyn DataRouter>) -> Self {
        assert!(node_count > 0, "cluster must have at least one node");
        let nodes: Vec<Arc<DedupNode>> = (0..node_count)
            .map(|i| Arc::new(DedupNode::new(i, &config)))
            .collect();
        let directory = nodes.iter().map(|n| (n.id(), n.clone())).collect();
        DedupCluster {
            config,
            membership: Arc::new(RwLock::new(Membership {
                map: Arc::new(NodeMap::new(0, nodes)),
                directory,
                next_node_id: node_count,
            })),
            router,
            director: Director::new(),
            prerouting_lookups: AtomicU64::new(0),
            postrouting_lookups: AtomicU64::new(0),
            nodes_contacted: AtomicU64::new(0),
            super_chunks_routed: AtomicU64::new(0),
            logical_bytes_routed: AtomicU64::new(0),
            file_hints: AtomicU64::new(0),
        }
    }

    /// Creates a cluster using Σ-Dedupe's similarity-based stateful router.
    pub fn with_similarity_router(node_count: usize, config: SigmaConfig) -> Self {
        let balancing = config.capacity_balancing;
        DedupCluster::new(
            node_count,
            config,
            Box::new(SimilarityRouter::new(balancing)),
        )
    }

    /// The cluster configuration.
    pub fn config(&self) -> &SigmaConfig {
        &self.config
    }

    /// Number of *active* deduplication nodes.
    pub fn node_count(&self) -> usize {
        self.node_map().len()
    }

    /// Snapshot of the active deduplication nodes, in slot order.
    pub fn nodes(&self) -> Vec<Arc<DedupNode>> {
        self.node_map().nodes().to_vec()
    }

    /// The current generation-stamped active-node map.
    ///
    /// Ingest takes one such snapshot per stream and routes every super-chunk
    /// of the stream against it, so a concurrent [`add_node`](Self::add_node) /
    /// [`remove_node`](Self::remove_node) never splits a file across two views
    /// of the cluster.
    pub fn node_map(&self) -> Arc<NodeMap> {
        self.membership.read().map.clone()
    }

    /// The current membership generation (bumped by every add/remove).
    pub fn generation(&self) -> u64 {
        self.node_map().generation()
    }

    /// Stable IDs of the active nodes, in slot order.
    pub fn node_ids(&self) -> Vec<usize> {
        self.node_map().node_ids()
    }

    /// Looks a node up by its stable ID, active or retired.
    ///
    /// Retired nodes remain addressable so recipes that predate their removal can
    /// follow the forwarding tombstones they left behind.
    pub fn node_by_id(&self, id: usize) -> Option<Arc<DedupNode>> {
        self.membership.read().directory.get(&id).cloned()
    }

    /// The routing scheme's name.
    pub fn router_name(&self) -> String {
        self.router.name()
    }

    /// The director (metadata service).
    pub fn director(&self) -> &Director {
        &self.director
    }

    /// Reserves `count` consecutive file-boundary hints and returns the first.
    ///
    /// Routers that place whole files (Extreme Binning) pin a bin to each
    /// hint, so a hint must never repeat.  The live file count would: a
    /// delete winds it back, and concurrent backups read the same value.
    pub(crate) fn reserve_file_hints(&self, count: u64) -> u64 {
        self.file_hints.fetch_add(count, Ordering::Relaxed)
    }

    /// Routes and deduplicates one super-chunk arriving from client stream `stream`.
    ///
    /// `file_id` carries file-boundary information when available; file-similarity
    /// routing schemes require it.
    ///
    /// # Errors
    ///
    /// Returns [`SigmaError::FileBoundariesRequired`] if the router needs a file ID
    /// and none was given, or a storage error if a unique chunk cannot be stored.
    pub fn backup_super_chunk(
        &self,
        stream: u64,
        super_chunk: &SuperChunk,
        file_id: Option<u64>,
    ) -> Result<SuperChunkReceipt> {
        let map = self.node_map();
        self.backup_super_chunk_on(&map, stream, super_chunk, file_id)
    }

    /// [`backup_super_chunk`](Self::backup_super_chunk) against one fixed node-map
    /// snapshot, so the ingest core can route a whole stream against one
    /// membership view.
    pub(crate) fn backup_super_chunk_on(
        &self,
        map: &NodeMap,
        stream: u64,
        super_chunk: &SuperChunk,
        file_id: Option<u64>,
    ) -> Result<SuperChunkReceipt> {
        if super_chunk.is_empty() {
            return Ok(SuperChunkReceipt::default());
        }
        if self.router.requires_file_boundaries() && file_id.is_none() {
            return Err(SigmaError::FileBoundariesRequired {
                router: self.router.name(),
            });
        }
        let handprint = super_chunk.handprint(self.config.handprint_size);
        let decision = self.router.route(&RoutingContext {
            super_chunk,
            handprint: &handprint,
            file_id,
            nodes: map.nodes(),
        });

        self.prerouting_lookups
            .fetch_add(decision.prerouting_lookup_messages, Ordering::Relaxed);
        self.nodes_contacted
            .fetch_add(decision.nodes_contacted, Ordering::Relaxed);
        // The batched duplicate-or-unique query at the target costs one fingerprint
        // lookup per chunk (source deduplication, Section 3.1).
        self.postrouting_lookups
            .fetch_add(super_chunk.chunk_count() as u64, Ordering::Relaxed);
        self.super_chunks_routed.fetch_add(1, Ordering::Relaxed);
        self.logical_bytes_routed
            .fetch_add(super_chunk.logical_size(), Ordering::Relaxed);

        map.nodes()[decision.target].process_super_chunk(stream, super_chunk, &handprint)
    }

    /// Routes and deduplicates one super-chunk, also returning the target node.
    ///
    /// The target is also the receipt's `node_id`.  This wrapper is kept only
    /// because the `sigma-e2e` benchmark calls it (see the public items its
    /// README lists); deleting it waits for a change to that benchmark.
    ///
    /// # Errors
    ///
    /// Same as [`backup_super_chunk`](DedupCluster::backup_super_chunk).
    pub fn backup_super_chunk_with_target(
        &self,
        stream: u64,
        super_chunk: &SuperChunk,
        file_id: Option<u64>,
    ) -> Result<(SuperChunkReceipt, usize)> {
        let receipt = self.backup_super_chunk(stream, super_chunk, file_id)?;
        Ok((receipt, receipt.node_id))
    }

    /// Reads one chunk back from the node a recipe recorded for it, transparently
    /// following forwarding tombstones if the rebalancer has since migrated the
    /// chunk's container to another node (possibly through several hops).
    ///
    /// # Errors
    ///
    /// Propagates [`SigmaError::ChunkMissing`] from the node at the end of the
    /// chain, and [`SigmaError::Storage`] when that node cannot read the
    /// chunk's bytes.
    pub fn read_chunk(&self, node: usize, fingerprint: &Fingerprint) -> Result<Vec<u8>> {
        self.resolve_chunk(node, fingerprint, |n| n.read_chunk(fingerprint))
            .map(|(_, data)| data)
    }

    /// Follows a chunk's tombstone chain from `node`, the node its recipe
    /// records, applying `probe` at each node until it answers anything but
    /// [`SigmaError::ChunkMigrated`]; returns the node that answered and its
    /// answer.  [`read_chunk`](Self::read_chunk) and the restore planner both
    /// resolve chunks here.
    ///
    /// The reads of one walk are not atomic: ingest, GC and migration can
    /// re-point an index entry or a tombstone chain between two of them.  A
    /// walk that missed may have raced such a writer, so the chain is walked
    /// again from `node`, and the miss is reported only once a fresh walk ends
    /// the same way.
    pub(crate) fn resolve_chunk<T>(
        &self,
        node: usize,
        fingerprint: &Fingerprint,
        probe: impl Fn(&DedupNode) -> Result<T>,
    ) -> Result<(usize, T)> {
        let mut outcome = self.walk_chain(node, fingerprint, &probe);
        while let Err(missed @ SigmaError::ChunkMissing { .. }) = &outcome {
            let missed = missed.clone();
            outcome = self.walk_chain(node, fingerprint, &probe);
            if outcome.as_ref().err() == Some(&missed) {
                break;
            }
        }
        outcome
    }

    /// One walk of a tombstone chain from `node`.
    fn walk_chain<T>(
        &self,
        node: usize,
        fingerprint: &Fingerprint,
        probe: &impl Fn(&DedupNode) -> Result<T>,
    ) -> Result<(usize, T)> {
        let missing = |node| SigmaError::ChunkMissing {
            node,
            fingerprint: fingerprint.to_string(),
        };
        // The hop cap guards against a (theoretical) tombstone cycle: a chain
        // can visit each addressable node, active or retired, at most once.
        // It is computed lazily so the common chunk-never-migrated path costs
        // a single directory lookup.
        let mut node_id = node;
        let mut hops = 0usize;
        loop {
            let Some(current) = self.node_by_id(node_id) else {
                return Err(missing(node_id));
            };
            match probe(&current) {
                Err(SigmaError::ChunkMigrated { node: next, .. }) => {
                    hops += 1;
                    if hops > self.membership.read().directory.len() {
                        return Err(missing(next));
                    }
                    node_id = next;
                }
                outcome => return outcome.map(|answer| (node_id, answer)),
            }
        }
    }

    /// Reconstructs a previously backed-up file from its recipe.
    ///
    /// Runs the container-aware restore pipeline (see [`crate::RestoreReport`]):
    /// entries are grouped per `(node, container)`, each group reads its
    /// container at most once — from the node's container read cache, else as
    /// one whole data section that then fills the cache — and groups fan out
    /// [`SigmaConfig::restore_parallelism`] wide, each decoding straight into
    /// the preallocated output.  The output is byte-identical to
    /// [`restore_file_reference`](Self::restore_file_reference).
    ///
    /// # Errors
    ///
    /// Returns [`SigmaError::FileNotFound`] for unknown file IDs and propagates
    /// chunk read errors, the earliest in recipe order.  Returns
    /// [`SigmaError::RestoreTruncated`], before reading anything, when the
    /// recipe's entry lengths do not add up to its size (`actual` is their
    /// sum), and when the store holds a chunk at another length than its
    /// entry (`actual` is the recipe's size with the first such chunk's
    /// stored length in place of its entry's): a stored chunk shrinking or
    /// growing out from under its recipe never surfaces as a silently
    /// corrupt restore.
    pub fn restore_file(&self, file_id: FileId) -> Result<Vec<u8>> {
        self.restore_file_with_report(file_id)
            .map(|(bytes, _)| bytes)
    }

    /// The serial per-chunk restore the pipeline is measured against: one
    /// [`read_chunk`](Self::read_chunk) per recipe entry, in recipe order,
    /// copying each payload twice (into its own `Vec`, then into the output).
    ///
    /// Kept as the reference implementation — like `sigma_chunking::reference`
    /// — for the equivalence tests and the restore benches to compare
    /// against; no library path calls it.
    ///
    /// # Errors
    ///
    /// Returns [`SigmaError::FileNotFound`] for unknown file IDs and propagates
    /// chunk read errors.  Returns [`SigmaError::RestoreTruncated`] when the
    /// bytes read do not add up to the recipe's size (`actual` is their
    /// count).
    pub fn restore_file_reference(&self, file_id: FileId) -> Result<Vec<u8>> {
        let recipe = self
            .director
            .recipe(file_id)
            .ok_or(SigmaError::FileNotFound(file_id))?;
        let mut out = Vec::with_capacity(recipe.size as usize);
        for entry in &recipe.chunks {
            let data = self.read_chunk(entry.node, &entry.fingerprint)?;
            out.extend_from_slice(&data);
        }
        if out.len() as u64 != recipe.size {
            return Err(SigmaError::RestoreTruncated {
                file_id,
                expected: recipe.size,
                actual: out.len() as u64,
            });
        }
        Ok(out)
    }

    // ---- Backup lifecycle & garbage collection ----

    /// Deletes one backed-up file: its recipe leaves the root set, so chunks no
    /// surviving recipe references become garbage for the next
    /// [`collect_garbage`](Self::collect_garbage) sweep.  Returns the logical
    /// bytes the deletion released (which also leave the cluster's
    /// `logical_bytes` accounting — deleted data no longer flatters the
    /// deduplication ratio).
    ///
    /// A `RecipeDelete` audit record is journaled, best-effort, on every
    /// durable node the recipe named, giving crash recovery a boundary between
    /// the deletion and the sweep that follows.
    ///
    /// # Errors
    ///
    /// Returns [`SigmaError::FileNotFound`] for unknown — including
    /// already-deleted — file IDs.
    pub fn delete_file(&self, file_id: FileId) -> Result<u64> {
        let recipe = self
            .director
            .delete_file(file_id)
            .ok_or(SigmaError::FileNotFound(file_id))?;
        Ok(self.account_deleted(std::slice::from_ref(&recipe)))
    }

    /// Deletes a whole backup (a session and every file registered in it).
    /// Returns the logical bytes released.
    ///
    /// # Errors
    ///
    /// Returns [`SigmaError::BackupNotFound`] for unknown — including
    /// already-deleted — session IDs.
    pub fn delete_backup(&self, session_id: u64) -> Result<u64> {
        let recipes = self
            .director
            .delete_backup(session_id)
            .ok_or(SigmaError::BackupNotFound(session_id))?;
        Ok(self.account_deleted(&recipes))
    }

    /// Expires a whole backup generation: every session opened in it (see
    /// [`BackupClient::with_generation`](crate::BackupClient::with_generation))
    /// and every file those sessions registered.  Returns the logical bytes
    /// released — `Ok(0)` when the generation has no sessions, so a retention
    /// loop can expire idempotently.
    pub fn delete_generation(&self, generation: u64) -> Result<u64> {
        let recipes = self.director.delete_generation(generation);
        Ok(self.account_deleted(&recipes))
    }

    /// Books the deletion of `recipes`: subtracts their logical bytes from the
    /// cluster accounting and journals a `RecipeDelete` audit record on every
    /// durable node each recipe named.
    fn account_deleted(&self, recipes: &[Arc<FileRecipe>]) -> u64 {
        let mut freed = 0u64;
        for recipe in recipes {
            freed += recipe.size;
            let nodes: BTreeSet<usize> = recipe.chunks.iter().map(|e| e.node).collect();
            for node_id in nodes {
                if let Some(node) = self.node_by_id(node_id) {
                    node.note_recipe_deleted(recipe.file_id);
                }
            }
        }
        // Saturating: trace-driven ingest routes logical bytes that never get a
        // recipe, so the counter can only over-cover the recipes being deleted,
        // but a wrap on some future accounting drift must stay impossible.
        let _ = self
            .logical_bytes_routed
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(freed))
            });
        freed
    }

    /// Reclaims the space of deleted backups: a cluster-wide mark-and-sweep.
    ///
    /// **Mark** walks every surviving recipe (the root set) and resolves each
    /// chunk to the node and container that actually holds it *now* — routing
    /// through the node directory and following forwarding tombstones, so a
    /// migration in flight cannot hide a live chunk from the mark.  **Sweep**
    /// then visits every node (active and retired, in stable-ID order):
    /// containers with no live chunks are dropped, containers whose live
    /// fraction falls below [`SigmaConfig::gc_liveness_threshold`] are
    /// compacted (live chunks rewritten into a fresh container before the
    /// victim drops), and every structural change is journaled write-ahead on
    /// durable nodes, so recovery replays to a post-GC-consistent state.
    ///
    /// A cluster with no recipes and no stored data is a no-op (`GcReport`
    /// all-zero).  Note that recipes really are the *only* root set: data
    /// ingested without registering a recipe (trace-driven experiments calling
    /// [`backup_super_chunk`](Self::backup_super_chunk) directly) is garbage to
    /// this sweep.
    ///
    /// Must run at a GC-quiescent point: restores and migrations may
    /// interleave, concurrent backups may not (a chunk could be declared a
    /// duplicate of data the sweep is about to drop).
    ///
    /// # Errors
    ///
    /// Propagates the first node crash (durable clusters under fault
    /// injection); the sweep stops at a journal-record boundary, and re-running
    /// `collect_garbage` after [`restart_node`](Self::restart_node) converges —
    /// completed drops and compactions are simply absent from the next mark.
    pub fn collect_garbage(&self) -> Result<GcReport> {
        let mut nodes: Vec<Arc<DedupNode>> =
            self.membership.read().directory.values().cloned().collect();
        nodes.sort_by_key(|n| n.id());
        let by_id: HashMap<usize, Arc<DedupNode>> =
            nodes.iter().map(|n| (n.id(), n.clone())).collect();
        let recipes = self.director.recipes();

        // Mark: live chunks per (node, container), deduplicated so shared
        // chunks are counted once.
        let mut live: HashMap<usize, HashMap<ContainerId, HashSet<Fingerprint>>> = HashMap::new();
        let mut report = GcReport {
            recipes_marked: recipes.len() as u64,
            ..GcReport::default()
        };
        let hop_cap = nodes.len();
        for recipe in &recipes {
            for entry in &recipe.chunks {
                let mut node_id = entry.node;
                let mut hops = 0usize;
                while let Some(node) = by_id.get(&node_id) {
                    let Some(location) = node.chunk_location(&entry.fingerprint) else {
                        // Unknown to this node's index: the restore path would
                        // fail here too; there is nothing to keep alive.
                        break;
                    };
                    let holder = match node.container_state(&location.container) {
                        // The container migrated away: follow the tombstone
                        // chain, exactly as a restore would.
                        ContainerState::Migrated { successor } if hops < hop_cap => {
                            hops += 1;
                            node_id = successor as usize;
                            continue;
                        }
                        ContainerState::Migrated { .. } | ContainerState::Absent => break,
                        ContainerState::Compacted { replacement } => replacement,
                        // Open, sealing and sealed containers hold the chunk.
                        _ => location.container,
                    };
                    let fresh = live
                        .entry(node_id)
                        .or_default()
                        .entry(holder)
                        .or_default()
                        .insert(entry.fingerprint);
                    if fresh {
                        report.live_chunks += 1;
                        report.live_bytes += location.len as u64;
                    }
                    break;
                }
            }
        }

        // Sweep, node by node in stable-ID order (deterministic journals).
        let threshold = self.config.gc_liveness_threshold;
        let empty = HashMap::new();
        for node in &nodes {
            let node_live = live.get(&node.id()).unwrap_or(&empty);
            let swept = node.sweep_garbage(node_live, threshold)?;
            report.containers_scanned += swept.containers_scanned;
            report.containers_dropped += swept.containers_dropped;
            report.containers_compacted += swept.containers_compacted;
            report.containers_kept_partial += swept.containers_kept_partial;
            report.chunks_discarded += swept.chunks_discarded;
            report.bytes_reclaimed += swept.bytes_reclaimed;
            report.nodes.push(swept);
        }
        Ok(report)
    }

    /// Seals all open containers on every node — active *and* retired — in
    /// stable-ID order, marking the end of a backup session.  This is the
    /// durable acknowledgement point: once it returns `Ok`, every backup
    /// completed so far survives any single-node crash.
    ///
    /// # Errors
    ///
    /// Returns the first error a node's seal hits, and seals no later node: a
    /// crash, which [`crashed_nodes`](Self::crashed_nodes) names and
    /// [`restart_node`](Self::restart_node) recovers, or a failed object
    /// write.  The flush can be retried after either.
    pub fn try_flush(&self) -> Result<()> {
        let mut nodes: Vec<Arc<DedupNode>> =
            self.membership.read().directory.values().cloned().collect();
        nodes.sort_by_key(|n| n.id());
        for node in nodes {
            node.try_flush()?;
        }
        Ok(())
    }

    /// Stable IDs of every node (active or retired) whose journal has hit a
    /// crash point and which therefore needs [`restart_node`](Self::restart_node).
    pub fn crashed_nodes(&self) -> Vec<usize> {
        let mut out: Vec<usize> = self
            .membership
            .read()
            .directory
            .values()
            .filter(|n| n.crashed())
            .map(|n| n.id())
            .collect();
        out.sort_unstable();
        out
    }

    /// Resolves a handprint's resemblance on every active node — exposed for
    /// experiments that need a global view (not used by the routing protocol
    /// itself).
    pub fn resemblance_by_node(&self, handprint: &Handprint) -> Vec<usize> {
        self.node_map()
            .nodes()
            .iter()
            .map(|n| n.resemblance_count(handprint))
            .collect()
    }

    // ---- Elastic membership ----

    /// Adds a fresh, empty node to the cluster and returns its stable ID.
    ///
    /// The membership generation is bumped; in-flight batches finish on the
    /// snapshot they started with, subsequent calls route over the grown cluster.
    /// The new node receives data organically from then on — call
    /// [`rebalance_onto`](Self::rebalance_onto) (or use
    /// [`add_node_rebalanced`](Self::add_node_rebalanced)) to also migrate
    /// existing containers to it.
    pub fn add_node(&self) -> usize {
        let mut m = self.membership.write();
        let id = m.next_node_id;
        m.next_node_id += 1;
        let node = Arc::new(DedupNode::new(id, &self.config));
        m.directory.insert(id, node.clone());
        let mut nodes = m.map.nodes().to_vec();
        nodes.push(node);
        m.map = Arc::new(NodeMap::new(m.map.generation() + 1, nodes));
        id
    }

    /// [`add_node`](Self::add_node) followed by a full
    /// [`rebalance_onto`](Self::rebalance_onto) of the new node.
    ///
    /// # Errors
    ///
    /// Propagates a node crash from the migration (durable clusters under fault
    /// injection only); the node is added either way.
    pub fn add_node_rebalanced(&self) -> Result<(usize, RebalanceReport)> {
        let id = self.add_node();
        let report = self.rebalance_onto(id)?;
        Ok((id, report))
    }

    /// Plans a rebalance that migrates sealed containers from over-loaded active
    /// nodes onto node `id` until its storage usage reaches the cluster mean.
    ///
    /// The plan is deterministic (heaviest donors first, containers in ID order)
    /// and executes incrementally: each [`Rebalancer::step`] moves one container
    /// and may be freely interleaved with backups and restores.
    ///
    /// # Errors
    ///
    /// Returns [`SigmaError::UnknownNode`] if `id` is not an active node.
    pub fn begin_rebalance_onto(&self, id: usize) -> Result<Rebalancer> {
        let map = self.node_map();
        let slot = map.slot_of(id).ok_or(SigmaError::UnknownNode(id))?;
        let target = map.nodes()[slot].clone();
        let total: u64 = map.nodes().iter().map(|n| n.storage_usage()).sum();
        let mean = total / map.len() as u64;
        let mut target_usage = target.storage_usage();

        // Heaviest donors first; node ID breaks ties so plans are deterministic.
        let mut donors: Vec<(Arc<DedupNode>, u64)> = map
            .nodes()
            .iter()
            .filter(|n| n.id() != id)
            .map(|n| (n.clone(), n.storage_usage()))
            .collect();
        donors.sort_by_key(|(n, usage)| (std::cmp::Reverse(*usage), n.id()));

        let mut moves = Vec::new();
        'donors: for (donor, mut usage) in donors {
            for container in donor.sealed_container_ids() {
                if target_usage >= mean {
                    break 'donors;
                }
                if usage <= mean {
                    break;
                }
                let size = donor.container_data_size(&container).unwrap_or(0) as u64;
                if size == 0 {
                    continue;
                }
                moves.push(PlannedMove {
                    from: donor.clone(),
                    to: target.clone(),
                    container,
                });
                usage -= size.min(usage);
                target_usage += size;
            }
        }
        Ok(Rebalancer::new(
            moves,
            map.generation(),
            self.membership.clone(),
            None,
        ))
    }

    /// Plans and fully executes a rebalance onto node `id`.
    ///
    /// # Errors
    ///
    /// Returns [`SigmaError::UnknownNode`] if `id` is not an active node, and
    /// propagates node crashes from the migration itself.
    pub fn rebalance_onto(&self, id: usize) -> Result<RebalanceReport> {
        self.begin_rebalance_onto(id)?.run()
    }

    /// Removes node `id` from the active map and plans the migration of all its
    /// sealed containers onto the remaining nodes (least-loaded first).
    ///
    /// The node stops receiving new routed data immediately (generation bump); it
    /// stays resolvable through [`node_by_id`](Self::node_by_id) so recipes that
    /// name it keep restoring — during the drain from its own store, afterwards
    /// via the forwarding tombstones the migration leaves behind.  The returned
    /// [`Rebalancer`] must be driven ([`step`](Rebalancer::step) or
    /// [`run`](Rebalancer::run)) to actually move the data; [`Rebalancer::run`]
    /// additionally sweeps containers sealed by writes that raced the removal on
    /// an older node-map snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`SigmaError::UnknownNode`] if `id` is not active and
    /// [`SigmaError::ClusterTooSmall`] when `id` is the last active node.
    /// A failed seal of the leaving node's open containers is returned too:
    /// the node is retired by then, and [`resume_drain`](Self::resume_drain)
    /// seals and drains it once the fault is cleared.
    pub fn begin_remove_node(&self, id: usize) -> Result<Rebalancer> {
        let (node, generation) = {
            let mut m = self.membership.write();
            let slot = m.map.slot_of(id).ok_or(SigmaError::UnknownNode(id))?;
            if m.map.len() == 1 {
                return Err(SigmaError::ClusterTooSmall);
            }
            let mut nodes = m.map.nodes().to_vec();
            let node = nodes.remove(slot);
            let generation = m.map.generation() + 1;
            m.map = Arc::new(NodeMap::new(generation, nodes));
            (node, generation)
        };
        node.try_flush()?;
        self.plan_drain(node, generation)
    }

    /// Re-plans the drain of an already-removed node — the crash-recovery resume
    /// path: when a node dies mid-removal and is
    /// [`restart_node`](Self::restart_node)ed, the original [`Rebalancer`] is
    /// stale (it holds the dead node object), and the node cannot be
    /// "removed" again because it already left the active map.  `resume_drain`
    /// plans the migration of whatever sealed containers the retired node still
    /// holds; already-migrated containers are naturally absent from the new plan,
    /// and re-migrations of half-moved ones are deduplicated by the adoption
    /// ledger.
    ///
    /// # Errors
    ///
    /// Returns [`SigmaError::UnknownNode`] if `id` was never a cluster member,
    /// [`SigmaError::InvalidConfig`] if the node is still active (use
    /// [`begin_remove_node`](Self::begin_remove_node) for that), and the error
    /// a seal of the node's open containers hits.
    pub fn resume_drain(&self, id: usize) -> Result<Rebalancer> {
        let (node, generation) = {
            let m = self.membership.read();
            let node = m
                .directory
                .get(&id)
                .cloned()
                .ok_or(SigmaError::UnknownNode(id))?;
            if m.map.slot_of(id).is_some() {
                return Err(SigmaError::InvalidConfig(format!(
                    "node {} is still active; drain it with begin_remove_node",
                    id
                )));
            }
            (node, m.map.generation())
        };
        node.try_flush()?;
        self.plan_drain(node, generation)
    }

    /// Plans the migration of every sealed container off `node` onto the
    /// projected least-loaded active nodes.
    fn plan_drain(&self, node: Arc<DedupNode>, generation: u64) -> Result<Rebalancer> {
        let remaining = self.node_map().nodes().to_vec();
        let mut projected: Vec<(Arc<DedupNode>, u64)> = remaining
            .iter()
            .filter(|n| n.id() != node.id())
            .map(|n| (n.clone(), n.storage_usage()))
            .collect();
        if projected.is_empty() {
            return Err(SigmaError::ClusterTooSmall);
        }
        let mut moves = Vec::new();
        for container in node.sealed_container_ids() {
            let size = node.container_data_size(&container).unwrap_or(0) as u64;
            let (to, usage) = projected
                .iter_mut()
                .min_by_key(|(n, usage)| (*usage, n.id()))
                .expect("a drain always has at least one destination");
            moves.push(PlannedMove {
                from: node.clone(),
                to: to.clone(),
                container,
            });
            *usage += size;
        }
        Ok(Rebalancer::new(
            moves,
            generation,
            self.membership.clone(),
            Some(node),
        ))
    }

    /// Removes node `id` and fully drains it onto the remaining nodes.
    ///
    /// # Errors
    ///
    /// Same as [`begin_remove_node`](Self::begin_remove_node), plus node crashes
    /// propagated from the drain itself.
    pub fn remove_node(&self, id: usize) -> Result<RebalanceReport> {
        self.begin_remove_node(id)?.run()
    }

    // ---- Crash recovery ----

    /// Rebuilds a crashed node from its medium and swaps the recovered node
    /// into the cluster (same stable ID, same slot if it was active), then
    /// reconciles half-completed migrations: a container the recovered node
    /// still holds but some peer has durably adopted gets its missing
    /// tombstone published (and the local copy dropped), and vice versa — so a
    /// crash inside a [`Rebalancer::step`] can never leave a container
    /// duplicated or a tombstone chain dangling.
    ///
    /// The restart picks the medium itself.  A [`BackendKind::File`] node is
    /// re-opened from its directory (`storage_root/node-<id>`) with
    /// [`DedupNode::recover_from_dir`], as a new process would.  Any other
    /// node's medium is volatile, so the surviving
    /// [`Journal`](sigma_storage::Journal) handle, its only copy, is
    /// recovered in place.
    ///
    /// Everything the crashed node acknowledged (sealed and journaled before the
    /// crash) is served again afterwards, byte-identically; its open containers —
    /// never acknowledged — are lost, as a real crash would lose them.  The
    /// rollover seal the old node still had in flight is finished before
    /// recovery reads the medium: on a crashed journal its record is refused,
    /// and recovery sweeps its object as an orphan.
    ///
    /// # Errors
    ///
    /// Returns [`SigmaError::UnknownNode`] for an ID the cluster never had,
    /// [`SigmaError::InvalidConfig`] when the node has no journal
    /// ([`SigmaConfig::durability`] off), and [`SigmaError::Storage`] when the
    /// medium cannot be opened or replayed.
    pub fn restart_node(&self, id: usize) -> Result<RecoveryReport> {
        let old = self.node_by_id(id).ok_or(SigmaError::UnknownNode(id))?;
        let journal = old.journal().cloned().ok_or_else(|| {
            SigmaError::InvalidConfig(format!(
                "node {} has no write-ahead journal (durability is off)",
                id
            ))
        })?;
        // The crashed in-memory state is discarded, only the medium survives;
        // its rollover seal in flight is finished first, so no object write
        // of the dead incarnation lands after recovery's orphan sweep.
        old.finish_rollover_seal();
        drop(old);
        let (node, mut report) = if self.config.storage_backend == BackendKind::File {
            DedupNode::recover_from_dir(id, &self.config)?
        } else {
            DedupNode::recover(id, &self.config, journal)?
        };
        let node = Arc::new(node);
        {
            let mut m = self.membership.write();
            m.directory.insert(id, node.clone());
            if let Some(slot) = m.map.slot_of(id) {
                let mut nodes = m.map.nodes().to_vec();
                nodes[slot] = node.clone();
                // Bump the generation: in-flight batches finish against the dead
                // node's snapshot (and fail with a crash error), new ones route
                // to the recovered node.
                m.map = Arc::new(NodeMap::new(m.map.generation() + 1, nodes));
            }
        }

        // Reconcile migrations the crash cut in half.  Deterministic order: peers
        // sorted by stable ID.  Peers that are themselves crashed are skipped —
        // their journals refuse appends, and the symmetric sweep of their own
        // restart finishes the hand-off once they recover; reconciliation is
        // convergent regardless of restart order.
        let mut peers: Vec<Arc<DedupNode>> = self
            .membership
            .read()
            .directory
            .values()
            .filter(|n| n.id() != id && !n.crashed())
            .cloned()
            .collect();
        peers.sort_by_key(|n| n.id());
        for peer in &peers {
            // The recovered node crashed before publishing a tombstone for a
            // container the peer already adopted durably: finish the hand-off.
            for (origin_node, origin_cid, _) in peer.adopted_origins() {
                if origin_node == id && node.container_state(&origin_cid) == ContainerState::Sealed
                {
                    node.retire_container(origin_cid, peer.id())?;
                    report.reconciled_migrations += 1;
                }
            }
            // Symmetric case: the recovered node durably adopted a container the
            // (live or earlier-recovered) peer never got to retire.
            for (origin_node, origin_cid, _) in node.adopted_origins() {
                if origin_node == peer.id()
                    && peer.container_state(&origin_cid) == ContainerState::Sealed
                {
                    peer.retire_container(origin_cid, id)?;
                    report.reconciled_migrations += 1;
                }
            }
        }
        Ok(report)
    }

    /// [`restart_node`](Self::restart_node) on a file-backed cluster.
    ///
    /// This wrapper is kept only because the `sigma-e2e` benchmark calls it
    /// (see the public items its README lists); deleting it waits for a
    /// change to that benchmark.
    ///
    /// # Errors
    ///
    /// Same as [`restart_node`](Self::restart_node), and
    /// [`SigmaError::InvalidConfig`] when the config is not file-backed.
    pub fn restart_node_from_disk(&self, id: usize) -> Result<RecoveryReport> {
        match self.config.storage_backend {
            BackendKind::File => self.restart_node(id),
            _ => Err(SigmaError::InvalidConfig("not file-backed".into())),
        }
    }

    /// Logical bytes currently accounted to the cluster (routed minus
    /// deleted) — the cheap entry point the service layer's quota accounting
    /// reads, without computing a full [`stats`](Self::stats) snapshot.
    pub fn logical_bytes(&self) -> u64 {
        self.logical_bytes_routed.load(Ordering::Relaxed)
    }

    /// Logical bytes of the surviving recipes, grouped by tenant tag — the
    /// cluster-side ground truth the service layer's per-tenant accounting is
    /// cross-checked against.  Sessions opened without a tenant tag are not
    /// included (see
    /// [`Director::untagged_logical_bytes`](crate::Director::untagged_logical_bytes)).
    pub fn tenant_logical_bytes(&self) -> std::collections::BTreeMap<String, u64> {
        self.director.logical_bytes_by_tenant()
    }

    /// Physical bytes stored across the whole node directory (active nodes
    /// plus retired nodes still holding containers mid-drain), without
    /// computing a full [`stats`](Self::stats) snapshot.
    pub fn physical_bytes(&self) -> u64 {
        let m = self.membership.read();
        m.directory.values().map(|n| n.storage_usage()).sum()
    }

    /// Message counters so far.
    pub fn message_stats(&self) -> MessageStats {
        MessageStats {
            prerouting_lookups: self.prerouting_lookups.load(Ordering::Relaxed),
            postrouting_lookups: self.postrouting_lookups.load(Ordering::Relaxed),
            nodes_contacted: self.nodes_contacted.load(Ordering::Relaxed),
            super_chunks_routed: self.super_chunks_routed.load(Ordering::Relaxed),
        }
    }

    /// Cluster-wide statistics snapshot.
    ///
    /// Per-node figures (`node_usage`, `nodes`, skew) cover the *active* nodes;
    /// `logical_bytes` is the cluster-wide routed total, which survives node
    /// removals (the removed node's data migrated, its history did not vanish).
    /// `physical_bytes` sums the whole node directory — active nodes *plus*
    /// retired nodes that still hold containers mid-drain — so it always means
    /// "bytes the cluster stores", and `collect_garbage` (which sweeps retired
    /// stragglers too) satisfies `physical_after == physical_before −
    /// bytes_reclaimed` even with an incremental removal in flight.
    pub fn stats(&self) -> ClusterStats {
        let map = self.node_map();
        let nodes: Vec<NodeStats> = map.nodes().iter().map(|n| n.stats()).collect();
        let logical: u64 = self.logical_bytes_routed.load(Ordering::Relaxed);
        let physical: u64 = {
            let m = self.membership.read();
            m.directory.values().map(|n| n.storage_usage()).sum()
        };
        let usage: Vec<u64> = nodes.iter().map(|n| n.physical_bytes).collect();
        let dedup_ratio = if physical == 0 {
            1.0
        } else {
            logical as f64 / physical as f64
        };
        ClusterStats {
            router: self.router.name(),
            node_count: map.len(),
            logical_bytes: logical,
            physical_bytes: physical,
            dedup_ratio,
            usage_skew: usage_skew(&usage),
            node_usage: usage,
            messages: self.message_stats(),
            nodes,
        }
    }
}

/// Standard deviation of per-node storage usage divided by the mean usage
/// (0 when the mean is zero).
pub(crate) fn usage_skew(usage: &[u64]) -> f64 {
    if usage.is_empty() {
        return 0.0;
    }
    let mean = usage.iter().map(|&u| u as f64).sum::<f64>() / usage.len() as f64;
    if mean == 0.0 {
        return 0.0;
    }
    let variance = usage
        .iter()
        .map(|&u| {
            let d = u as f64 - mean;
            d * d
        })
        .sum::<f64>()
        / usage.len() as f64;
    variance.sqrt() / mean
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RecipeEntry;
    use sigma_hashkit::{Digest, FingerprintAlgorithm, Sha1};
    use sigma_storage::{StorageBackend, StorageError, StorageObject};

    /// One 4 KiB chunk per id, each its id's bytes repeated.
    fn super_chunk(ids: std::ops::Range<u64>) -> SuperChunk {
        let chunks = ids.map(|i| i.to_le_bytes().repeat(512)).collect();
        SuperChunk::from_payloads(FingerprintAlgorithm::Sha1, 0, chunks)
    }

    #[test]
    fn skew_is_zero_for_balanced_usage() {
        assert_eq!(usage_skew(&[]), 0.0);
        assert_eq!(usage_skew(&[0, 0, 0]), 0.0);
        assert!(usage_skew(&[100, 100, 100, 100]).abs() < 1e-12);
        assert!(usage_skew(&[100, 0, 100, 0]) > 0.9);
    }

    #[test]
    fn cluster_backup_accounts_messages() {
        let cluster = DedupCluster::with_similarity_router(8, SigmaConfig::default());
        let sc = super_chunk(0..256);
        cluster.backup_super_chunk(0, &sc, None).unwrap();
        let m = cluster.message_stats();
        assert_eq!(m.super_chunks_routed, 1);
        assert_eq!(m.postrouting_lookups, 256);
        // Pre-routing lookups = candidates * handprint size <= 8 * 8.
        assert!(m.prerouting_lookups > 0 && m.prerouting_lookups <= 64);
        assert!(m.total_lookups() >= 256);
    }

    #[test]
    fn duplicate_data_is_not_stored_twice_cluster_wide() {
        let cluster = DedupCluster::with_similarity_router(4, SigmaConfig::default());
        let sc = super_chunk(0..256);
        cluster.backup_super_chunk(0, &sc, None).unwrap();
        cluster.backup_super_chunk(0, &sc, None).unwrap();
        let stats = cluster.stats();
        assert_eq!(stats.logical_bytes, 2 * 256 * 4096);
        assert_eq!(stats.physical_bytes, 256 * 4096);
        assert!((stats.dedup_ratio - 2.0).abs() < 1e-9);
        assert!(stats.effective_dedup_ratio() <= stats.dedup_ratio);
    }

    #[test]
    fn empty_super_chunk_is_a_no_op() {
        let cluster = DedupCluster::with_similarity_router(2, SigmaConfig::default());
        let sc = SuperChunk::from_payloads(FingerprintAlgorithm::Sha1, 0, Vec::new());
        let r = cluster.backup_super_chunk(0, &sc, None).unwrap();
        assert_eq!(r.total_chunks(), 0);
        assert_eq!(cluster.message_stats().super_chunks_routed, 0);
    }

    #[test]
    fn restore_of_unknown_file_fails() {
        let cluster = DedupCluster::with_similarity_router(2, SigmaConfig::default());
        assert!(matches!(
            cluster.restore_file(7),
            Err(SigmaError::FileNotFound(7))
        ));
    }

    #[test]
    fn payload_super_chunks_round_trip_through_read_chunk() {
        let cluster = DedupCluster::with_similarity_router(4, SigmaConfig::default());
        let chunks: Vec<Vec<u8>> = (0..8u8).map(|i| vec![i; 2048]).collect();
        let sc = SuperChunk::from_payloads(FingerprintAlgorithm::Sha1, 0, chunks.clone());
        let (receipt, node) = cluster
            .backup_super_chunk_with_target(0, &sc, None)
            .unwrap();
        assert_eq!(receipt.unique_chunks, 8);
        cluster.try_flush().unwrap();
        for (i, d) in sc.descriptors().iter().enumerate() {
            assert_eq!(cluster.read_chunk(node, &d.fingerprint).unwrap(), chunks[i]);
        }
    }

    #[test]
    fn resemblance_by_node_sees_routed_data() {
        let cluster = DedupCluster::with_similarity_router(4, SigmaConfig::default());
        let sc = super_chunk(0..256);
        let hp = sc.handprint(8);
        let before = cluster.resemblance_by_node(&hp);
        assert!(before.iter().all(|&r| r == 0));
        cluster.backup_super_chunk(0, &sc, None).unwrap();
        let after = cluster.resemblance_by_node(&hp);
        assert_eq!(after.iter().filter(|&&r| r > 0).count(), 1);
    }

    #[test]
    fn add_node_bumps_generation_and_grows_routing() {
        let cluster = DedupCluster::with_similarity_router(2, SigmaConfig::default());
        assert_eq!(cluster.generation(), 0);
        assert_eq!(cluster.node_ids(), vec![0, 1]);
        let id = cluster.add_node();
        assert_eq!(id, 2);
        assert_eq!(cluster.generation(), 1);
        assert_eq!(cluster.node_count(), 3);
        assert_eq!(cluster.node_ids(), vec![0, 1, 2]);
        // The new node is addressable and empty.
        assert_eq!(cluster.node_by_id(2).unwrap().storage_usage(), 0);
    }

    #[test]
    fn remove_node_errors() {
        let cluster = DedupCluster::with_similarity_router(1, SigmaConfig::default());
        assert!(matches!(
            cluster.remove_node(7),
            Err(SigmaError::UnknownNode(7))
        ));
        assert!(matches!(
            cluster.remove_node(0),
            Err(SigmaError::ClusterTooSmall)
        ));
        // Still fully operational afterwards.
        assert_eq!(cluster.node_count(), 1);
    }

    #[test]
    fn remove_node_conserves_physical_bytes_and_restores() {
        let config = SigmaConfig::builder()
            .super_chunk_size(64 * 1024)
            .container_capacity(128 * 1024)
            .build()
            .unwrap();
        let cluster = Arc::new(DedupCluster::with_similarity_router(3, config));
        let client = crate::BackupClient::new(cluster.clone(), 0);
        let data: Vec<u8> = (0..400_000u32).map(|i| (i % 251) as u8).collect();
        let report = client.backup_bytes("victim.bin", &data).unwrap();
        cluster.try_flush().unwrap();

        let before = cluster.stats().physical_bytes;
        // Remove every node that holds data, one at a time, down to a single
        // survivor; after each removal the file must still restore byte-identically
        // and no byte may be duplicated or lost.
        for id in [0usize, 1] {
            let rebalance = cluster.remove_node(id).unwrap();
            assert_eq!(cluster.stats().physical_bytes, before, "conserved");
            assert_eq!(cluster.restore_file(report.file_id).unwrap(), data);
            // The retired node is drained but still addressable for forwarding.
            let retired = cluster.node_by_id(id).unwrap();
            assert_eq!(retired.storage_usage(), 0);
            let _ = rebalance;
        }
        assert_eq!(cluster.node_count(), 1);
        assert_eq!(cluster.generation(), 2);
        // Chained tombstones: data written to node 0 may have hopped 0 → 1 → 2.
        assert_eq!(cluster.restore_file(report.file_id).unwrap(), data);
    }

    #[test]
    fn rebalance_onto_new_node_moves_data_and_preserves_restores() {
        let config = SigmaConfig::builder()
            .super_chunk_size(64 * 1024)
            .container_capacity(128 * 1024)
            .build()
            .unwrap();
        let cluster = Arc::new(DedupCluster::with_similarity_router(2, config));
        let client = crate::BackupClient::new(cluster.clone(), 0);
        let data: Vec<u8> = (0..600_000u32).map(|i| (i % 241) as u8).collect();
        let report = client.backup_bytes("grow.bin", &data).unwrap();
        cluster.try_flush().unwrap();
        let before = cluster.stats().physical_bytes;

        let (id, rebalance) = cluster.add_node_rebalanced().unwrap();
        assert!(rebalance.containers_moved > 0, "new node must receive data");
        assert_eq!(rebalance.generation, 1);
        let new_usage = cluster.node_by_id(id).unwrap().storage_usage();
        assert!(new_usage > 0);
        // Roughly the cluster mean (within one container of it).
        assert!(new_usage <= before / 3 + 128 * 1024);
        assert_eq!(cluster.stats().physical_bytes, before, "conserved");
        assert_eq!(cluster.restore_file(report.file_id).unwrap(), data);
    }

    #[test]
    fn stepwise_rebalancer_reports_progress() {
        let config = SigmaConfig::builder()
            .super_chunk_size(64 * 1024)
            .container_capacity(128 * 1024)
            .build()
            .unwrap();
        let cluster = Arc::new(DedupCluster::with_similarity_router(2, config));
        let client = crate::BackupClient::new(cluster.clone(), 0);
        let data: Vec<u8> = (0..500_000u32).map(|i| (i % 239) as u8).collect();
        let report = client.backup_bytes("steps.bin", &data).unwrap();
        cluster.try_flush().unwrap();

        let mut rebalancer = cluster.begin_remove_node(0).unwrap();
        let planned = rebalancer.remaining();
        assert!(planned > 0);
        let mut moved = 0;
        while let Some(receipt) = rebalancer.step().unwrap() {
            moved += 1;
            assert_eq!(receipt.from, 0);
            // Mid-flight restores stay byte-identical after every single move.
            assert_eq!(cluster.restore_file(report.file_id).unwrap(), data);
        }
        assert_eq!(moved, planned);
        assert!(rebalancer.is_done());
        let final_report = rebalancer.run().unwrap();
        assert_eq!(final_report.containers_moved as usize, moved);
    }

    #[test]
    fn stale_join_plan_does_not_strand_data_on_a_removed_node() {
        let config = SigmaConfig::builder()
            .super_chunk_size(64 * 1024)
            .container_capacity(128 * 1024)
            .build()
            .unwrap();
        let cluster = Arc::new(DedupCluster::with_similarity_router(2, config));
        let client = crate::BackupClient::new(cluster.clone(), 0);
        let data: Vec<u8> = (0..400_000u32).map(|i| (i % 249) as u8).collect();
        let report = client.backup_bytes("stale.bin", &data).unwrap();
        cluster.try_flush().unwrap();
        let before = cluster.stats().physical_bytes;

        // Plan a rebalance onto a new node, then remove that node before the
        // plan runs: the stale plan must void itself rather than migrate data
        // onto the retired node.
        let id = cluster.add_node();
        let stale = cluster.begin_rebalance_onto(id).unwrap();
        assert!(stale.remaining() > 0);
        cluster.remove_node(id).unwrap();
        let outcome = stale.run().unwrap();
        assert_eq!(outcome.containers_moved, 0, "stale join plan must void");
        assert_eq!(cluster.stats().physical_bytes, before, "conserved");
        assert_eq!(cluster.restore_file(report.file_id).unwrap(), data);
    }

    #[test]
    fn overlapping_plans_skip_already_migrated_containers() {
        let config = SigmaConfig::builder()
            .super_chunk_size(64 * 1024)
            .container_capacity(128 * 1024)
            .build()
            .unwrap();
        let cluster = Arc::new(DedupCluster::with_similarity_router(3, config));
        let client = crate::BackupClient::new(cluster.clone(), 0);
        let data: Vec<u8> = (0..400_000u32).map(|i| (i % 247) as u8).collect();
        let report = client.backup_bytes("overlap.bin", &data).unwrap();
        cluster.try_flush().unwrap();
        let before = cluster.stats().physical_bytes;

        // Two overlapping drain plans for the same node: the second runs first
        // and migrates everything; the first must skip the vanished containers
        // (not silently abort on the first missing one) and change nothing.
        let first = cluster.begin_remove_node(0).unwrap();
        // Re-adding the node id is not possible, so build the overlap from a
        // second plan over the same already-planned moves.
        let second = Rebalancer::new(
            first.moves.iter().cloned().collect(),
            first.report().generation,
            cluster.membership.clone(),
            None,
        );
        let done = first.run().unwrap();
        assert!(done.containers_moved > 0);
        let noop = second.run().unwrap();
        assert_eq!(
            noop.containers_moved, 0,
            "already-migrated containers are skipped, not re-moved"
        );
        assert_eq!(cluster.stats().physical_bytes, before, "conserved");
        assert_eq!(cluster.restore_file(report.file_id).unwrap(), data);
    }

    fn lifecycle_config() -> SigmaConfig {
        SigmaConfig::builder()
            .super_chunk_size(64 * 1024)
            .container_capacity(64 * 1024)
            .build()
            .unwrap()
    }

    #[test]
    fn delete_file_then_gc_reclaims_space_and_keeps_survivors() {
        let cluster = Arc::new(DedupCluster::with_similarity_router(3, lifecycle_config()));
        let keep_client = crate::BackupClient::with_generation(cluster.clone(), 0, 0);
        let drop_client = crate::BackupClient::with_generation(cluster.clone(), 1, 1);
        let keep_data: Vec<u8> = (0..300_000u32).map(|i| (i % 251) as u8).collect();
        let drop_data: Vec<u8> = (0..300_000u32).map(|i| (i % 241) as u8).collect();
        let keep = keep_client.backup_bytes("keep.bin", &keep_data).unwrap();
        let dropped = drop_client.backup_bytes("drop.bin", &drop_data).unwrap();
        cluster.try_flush().unwrap();

        let before = cluster.stats();
        let freed = cluster.delete_file(dropped.file_id).unwrap();
        assert_eq!(freed, drop_data.len() as u64);
        // Deletion alone reclaims nothing; logical accounting already shrank.
        let mid = cluster.stats();
        assert_eq!(mid.physical_bytes, before.physical_bytes);
        assert_eq!(mid.logical_bytes, before.logical_bytes - freed);

        let report = cluster.collect_garbage().unwrap();
        assert!(report.bytes_reclaimed > 0, "dead generation must shrink");
        assert!(report.containers_dropped + report.containers_compacted > 0);
        let after = cluster.stats();
        assert_eq!(
            after.physical_bytes,
            before.physical_bytes - report.bytes_reclaimed
        );
        assert!(
            after.physical_bytes >= report.live_bytes,
            "never below live"
        );
        assert_eq!(cluster.restore_file(keep.file_id).unwrap(), keep_data);
        assert!(matches!(
            cluster.restore_file(dropped.file_id),
            Err(SigmaError::FileNotFound(_))
        ));
        for node in cluster.nodes() {
            node.verify_consistency().unwrap();
        }

        // GC is idempotent: a second sweep over the same root set is a no-op.
        let again = cluster.collect_garbage().unwrap();
        assert_eq!(again.bytes_reclaimed, 0);
        assert_eq!(cluster.stats().physical_bytes, after.physical_bytes);
    }

    #[test]
    fn shared_chunks_survive_the_deletion_of_one_referencing_file() {
        let cluster = Arc::new(DedupCluster::with_similarity_router(2, lifecycle_config()));
        let client = crate::BackupClient::new(cluster.clone(), 0);
        let data: Vec<u8> = (0..200_000u32).map(|i| (i % 239) as u8).collect();
        let a = client.backup_bytes("gen-a", &data).unwrap();
        let b = client.backup_bytes("gen-b", &data).unwrap();
        cluster.try_flush().unwrap();
        let before = cluster.stats().physical_bytes;

        // Both recipes reference the same chunks; deleting one frees nothing.
        cluster.delete_file(a.file_id).unwrap();
        let report = cluster.collect_garbage().unwrap();
        assert_eq!(report.bytes_reclaimed, 0, "shared chunks stay live");
        assert_eq!(cluster.stats().physical_bytes, before);
        assert_eq!(cluster.restore_file(b.file_id).unwrap(), data);

        // Deleting the last reference makes them garbage.
        cluster.delete_file(b.file_id).unwrap();
        let report = cluster.collect_garbage().unwrap();
        assert_eq!(report.live_chunks, 0);
        assert_eq!(cluster.stats().physical_bytes, 0);
    }

    #[test]
    fn lifecycle_errors_are_clean() {
        let cluster = Arc::new(DedupCluster::with_similarity_router(2, lifecycle_config()));
        assert!(matches!(
            cluster.delete_file(99),
            Err(SigmaError::FileNotFound(99))
        ));
        assert!(matches!(
            cluster.delete_backup(99),
            Err(SigmaError::BackupNotFound(99))
        ));
        // GC on an empty cluster is a no-op.
        let report = cluster.collect_garbage().unwrap();
        assert_eq!(report.recipes_marked, 0);
        assert_eq!(report.containers_scanned, 0);
        assert_eq!(report.bytes_reclaimed, 0);
        assert_eq!(
            report.nodes.len(),
            2,
            "every node is swept, finding nothing"
        );
        // Expiring a generation nobody opened is an idempotent no-op.
        assert_eq!(cluster.delete_generation(7).unwrap(), 0);

        let client = crate::BackupClient::new(cluster.clone(), 0);
        let data: Vec<u8> = (0..100_000u32).map(|i| (i % 233) as u8).collect();
        let report = client.backup_bytes("once.bin", &data).unwrap();
        cluster.try_flush().unwrap();
        cluster.delete_file(report.file_id).unwrap();
        // Double delete and delete-then-restore are errors, not panics.
        assert!(matches!(
            cluster.delete_file(report.file_id),
            Err(SigmaError::FileNotFound(_))
        ));
        assert!(matches!(
            cluster.restore_file(report.file_id),
            Err(SigmaError::FileNotFound(_))
        ));
    }

    #[test]
    fn delete_backup_expires_a_whole_session() {
        let cluster = Arc::new(DedupCluster::with_similarity_router(2, lifecycle_config()));
        let client = crate::BackupClient::new(cluster.clone(), 0);
        let data_a: Vec<u8> = (0..150_000u32).map(|i| (i % 229) as u8).collect();
        let data_b: Vec<u8> = (0..150_000u32).map(|i| (i % 227) as u8).collect();
        let a = client.backup_bytes("a.bin", &data_a).unwrap();
        let b = client.backup_bytes("b.bin", &data_b).unwrap();
        cluster.try_flush().unwrap();
        let freed = cluster.delete_backup(client.session_id()).unwrap();
        assert_eq!(freed, (data_a.len() + data_b.len()) as u64);
        assert!(cluster.restore_file(a.file_id).is_err());
        assert!(cluster.restore_file(b.file_id).is_err());
        cluster.collect_garbage().unwrap();
        assert_eq!(cluster.stats().physical_bytes, 0);
    }

    #[test]
    fn gc_marks_through_forwarding_tombstones_mid_rebalance() {
        let cluster = Arc::new(DedupCluster::with_similarity_router(3, lifecycle_config()));
        let keep_client = crate::BackupClient::new(cluster.clone(), 0);
        let drop_client = crate::BackupClient::new(cluster.clone(), 1);
        let keep_data: Vec<u8> = (0..250_000u32).map(|i| (i % 223) as u8).collect();
        let drop_data: Vec<u8> = (0..250_000u32).map(|i| (i % 219) as u8).collect();
        let keep = keep_client.backup_bytes("keep.bin", &keep_data).unwrap();
        let dropped = drop_client.backup_bytes("drop.bin", &drop_data).unwrap();
        cluster.try_flush().unwrap();

        // Migrate everything off node 0, then GC: live chunks whose recipes
        // still name node 0 must be marked *through* the tombstones at their
        // new home, not collected as unreferenced.
        cluster.remove_node(0).unwrap();
        cluster.delete_file(dropped.file_id).unwrap();
        let report = cluster.collect_garbage().unwrap();
        assert!(report.live_chunks > 0);
        assert!(report.bytes_reclaimed > 0);
        assert_eq!(cluster.restore_file(keep.file_id).unwrap(), keep_data);
        assert!(cluster.stats().physical_bytes >= report.live_bytes);
        for id in 0..3 {
            cluster
                .node_by_id(id)
                .unwrap()
                .verify_consistency()
                .unwrap();
        }
    }

    #[test]
    fn gc_mid_drain_keeps_the_reclaimed_bytes_equation() {
        // A partially executed removal leaves sealed containers on a retired
        // node.  `physical_bytes` must still count them (they are bytes the
        // cluster stores), and a GC that sweeps the retired straggler must
        // satisfy physical_after == physical_before - bytes_reclaimed.
        let cluster = Arc::new(DedupCluster::with_similarity_router(3, lifecycle_config()));
        let keep_client = crate::BackupClient::new(cluster.clone(), 0);
        let drop_client = crate::BackupClient::new(cluster.clone(), 1);
        let keep_data: Vec<u8> = (0..250_000u32).map(|i| (i % 211) as u8).collect();
        let drop_data: Vec<u8> = (0..250_000u32).map(|i| (i % 199) as u8).collect();
        let keep = keep_client.backup_bytes("keep.bin", &keep_data).unwrap();
        let dropped = drop_client.backup_bytes("drop.bin", &drop_data).unwrap();
        cluster.try_flush().unwrap();
        let before = cluster.stats().physical_bytes;

        // Retire node 0 but execute only one migration step: the rest of its
        // containers stay on the retired node as stragglers.
        let mut rebalancer = cluster.begin_remove_node(0).unwrap();
        rebalancer.step().unwrap();
        assert_eq!(
            cluster.stats().physical_bytes,
            before,
            "mid-drain bytes on the retired node still count"
        );

        cluster.delete_file(dropped.file_id).unwrap();
        let report = cluster.collect_garbage().unwrap();
        assert!(report.bytes_reclaimed > 0);
        assert_eq!(
            cluster.stats().physical_bytes,
            before - report.bytes_reclaimed,
            "reclaimed bytes account exactly, retired stragglers included"
        );
        assert_eq!(cluster.restore_file(keep.file_id).unwrap(), keep_data);

        // Finishing the drain afterwards is untroubled by the GC (collected
        // containers simply vanished from the plan) and conserves bytes.
        let after_gc = cluster.stats().physical_bytes;
        rebalancer.run().unwrap();
        assert_eq!(cluster.node_by_id(0).unwrap().storage_usage(), 0);
        assert_eq!(cluster.stats().physical_bytes, after_gc);
        assert_eq!(cluster.restore_file(keep.file_id).unwrap(), keep_data);
    }

    #[test]
    fn cluster_delete_preserves_straggler_generation_for_live_clients() {
        // Cluster-level version of the director regression: expire a
        // generation while its client object is still alive, have the client
        // write again, and verify the straggler is still governed by its
        // original generation's retention.
        let cluster = Arc::new(DedupCluster::with_similarity_router(2, lifecycle_config()));
        let client = crate::BackupClient::with_generation(cluster.clone(), 0, 3);
        let data: Vec<u8> = (0..120_000u32).map(|i| (i % 193) as u8).collect();
        client.backup_bytes("wave.bin", &data).unwrap();
        cluster.try_flush().unwrap();
        cluster.delete_generation(3).unwrap();

        let straggler = client.backup_bytes("late.bin", &data).unwrap();
        cluster.try_flush().unwrap();
        let freed = cluster.delete_generation(3).unwrap();
        assert_eq!(freed, data.len() as u64, "straggler expires with gen 3");
        assert!(cluster.restore_file(straggler.file_id).is_err());
        cluster.collect_garbage().unwrap();
        assert_eq!(cluster.stats().physical_bytes, 0);
    }

    #[test]
    fn a_miss_behind_a_tombstone_is_walked_again_from_the_recipe_node() {
        // The first walk crosses node 0's tombstone and misses on node 1, as a
        // walk does when a writer re-points the chain between two reads; the
        // fresh walk finds the chunk where the recipe says.
        let cluster = DedupCluster::with_similarity_router(2, SigmaConfig::default());
        let fp = Sha1::fingerprint(b"raced");
        let probes = std::cell::Cell::new(0);
        let resolved = cluster.resolve_chunk(0, &fp, |node| {
            probes.set(probes.get() + 1);
            match (probes.get(), node.id()) {
                (1, 0) => Err(SigmaError::ChunkMigrated {
                    fingerprint: fp.to_string(),
                    node: 1,
                }),
                (2, 1) => Err(SigmaError::ChunkMissing {
                    node: 1,
                    fingerprint: fp.to_string(),
                }),
                (3, 0) => Ok("found"),
                probe => panic!("unexpected probe {probe:?}"),
            }
        });
        assert_eq!(resolved, Ok((0, "found")));

        // A miss that a fresh walk repeats stands: two walks of two hops.
        probes.set(0);
        let repeated = cluster.resolve_chunk(0, &fp, |node| {
            probes.set(probes.get() + 1);
            match node.id() {
                0 => Err(SigmaError::ChunkMigrated {
                    fingerprint: fp.to_string(),
                    node: 1,
                }),
                _ => node.read_chunk(&fp).map(|_| ()),
            }
        });
        assert!(matches!(
            repeated,
            Err(SigmaError::ChunkMissing { node: 1, .. })
        ));
        assert_eq!(probes.get(), 4);

        // A found chunk costs one probe.
        probes.set(0);
        let found = cluster.resolve_chunk(0, &fp, |_| {
            probes.set(probes.get() + 1);
            Ok(())
        });
        assert_eq!(found, Ok((0, ())));
        assert_eq!(probes.get(), 1);
    }

    #[test]
    fn node_usage_reported_per_node() {
        let cluster = DedupCluster::with_similarity_router(4, SigmaConfig::default());
        for g in 0..8u64 {
            let sc = super_chunk(g * 1000..g * 1000 + 64);
            cluster.backup_super_chunk(0, &sc, None).unwrap();
        }
        let stats = cluster.stats();
        assert_eq!(stats.node_usage.len(), 4);
        assert_eq!(stats.node_usage.iter().sum::<u64>(), stats.physical_bytes);
        assert_eq!(stats.node_count, 4);
        assert_eq!(stats.router, "sigma");
    }

    /// A memory backend whose container-object writes take `delay`, and
    /// which can park the next one until the test releases it, or fail it
    /// once.  It can also fail the next `read_shared`, the restore's
    /// whole-section read, once.  It counts `list` calls: recovery lists the
    /// medium before it sweeps orphans.
    #[derive(Debug, Default)]
    struct GatedBackend {
        inner: sigma_storage::MemoryBackend,
        delay: std::time::Duration,
        fail_next_write: std::sync::atomic::AtomicBool,
        fail_next_read_shared: std::sync::atomic::AtomicBool,
        /// `(parked, release)`: signalled when a write parks, then awaited.
        park_next_write: parking_lot::Mutex<
            Option<(std::sync::mpsc::Sender<()>, std::sync::mpsc::Receiver<()>)>,
        >,
        lists: AtomicU64,
    }

    impl StorageBackend for GatedBackend {
        fn kind(&self) -> sigma_storage::BackendKind {
            self.inner.kind()
        }
        fn append(&self, obj: StorageObject, bytes: &[u8]) -> sigma_storage::Result<u64> {
            self.inner.append(obj, bytes)
        }
        fn write_object(&self, obj: StorageObject, bytes: &[u8]) -> sigma_storage::Result<()> {
            if matches!(obj, StorageObject::Container(_)) {
                std::thread::sleep(self.delay);
                if self.fail_next_write.swap(false, Ordering::SeqCst) {
                    return Err(StorageError::Io(format!("{obj}: injected write failure")));
                }
                let park = self.park_next_write.lock().take();
                if let Some((parked, release)) = park {
                    parked.send(()).unwrap();
                    release.recv().unwrap();
                }
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
            self.inner.read_at(obj, offset, len)
        }
        fn read_shared(
            &self,
            obj: StorageObject,
            offset: u64,
            len: usize,
        ) -> sigma_storage::Result<sigma_storage::SharedBytes> {
            if self.fail_next_read_shared.swap(false, Ordering::SeqCst) {
                return Err(StorageError::Io(format!("{obj}: injected read failure")));
            }
            self.inner.read_shared(obj, offset, len)
        }
        fn object_len(&self, obj: StorageObject) -> sigma_storage::Result<Option<u64>> {
            self.inner.object_len(obj)
        }
        fn truncate(&self, obj: StorageObject, len: u64) -> sigma_storage::Result<()> {
            self.inner.truncate(obj, len)
        }
        fn fsync(&self, obj: StorageObject) -> sigma_storage::Result<()> {
            self.inner.fsync(obj)
        }
        fn delete(&self, obj: StorageObject) -> sigma_storage::Result<()> {
            self.inner.delete(obj)
        }
        fn list(&self) -> sigma_storage::Result<Vec<StorageObject>> {
            self.lists.fetch_add(1, Ordering::SeqCst);
            self.inner.list()
        }
    }

    /// Durable, 8 KiB containers, 1 KiB fixed chunks: every few KiB of
    /// unique input rolls a container over.
    fn rollover_config() -> SigmaConfig {
        SigmaConfig::builder()
            .super_chunk_size(4 * 1024)
            .chunker(sigma_chunking::ChunkerParams::fixed(1024))
            .container_capacity(8 * 1024)
            .durability(true)
            .build()
            .unwrap()
    }

    /// A similarity-routed cluster whose node `i` keeps its journal and
    /// containers on `backends[i]`.
    fn cluster_over(config: &SigmaConfig, backends: &[Arc<GatedBackend>]) -> Arc<DedupCluster> {
        let cluster = DedupCluster::with_similarity_router(backends.len(), config.clone());
        let nodes: Vec<Arc<DedupNode>> = backends
            .iter()
            .enumerate()
            .map(|(id, backend)| {
                let journal = sigma_storage::Journal::with_backend(backend.clone()).unwrap();
                Arc::new(DedupNode::recover(id, config, Arc::new(journal)).unwrap().0)
            })
            .collect();
        {
            let mut m = cluster.membership.write();
            for node in &nodes {
                m.directory.insert(node.id(), node.clone());
            }
            m.map = Arc::new(NodeMap::new(m.map.generation(), nodes));
        }
        Arc::new(cluster)
    }

    fn pseudo_random(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 32) as u8
            })
            .collect()
    }

    #[test]
    fn sealer_leaves_no_trace_of_timing() {
        // The same input, once with instant container writes and once with
        // writes slow enough that every sealer thread is still running when
        // ingest moves on: journals, usage and messages must not differ.
        let config = rollover_config();
        let files: Vec<Vec<u8>> = (0..6).map(|i| pseudo_random(40 * 1024, 70 + i)).collect();
        let run = |delay_ms: u64| {
            let backends: Vec<Arc<GatedBackend>> = (0..4)
                .map(|_| {
                    Arc::new(GatedBackend {
                        delay: std::time::Duration::from_millis(delay_ms),
                        ..GatedBackend::default()
                    })
                })
                .collect();
            let cluster = cluster_over(&config, &backends);
            let client = crate::BackupClient::new(cluster.clone(), 0);
            let mut ids = Vec::new();
            let mut usage = Vec::new();
            for (i, data) in files.iter().enumerate() {
                let file = &data[..data.len() - i * 1000];
                ids.push(client.backup_bytes(&format!("f{i}"), file).unwrap().file_id);
                // Mid-ingest, with a seal in flight on some node.
                usage.push(cluster.stats().node_usage);
            }
            cluster.try_flush().unwrap();
            for (i, (id, data)) in ids.iter().zip(&files).enumerate() {
                assert_eq!(
                    cluster.restore_file(*id).unwrap(),
                    data[..data.len() - i * 1000]
                );
            }
            let stats = cluster.stats();
            let journals: Vec<Vec<u8>> = backends
                .iter()
                .map(|b| b.inner.read_all(StorageObject::Journal).unwrap())
                .collect();
            usage.push(stats.node_usage);
            (journals, usage, stats.messages, stats.nodes)
        };
        let (fast_journals, fast_usage, fast_messages, fast_nodes) = run(0);
        let (slow_journals, slow_usage, slow_messages, slow_nodes) = run(3);
        let sealed: u64 = fast_nodes
            .iter()
            .map(|n| n.containers.sealed_containers)
            .sum();
        assert!(sealed >= 16, "the input rolls containers over ({sealed})");
        assert_eq!(fast_journals, slow_journals, "journals are byte-identical");
        assert_eq!(fast_usage, slow_usage);
        assert_eq!(fast_messages, slow_messages);
        let containers =
            |nodes: &[crate::NodeStats]| -> Vec<_> { nodes.iter().map(|n| n.containers).collect() };
        assert_eq!(containers(&fast_nodes), containers(&slow_nodes));
    }

    #[test]
    fn a_failed_seal_of_a_leaving_node_is_returned_and_resumed() {
        let config = rollover_config();
        let backends: Vec<Arc<GatedBackend>> =
            (0..3).map(|_| Arc::new(GatedBackend::default())).collect();
        let cluster = cluster_over(&config, &backends);
        let client = crate::BackupClient::new(cluster.clone(), 0);
        let files: Vec<Vec<u8>> = (0..8)
            .map(|i| pseudo_random(13 * 1024 + 300 * i, 500 + i as u64))
            .collect();
        let mut ids = Vec::new();
        for (i, data) in files.iter().enumerate() {
            ids.push(client.backup_bytes(&format!("f{i}"), data).unwrap().file_id);
            if i == 3 {
                cluster.try_flush().unwrap();
            }
        }
        // The second half is not acknowledged yet: the leaving node still
        // holds an open container, and its seal fails.
        let victim = cluster
            .node_ids()
            .into_iter()
            .find(|&id| {
                let node = cluster.node_by_id(id).unwrap();
                node.stats().containers.open_containers > 0
            })
            .expect("the tail leaves an open container on some node");
        backends[victim]
            .fail_next_write
            .store(true, Ordering::SeqCst);
        let err = cluster.begin_remove_node(victim).unwrap_err();
        assert!(
            matches!(err, SigmaError::Storage(StorageError::Io(_))),
            "{err}"
        );
        assert!(!cluster.node_ids().contains(&victim), "the node is retired");
        assert!(cluster.node_by_id(victim).is_some());

        // The fault was one-shot: the resumed drain seals what the failed
        // flush left open, acknowledging the tail, and moves everything off.
        cluster.resume_drain(victim).unwrap().run().unwrap();
        let retired = cluster.node_by_id(victim).unwrap();
        assert!(retired.sealed_container_ids().is_empty());
        assert_eq!(retired.stats().containers.open_containers, 0);
        for (id, data) in ids.iter().zip(&files) {
            assert_eq!(&cluster.restore_file(*id).unwrap(), data);
        }
    }

    #[test]
    fn sealer_restart_waits_for_the_dead_incarnations_write() {
        // A healthy journal takes the finished seal's records; a crashed one
        // refuses them and recovery sweeps the object as an orphan.
        for crashed in [false, true] {
            let config = rollover_config();
            let backend = Arc::new(GatedBackend::default());
            let cluster = cluster_over(&config, std::slice::from_ref(&backend));
            let (parked_tx, parked) = std::sync::mpsc::channel();
            let (release, release_rx) = std::sync::mpsc::channel();
            *backend.park_next_write.lock() = Some((parked_tx, release_rx));
            // Ten 1 KiB chunks into 8 KiB containers: one rollover, whose
            // write parks on its sealer thread.
            let payloads: Vec<Vec<u8>> = (0..10).map(|i| pseudo_random(1024, 900 + i)).collect();
            let sc = SuperChunk::from_payloads(FingerprintAlgorithm::Sha1, 0, payloads);
            cluster.backup_super_chunk(0, &sc, None).unwrap();
            parked.recv().unwrap();
            let old = cluster.node_by_id(0).unwrap();
            if crashed {
                let journal = old.journal().unwrap();
                journal.arm_crash_at_seq(journal.next_seq(), sigma_storage::CrashMode::Clean);
            }
            drop(old);
            let lists = backend.lists.load(Ordering::SeqCst);
            let restart = {
                let cluster = cluster.clone();
                std::thread::spawn(move || cluster.restart_node(0))
            };
            // However long the write stays parked, the restart neither lists
            // nor sweeps the medium.
            std::thread::sleep(std::time::Duration::from_millis(100));
            assert!(!restart.is_finished());
            assert_eq!(backend.lists.load(Ordering::SeqCst), lists);
            release.send(()).unwrap();
            let report = restart.join().unwrap().unwrap();
            assert_eq!(report.orphan_objects_swept, u64::from(crashed));
            let node = cluster.node_by_id(0).unwrap();
            let objects: Vec<ContainerId> = backend
                .inner
                .list()
                .unwrap()
                .into_iter()
                .filter_map(|obj| match obj {
                    StorageObject::Container(id) => Some(id),
                    _ => None,
                })
                .collect();
            assert_eq!(
                objects,
                node.sealed_container_ids(),
                "no object beyond what the journal names"
            );
            assert_eq!(objects.len(), usize::from(!crashed));
            node.verify_consistency().unwrap();
        }
    }

    #[test]
    fn a_failed_batched_read_falls_back_to_serial_reads_of_its_group() {
        let config = rollover_config();
        let backend = Arc::new(GatedBackend::default());
        let cluster = cluster_over(&config, std::slice::from_ref(&backend));
        let client = crate::BackupClient::new(cluster.clone(), 0);
        // Six 1 KiB chunks: one group, one sealed 8 KiB container.
        let data = pseudo_random(6 * 1024, 41);
        let id = client.backup_bytes("f", &data).unwrap().file_id;
        cluster.try_flush().unwrap();
        backend.fail_next_read_shared.store(true, Ordering::SeqCst);
        let (bytes, report) = cluster.restore_file_with_report(id).unwrap();
        assert_eq!(bytes, data);
        assert!(!backend.fail_next_read_shared.load(Ordering::SeqCst));
        assert_eq!(report.containers_read, 1);
        assert_eq!((report.chunks_read, report.serial_fallback_chunks), (6, 6));
        // The fault was one-shot: the next restore reads the section.
        let (bytes, report) = cluster.restore_file_with_report(id).unwrap();
        assert_eq!(bytes, data);
        assert_eq!(report.serial_fallback_chunks, 0);
    }

    /// Restores `file_id` both ways and asserts each fails with
    /// `RestoreTruncated { expected, actual }`.
    fn assert_truncated(cluster: &DedupCluster, file_id: FileId, expected: u64, actual: u64) {
        let want = SigmaError::RestoreTruncated {
            file_id,
            expected,
            actual,
        };
        assert_eq!(cluster.restore_file(file_id), Err(want.clone()));
        assert_eq!(
            cluster
                .restore_file_with_report(file_id)
                .map(|(bytes, _)| bytes),
            Err(want)
        );
    }

    #[test]
    fn a_recipe_that_disagrees_with_its_entries_or_the_store_is_truncated() {
        let config = rollover_config();
        let cluster = Arc::new(DedupCluster::with_similarity_router(2, config));
        let client = crate::BackupClient::new(cluster.clone(), 0);
        let data = pseudo_random(10 * 1024, 42);
        let id = client.backup_bytes("f", &data).unwrap().file_id;
        cluster.try_flush().unwrap();
        let recipe = cluster.director().recipe(id).unwrap();
        assert_eq!(recipe.size, 10 * 1024);
        let register = |size: u64, chunks: Vec<RecipeEntry>| {
            cluster
                .director()
                .register_file(recipe.session_id, "by-hand", size, chunks)
        };

        // A size one byte past what its entries add up to.
        let oversized = register(recipe.size + 1, recipe.chunks.clone());
        assert_truncated(&cluster, oversized, recipe.size + 1, recipe.size);

        // Entries that add up to the size, one of them 24 bytes shorter
        // than the chunk the store holds: the figures put the stored
        // length in its place.
        let mut chunks = recipe.chunks.clone();
        chunks[3].len -= 24;
        let short = register(recipe.size - 24, chunks);
        assert_truncated(&cluster, short, recipe.size - 24, recipe.size);

        // The real recipe still restores.
        assert_eq!(cluster.restore_file(id).unwrap(), data);
    }
}

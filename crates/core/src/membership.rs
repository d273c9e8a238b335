//! Elastic cluster membership: generation-stamped node maps and the rebalancer.
//!
//! A [`DedupCluster`](crate::DedupCluster) starts with a fixed set of nodes but may
//! grow ([`add_node`](crate::DedupCluster::add_node)) and shrink
//! ([`remove_node`](crate::DedupCluster::remove_node)) while live.  Two structures
//! make that safe:
//!
//! * **[`NodeMap`]** — an immutable, generation-stamped snapshot of the active
//!   nodes.  Every routing decision (and every stream of an ingest call) is
//!   made against one snapshot, so a membership change mid-backup can never
//!   split a file across two views of the cluster.  Node *IDs* are stable
//!   for the lifetime of the cluster; only the *slots* a router indexes into
//!   change with membership.
//! * **[`Rebalancer`]** — a planned sequence of sealed-container migrations.  Each
//!   [`step`](Rebalancer::step) moves one container: the data and its
//!   chunk-index/similarity-index entries are installed on the destination node,
//!   then a forwarding tombstone is published at the source *before* the data is
//!   dropped there.  Restores therefore stay byte-identical at every point during
//!   and after a migration — a recipe written at any generation either reads the
//!   chunk where it was written or follows the tombstone chain to wherever the
//!   rebalancer took it.
//!
//! The rebalancer is deliberately incremental so callers (and tests) can
//! interleave restores and backups with a migration in flight.
//! [`Rebalancer::run`] drains every planned move; for a node removal it also
//! re-scans the source afterwards so containers sealed by stragglers still
//! migrate before the report is returned.

use crate::{DedupNode, Result};
use sigma_storage::ContainerId;
use std::sync::Arc;

/// An immutable, generation-stamped snapshot of the cluster's active nodes.
///
/// Routers index nodes by *slot* (position in [`nodes`](NodeMap::nodes)); the
/// stable node *ID* of the slot's occupant is what ends up in file recipes.
#[derive(Debug, Clone)]
pub struct NodeMap {
    generation: u64,
    nodes: Vec<Arc<DedupNode>>,
}

impl NodeMap {
    /// Creates a node map at `generation` over the given active nodes.
    pub(crate) fn new(generation: u64, nodes: Vec<Arc<DedupNode>>) -> Self {
        NodeMap { generation, nodes }
    }

    /// The membership generation this snapshot belongs to.  Bumped by every
    /// [`add_node`](crate::DedupCluster::add_node) /
    /// [`remove_node`](crate::DedupCluster::remove_node).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The active nodes, in slot order.
    pub fn nodes(&self) -> &[Arc<DedupNode>] {
        &self.nodes
    }

    /// Number of active nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no node is active (never the case for a live cluster).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Stable IDs of the active nodes, in slot order.
    pub fn node_ids(&self) -> Vec<usize> {
        self.nodes.iter().map(|n| n.id()).collect()
    }

    /// The slot currently occupied by node `id`, if it is active.
    pub fn slot_of(&self, id: usize) -> Option<usize> {
        self.nodes.iter().position(|n| n.id() == id)
    }
}

/// One planned container migration.
#[derive(Debug, Clone)]
pub(crate) struct PlannedMove {
    pub(crate) from: Arc<DedupNode>,
    pub(crate) to: Arc<DedupNode>,
    pub(crate) container: ContainerId,
}

/// Receipt for one completed container migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MoveReceipt {
    /// Node the container was migrated from.
    pub from: usize,
    /// Node the container was migrated to.
    pub to: usize,
    /// The container's identifier on the source node (now a forwarding tombstone).
    pub container: ContainerId,
    /// The container's new identifier on the destination node.
    pub new_container: ContainerId,
    /// Logical bytes moved.
    pub bytes: u64,
    /// Chunks moved.
    pub chunks: u64,
}

/// Summary of a completed rebalance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RebalanceReport {
    /// Containers migrated.
    pub containers_moved: u64,
    /// Logical bytes migrated.
    pub bytes_moved: u64,
    /// Chunks migrated.
    pub chunks_moved: u64,
    /// Membership generation the rebalance ran under.
    pub generation: u64,
}

/// A planned, incrementally executable container migration.
///
/// Obtained from [`DedupCluster::begin_rebalance_onto`](crate::DedupCluster::begin_rebalance_onto)
/// (spread load onto a newly added node) or
/// [`DedupCluster::begin_remove_node`](crate::DedupCluster::begin_remove_node)
/// (drain a leaving node).  Each [`step`](Rebalancer::step) migrates exactly one
/// sealed container and is safe to interleave with concurrent backups and
/// restores; [`run`](Rebalancer::run) drains the whole plan.
#[derive(Debug)]
pub struct Rebalancer {
    pub(crate) moves: std::collections::VecDeque<PlannedMove>,
    pub(crate) report: RebalanceReport,
    /// Live view of the cluster's membership: every executed move revalidates its
    /// destination against the *current* node map, so a plan that has gone stale
    /// (its target removed after planning) cannot strand data on a retired node.
    pub(crate) membership: Arc<parking_lot::RwLock<crate::cluster::Membership>>,
    /// For a node removal: the node being drained, so [`run`](Rebalancer::run)
    /// can sweep containers sealed by writes that raced the removal.
    pub(crate) drain: Option<Arc<DedupNode>>,
}

impl Rebalancer {
    pub(crate) fn new(
        moves: Vec<PlannedMove>,
        generation: u64,
        membership: Arc<parking_lot::RwLock<crate::cluster::Membership>>,
        drain: Option<Arc<DedupNode>>,
    ) -> Self {
        Rebalancer {
            moves: moves.into(),
            report: RebalanceReport {
                generation,
                ..RebalanceReport::default()
            },
            membership,
            drain,
        }
    }

    /// Number of planned moves not yet executed.
    pub fn remaining(&self) -> usize {
        self.moves.len()
    }

    /// True once every planned move has been executed.
    pub fn is_done(&self) -> bool {
        self.moves.is_empty()
    }

    /// The report accumulated so far (final once [`is_done`](Self::is_done)).
    pub fn report(&self) -> RebalanceReport {
        self.report
    }

    fn active_map(&self) -> Arc<NodeMap> {
        self.membership.read().map.clone()
    }

    fn record(&mut self, receipt: MoveReceipt) {
        self.report.containers_moved += 1;
        self.report.bytes_moved += receipt.bytes;
        self.report.chunks_moved += receipt.chunks;
    }

    /// Executes one container migration; returns `Ok(None)` when the plan is
    /// drained.
    ///
    /// A move whose container has meanwhile vanished from the source (e.g. an
    /// overlapping plan already migrated it) is skipped, not treated as the end
    /// of the plan.  A move whose destination has meanwhile left the cluster is
    /// redirected to the currently least-loaded active node for drain plans, and
    /// voids the rest of the plan for join plans (rebalancing onto a node that
    /// no longer exists is moot).
    ///
    /// # Errors
    ///
    /// Propagates a node crash (durable clusters under fault injection): the
    /// in-flight move stops at a journal-record boundary, which is exactly the
    /// state [`DedupCluster::restart_node`](crate::DedupCluster::restart_node)
    /// recovers from; re-planning and re-running the rebalance afterwards is
    /// safe because container adoption is idempotent per origin.
    pub fn step(&mut self) -> Result<Option<MoveReceipt>> {
        loop {
            let Some(planned) = self.moves.pop_front() else {
                return Ok(None);
            };
            let to = if self.active_map().slot_of(planned.to.id()).is_some() {
                planned.to
            } else if self.drain.is_some() {
                match least_loaded_active(&self.active_map(), planned.from.id()) {
                    Some(to) => to,
                    None => continue,
                }
            } else {
                self.moves.clear();
                return Ok(None);
            };
            match migrate_container(&planned.from, &to, planned.container)? {
                Some(receipt) => {
                    self.record(receipt);
                    return Ok(Some(receipt));
                }
                None => continue,
            }
        }
    }

    /// Executes every remaining move and returns the final report.
    ///
    /// For a node removal this also re-flushes and re-scans the drained node until
    /// it holds no sealed container, so writes that raced the removal under an
    /// older node map are migrated too rather than stranded.  Straggler targets
    /// are chosen from the membership current at sweep time.
    ///
    /// # Errors
    ///
    /// Propagates the first node crash, like [`step`](Self::step).
    pub fn run(mut self) -> Result<RebalanceReport> {
        while self.step()?.is_some() {}
        if let Some(source) = self.drain.take() {
            loop {
                source.try_flush()?;
                let stragglers = source.sealed_container_ids();
                if stragglers.is_empty() {
                    break;
                }
                let map = self.membership.read().map.clone();
                for container in stragglers {
                    // Send each straggler to the least-loaded active node.
                    let Some(to) = least_loaded_active(&map, source.id()) else {
                        return Ok(self.report);
                    };
                    if let Some(receipt) = migrate_container(&source, &to, container)? {
                        self.record(receipt);
                    }
                }
            }
        }
        Ok(self.report)
    }
}

/// The least-loaded active node other than `exclude` (ties broken by node ID).
fn least_loaded_active(map: &NodeMap, exclude: usize) -> Option<Arc<DedupNode>> {
    map.nodes()
        .iter()
        .filter(|n| n.id() != exclude)
        .min_by_key(|n| (n.storage_usage(), n.id()))
        .cloned()
}

/// Migrates one sealed container from `from` to `to`.
///
/// Order of operations is what preserves restores mid-flight *and* across
/// crashes:
///
/// 1. read the container off the source (still readable there), its seal
///    made durable there first;
/// 2. *peek* (not extract) the source's similarity-index entries for it;
/// 3. install data + chunk-index + similarity entries on the destination —
///    durably, when the destination journals;
/// 4. publish the forwarding tombstone at the source (journal first), then
///    drop the data *and* the similarity entries there.
///
/// A restore racing with the move reads the chunk locally until step 4, and
/// follows the tombstone afterwards; at no point is the chunk unreachable.  A
/// crash between 3 and 4 leaves both copies alive (never a dangling tombstone);
/// recovery reconciliation or an idempotent retry completes the hand-off.  The
/// peek in step 2 is what makes a *destination* crash during step 3 harmless:
/// the source's similarity state is untouched until the adoption is durable.
fn migrate_container(
    from: &Arc<DedupNode>,
    to: &Arc<DedupNode>,
    container: ContainerId,
) -> Result<Option<MoveReceipt>> {
    let Some(exported) = from.export_container(&container)? else {
        return Ok(None);
    };
    let bytes = exported.data_size() as u64;
    let chunks = exported.chunk_count() as u64;
    let rfps = from.similarity_entries_for(container);
    let new_container = to.adopt_container(from.id(), exported, &rfps)?;
    from.retire_container(container, to.id())?;
    Ok(Some(MoveReceipt {
        from: from.id(),
        to: to.id(),
        container,
        new_container,
        bytes,
        chunks,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SigmaConfig, SuperChunk};
    use sigma_hashkit::FingerprintAlgorithm;
    use sigma_storage::ContainerState;

    fn node(id: usize) -> Arc<DedupNode> {
        Arc::new(DedupNode::new(id, &SigmaConfig::default()))
    }

    fn payload_super_chunk(seed: u8, chunks: usize) -> SuperChunk {
        let data: Vec<Vec<u8>> = (0..chunks)
            .map(|i| vec![seed.wrapping_add(i as u8); 4096])
            .collect();
        SuperChunk::from_payloads(FingerprintAlgorithm::Sha1, 0, data)
    }

    #[test]
    fn node_map_slots_and_ids() {
        let map = NodeMap::new(3, vec![node(0), node(2), node(5)]);
        assert_eq!(map.generation(), 3);
        assert_eq!(map.len(), 3);
        assert!(!map.is_empty());
        assert_eq!(map.node_ids(), vec![0, 2, 5]);
        assert_eq!(map.slot_of(5), Some(2));
        assert_eq!(map.slot_of(1), None);
    }

    #[test]
    fn migrate_container_preserves_reads_and_bytes() {
        let a = node(0);
        let b = node(1);
        let sc = payload_super_chunk(7, 16);
        let hp = sc.handprint(8);
        a.process_super_chunk(0, &sc.view(), &hp).unwrap();
        a.try_flush().unwrap();
        let cid = a.sealed_container_ids()[0];
        let before = a.storage_usage();
        assert_eq!(b.storage_usage(), 0);

        let receipt = migrate_container(&a, &b, cid).unwrap().unwrap();
        assert_eq!(receipt.from, 0);
        assert_eq!(receipt.to, 1);
        assert_eq!(receipt.chunks, 16);
        assert_eq!(receipt.bytes, before);

        // Bytes conserved: everything A lost, B gained.
        assert_eq!(a.storage_usage(), 0);
        assert_eq!(b.storage_usage(), before);
        // The tombstone points at B, and A's read path reports the migration.
        assert_eq!(
            a.container_state(&cid),
            ContainerState::Migrated { successor: 1 }
        );
        for (i, d) in sc.descriptors().iter().enumerate() {
            assert!(matches!(
                a.read_chunk(&d.fingerprint),
                Err(crate::SigmaError::ChunkMigrated { node: 1, .. })
            ));
            assert_eq!(
                b.read_chunk(&d.fingerprint).unwrap(),
                sc.payload(i).unwrap()
            );
        }
        // Similarity entries moved with the container: B now answers resemblance.
        assert_eq!(a.resemblance_count(&hp), 0);
        assert_eq!(b.resemblance_count(&hp), hp.size());
    }

    #[test]
    fn migrating_a_missing_container_is_a_no_op() {
        let a = node(0);
        let b = node(1);
        assert!(migrate_container(&a, &b, ContainerId::new(99))
            .unwrap()
            .is_none());
    }

    #[test]
    fn destination_crash_mid_adopt_preserves_source_similarity_state() {
        // Regression: the migration must *peek* (not extract) the source's
        // similarity entries before the destination's durable adopt — a
        // destination that crashes on the adopt append must leave the source
        // still answering resemblance queries, so the retried migration
        // re-homes the RFPs instead of dropping them forever.
        let config = crate::SigmaConfig::default();
        let a = Arc::new(DedupNode::new(0, &config));
        let b = Arc::new(DedupNode::new(1, &config));
        let sc = payload_super_chunk(21, 16);
        let hp = sc.handprint(8);
        a.process_super_chunk(0, &sc.view(), &hp).unwrap();
        a.try_flush().unwrap();
        let cid = a.sealed_container_ids()[0];

        let b_journal = b.journal();
        b_journal.arm_crash_at_seq(b_journal.next_seq(), sigma_storage::CrashMode::Clean);
        assert!(migrate_container(&a, &b, cid).is_err(), "adopt must crash");
        assert_eq!(
            a.resemblance_count(&hp),
            hp.size(),
            "source similarity entries survive the destination crash"
        );
        assert_eq!(
            a.container_state(&cid),
            ContainerState::Sealed,
            "no dangling tombstone"
        );

        // Recover the destination and retry: the RFPs travel with the retry.
        let (recovered_b, _) = DedupNode::open(1, &config, b_journal.backend()).unwrap();
        let recovered_b = Arc::new(recovered_b);
        let receipt = migrate_container(&a, &recovered_b, cid).unwrap().unwrap();
        assert_eq!(receipt.chunks, 16);
        assert_eq!(a.resemblance_count(&hp), 0, "extracted at retire time");
        assert_eq!(recovered_b.resemblance_count(&hp), hp.size());
        recovered_b.verify_consistency().unwrap();
        a.verify_consistency().unwrap();
    }

    #[test]
    fn repeated_adoption_of_the_same_origin_is_idempotent() {
        // The guard behind safe rebalance retries: adopting the same
        // (origin node, origin container) twice — a caller re-executing a plan
        // entry, or journal replay of a duplicated migration record — must not
        // double-store the container.
        let a = node(0);
        let b = node(1);
        let sc = payload_super_chunk(3, 8);
        a.process_super_chunk(0, &sc.view(), &sc.handprint(4))
            .unwrap();
        a.try_flush().unwrap();
        let cid = a.sealed_container_ids()[0];
        let exported = a.export_container(&cid).unwrap().unwrap();
        let rfps = a.similarity_entries_for(cid);

        let first = b.adopt_container(0, exported.clone(), &rfps).unwrap();
        let usage_after_first = b.storage_usage();
        let second = b.adopt_container(0, exported, &rfps).unwrap();
        assert_eq!(first, second, "same origin resolves to the same local id");
        assert_eq!(b.storage_usage(), usage_after_first, "no bytes duplicated");
        assert_eq!(b.stats().containers.sealed_containers, 1);
        assert_eq!(b.adopted_origins(), vec![(0, cid, first)]);
    }
}

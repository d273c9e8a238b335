//! Inter-node data routing.
//!
//! The routing scheme decides, for every super-chunk a backup client produces, which
//! deduplication node should receive it.  The paper's contribution is the
//! **similarity-based stateful routing** of Algorithm 1 ([`SimilarityRouter`]); the
//! baseline schemes it is compared against (stateless DHT routing, stateful
//! broadcast routing, Extreme Binning, chunk-level DHT) implement the same
//! [`DataRouter`] trait in the `sigma-baselines` crate.

use crate::{ChunkDescriptor, DedupNode, Handprint};
use std::sync::Arc;

/// Everything a router may inspect when placing one super-chunk.
#[derive(Clone)]
pub struct RoutingContext<'a> {
    /// The descriptors of the super-chunk being routed, in stream order.
    pub descriptors: &'a [ChunkDescriptor],
    /// The super-chunk's handprint (already computed by the backup client).
    pub handprint: &'a Handprint,
    /// Identifier of the file this super-chunk belongs to, when file boundaries are
    /// known.  File-similarity schemes (Extreme Binning) require it.
    pub file_id: Option<u64>,
    /// The deduplication nodes; stateful schemes may query their state.
    pub nodes: &'a [Arc<DedupNode>],
}

impl std::fmt::Debug for RoutingContext<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RoutingContext")
            .field("chunks", &self.descriptors.len())
            .field("handprint", &self.handprint.size())
            .field("file_id", &self.file_id)
            .field("nodes", &self.nodes.len())
            .finish()
    }
}

/// The outcome of a routing decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoutingDecision {
    /// Index of the node that should receive the super-chunk.
    pub target: usize,
    /// Chunk-fingerprint lookup messages incurred *before* routing (e.g. handprint
    /// queries sent to candidate nodes).  The paper's Figure 7 overhead metric is
    /// the sum of these pre-routing lookups and the per-chunk lookups at the target.
    pub prerouting_lookup_messages: u64,
    /// Remote nodes contacted before routing (informational).
    pub nodes_contacted: u64,
}

impl RoutingDecision {
    /// A decision that contacted no remote node before routing (stateless schemes).
    pub fn stateless(target: usize) -> Self {
        RoutingDecision {
            target,
            prerouting_lookup_messages: 0,
            nodes_contacted: 0,
        }
    }
}

/// A data-routing scheme for cluster deduplication.
///
/// Implementations must be cheap to call once per super-chunk and thread-safe.
pub trait DataRouter: Send + Sync {
    /// Short scheme name used in reports (e.g. `"sigma"`, `"stateless"`).
    fn name(&self) -> String;

    /// Chooses the destination node for one super-chunk.
    fn route(&self, ctx: &RoutingContext<'_>) -> RoutingDecision;

    /// True when the scheme can only route with file-boundary information
    /// (file-similarity schemes such as Extreme Binning).
    fn requires_file_boundaries(&self) -> bool {
        false
    }
}

/// Σ-Dedupe's similarity-based stateful routing (Algorithm 1).
///
/// 1. The k representative fingerprints of the super-chunk select at most k
///    *candidate* nodes (`rfp mod N`).
/// 2. Each candidate is asked how many of the representative fingerprints it already
///    stores in its similarity index (its resemblance `r_i`); this costs
///    `handprint size` fingerprint lookups per candidate.
/// 3. Each resemblance is discounted by the candidate's *relative storage usage*
///    `w_i = usage_i / average usage` (capacity-aware load balancing; can be
///    disabled to measure its effect).
/// 4. The candidate with the maximal `r_i / w_i` wins; ties (including the common
///    all-zero-resemblance case for never-seen data) go to the least-loaded
///    candidate, which is what the discounting degenerates to when `r_i = 0`.
///
/// # Example
///
/// ```
/// use sigma_core::{DataRouter, DedupCluster, SigmaConfig, SimilarityRouter};
///
/// let router = SimilarityRouter::new(true);
/// assert_eq!(router.name(), "sigma");
/// // Routers are usually handed to a cluster rather than called directly:
/// let cluster = DedupCluster::new(8, SigmaConfig::default(), Box::new(router));
/// assert_eq!(cluster.node_count(), 8);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SimilarityRouter {
    capacity_balancing: bool,
}

impl SimilarityRouter {
    /// Creates the router; `capacity_balancing` enables step 3 of Algorithm 1.
    pub fn new(capacity_balancing: bool) -> Self {
        SimilarityRouter { capacity_balancing }
    }

    /// Whether capacity-aware load balancing is enabled.
    pub fn capacity_balancing(&self) -> bool {
        self.capacity_balancing
    }
}

impl DataRouter for SimilarityRouter {
    fn name(&self) -> String {
        if self.capacity_balancing {
            "sigma".to_string()
        } else {
            "sigma-nobalance".to_string()
        }
    }

    fn route(&self, ctx: &RoutingContext<'_>) -> RoutingDecision {
        let node_count = ctx.nodes.len();
        assert!(node_count > 0, "cannot route in an empty cluster");
        if ctx.handprint.is_empty() {
            return RoutingDecision::stateless(0);
        }

        // Step 1: candidate selection.
        let candidates = ctx.handprint.candidate_nodes(node_count);

        // Step 2: resemblance query at each candidate: one message per candidate,
        // each carrying `handprint.size()` representative-fingerprint lookups.
        let resemblances: Vec<usize> = candidates
            .iter()
            .map(|&c| ctx.nodes[c].resemblance_count(ctx.handprint))
            .collect();
        let prerouting_lookup_messages = (candidates.len() * ctx.handprint.size()) as u64;

        // Step 3: discount by relative storage usage.
        let usages: Vec<f64> = candidates
            .iter()
            .map(|&c| ctx.nodes[c].storage_usage() as f64)
            .collect();
        let avg_usage = usages.iter().sum::<f64>() / usages.len() as f64;

        // Step 4: pick the best candidate.
        let mut best = 0usize;
        let mut best_score = f64::NEG_INFINITY;
        for (i, (&r, &usage)) in resemblances.iter().zip(&usages).enumerate() {
            let score = if self.capacity_balancing && avg_usage > 0.0 {
                let w = (usage / avg_usage).max(f64::MIN_POSITIVE);
                r as f64 / w
            } else {
                r as f64
            };
            // Tie-break towards the less-loaded candidate.
            let better = score > best_score || (score == best_score && usage < usages[best]);
            if better {
                best = i;
                best_score = score;
            }
        }

        RoutingDecision {
            target: candidates[best],
            prerouting_lookup_messages,
            nodes_contacted: candidates.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SigmaConfig, SuperChunk};
    use sigma_hashkit::FingerprintAlgorithm;

    fn nodes(n: usize) -> Vec<Arc<DedupNode>> {
        let config = SigmaConfig::default();
        (0..n)
            .map(|i| Arc::new(DedupNode::new(i, &config)))
            .collect()
    }

    /// One 4 KiB chunk per id, each its id's bytes repeated.
    fn super_chunk(ids: std::ops::Range<u64>) -> SuperChunk {
        let chunks = ids.map(|i| i.to_le_bytes().repeat(512)).collect();
        SuperChunk::from_payloads(FingerprintAlgorithm::Sha1, 0, chunks)
    }

    fn ctx<'a>(
        sc: &'a SuperChunk,
        hp: &'a Handprint,
        nodes: &'a [Arc<DedupNode>],
    ) -> RoutingContext<'a> {
        RoutingContext {
            descriptors: sc.descriptors(),
            handprint: hp,
            file_id: None,
            nodes,
        }
    }

    #[test]
    fn routes_to_candidate_set() {
        let nodes = nodes(16);
        let sc = super_chunk(0..256);
        let hp = sc.handprint(8);
        let router = SimilarityRouter::new(true);
        let decision = router.route(&ctx(&sc, &hp, &nodes));
        let candidates = hp.candidate_nodes(16);
        assert!(candidates.contains(&decision.target));
        assert_eq!(
            decision.prerouting_lookup_messages,
            (candidates.len() * hp.size()) as u64
        );
        assert_eq!(decision.nodes_contacted, candidates.len() as u64);
    }

    #[test]
    fn similar_super_chunks_are_routed_to_the_same_node() {
        let nodes = nodes(32);
        let router = SimilarityRouter::new(true);
        let sc = super_chunk(0..256);
        let hp = sc.handprint(8);
        let first = router.route(&ctx(&sc, &hp, &nodes));
        // Process the super-chunk at the chosen node so its similarity index learns it.
        nodes[first.target]
            .process_super_chunk(0, &sc.view(), &hp)
            .unwrap();

        // A near-identical super-chunk (7/8 of the same chunks) must follow it.
        let similar = super_chunk(32..288);
        let hp2 = similar.handprint(8);
        let second = router.route(&ctx(&similar, &hp2, &nodes));
        assert_eq!(second.target, first.target);
    }

    #[test]
    fn capacity_balancing_steers_new_data_to_empty_nodes() {
        let nodes = nodes(4);
        // Fill node candidates unevenly: put a lot of data on one node.
        let filler = super_chunk(10_000..10_256);
        let hp_filler = filler.handprint(8);
        let heavy = hp_filler.candidate_nodes(4)[0];
        for _ in 0..4 {
            nodes[heavy]
                .process_super_chunk(0, &filler.view(), &hp_filler)
                .unwrap();
        }

        // Route brand-new (zero-resemblance) data repeatedly; with balancing the
        // heavy node must not receive a disproportionate share.
        let router = SimilarityRouter::new(true);
        let mut to_heavy = 0usize;
        let mut total = 0usize;
        for g in 0..64u64 {
            let sc = super_chunk(g * 1000 + 20_000..g * 1000 + 20_032);
            let hp = sc.handprint(8);
            let d = router.route(&ctx(&sc, &hp, &nodes));
            let candidates = hp.candidate_nodes(4);
            if candidates.contains(&heavy) && candidates.len() > 1 {
                total += 1;
                if d.target == heavy {
                    to_heavy += 1;
                }
            }
        }
        assert!(
            to_heavy * 2 < total,
            "heavily-loaded node won {}/{} contested decisions",
            to_heavy,
            total
        );
    }

    #[test]
    fn empty_handprint_defaults_to_node_zero() {
        let nodes = nodes(4);
        let sc = SuperChunk::from_payloads(FingerprintAlgorithm::Sha1, 0, Vec::new());
        let hp = sc.handprint(8);
        let router = SimilarityRouter::new(true);
        assert_eq!(router.route(&ctx(&sc, &hp, &nodes)).target, 0);
    }

    #[test]
    fn single_node_cluster_always_routes_to_it() {
        let nodes = nodes(1);
        let router = SimilarityRouter::new(true);
        for g in 0..8u64 {
            let sc = super_chunk(g * 100..g * 100 + 32);
            let hp = sc.handprint(8);
            assert_eq!(router.route(&ctx(&sc, &hp, &nodes)).target, 0);
        }
    }

    #[test]
    fn names_distinguish_balancing_mode() {
        assert_eq!(SimilarityRouter::new(true).name(), "sigma");
        assert_eq!(SimilarityRouter::new(false).name(), "sigma-nobalance");
        assert!(SimilarityRouter::new(true).capacity_balancing());
        assert!(!SimilarityRouter::default().capacity_balancing());
        assert!(!SimilarityRouter::new(true).requires_file_boundaries());
    }
}

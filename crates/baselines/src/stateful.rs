//! EMC's stateful super-chunk routing (broadcast match-count routing).

use sigma_core::{DataRouter, RoutingContext, RoutingDecision};
use sigma_hashkit::Fingerprint;

/// Default sampling rate denominator: one in eight chunk fingerprints is sent to
/// every node for match counting, following the sampled variant described for
/// large-scale stateful routing.
pub const DEFAULT_SAMPLE_DENOMINATOR: usize = 8;

/// Stateful super-chunk routing: every node is asked how many of the super-chunk's
/// (sampled) chunk fingerprints it already stores; the super-chunk goes to the node
/// with the best match, discounted by relative storage usage for load balance.
///
/// This is the high-effectiveness, high-overhead end of the design space: the
/// broadcast makes the fingerprint-lookup message count grow linearly with the
/// cluster size (the rising line of Figure 7), which is exactly what Σ-Dedupe's
/// candidate-set routing avoids.
///
/// # Example
///
/// ```
/// use sigma_baselines::StatefulRouter;
/// use sigma_core::DataRouter;
///
/// let router = StatefulRouter::with_sample_denominator(4);
/// assert_eq!(router.name(), "stateful");
/// ```
#[derive(Debug, Clone, Copy)]
pub struct StatefulRouter {
    sample_denominator: usize,
    capacity_balancing: bool,
}

impl Default for StatefulRouter {
    fn default() -> Self {
        StatefulRouter {
            sample_denominator: DEFAULT_SAMPLE_DENOMINATOR,
            capacity_balancing: true,
        }
    }
}

impl StatefulRouter {
    /// Creates the router with the default 1-in-8 sampling.
    pub fn new() -> Self {
        StatefulRouter::default()
    }

    /// Creates the router with a custom sampling rate denominator (1 samples every
    /// chunk fingerprint).
    ///
    /// # Panics
    ///
    /// Panics if `denominator` is zero.
    pub fn with_sample_denominator(denominator: usize) -> Self {
        assert!(denominator > 0, "sample denominator must be non-zero");
        StatefulRouter {
            sample_denominator: denominator,
            ..StatefulRouter::default()
        }
    }

    /// The sampling rate denominator.
    pub fn sample_denominator(&self) -> usize {
        self.sample_denominator
    }

    /// Deterministically samples the chunk fingerprints that are broadcast.
    fn sample(&self, fingerprints: impl Iterator<Item = Fingerprint>) -> Vec<Fingerprint> {
        let denom = self.sample_denominator as u64;
        fingerprints
            .filter(|fp| fp.prefix_u64() % denom == 0)
            .collect()
    }
}

impl DataRouter for StatefulRouter {
    fn name(&self) -> String {
        "stateful".to_string()
    }

    fn route(&self, ctx: &RoutingContext<'_>) -> RoutingDecision {
        let node_count = ctx.nodes.len();
        assert!(node_count > 0, "cannot route in an empty cluster");

        let mut sample = self.sample(ctx.descriptors.iter().map(|d| d.fingerprint));
        if sample.is_empty() {
            // Always broadcast at least one representative fingerprint so the scheme
            // keeps its defining "ask everyone" behaviour on tiny super-chunks.
            if let Some(fp) = ctx.handprint.min_fingerprint() {
                sample.push(fp);
            }
        }
        if sample.is_empty() {
            return RoutingDecision::stateless(0);
        }

        let matches: Vec<usize> = ctx
            .nodes
            .iter()
            .map(|n| n.count_stored_fingerprints(&sample))
            .collect();
        let usages: Vec<f64> = ctx.nodes.iter().map(|n| n.storage_usage() as f64).collect();
        let avg_usage = usages.iter().sum::<f64>() / usages.len() as f64;

        let mut best = 0usize;
        let mut best_score = f64::NEG_INFINITY;
        for (i, (&m, &usage)) in matches.iter().zip(&usages).enumerate() {
            let score = if self.capacity_balancing && avg_usage > 0.0 {
                let w = (usage / avg_usage).max(f64::MIN_POSITIVE);
                m as f64 / w
            } else {
                m as f64
            };
            if score > best_score || (score == best_score && usage < usages[best]) {
                best = i;
                best_score = score;
            }
        }

        RoutingDecision {
            target: best,
            // Every node receives the sampled fingerprint list.
            prerouting_lookup_messages: (node_count * sample.len()) as u64,
            nodes_contacted: node_count as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigma_core::{DedupNode, SigmaConfig, SuperChunk};
    use sigma_hashkit::FingerprintAlgorithm;
    use std::sync::Arc;

    fn nodes(n: usize) -> Vec<Arc<DedupNode>> {
        let c = SigmaConfig::default();
        (0..n).map(|i| Arc::new(DedupNode::new(i, &c))).collect()
    }

    /// One 4 KiB chunk per id, each its id's bytes repeated.
    fn super_chunk(ids: std::ops::Range<u64>) -> SuperChunk {
        let chunks = ids.map(|i| i.to_le_bytes().repeat(512)).collect();
        SuperChunk::from_payloads(FingerprintAlgorithm::Sha1, 0, chunks)
    }

    fn ctx<'a>(
        sc: &'a SuperChunk,
        hp: &'a sigma_core::Handprint,
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
    fn message_count_grows_with_cluster_size() {
        let router = StatefulRouter::new();
        let sc = super_chunk(0..256);
        let hp = sc.handprint(8);
        let mut previous = 0u64;
        for n in [2usize, 8, 32, 128] {
            let nodes = nodes(n);
            let d = router.route(&ctx(&sc, &hp, &nodes));
            assert!(d.prerouting_lookup_messages > previous);
            assert_eq!(d.nodes_contacted, n as u64);
            previous = d.prerouting_lookup_messages;
        }
    }

    #[test]
    fn routes_duplicates_back_to_the_node_that_stores_them() {
        let nodes = nodes(8);
        let router = StatefulRouter::new();
        let sc = super_chunk(0..256);
        let hp = sc.handprint(8);
        // Pre-store the super-chunk on node 5.
        nodes[5].process_super_chunk(0, &sc.view(), &hp).unwrap();
        let d = router.route(&ctx(&sc, &hp, &nodes));
        assert_eq!(d.target, 5);
    }

    #[test]
    fn new_data_spreads_for_balance() {
        let nodes = nodes(4);
        let router = StatefulRouter::new();
        // Load node 0 heavily.
        let filler = super_chunk(50_000..50_256);
        nodes[0]
            .process_super_chunk(0, &filler.view(), &filler.handprint(8))
            .unwrap();
        // Brand-new data has zero matches everywhere: the least-loaded node wins.
        let sc = super_chunk(90_000..90_064);
        let d = router.route(&ctx(&sc, &sc.handprint(8), &nodes));
        assert_ne!(d.target, 0);
    }

    #[test]
    fn sampling_reduces_lookup_volume() {
        let sc = super_chunk(0..256);
        let hp = sc.handprint(8);
        let nodes = nodes(4);
        let dense = StatefulRouter::with_sample_denominator(1).route(&ctx(&sc, &hp, &nodes));
        let sparse = StatefulRouter::with_sample_denominator(16).route(&ctx(&sc, &hp, &nodes));
        assert!(sparse.prerouting_lookup_messages < dense.prerouting_lookup_messages);
        assert_eq!(dense.prerouting_lookup_messages, 4 * 256);
    }

    #[test]
    #[should_panic(expected = "sample denominator must be non-zero")]
    fn zero_denominator_panics() {
        StatefulRouter::with_sample_denominator(0);
    }

    #[test]
    fn empty_super_chunk_routes_to_node_zero() {
        let nodes = nodes(4);
        let sc = SuperChunk::from_payloads(FingerprintAlgorithm::Sha1, 0, Vec::new());
        let hp = sc.handprint(8);
        let d = StatefulRouter::new().route(&ctx(&sc, &hp, &nodes));
        assert_eq!(d.target, 0);
        assert_eq!(d.prerouting_lookup_messages, 0);
    }
}

//! EMC's stateless super-chunk routing.

use sigma_core::{DataRouter, RoutingContext, RoutingDecision};

/// Stateless super-chunk routing: the super-chunk's representative (minimum) chunk
/// fingerprint selects the destination with a modulo mapping.
///
/// No node state is consulted and no pre-routing messages are sent, so overhead and
/// implementation complexity are minimal; the price is that similar super-chunks
/// written in different order or interleaved across streams can land on different
/// nodes, leaving cross-node redundancy undetected (the deduplication-ratio gap of
/// Figure 8), and that nothing counteracts capacity skew.
///
/// # Example
///
/// ```
/// use sigma_baselines::StatelessRouter;
/// use sigma_core::DataRouter;
///
/// assert_eq!(StatelessRouter::new().name(), "stateless");
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct StatelessRouter;

impl StatelessRouter {
    /// Creates the router.
    pub fn new() -> Self {
        StatelessRouter
    }
}

impl DataRouter for StatelessRouter {
    fn name(&self) -> String {
        "stateless".to_string()
    }

    fn route(&self, ctx: &RoutingContext<'_>) -> RoutingDecision {
        let node_count = ctx.nodes.len();
        assert!(node_count > 0, "cannot route in an empty cluster");
        let target = ctx
            .handprint
            .min_fingerprint()
            .or_else(|| ctx.descriptors.first().map(|d| d.fingerprint))
            .map(|fp| fp.bucket(node_count))
            .unwrap_or(0);
        RoutingDecision::stateless(target)
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

    #[test]
    fn identical_super_chunks_land_on_the_same_node() {
        let nodes = nodes(16);
        let router = StatelessRouter::new();
        let sc = super_chunk(0..256);
        let hp = sc.handprint(8);
        let ctx = RoutingContext {
            descriptors: sc.descriptors(),
            handprint: &hp,
            file_id: None,
            nodes: &nodes,
        };
        let a = router.route(&ctx);
        let b = router.route(&ctx);
        assert_eq!(a.target, b.target);
        assert_eq!(a.prerouting_lookup_messages, 0);
        assert_eq!(a.nodes_contacted, 0);
    }

    #[test]
    fn routing_spreads_distinct_super_chunks() {
        let nodes = nodes(8);
        let router = StatelessRouter::new();
        let mut seen = std::collections::HashSet::new();
        for g in 0..64u64 {
            let sc = super_chunk(g * 1000..g * 1000 + 64);
            let hp = sc.handprint(8);
            let d = router.route(&RoutingContext {
                descriptors: sc.descriptors(),
                handprint: &hp,
                file_id: None,
                nodes: &nodes,
            });
            assert!(d.target < 8);
            seen.insert(d.target);
        }
        assert!(
            seen.len() >= 6,
            "expected most nodes to be used, got {}",
            seen.len()
        );
    }

    #[test]
    fn empty_super_chunk_routes_to_node_zero() {
        let nodes = nodes(4);
        let router = StatelessRouter::new();
        let sc = SuperChunk::from_payloads(FingerprintAlgorithm::Sha1, 0, Vec::new());
        let hp = sc.handprint(8);
        let d = router.route(&RoutingContext {
            descriptors: sc.descriptors(),
            handprint: &hp,
            file_id: None,
            nodes: &nodes,
        });
        assert_eq!(d.target, 0);
    }
}

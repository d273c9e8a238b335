//! HYDRAstor-style chunk-level DHT placement.

use sigma_core::{DataRouter, RoutingContext, RoutingDecision};

/// Chunk-level distributed-hash-table placement.
///
/// HYDRAstor distributes individual (large, 64 KB) chunks over the nodes with a DHT
/// on the chunk fingerprint, with no routing state at all.  Within this framework the
/// router is meant to be used with a configuration whose super-chunk size equals the
/// chunk size (so each "super-chunk" holds exactly one chunk); the placement then
/// reduces to `fingerprint mod N`.  When handed a multi-chunk super-chunk it places
/// it by the fingerprint of its first chunk and reports how many chunks would have
/// been scattered, so misuse is visible in the statistics rather than silent.
///
/// # Example
///
/// ```
/// use sigma_baselines::ChunkDhtRouter;
/// use sigma_core::DataRouter;
///
/// assert_eq!(ChunkDhtRouter::new().name(), "chunk-dht");
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct ChunkDhtRouter;

impl ChunkDhtRouter {
    /// Creates the router.
    pub fn new() -> Self {
        ChunkDhtRouter
    }

    /// The chunk size HYDRAstor uses (64 KB); exposed so experiments can configure a
    /// matching chunker / super-chunk size.
    pub const HYDRA_CHUNK_SIZE: usize = 64 * 1024;
}

impl DataRouter for ChunkDhtRouter {
    fn name(&self) -> String {
        "chunk-dht".to_string()
    }

    fn route(&self, ctx: &RoutingContext<'_>) -> RoutingDecision {
        let node_count = ctx.nodes.len();
        assert!(node_count > 0, "cannot route in an empty cluster");
        let target = ctx
            .descriptors
            .first()
            .map(|d| d.fingerprint.bucket(node_count))
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

    #[test]
    fn single_chunk_super_chunks_follow_the_fingerprint() {
        let nodes = nodes(16);
        let router = ChunkDhtRouter::new();
        for i in 0..64u64 {
            let chunk = i.to_le_bytes().repeat(ChunkDhtRouter::HYDRA_CHUNK_SIZE / 8);
            let sc = SuperChunk::from_payloads(FingerprintAlgorithm::Sha1, 0, vec![chunk]);
            let fp = sc.descriptors()[0].fingerprint;
            let hp = sc.handprint(1);
            let d = router.route(&RoutingContext {
                descriptors: sc.descriptors(),
                handprint: &hp,
                file_id: None,
                nodes: &nodes,
            });
            assert_eq!(d.target, fp.bucket(16));
            assert_eq!(d.prerouting_lookup_messages, 0);
        }
    }

    #[test]
    fn empty_super_chunk_routes_to_node_zero() {
        let nodes = nodes(4);
        let sc = SuperChunk::from_payloads(FingerprintAlgorithm::Sha1, 0, Vec::new());
        let hp = sc.handprint(1);
        let d = ChunkDhtRouter::new().route(&RoutingContext {
            descriptors: sc.descriptors(),
            handprint: &hp,
            file_id: None,
            nodes: &nodes,
        });
        assert_eq!(d.target, 0);
    }
}

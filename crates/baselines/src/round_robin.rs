//! Round-robin placement: the similarity-oblivious strawman.

use sigma_core::{DataRouter, RoutingContext, RoutingDecision};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Routes super-chunks to nodes in strict rotation.
///
/// Capacity balance is perfect by construction, but no redundancy concentration of
/// any kind happens, so cross-node duplicates are maximised.  Useful as a lower
/// bound for the cluster deduplication ratio in ablation experiments.
///
/// # Example
///
/// ```
/// use sigma_baselines::RoundRobinRouter;
/// use sigma_core::DataRouter;
///
/// assert_eq!(RoundRobinRouter::new().name(), "round-robin");
/// ```
#[derive(Debug, Default)]
pub struct RoundRobinRouter {
    next: AtomicUsize,
}

impl RoundRobinRouter {
    /// Creates the router.
    pub fn new() -> Self {
        RoundRobinRouter::default()
    }
}

impl DataRouter for RoundRobinRouter {
    fn name(&self) -> String {
        "round-robin".to_string()
    }

    fn route(&self, ctx: &RoutingContext<'_>) -> RoutingDecision {
        let node_count = ctx.nodes.len();
        assert!(node_count > 0, "cannot route in an empty cluster");
        let target = self.next.fetch_add(1, Ordering::Relaxed) % node_count;
        RoutingDecision::stateless(target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigma_core::{DedupNode, SigmaConfig, SuperChunk};
    use sigma_hashkit::FingerprintAlgorithm;
    use std::sync::Arc;

    #[test]
    fn rotates_through_all_nodes() {
        let config = SigmaConfig::default();
        let nodes: Vec<Arc<DedupNode>> = (0..4)
            .map(|i| Arc::new(DedupNode::new(i, &config)))
            .collect();
        let sc = SuperChunk::from_payloads(FingerprintAlgorithm::Sha1, 0, vec![vec![b'x'; 4096]]);
        let hp = sc.handprint(8);
        let router = RoundRobinRouter::new();
        let targets: Vec<usize> = (0..8)
            .map(|_| {
                router
                    .route(&RoutingContext {
                        descriptors: sc.descriptors(),
                        handprint: &hp,
                        file_id: None,
                        nodes: &nodes,
                    })
                    .target
            })
            .collect();
        assert_eq!(targets, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }
}

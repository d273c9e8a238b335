//! Figure 6: cluster deduplication ratio vs. handprint size.
//!
//! With 1 MB super-chunks on the Linux workload, the cluster-wide deduplication
//! ratio (normalised to single-node exact deduplication) improves with the handprint
//! size — larger handprints detect more super-chunk resemblance during routing — and
//! the improvement is significant up to a handprint of ~8 for every cluster size.

use crate::runner::{run_cluster, SimulationConfig};
use sigma_core::{SigmaConfig, SimilarityRouter};
use sigma_metrics::report::TextTable;
use sigma_workloads::{presets, DatasetTrace, Scale};

/// One measured point.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6Row {
    /// Number of deduplication nodes.
    pub cluster_size: usize,
    /// Handprint size (representative fingerprints per super-chunk).
    pub handprint_size: usize,
    /// Cluster DR normalised to single-node exact deduplication.
    pub normalized_dedup_ratio: f64,
}

/// Parameters of the experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6Params {
    /// Workload scale.
    pub scale: Scale,
    /// Cluster sizes to sweep.
    pub cluster_sizes: Vec<usize>,
    /// Handprint sizes to sweep.
    pub handprint_sizes: Vec<usize>,
}

impl Default for Fig6Params {
    fn default() -> Self {
        Fig6Params {
            scale: Scale::Small,
            cluster_sizes: vec![4, 16, 64, 128],
            handprint_sizes: vec![1, 2, 4, 8, 16, 32, 64],
        }
    }
}

/// Runs the experiment on the Linux-like workload.
pub fn run(params: &Fig6Params) -> Vec<Fig6Row> {
    let dataset = presets::linux_dataset(params.scale);
    run_on(&dataset, params)
}

/// Runs the experiment on a caller-provided workload.
pub fn run_on(dataset: &DatasetTrace, params: &Fig6Params) -> Vec<Fig6Row> {
    let mut rows = Vec::new();
    for &cluster_size in &params.cluster_sizes {
        for &handprint_size in &params.handprint_sizes {
            let sigma = SigmaConfig::builder()
                .handprint_size(handprint_size)
                .build()
                .expect("valid configuration");
            let summary = run_cluster(
                dataset,
                Box::new(SimilarityRouter::new(true)),
                &SimulationConfig {
                    node_count: cluster_size,
                    sigma,
                    client_streams: 4,
                },
            );
            rows.push(Fig6Row {
                cluster_size,
                handprint_size,
                normalized_dedup_ratio: summary.normalized_dr(),
            });
        }
    }
    rows
}

/// Renders the figure (handprint sizes as rows, cluster sizes as columns).
pub fn render(rows: &[Fig6Row]) -> String {
    let mut handprints: Vec<usize> = rows.iter().map(|r| r.handprint_size).collect();
    handprints.sort_unstable();
    handprints.dedup();
    let mut clusters: Vec<usize> = rows.iter().map(|r| r.cluster_size).collect();
    clusters.sort_unstable();
    clusters.dedup();

    let mut headers = vec!["handprint size".to_string()];
    headers.extend(clusters.iter().map(|c| format!("{} nodes", c)));
    let mut table = TextTable::new(headers.iter().map(|s| s.as_str()).collect());
    for k in handprints {
        let mut cells = vec![k.to_string()];
        for &c in &clusters {
            let cell = rows
                .iter()
                .find(|r| r.handprint_size == k && r.cluster_size == c)
                .map(|r| format!("{:.3}", r.normalized_dedup_ratio))
                .unwrap_or_default();
            cells.push(cell);
        }
        table.add_row(cells);
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_params() -> Fig6Params {
        Fig6Params {
            scale: Scale::Tiny,
            cluster_sizes: vec![4, 16],
            handprint_sizes: vec![1, 8],
        }
    }

    #[test]
    fn larger_handprints_do_not_hurt_dedup() {
        let rows = run(&tiny_params());
        for &c in &[4usize, 16] {
            let k1 = rows
                .iter()
                .find(|r| r.cluster_size == c && r.handprint_size == 1)
                .unwrap()
                .normalized_dedup_ratio;
            let k8 = rows
                .iter()
                .find(|r| r.cluster_size == c && r.handprint_size == 8)
                .unwrap()
                .normalized_dedup_ratio;
            assert!(k8 >= k1 - 0.03, "cluster {}: k1 {} vs k8 {}", c, k1, k8);
        }
    }

    #[test]
    fn ratios_bounded_by_one() {
        let rows = run(&tiny_params());
        assert!(rows
            .iter()
            .all(|r| r.normalized_dedup_ratio > 0.2 && r.normalized_dedup_ratio <= 1.01));
    }

    #[test]
    fn render_has_node_columns() {
        let text = render(&run(&tiny_params()));
        assert!(text.contains("4 nodes"));
        assert!(text.contains("16 nodes"));
    }
}

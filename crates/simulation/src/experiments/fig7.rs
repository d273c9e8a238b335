//! Figure 7: fingerprint-lookup messages vs. cluster size.
//!
//! The system-overhead comparison: Σ-Dedupe, Stateless routing and Extreme Binning
//! send a constant number of fingerprint-lookup messages per super-chunk regardless
//! of the cluster size (Σ-Dedupe at most 1.25× Stateless), while Stateful routing
//! broadcasts to every node and therefore grows linearly with the cluster size.

use crate::runner::{run_cluster, SimulationConfig};
use sigma_core::SigmaConfig;
use sigma_metrics::report::TextTable;
use sigma_workloads::{presets, DatasetTrace, Scale};

/// One measured point.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig7Row {
    /// Dataset name.
    pub dataset: String,
    /// Routing scheme name.
    pub scheme: String,
    /// Number of deduplication nodes.
    pub cluster_size: usize,
    /// Total fingerprint-lookup messages (pre-routing + post-routing).
    pub lookup_messages: u64,
}

/// Parameters of the experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig7Params {
    /// Workload scale.
    pub scale: Scale,
    /// Cluster sizes to sweep.
    pub cluster_sizes: Vec<usize>,
    /// Super-chunk size in bytes (1 MB in the paper; see
    /// [`Fig8Params`](super::fig8::Fig8Params) for why scaled-down runs shrink it).
    pub super_chunk_size: usize,
}

impl Default for Fig7Params {
    fn default() -> Self {
        Fig7Params {
            scale: Scale::Small,
            cluster_sizes: vec![1, 2, 4, 8, 16, 32, 64, 128],
            super_chunk_size: 1 << 20,
        }
    }
}

/// The scheme names compared (Figure 7 uses the same four as Figure 8).
pub const SCHEMES: [&str; 4] = ["sigma", "stateless", "stateful", "extreme-binning"];

/// Runs the experiment on the Linux and VM workloads (the two real datasets of the
/// paper's Figure 7).
pub fn run(params: &Fig7Params) -> Vec<Fig7Row> {
    let datasets = [
        presets::linux_dataset(params.scale),
        presets::vm_dataset(params.scale),
    ];
    datasets.iter().flat_map(|d| run_on(d, params)).collect()
}

/// Runs the experiment on one workload.
pub fn run_on(dataset: &DatasetTrace, params: &Fig7Params) -> Vec<Fig7Row> {
    let mut rows = Vec::new();
    for scheme in SCHEMES {
        if scheme == "extreme-binning" && !dataset.has_file_boundaries {
            continue;
        }
        for &cluster_size in &params.cluster_sizes {
            let sigma = SigmaConfig::builder()
                .super_chunk_size(params.super_chunk_size)
                .build()
                .expect("valid configuration");
            let summary = run_cluster(
                dataset,
                sigma_baselines::router(scheme),
                &SimulationConfig {
                    node_count: cluster_size,
                    sigma,
                    client_streams: 4,
                },
            );
            rows.push(Fig7Row {
                dataset: dataset.name.clone(),
                scheme: scheme.to_string(),
                cluster_size,
                lookup_messages: summary.total_lookups(),
            });
        }
    }
    rows
}

/// Renders the figure for one dataset (cluster sizes as rows, schemes as columns).
pub fn render(dataset: &str, rows: &[Fig7Row]) -> String {
    let rows: Vec<&Fig7Row> = rows.iter().filter(|r| r.dataset == dataset).collect();
    let mut clusters: Vec<usize> = rows.iter().map(|r| r.cluster_size).collect();
    clusters.sort_unstable();
    clusters.dedup();

    let mut headers = vec![format!("{}: nodes", dataset)];
    headers.extend(SCHEMES.iter().map(|s| s.to_string()));
    let mut table = TextTable::new(headers.iter().map(|s| s.as_str()).collect());
    for c in clusters {
        let mut cells = vec![c.to_string()];
        for scheme in SCHEMES {
            let cell = rows
                .iter()
                .find(|r| r.cluster_size == c && r.scheme == scheme)
                .map(|r| r.lookup_messages.to_string())
                .unwrap_or_else(|| "-".to_string());
            cells.push(cell);
        }
        table.add_row(cells);
    }
    table.render()
}

/// Checks the paper's two headline claims about Figure 7 on a set of rows:
/// Σ-Dedupe stays within `factor ×` of Stateless at every cluster size, and Stateful
/// grows with the cluster size while Σ-Dedupe stays (nearly) flat.
///
/// The paper's bound is 1.25× for full 1 MB super-chunks of 256 chunks; small-scale
/// test runs whose super-chunks are only partially filled should pass a looser
/// factor, because the fixed pre-routing cost (candidates × handprint size) is
/// amortised over fewer chunk lookups.
pub fn overhead_shape_holds(rows: &[Fig7Row], factor: f64) -> bool {
    let datasets: std::collections::HashSet<&str> =
        rows.iter().map(|r| r.dataset.as_str()).collect();
    datasets.iter().all(|dataset| {
        let of = |scheme: &str, cluster: usize| {
            rows.iter()
                .find(|r| &r.dataset == dataset && r.scheme == scheme && r.cluster_size == cluster)
                .map(|r| r.lookup_messages)
        };
        let mut clusters: Vec<usize> = rows
            .iter()
            .filter(|r| &r.dataset == dataset)
            .map(|r| r.cluster_size)
            .collect();
        clusters.sort_unstable();
        clusters.dedup();
        let Some(&largest) = clusters.last() else {
            return true;
        };
        let Some(&smallest) = clusters.first() else {
            return true;
        };
        let sigma_ok = clusters
            .iter()
            .all(|&c| match (of("sigma", c), of("stateless", c)) {
                (Some(s), Some(b)) => s as f64 <= factor * b as f64,
                _ => true,
            });
        let stateful_grows = match (of("stateful", smallest), of("stateful", largest)) {
            (Some(small), Some(large)) => largest == smallest || large > small,
            _ => true,
        };
        let sigma_flat = match (of("sigma", smallest), of("sigma", largest)) {
            (Some(small), Some(large)) => large as f64 <= factor * small as f64,
            _ => true,
        };
        sigma_ok && stateful_grows && sigma_flat
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_params() -> Fig7Params {
        Fig7Params {
            scale: Scale::Tiny,
            cluster_sizes: vec![2, 8, 32],
            super_chunk_size: 1 << 20,
        }
    }

    #[test]
    fn overhead_shape_matches_the_paper() {
        let dataset = presets::linux_dataset(Scale::Tiny);
        let rows = run_on(&dataset, &tiny_params());
        // Tiny-scale super-chunks are partially filled, so use a looser factor than
        // the paper's 1.25 (the bench at reporting scale uses 1.3).
        assert!(overhead_shape_holds(&rows, 1.8), "{:#?}", rows);
    }

    #[test]
    fn extreme_binning_skipped_without_file_boundaries() {
        let dataset = presets::web_dataset(Scale::Tiny);
        let rows = run_on(&dataset, &tiny_params());
        assert!(rows.iter().all(|r| r.scheme != "extreme-binning"));
        assert!(!rows.is_empty());
    }

    #[test]
    fn render_marks_missing_series_with_dash() {
        let dataset = presets::web_dataset(Scale::Tiny);
        let rows = run_on(&dataset, &tiny_params());
        let text = render("Web", &rows);
        assert!(text.contains('-'));
        assert!(text.contains("stateful"));
    }
}

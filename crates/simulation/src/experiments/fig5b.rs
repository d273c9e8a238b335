//! Figure 5(b): deduplication ratio vs. handprint sampling rate and super-chunk size.
//!
//! With the traditional chunk-index fallback turned off, a node deduplicates purely
//! through the similarity index + container-prefetch path, so its effectiveness
//! depends on how well handprints of the configured size detect previously stored
//! super-chunks.  The paper sweeps the handprint *sampling rate* (handprint size ÷
//! chunks per super-chunk) and the super-chunk size and normalises the resulting
//! deduplication ratio to that of exact deduplication; the "knee" is at a sampling
//! rate of 1/512 for 16 MB super-chunks, i.e. ~8 representative fingerprints, and a
//! 1 MB / 8-fingerprint configuration retains ≈ 90 % of the exact ratio.

use crate::runner::{run_cluster, SimulationConfig};
use sigma_core::{SigmaConfig, SimilarityRouter};
use sigma_metrics::report::TextTable;
use sigma_workloads::{presets, DatasetTrace, Scale};

/// One measured point.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5bRow {
    /// Super-chunk size in bytes.
    pub super_chunk_size: usize,
    /// Sampling-rate denominator (one representative fingerprint per this many
    /// chunks).
    pub sampling_denominator: usize,
    /// Handprint size that the sampling rate translates to.
    pub handprint_size: usize,
    /// Deduplication ratio normalised to exact deduplication.
    pub normalized_dedup_ratio: f64,
}

/// Parameters of the experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5bParams {
    /// Workload scale.
    pub scale: Scale,
    /// Super-chunk sizes to sweep.
    pub super_chunk_sizes: Vec<usize>,
    /// Sampling-rate denominators to sweep.
    pub sampling_denominators: Vec<usize>,
}

impl Default for Fig5bParams {
    fn default() -> Self {
        Fig5bParams {
            scale: Scale::Small,
            super_chunk_sizes: vec![512 << 10, 1 << 20, 2 << 20, 4 << 20],
            sampling_denominators: vec![8, 16, 32, 64, 128, 256, 512],
        }
    }
}

/// Runs the experiment on the Linux-like workload.
pub fn run(params: &Fig5bParams) -> Vec<Fig5bRow> {
    let dataset = presets::linux_dataset(params.scale);
    run_on(&dataset, params)
}

/// Runs the experiment on a caller-provided workload.
pub fn run_on(dataset: &DatasetTrace, params: &Fig5bParams) -> Vec<Fig5bRow> {
    let exact = dataset.exact_dedup_ratio();
    let mut rows = Vec::new();
    for &super_chunk_size in &params.super_chunk_sizes {
        for &denominator in &params.sampling_denominators {
            let chunks_per_super_chunk = (super_chunk_size / 4096).max(1);
            let handprint_size = (chunks_per_super_chunk / denominator).max(1);
            let sigma = SigmaConfig::builder()
                .super_chunk_size(super_chunk_size)
                .handprint_size(handprint_size)
                .chunk_index_fallback(false)
                .build()
                .expect("valid configuration");
            let summary = run_cluster(
                dataset,
                Box::new(SimilarityRouter::new(true)),
                &SimulationConfig {
                    node_count: 1,
                    sigma,
                    client_streams: 1,
                },
            );
            rows.push(Fig5bRow {
                super_chunk_size,
                sampling_denominator: denominator,
                handprint_size,
                normalized_dedup_ratio: summary.dedup_ratio / exact,
            });
        }
    }
    rows
}

/// Renders the figure (sampling rates as rows, super-chunk sizes as columns).
pub fn render(rows: &[Fig5bRow]) -> String {
    let mut denominators: Vec<usize> = rows.iter().map(|r| r.sampling_denominator).collect();
    denominators.sort_unstable();
    denominators.dedup();
    let mut sizes: Vec<usize> = rows.iter().map(|r| r.super_chunk_size).collect();
    sizes.sort_unstable();
    sizes.dedup();

    let mut headers = vec!["sampling rate".to_string()];
    headers.extend(sizes.iter().map(|s| format!("{} KiB SC", s / 1024)));
    let mut table = TextTable::new(headers.iter().map(|s| s.as_str()).collect());
    for d in denominators {
        let mut cells = vec![format!("1/{}", d)];
        for &s in &sizes {
            let cell = rows
                .iter()
                .find(|r| r.sampling_denominator == d && r.super_chunk_size == s)
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

    fn tiny_params() -> Fig5bParams {
        Fig5bParams {
            scale: Scale::Tiny,
            super_chunk_sizes: vec![512 << 10, 1 << 20],
            sampling_denominators: vec![16, 64, 256],
        }
    }

    #[test]
    fn ratios_are_normalised_and_bounded() {
        let rows = run(&tiny_params());
        assert_eq!(rows.len(), 6);
        assert!(rows
            .iter()
            .all(|r| r.normalized_dedup_ratio > 0.1 && r.normalized_dedup_ratio <= 1.01));
    }

    #[test]
    fn coarser_sampling_does_not_improve_dedup() {
        // For a fixed super-chunk size, halving the sampling rate (bigger
        // denominator) can only reduce (or keep) the deduplication ratio.
        let rows = run(&tiny_params());
        for &size in &[512usize << 10, 1 << 20] {
            let series: Vec<f64> = [16usize, 64, 256]
                .iter()
                .map(|d| {
                    rows.iter()
                        .find(|r| r.super_chunk_size == size && r.sampling_denominator == *d)
                        .unwrap()
                        .normalized_dedup_ratio
                })
                .collect();
            assert!(
                series[0] >= series[2] - 0.05,
                "sampling sweep not monotone-ish: {:?}",
                series
            );
        }
    }

    #[test]
    fn paper_default_retains_most_of_exact_dedup() {
        // 1 MB super-chunks with handprint 8 (1/32 sampling) keep ~90% of exact DR.
        let rows = run(&Fig5bParams {
            scale: Scale::Tiny,
            super_chunk_sizes: vec![1 << 20],
            sampling_denominators: vec![32],
        });
        assert_eq!(rows[0].handprint_size, 8);
        assert!(
            rows[0].normalized_dedup_ratio > 0.75,
            "normalized DR = {}",
            rows[0].normalized_dedup_ratio
        );
    }

    #[test]
    fn render_lists_sampling_rates() {
        let text = render(&run(&tiny_params()));
        assert!(text.contains("1/16"));
        assert!(text.contains("KiB SC"));
    }
}

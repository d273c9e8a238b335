//! Figure 5(a): single-node deduplication efficiency vs. chunk size.
//!
//! Deduplication *efficiency* — bytes saved per second — combines the deduplication
//! ratio with the processing cost.  Smaller chunks and CDC find more redundancy but
//! cost more CPU time and metadata; the paper finds static chunking (SC) more
//! efficient than CDC and a workload-dependent sweet spot around 4 KB (Linux) / 8 KB
//! (VM) chunks.  This experiment runs the full client+node pipeline (chunking,
//! SHA-1 fingerprinting, in-node deduplication) over versioned payload datasets and
//! reports bytes saved per second.

use sigma_chunking::{ChunkerParams, ChunkingMethod};
use sigma_core::{DedupNode, SigmaConfig, SuperChunk, SuperChunkBuilder};
use sigma_hashkit::FingerprintAlgorithm;
use sigma_metrics::report::TextTable;
use sigma_metrics::{dedup_efficiency, Stopwatch};
use sigma_workloads::payload::{versioned_payloads, VersionedPayloadParams};

/// One measured point.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5aRow {
    /// Workload name (`"linux-like"` or `"vm-like"`).
    pub workload: String,
    /// Chunking method (SC or CDC).
    pub method: String,
    /// Chunk size in bytes.
    pub chunk_size: usize,
    /// Deduplication ratio achieved.
    pub dedup_ratio: f64,
    /// Deduplication efficiency in bytes saved per second.
    pub bytes_saved_per_sec: f64,
}

/// Parameters of the experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5aParams {
    /// Size of each payload version in bytes.
    pub version_size: usize,
    /// Number of versions per workload.
    pub versions: usize,
    /// Chunk sizes (bytes) to sweep.
    pub chunk_sizes: Vec<usize>,
}

impl Default for Fig5aParams {
    fn default() -> Self {
        Fig5aParams {
            version_size: 16 << 20,
            versions: 4,
            chunk_sizes: vec![1024, 2048, 4096, 8192, 16384, 32768, 65536],
        }
    }
}

/// The two payload workloads: `(label, mutation rate between versions)`.
const WORKLOADS: [(&str, f64); 2] = [("linux-like", 0.03), ("vm-like", 0.12)];

/// Runs the experiment.
pub fn run(params: &Fig5aParams) -> Vec<Fig5aRow> {
    let mut rows = Vec::new();
    for (label, mutation) in WORKLOADS {
        let versions = versioned_payloads(VersionedPayloadParams {
            seed: 0x5a + label.len() as u64,
            versions: params.versions,
            version_size: params.version_size,
            mutation_rate: mutation,
        });
        for &chunk_size in &params.chunk_sizes {
            for method in [ChunkingMethod::Static, ChunkingMethod::Cdc] {
                let chunker = match method {
                    ChunkingMethod::Static => ChunkerParams::fixed(chunk_size),
                    _ => ChunkerParams::cdc_with_average(chunk_size),
                };
                let (dr, de) = measure(&versions, chunker, chunk_size);
                rows.push(Fig5aRow {
                    workload: label.to_string(),
                    method: method.to_string(),
                    chunk_size,
                    dedup_ratio: dr,
                    bytes_saved_per_sec: de,
                });
            }
        }
    }
    rows
}

/// Deduplicates all versions on a single node and returns `(DR, bytes saved/sec)`.
fn measure(
    versions: &[(String, Vec<u8>)],
    chunker: ChunkerParams,
    chunk_size: usize,
) -> (f64, f64) {
    let config = SigmaConfig::builder()
        .chunker(chunker)
        .super_chunk_size((1 << 20).max(chunk_size * 4))
        .container_capacity((4 << 20).max(chunk_size * 8))
        .build()
        .expect("valid configuration");
    let node = DedupNode::new(0, &config);
    let built_chunker = config.chunker.build();

    let stopwatch = Stopwatch::start();
    for (v, (_, data)) in versions.iter().enumerate() {
        let mut builder = SuperChunkBuilder::new(config.super_chunk_size);
        let mut supers: Vec<SuperChunk> = Vec::new();
        for chunk in built_chunker.split(data) {
            let descriptor = sigma_core::ChunkDescriptor::new(
                FingerprintAlgorithm::Sha1.fingerprint(chunk.data()),
                chunk.len() as u32,
            );
            if let Some(sc) = builder.push_chunk(descriptor, chunk.into_data()) {
                supers.push(sc);
            }
        }
        supers.extend(builder.finish());
        for sc in supers {
            let handprint = sc.handprint(config.handprint_size);
            node.process_super_chunk(v as u64, &sc.view(), &handprint)
                .expect("an in-memory node stores every chunk");
        }
        node.try_flush()
            .expect("an in-memory node seals every container");
    }
    let elapsed = stopwatch.elapsed().as_secs_f64();
    let stats = node.stats();
    (
        stats.dedup_ratio,
        dedup_efficiency(stats.logical_bytes, stats.physical_bytes, elapsed),
    )
}

/// Renders the figure (chunk sizes as rows, workload × method as columns).
pub fn render(rows: &[Fig5aRow]) -> String {
    let mut sizes: Vec<usize> = rows.iter().map(|r| r.chunk_size).collect();
    sizes.sort_unstable();
    sizes.dedup();
    let mut series: Vec<(String, String)> = Vec::new();
    for r in rows {
        let key = (r.workload.clone(), r.method.clone());
        if !series.contains(&key) {
            series.push(key);
        }
    }

    let mut headers = vec!["chunk size".to_string()];
    headers.extend(series.iter().map(|(w, m)| format!("{} {}", w, m)));
    let mut table = TextTable::new(headers.iter().map(|s| s.as_str()).collect());
    for size in sizes {
        let mut cells = vec![format!("{} KiB", size / 1024)];
        for (w, m) in &series {
            let cell = rows
                .iter()
                .find(|r| r.chunk_size == size && &r.workload == w && &r.method == m)
                .map(|r| format!("{:.1} MB/s saved", r.bytes_saved_per_sec / 1e6))
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

    fn tiny_params() -> Fig5aParams {
        Fig5aParams {
            version_size: 1 << 20,
            versions: 3,
            chunk_sizes: vec![4096, 16384],
        }
    }

    #[test]
    fn produces_all_combinations() {
        let rows = run(&tiny_params());
        assert_eq!(rows.len(), 2 * 2 * 2);
        assert!(rows.iter().all(|r| r.dedup_ratio >= 1.0));
        assert!(rows.iter().all(|r| r.bytes_saved_per_sec >= 0.0));
    }

    #[test]
    fn versioned_payloads_deduplicate() {
        let rows = run(&tiny_params());
        // With 3 versions at a few percent churn, the deduplication ratio must be
        // clearly above 2 for 4 KB chunks.
        let sc4k = rows
            .iter()
            .find(|r| r.workload == "linux-like" && r.method == "SC" && r.chunk_size == 4096)
            .unwrap();
        assert!(sc4k.dedup_ratio > 2.0, "dr = {}", sc4k.dedup_ratio);
    }

    #[test]
    fn sc_is_more_efficient_than_cdc_at_the_same_size() {
        // The paper's headline observation for Figure 5(a); compare at 4 KB on the
        // linux-like workload where both methods find similar redundancy.
        let rows = run(&Fig5aParams {
            version_size: 4 << 20,
            versions: 3,
            chunk_sizes: vec![4096],
        });
        let sc = rows
            .iter()
            .find(|r| r.workload == "linux-like" && r.method == "SC")
            .unwrap();
        let cdc = rows
            .iter()
            .find(|r| r.workload == "linux-like" && r.method == "CDC")
            .unwrap();
        assert!(
            sc.bytes_saved_per_sec > cdc.bytes_saved_per_sec,
            "sc {} vs cdc {}",
            sc.bytes_saved_per_sec,
            cdc.bytes_saved_per_sec
        );
    }

    #[test]
    fn render_mentions_chunk_sizes() {
        let text = render(&run(&tiny_params()));
        assert!(text.contains("4 KiB"));
        assert!(text.contains("16 KiB"));
    }
}

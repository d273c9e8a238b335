//! Cluster backup at scale: drive the four paper workloads through a 32-node
//! Σ-Dedupe cluster and report the paper's capacity and overhead metrics.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example cluster_backup
//! ```

use sigma_dedupe::prelude::*;

fn main() {
    let scale = Scale::Small;
    let nodes = 32;
    println!(
        "Σ-Dedupe cluster backup: {} nodes, {} per workload (generated stand-ins)\n",
        nodes,
        human_bytes(scale.target_logical_bytes())
    );

    let mut table = TextTable::new(vec![
        "workload",
        "logical",
        "stored",
        "cluster DR",
        "single-node DR",
        "normalized DR",
        "skew",
        "NEDR",
        "lookup msgs",
    ]);

    for dataset in presets::paper_datasets(scale) {
        let summary = run_cluster(
            &dataset,
            Box::new(SimilarityRouter::new(true)),
            &SimulationConfig {
                node_count: nodes,
                sigma: SigmaConfig::default(),
                client_streams: 8,
            },
        );
        table.add_row(vec![
            summary.dataset.clone(),
            human_bytes(summary.logical_bytes),
            human_bytes(summary.physical_bytes),
            format!("{:.2}", summary.dedup_ratio),
            format!("{:.2}", summary.single_node_dr),
            format!("{:.3}", summary.normalized_dr()),
            format!("{:.3}", summary.skew),
            format!("{:.3}", summary.nedr()),
            summary.total_lookups().to_string(),
        ]);
    }

    println!("{}", table.render());
    println!("NEDR = cluster DR / single-node DR / (1 + skew)  —  the Figure 8 metric.");
}

//! Routing-scheme comparison: Σ-Dedupe vs. EMC stateless/stateful routing vs.
//! Extreme Binning on the Linux-like workload across cluster sizes — a compact
//! rendition of the paper's Table 1 / Figure 7 / Figure 8 story.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example routing_comparison
//! ```

use sigma_dedupe::baselines::router;
use sigma_dedupe::prelude::experiments::table1;
use sigma_dedupe::prelude::*;

const NODE_COUNTS: [usize; 3] = [8, 32, 128];
const CLIENT_STREAMS: usize = 8;

fn main() {
    let scale = Scale::Small;
    let dataset = presets::linux_dataset(scale);
    let sigma = SigmaConfig::default();
    // Print the full configuration up front so every number below is
    // reproducible from the output alone.
    println!("routing comparison");
    println!(
        "  workload       : {} preset, scale {:?} ({:.1} MiB logical, {} generations, exact DR {:.2})",
        dataset.name,
        scale,
        dataset.logical_bytes() as f64 / (1 << 20) as f64,
        dataset.generations.len(),
        dataset.exact_dedup_ratio()
    );
    println!(
        "  cluster sizes  : {:?} nodes, {} client streams",
        NODE_COUNTS, CLIENT_STREAMS
    );
    println!(
        "  sigma config   : {} KiB super-chunks, handprint k={}, {} chunking ({} B avg), {} MiB containers",
        sigma.super_chunk_size / 1024,
        sigma.handprint_size,
        sigma.chunker.method(),
        sigma.chunker.average_chunk_size(),
        sigma.container_capacity / (1 << 20),
    );
    println!(
        "  dedup mode     : chunk-index fallback {}, capacity balancing {}\n",
        if sigma.chunk_index_fallback {
            "on"
        } else {
            "off"
        },
        if SimilarityRouter::new(true).capacity_balancing() {
            "on"
        } else {
            "off"
        },
    );

    let mut table = TextTable::new(vec![
        "scheme",
        "nodes",
        "normalized DR",
        "skew",
        "NEDR",
        "lookup msgs",
        "msgs vs stateless",
    ]);

    for &nodes in &NODE_COUNTS {
        let stateless_baseline = run_cluster(
            &dataset,
            router("stateless"),
            &SimulationConfig {
                node_count: nodes,
                sigma: sigma.clone(),
                client_streams: CLIENT_STREAMS,
            },
        );
        for scheme in ["sigma", "stateless", "stateful", "extreme-binning"] {
            let summary = run_cluster(
                &dataset,
                router(scheme),
                &SimulationConfig {
                    node_count: nodes,
                    sigma: sigma.clone(),
                    client_streams: CLIENT_STREAMS,
                },
            );
            table.add_row(vec![
                scheme.to_string(),
                nodes.to_string(),
                format!("{:.3}", summary.normalized_dr()),
                format!("{:.3}", summary.skew),
                format!("{:.3}", summary.nedr()),
                summary.total_lookups().to_string(),
                format!(
                    "{:.2}x",
                    summary.total_lookups() as f64 / stateless_baseline.total_lookups() as f64
                ),
            ]);
        }
    }
    println!("{}", table.render());

    println!("derived Table 1 (measured grades, 32 nodes):\n");
    let rows = table1::run(table1::Table1Params {
        scale,
        cluster_size: 32,
    });
    println!("{}", table1::render(&rows));
}

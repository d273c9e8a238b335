//! Shared helpers for the Σ-Dedupe benchmark harness.
//!
//! Each bench target in `benches/` reproduces one table or figure of the paper,
//! or measures one operation the paper's prototype lacks (restore, rebalance,
//! recovery, GC, multi-tenant scheduling): it first runs the experiment at a
//! reporting scale and prints the resulting rows (the "figure"), checking the
//! invariants the numbers rest on, then registers a small Criterion
//! micro-benchmark of the core operation that the figure exercises.
//!
//! `cargo bench -p sigma-bench -- --test` runs every target once, checks
//! included. End-to-end throughput claims are measured with `sigma-e2e` and
//! `BENCHMARK.json`, not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Prints a banner identifying which table/figure of the paper a bench reproduces.
pub fn banner(experiment: &str, description: &str) {
    println!();
    println!("================================================================================");
    println!("{experiment} — {description}");
    println!("  (reproduction of \"A Scalable Inline Cluster Deduplication Framework for");
    println!("   Big Data Protection\", Fu et al., MIDDLEWARE 2012)");
    println!("================================================================================");
}

/// Prints a rendered experiment table under a short caption.
pub fn print_table(caption: &str, table: &str) {
    println!();
    println!("--- {caption} ---");
    println!("{table}");
}

#[cfg(test)]
mod tests {
    #[test]
    fn banner_does_not_panic() {
        super::banner("Figure 0", "smoke test");
        super::print_table("caption", "a  b\n1  2\n");
    }
}

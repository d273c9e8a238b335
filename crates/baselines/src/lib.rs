//! Baseline cluster-deduplication data-routing schemes.
//!
//! The paper (Section 2.1, Table 1, Section 4.4) compares Σ-Dedupe against the
//! representative state-of-the-art routing schemes.  Each is implemented here behind
//! the same [`DataRouter`] trait as Σ-Dedupe's own
//! [`SimilarityRouter`](sigma_core::SimilarityRouter), so that the trace-driven
//! simulation can swap them freely:
//!
//! * [`StatelessRouter`] — EMC's super-chunk stateless routing: hash a
//!   representative feature of the super-chunk and place it with a modulo (DHT-like)
//!   mapping.  No remote state is consulted, so the overhead is minimal, but
//!   cross-node redundancy is untouched and capacity can skew in large clusters.
//! * [`StatefulRouter`] — EMC's super-chunk stateful routing: ask *every* node how
//!   much of (a sample of) the super-chunk it already stores and send the
//!   super-chunk to the best match, weighted for load balance.  Highest
//!   deduplication, but the per-super-chunk broadcast makes the lookup message count
//!   grow linearly with the cluster size (Figure 7).
//! * [`ExtremeBinningRouter`] — file-similarity routing: the whole file goes to the
//!   node selected by the file's representative (minimum) chunk fingerprint.
//!   Needs file boundaries; suffers when file sizes are large/skewed (VM dataset).
//! * [`ChunkDhtRouter`] — HYDRAstor-style chunk/stateless DHT placement at a fixed
//!   granularity, included as the "route by the chunk itself" extreme.
//! * [`RoundRobinRouter`] — a locality- and similarity-oblivious strawman that
//!   spreads super-chunks uniformly; perfect balance, minimal deduplication.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chunk_dht;
mod extreme_binning;
mod round_robin;
mod stateful;
mod stateless;

pub use chunk_dht::ChunkDhtRouter;
pub use extreme_binning::ExtremeBinningRouter;
pub use round_robin::RoundRobinRouter;
pub use stateful::StatefulRouter;
pub use stateless::StatelessRouter;

use sigma_core::DataRouter;

/// Builds the routing scheme `name`, keyed by each router's own
/// [`DataRouter::name`]: `sigma`, `sigma-nobalance`, `stateless`,
/// `stateful`, `extreme-binning`, `chunk-dht` and `round-robin`.
///
/// # Panics
///
/// Panics on any other name.
///
/// # Example
///
/// ```
/// let router = sigma_baselines::router("extreme-binning");
/// assert_eq!(router.name(), "extreme-binning");
/// assert!(router.requires_file_boundaries());
/// ```
pub fn router(name: &str) -> Box<dyn DataRouter> {
    match name {
        "sigma" => Box::new(sigma_core::SimilarityRouter::new(true)),
        "sigma-nobalance" => Box::new(sigma_core::SimilarityRouter::new(false)),
        "stateless" => Box::new(StatelessRouter::new()),
        "stateful" => Box::new(StatefulRouter::new()),
        "extreme-binning" => Box::new(ExtremeBinningRouter::new()),
        "chunk-dht" => Box::new(ChunkDhtRouter::new()),
        "round-robin" => Box::new(RoundRobinRouter::new()),
        other => panic!("unknown routing scheme {other}"),
    }
}

/// The routing schemes compared in the paper's evaluation, as trait objects.
///
/// Convenience for experiments that sweep over schemes: Σ-Dedupe itself, EMC
/// stateless, EMC stateful and Extreme Binning (the four lines of Figures 7 and 8).
///
/// # Example
///
/// ```
/// use sigma_baselines::paper_comparison_routers;
///
/// let routers = paper_comparison_routers();
/// let names: Vec<String> = routers.iter().map(|r| r.name()).collect();
/// assert_eq!(names, vec!["sigma", "stateless", "stateful", "extreme-binning"]);
/// ```
pub fn paper_comparison_routers() -> Vec<Box<dyn DataRouter>> {
    ["sigma", "stateless", "stateful", "extreme-binning"]
        .into_iter()
        .map(router)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_scheme_is_built_under_its_own_name() {
        for name in [
            "sigma",
            "sigma-nobalance",
            "stateless",
            "stateful",
            "extreme-binning",
            "chunk-dht",
            "round-robin",
        ] {
            assert_eq!(router(name).name(), name);
        }
    }

    #[test]
    fn comparison_set_matches_figure_8() {
        let routers = paper_comparison_routers();
        assert_eq!(routers.len(), 4);
        assert_eq!(routers[0].name(), "sigma");
        assert!(routers[3].requires_file_boundaries());
        assert!(!routers[1].requires_file_boundaries());
    }
}

//! Trace-driven cluster-deduplication simulation and the paper's experiments.
//!
//! The paper evaluates Σ-Dedupe with a real single-node prototype plus trace-driven
//! simulation of the cluster (Section 4).  This crate is the equivalent harness:
//!
//! * [`runner`] — drives a [`sigma_workloads::DatasetTrace`] through a
//!   [`sigma_core::DedupCluster`] with any routing scheme and collects the paper's
//!   metrics (cluster DR, storage skew, fingerprint-lookup messages, NEDR).  A
//!   trace carries no content, so each chunk is stored as its
//!   [stand-in payload](sigma_workloads::ChunkSpec::stand_in_payload): the
//!   nodes run the store path a real backup runs, and the figures depend only
//!   on the trace's fingerprints and lengths.
//! * [`experiments`] — one module per table/figure of the paper; each produces the
//!   rows/series of that figure and can render them as a text table.  The
//!   `sigma-bench` crate invokes these from `cargo bench`, and the examples print
//!   selected ones.
//! * [`churn`] — the elastic-membership scenario the paper's static clusters
//!   cannot express: backup, add a node (with rebalancing), back up more, remove
//!   a node, then restore everything and verify byte identity and physical-byte
//!   conservation.
//! * [`crash_churn`] — the same story under *unplanned* failure: a deterministic
//!   [`FaultPlan`](crash_churn::FaultPlan) kills a node at a sampled
//!   journal-record boundary (including mid-rebalance), the node is recovered
//!   from its write-ahead journal, and every acknowledged byte must restore
//!   identically afterwards.
//! * [`retention_churn`] — the backup lifecycle: N generations ingested, the
//!   oldest expired one by one (delete + mark-and-sweep garbage collection),
//!   survivors restore-verified, and physical bytes asserted to actually shrink
//!   while never dropping below the proven-live bytes.
//! * [`tenant_storm`] — the multi-tenant heavy-traffic scenario: a
//!   thousand-plus concurrent clients across a hundred tenants drive the full
//!   service stack (auth → admission → quota → rate-limit → fair-scheduler),
//!   a hot tenant tries to hog the cluster, a subset of tenants churns
//!   (delete + GC, optionally through a supervised node crash), and the run
//!   scores scheduler fairness (Jain index) plus byte-level tenant isolation.
//!
//! # Example
//!
//! ```
//! use sigma_simulation::runner::{run_cluster, SimulationConfig};
//! use sigma_core::SimilarityRouter;
//! use sigma_workloads::{presets, Scale};
//!
//! let dataset = presets::web_dataset(Scale::Tiny);
//! let summary = run_cluster(
//!     &dataset,
//!     Box::new(SimilarityRouter::new(true)),
//!     &SimulationConfig { node_count: 4, ..SimulationConfig::default() },
//! );
//! assert_eq!(summary.nodes, 4);
//! assert!(summary.dedup_ratio >= 1.0);
//! assert!(summary.nedr() <= 1.0 + 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod churn;
pub mod crash_churn;
pub mod experiments;
pub mod retention_churn;
pub mod runner;
pub mod tenant_storm;

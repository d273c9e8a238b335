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
//!   cannot express, and its one driver: back up, add a node (with
//!   rebalancing), back up more, remove a node, restoring every acknowledged
//!   file byte-for-byte after each phase, under any router and any
//!   [`FaultPlan`](crash_churn::FaultPlan) (empty for a fault-free run).
//! * [`crash_churn`] — the same story under *unplanned* failure: fault plans
//!   sampled from a fault-free run's journal activity kill a node at a
//!   journal-record boundary (including mid-rebalance), the driver recovers it
//!   from its write-ahead journal and retries, and every acknowledged byte
//!   must restore identically.
//! * [`retention_churn`] — the backup lifecycle: N generations ingested, the
//!   oldest expired one by one (delete + mark-and-sweep garbage collection),
//!   survivors restore-verified, and physical bytes asserted to actually shrink
//!   while never dropping below the proven-live bytes.
//! * [`tenant_storm`] — the multi-tenant heavy-traffic scenario: a
//!   thousand-plus scripted clients across a hundred tenants drive the full
//!   service stack (admission → fair-scheduler → auth → quota → rate-limit)
//!   on one thread in virtual time, a hot tenant tries to hog the cluster, a
//!   subset of tenants churns (delete + GC, optionally through a node
//!   crash), and the run scores scheduler fairness (Jain index, exact for a
//!   seed) plus byte-level tenant isolation.
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

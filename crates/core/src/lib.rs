//! Σ-Dedupe: a scalable inline cluster deduplication framework.
//!
//! This crate implements the primary contribution of *"A Scalable Inline Cluster
//! Deduplication Framework for Big Data Protection"* (Fu, Jiang, Xiao — MIDDLEWARE
//! 2012): a source inline cluster deduplication middleware that exploits data
//! **similarity** (for inter-node routing) and **locality** (for intra-node
//! deduplication).
//!
//! The moving parts, mirroring Figure 2 of the paper:
//!
//! * [`SuperChunk`] / [`SuperChunkBuilder`] — consecutive chunks grouped into the
//!   coarse-grained routing unit (1 MB by default).
//! * [`Handprint`] — the k smallest chunk fingerprints of a super-chunk
//!   (deterministic min-k sampling); two similar super-chunks share representative
//!   fingerprints with high probability (Broder's theorem, Section 2.2).
//! * [`SimilarityRouter`] — Algorithm 1: similarity-based stateful data routing with
//!   capacity-aware load balancing over at most k candidate nodes.
//! * [`DedupNode`] — a deduplication server: similarity index + container-granular
//!   chunk-fingerprint cache + parallel container management (+ optional on-disk
//!   chunk-index fallback).
//! * [`BackupClient`] — the one ingest front end: data partitioning, chunk
//!   fingerprinting and similarity-aware routing at the source, for one stream
//!   or several at once on a worker pool [`SigmaConfig::parallelism`] wide.
//! * [`Director`] — backup-session and file-recipe management for restores.
//! * [`DedupCluster`] — wires N nodes, a router and the director together and
//!   accounts for fingerprint-lookup messages (the paper's overhead metric).
//! * [`NodeMap`] / [`Rebalancer`] — elastic membership: add/remove nodes on a
//!   live cluster behind generation-stamped node maps, with recipe-preserving
//!   container migration (see the [`membership`] module).
//!
//! # Quick start
//!
//! ```
//! use sigma_core::{BackupClient, DedupCluster, SigmaConfig};
//! use std::sync::Arc;
//!
//! // A 4-node cluster with the paper's default parameters (1 MB super-chunks,
//! // handprints of 8, 4 KB static chunking).
//! let config = SigmaConfig::default();
//! let cluster = Arc::new(DedupCluster::with_similarity_router(4, config));
//! let client = BackupClient::new(cluster.clone(), 0);
//!
//! // Back up two generations of the "same" data: the second is almost free.
//! let generation_1 = vec![42u8; 4 << 20];
//! let generation_2 = generation_1.clone();
//! let report_1 = client.backup_bytes("vm-image, monday", &generation_1).unwrap();
//! let report_2 = client.backup_bytes("vm-image, tuesday", &generation_2).unwrap();
//! assert!(report_2.transferred_bytes < report_1.transferred_bytes / 10);
//!
//! // And the restore path returns the original bytes.
//! let restored = cluster.restore_file(report_2.file_id).unwrap();
//! assert_eq!(restored, generation_2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
mod cluster;
mod config;
mod director;
mod error;
mod handprint;
pub mod membership;
mod node;
mod pipeline;
mod restore;
mod routing;
mod super_chunk;

pub use client::{BackupClient, FileBackupReport, StreamPayload};
pub use cluster::{ClusterStats, DedupCluster, GcReport, MessageStats};
pub use config::{SigmaConfig, SigmaConfigBuilder, MAX_PARALLELISM};
pub use director::{BackupSession, Director, FileId, FileRecipe, RecipeEntry};
pub use error::{ServiceCode, SigmaError};
pub use handprint::{jaccard, Handprint};
pub use membership::{MoveReceipt, NodeMap, RebalanceReport, Rebalancer};
pub use node::{DedupNode, NodeGcReport, NodeStats, RecoveryReport, SuperChunkReceipt};
pub use restore::RestoreReport;
pub use routing::{DataRouter, RoutingContext, RoutingDecision, SimilarityRouter};
pub use super_chunk::{ChunkDescriptor, SuperChunk, SuperChunkBuilder, SuperChunkView};

/// Convenient result alias for Σ-Dedupe operations.
pub type Result<T> = std::result::Result<T, SigmaError>;

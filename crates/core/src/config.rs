//! Configuration of the Σ-Dedupe framework.

use crate::SigmaError;
use serde::{Deserialize, Serialize};
use sigma_chunking::ChunkerParams;
use sigma_hashkit::FingerprintAlgorithm;
use sigma_storage::BackendKind;
use std::path::PathBuf;
use std::sync::OnceLock;

/// Tunable parameters of backup clients, deduplication nodes and the cluster.
///
/// The defaults reproduce the configuration the paper converges on in Section 4:
/// 4 KB static chunking, SHA-1 fingerprints, 1 MB super-chunks, handprints of 8
/// representative fingerprints (a 1/32 sampling rate) and 4 MB containers.
///
/// # Example
///
/// ```
/// use sigma_core::SigmaConfig;
///
/// let config = SigmaConfig::builder()
///     .super_chunk_size(2 << 20)
///     .handprint_size(16)
///     .build()
///     .unwrap();
/// assert_eq!(config.handprint_size, 16);
/// assert_eq!(config.sampling_rate_denominator(), (2 << 20) / 4096 / 16);
/// ```
///
/// # Construction
///
/// Prefer [`SigmaConfig::builder`]: its [`build`](SigmaConfigBuilder::build)
/// runs [`validate`](Self::validate), so an inconsistent combination is
/// rejected at construction time instead of surfacing as a confusing failure
/// deep inside ingest.  Mutating the public fields of a bare struct literal
/// (`SigmaConfig { super_chunk_size: 0, ..Default::default() }`) is
/// considered deprecated style: it compiles, but nothing validates the result
/// until a component happens to call `validate` itself.  The fields stay
/// `pub` for read access and for spread-syntax updates in tests.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SigmaConfig {
    /// Target super-chunk size in bytes (the routing granularity). Default: 1 MB.
    pub super_chunk_size: usize,
    /// Handprint size k: number of representative fingerprints per super-chunk.
    /// Default: 8.
    pub handprint_size: usize,
    /// Chunking algorithm and chunk-size parameters. Default: static 4 KB.
    pub chunker: ChunkerParams,
    /// Chunk fingerprinting hash. Default: SHA-1.
    pub fingerprint_algorithm: FingerprintAlgorithm,
    /// Container data-section capacity in bytes, at most `u32::MAX` (chunk
    /// offsets and lengths are 32-bit on disk). Default: 4 MB.
    pub container_capacity: usize,
    /// Chunk-fingerprint cache capacity, in containers. Default: 512.
    pub cache_containers: usize,
    /// Whether a node may fall back to the traditional on-disk chunk index when a
    /// fingerprint misses in the cache (near-exact intra-node deduplication).
    /// Disabling it yields the similarity-index-only approximate mode of Fig. 5(b).
    /// Default: `true`.
    pub chunk_index_fallback: bool,
    /// Whether the similarity router discounts resemblance by relative storage usage
    /// (step 3 of Algorithm 1). Default: `true`.
    pub capacity_balancing: bool,
    /// Worker threads used by ingest (the one core behind
    /// [`BackupClient::backup_bytes`](crate::BackupClient::backup_bytes) and
    /// [`BackupClient::backup_streams`](crate::BackupClient::backup_streams))
    /// and by the threaded simulation runner.
    ///
    /// * `1` (the default) keeps every path serial and deterministic;
    /// * `0` means "one worker per available CPU core";
    /// * any other value requests that many workers, clamped to
    ///   [`MAX_PARALLELISM`] so a nonsensical value (such as `usize::MAX`, the
    ///   classic "negative count cast to unsigned" mistake) cannot ask the OS
    ///   for billions of threads.
    ///
    /// Always read the knob through [`SigmaConfig::effective_parallelism`], which
    /// performs both the `0` resolution and the clamp.
    pub parallelism: usize,
    /// Worker threads used by the restore pipeline's per-container fan-out,
    /// mirroring [`parallelism`](Self::parallelism) on the read side:
    ///
    /// * `1` (the default) runs the planned restore on the caller's thread —
    ///   still batched, cached and copy-eliminated, just not fanned out;
    /// * `0` means "one worker per available CPU core";
    /// * other values are clamped to [`MAX_PARALLELISM`].
    ///
    /// Read it through [`SigmaConfig::effective_restore_parallelism`].
    pub restore_parallelism: usize,
    /// Whether nodes keep a write-ahead journal so they can be crash-recovered
    /// (see [`DedupNode::recover`](crate::DedupNode::recover) and
    /// [`DedupCluster::restart_node`](crate::DedupCluster::restart_node)).
    /// The journal carries metadata only (container records, index entries,
    /// handprints, tombstones) — chunk bytes stay in their container objects —
    /// so it costs a few percent of the stored bytes; experiments that never
    /// crash nodes leave it off.  Default: `false`.
    pub durability: bool,
    /// Which storage backend each node's journal and container store live on.
    ///
    /// * [`BackendKind::Memory`] (the default): volatile buffers — what every
    ///   figure reproduction and fault-injection test runs against;
    /// * [`BackendKind::File`]: one real directory per node under
    ///   [`storage_root`](Self::storage_root) (`node-<id>/` holding
    ///   `journal.wal` and `container-*.sc`), surviving an actual process
    ///   restart.  Each container object is fsynced as it is written; the
    ///   journal at every seal, adopt, tombstone and GC record and at the
    ///   [`try_flush`](crate::DedupCluster::try_flush) acknowledgement, while a
    ///   super-chunk's similarity publish rides unsynced to the next of these.  Requires `storage_root`
    ///   and [`durability`](Self::durability) — file persistence without a
    ///   write-ahead journal could not be recovered.
    pub storage_backend: BackendKind,
    /// Directory the file backend keeps per-node subdirectories under.
    /// Required (and only meaningful) when `storage_backend` is
    /// [`BackendKind::File`].  Default: `None`.
    pub storage_root: Option<PathBuf>,
    /// Garbage-collection liveness threshold in `[0, 1]`: during a sweep, a
    /// sealed container whose live fraction (bytes referenced by surviving
    /// recipes / total bytes) falls *below* this value is compacted — its live
    /// chunks rewritten into a fresh container before the old one drops.
    /// Containers with no live chunks are always dropped outright; `0.0`
    /// disables compaction (drop-only GC), `1.0` compacts any container with a
    /// single dead byte.  Default: `0.5`.
    pub gc_liveness_threshold: f64,
}

impl Default for SigmaConfig {
    fn default() -> Self {
        SigmaConfig {
            super_chunk_size: 1 << 20,
            handprint_size: 8,
            chunker: ChunkerParams::paper_default(),
            fingerprint_algorithm: FingerprintAlgorithm::Sha1,
            container_capacity: 4 << 20,
            cache_containers: 512,
            chunk_index_fallback: true,
            capacity_balancing: true,
            parallelism: 1,
            restore_parallelism: 1,
            durability: false,
            storage_backend: BackendKind::Memory,
            storage_root: None,
            gc_liveness_threshold: 0.5,
        }
    }
}

impl SigmaConfig {
    /// Starts building a configuration from the defaults.
    pub fn builder() -> SigmaConfigBuilder {
        SigmaConfigBuilder::default()
    }

    /// The handprint sampling-rate denominator: a handprint of k fingerprints over a
    /// super-chunk of `super_chunk_size / avg_chunk_size` chunks samples 1 out of
    /// this many chunk fingerprints (32 with the paper's defaults).
    pub fn sampling_rate_denominator(&self) -> usize {
        let chunks_per_super_chunk =
            (self.super_chunk_size / self.chunker.average_chunk_size()).max(1);
        (chunks_per_super_chunk / self.handprint_size.max(1)).max(1)
    }

    /// The resolved worker-thread count: `parallelism`, except that `0` resolves
    /// to the number of available CPU cores (at least 1) and explicit requests
    /// are clamped to [`MAX_PARALLELISM`] (guarding against values like
    /// `usize::MAX` that would otherwise try to spawn one thread per address).
    pub fn effective_parallelism(&self) -> usize {
        match self.parallelism {
            0 => available_cores(),
            n => n.min(MAX_PARALLELISM),
        }
    }

    /// The resolved restore worker count, with the same `0` resolution and
    /// [`MAX_PARALLELISM`] clamp as [`effective_parallelism`](Self::effective_parallelism).
    pub fn effective_restore_parallelism(&self) -> usize {
        match self.restore_parallelism {
            0 => available_cores(),
            n => n.min(MAX_PARALLELISM),
        }
    }

    /// Expected number of chunks per super-chunk.
    pub fn chunks_per_super_chunk(&self) -> usize {
        (self.super_chunk_size / self.chunker.average_chunk_size()).max(1)
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SigmaError::InvalidConfig`] describing the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), SigmaError> {
        if self.super_chunk_size == 0 {
            return Err(SigmaError::InvalidConfig(
                "super-chunk size must be non-zero".to_string(),
            ));
        }
        if self.handprint_size == 0 {
            return Err(SigmaError::InvalidConfig(
                "handprint size must be non-zero".to_string(),
            ));
        }
        if self.container_capacity == 0 {
            return Err(SigmaError::InvalidConfig(
                "container capacity must be non-zero".to_string(),
            ));
        }
        // Offsets, lengths and the data length are u32 on disk.
        if self.container_capacity > u32::MAX as usize {
            return Err(SigmaError::InvalidConfig(format!(
                "container capacity {} exceeds the on-disk limit of {} bytes",
                self.container_capacity,
                u32::MAX
            )));
        }
        if self.cache_containers == 0 {
            return Err(SigmaError::InvalidConfig(
                "cache capacity must be non-zero".to_string(),
            ));
        }
        if self.chunker.average_chunk_size() > self.super_chunk_size {
            return Err(SigmaError::InvalidConfig(format!(
                "average chunk size {} exceeds super-chunk size {}",
                self.chunker.average_chunk_size(),
                self.super_chunk_size
            )));
        }
        if self.chunker.average_chunk_size() > self.container_capacity {
            return Err(SigmaError::InvalidConfig(format!(
                "average chunk size {} exceeds container capacity {}",
                self.chunker.average_chunk_size(),
                self.container_capacity
            )));
        }
        if !self.gc_liveness_threshold.is_finite()
            || !(0.0..=1.0).contains(&self.gc_liveness_threshold)
        {
            return Err(SigmaError::InvalidConfig(format!(
                "gc_liveness_threshold = {} must be a finite fraction in [0, 1]",
                self.gc_liveness_threshold
            )));
        }
        if self.storage_backend == BackendKind::File {
            if self.storage_root.is_none() {
                return Err(SigmaError::InvalidConfig(
                    "storage_backend = file requires storage_root".to_string(),
                ));
            }
            if !self.durability {
                return Err(SigmaError::InvalidConfig(
                    "storage_backend = file requires durability: without a write-ahead \
                     journal the on-disk state could never be recovered"
                        .to_string(),
                ));
            }
        }
        self.chunker.validate().map_err(SigmaError::InvalidConfig)
    }

    /// The directory a node's file backend lives in: `storage_root/node-<id>`.
    ///
    /// `None` when the configured backend is not [`BackendKind::File`].
    pub fn node_storage_dir(&self, node_id: usize) -> Option<PathBuf> {
        if self.storage_backend != BackendKind::File {
            return None;
        }
        self.storage_root
            .as_ref()
            .map(|root| root.join(format!("node-{}", node_id)))
    }
}

/// The number of available CPU cores (at least 1), asked of the OS once per
/// process: `std::thread::available_parallelism` reads cgroup files on Linux,
/// ~12 µs a call, too slow to pay on every ingest and planned restore.
fn available_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Upper bound on the resolved worker-thread count.
///
/// Generous enough for any real machine this simulation targets, small enough
/// that an accidental `usize::MAX` (or any other negative-equivalent value) in
/// [`SigmaConfig::parallelism`] degrades to a large-but-sane pool instead of an
/// attempt to spawn billions of threads.
pub const MAX_PARALLELISM: usize = 256;

/// Builder for [`SigmaConfig`].
#[derive(Debug, Clone, Default)]
pub struct SigmaConfigBuilder {
    config: SigmaConfig,
}

impl SigmaConfigBuilder {
    /// Sets the super-chunk size in bytes.
    pub fn super_chunk_size(mut self, bytes: usize) -> Self {
        self.config.super_chunk_size = bytes;
        self
    }

    /// Sets the handprint size (number of representative fingerprints).
    pub fn handprint_size(mut self, k: usize) -> Self {
        self.config.handprint_size = k;
        self
    }

    /// Sets the chunking parameters.
    pub fn chunker(mut self, chunker: ChunkerParams) -> Self {
        self.config.chunker = chunker;
        self
    }

    /// Sets the fingerprinting hash algorithm.
    pub fn fingerprint_algorithm(mut self, algorithm: FingerprintAlgorithm) -> Self {
        self.config.fingerprint_algorithm = algorithm;
        self
    }

    /// Sets the container data-section capacity in bytes.
    pub fn container_capacity(mut self, bytes: usize) -> Self {
        self.config.container_capacity = bytes;
        self
    }

    /// Sets the chunk-fingerprint cache capacity in containers.
    pub fn cache_containers(mut self, containers: usize) -> Self {
        self.config.cache_containers = containers;
        self
    }

    /// Enables or disables the on-disk chunk-index fallback.
    pub fn chunk_index_fallback(mut self, enabled: bool) -> Self {
        self.config.chunk_index_fallback = enabled;
        self
    }

    /// Enables or disables capacity-aware load balancing in the similarity router.
    pub fn capacity_balancing(mut self, enabled: bool) -> Self {
        self.config.capacity_balancing = enabled;
        self
    }

    /// Sets the ingest worker-thread count (`0` = one per CPU core, `1` = serial;
    /// values above [`MAX_PARALLELISM`] are clamped at resolution time).
    pub fn parallelism(mut self, threads: usize) -> Self {
        self.config.parallelism = threads;
        self
    }

    /// Sets the restore worker-thread count (`0` = one per CPU core, `1` =
    /// serial; values above [`MAX_PARALLELISM`] are clamped at resolution time).
    pub fn restore_parallelism(mut self, threads: usize) -> Self {
        self.config.restore_parallelism = threads;
        self
    }

    /// Enables or disables the per-node write-ahead journal (crash recovery).
    pub fn durability(mut self, enabled: bool) -> Self {
        self.config.durability = enabled;
        self
    }

    /// Sets the storage backend kind (validated by [`build`](Self::build):
    /// [`BackendKind::File`] requires a storage root and durability).
    pub fn storage_backend(mut self, kind: BackendKind) -> Self {
        self.config.storage_backend = kind;
        self
    }

    /// Sets the directory the file backend keeps per-node state under.
    pub fn storage_root(mut self, root: impl Into<PathBuf>) -> Self {
        self.config.storage_root = Some(root.into());
        self
    }

    /// Convenience: selects the file backend rooted at `root`, enabling the
    /// durability (write-ahead journaling) it requires.
    pub fn file_storage(self, root: impl Into<PathBuf>) -> Self {
        self.storage_backend(BackendKind::File)
            .storage_root(root)
            .durability(true)
    }

    /// Sets the GC liveness threshold (fraction in `[0, 1]`; validated by
    /// [`build`](Self::build)).  Containers whose live fraction falls below it
    /// are compacted during a sweep.
    pub fn gc_liveness_threshold(mut self, threshold: f64) -> Self {
        self.config.gc_liveness_threshold = threshold;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SigmaError::InvalidConfig`] if any parameter is inconsistent.
    pub fn build(self) -> Result<SigmaConfig, SigmaError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let c = SigmaConfig::default();
        assert_eq!(c.super_chunk_size, 1 << 20);
        assert_eq!(c.handprint_size, 8);
        assert_eq!(c.chunker.average_chunk_size(), 4096);
        assert_eq!(c.fingerprint_algorithm, FingerprintAlgorithm::Sha1);
        assert!(c.chunk_index_fallback);
        assert!(c.capacity_balancing);
        // 1 MB / 4 KB = 256 chunks; 256 / 8 = a 1-in-32 sampling rate.
        assert_eq!(c.chunks_per_super_chunk(), 256);
        assert_eq!(c.sampling_rate_denominator(), 32);
        assert!(!c.durability, "journaling is opt-in");
        assert!(c.validate().is_ok());
    }

    #[test]
    fn builder_sets_fields() {
        let c = SigmaConfig::builder()
            .super_chunk_size(512 * 1024)
            .handprint_size(4)
            .cache_containers(16)
            .chunk_index_fallback(false)
            .capacity_balancing(false)
            .build()
            .unwrap();
        assert_eq!(c.super_chunk_size, 512 * 1024);
        assert_eq!(c.handprint_size, 4);
        assert_eq!(c.cache_containers, 16);
        assert!(!c.chunk_index_fallback);
        assert!(!c.capacity_balancing);
    }

    #[test]
    fn validation_rejects_inconsistent_configs() {
        assert!(SigmaConfig::builder().super_chunk_size(0).build().is_err());
        assert!(SigmaConfig::builder().handprint_size(0).build().is_err());
        assert!(SigmaConfig::builder()
            .container_capacity(0)
            .build()
            .is_err());
        assert!(SigmaConfig::builder().cache_containers(0).build().is_err());
        // Chunk size larger than the super-chunk.
        assert!(SigmaConfig::builder()
            .super_chunk_size(1024)
            .chunker(sigma_chunking::ChunkerParams::fixed(4096))
            .build()
            .is_err());
    }

    #[test]
    fn parallelism_knob_resolves() {
        let c = SigmaConfig::default();
        assert_eq!(c.parallelism, 1, "serial by default");
        assert_eq!(c.effective_parallelism(), 1);
        let auto = SigmaConfig::builder().parallelism(0).build().unwrap();
        assert!(auto.effective_parallelism() >= 1, "0 resolves to CPU count");
        let eight = SigmaConfig::builder().parallelism(8).build().unwrap();
        assert_eq!(eight.effective_parallelism(), 8);
    }

    #[test]
    fn container_capacity_fits_the_on_disk_offsets() {
        let largest = SigmaConfig::builder()
            .container_capacity(u32::MAX as usize)
            .build()
            .unwrap();
        assert_eq!(largest.container_capacity, u32::MAX as usize);
        let err = SigmaConfig::builder()
            .container_capacity(u32::MAX as usize + 1)
            .build()
            .unwrap_err();
        assert!(
            matches!(&err, SigmaError::InvalidConfig(msg) if msg.contains("container capacity")),
            "{err}"
        );
    }

    #[test]
    fn restore_knobs_resolve_and_default() {
        let c = SigmaConfig::default();
        assert_eq!(c.restore_parallelism, 1, "serial restore by default");
        assert_eq!(c.effective_restore_parallelism(), 1);
        let auto = SigmaConfig::builder()
            .restore_parallelism(0)
            .build()
            .unwrap();
        assert!(auto.effective_restore_parallelism() >= 1);
        let four = SigmaConfig::builder()
            .restore_parallelism(4)
            .build()
            .unwrap();
        assert_eq!(four.effective_restore_parallelism(), 4);
        let absurd = SigmaConfig::builder()
            .restore_parallelism(usize::MAX)
            .build()
            .unwrap();
        assert_eq!(absurd.effective_restore_parallelism(), MAX_PARALLELISM);
    }

    #[test]
    fn available_cores_are_resolved_once_and_at_least_one() {
        let cores = available_cores();
        assert!(cores >= 1);
        let auto = SigmaConfig::builder()
            .parallelism(0)
            .restore_parallelism(0)
            .build()
            .unwrap();
        for _ in 0..3 {
            assert_eq!(available_cores(), cores, "stable across calls");
            assert_eq!(auto.effective_parallelism(), cores);
            assert_eq!(auto.effective_restore_parallelism(), cores);
        }
    }

    #[test]
    fn absurd_parallelism_is_clamped() {
        // usize::MAX is what a negative thread count becomes after an unsigned
        // cast; it must degrade to the cap, not to an OS-melting thread storm.
        let absurd = SigmaConfig::builder()
            .parallelism(usize::MAX)
            .build()
            .unwrap();
        assert_eq!(absurd.effective_parallelism(), MAX_PARALLELISM);
        let at_cap = SigmaConfig::builder()
            .parallelism(MAX_PARALLELISM)
            .build()
            .unwrap();
        assert_eq!(at_cap.effective_parallelism(), MAX_PARALLELISM);
    }

    #[test]
    fn chunker_orderings_are_validated_at_build_time() {
        use sigma_chunking::ChunkerParams;
        // Zero sizes and broken min ≤ avg ≤ max orderings are rejected with an
        // InvalidConfig naming the offending field.
        for (bad, field) in [
            (ChunkerParams::fixed(0), "chunk_size"),
            (ChunkerParams::cdc(0, 4096, 16384), "min_size"),
            (ChunkerParams::cdc(1024, 0, 16384), "avg_size"),
            (ChunkerParams::cdc(1024, 4096, 0), "max_size"),
            (ChunkerParams::cdc(8192, 4096, 16384), "min_size"),
            (ChunkerParams::cdc(1024, 32768, 16384), "avg_size"),
        ] {
            let err = SigmaConfig::builder().chunker(bad).build().unwrap_err();
            assert!(
                matches!(&err, SigmaError::InvalidConfig(msg) if msg.contains(field)),
                "expected InvalidConfig naming {}, got {:?}",
                field,
                err
            );
        }
        // Boundary values are legal: min == avg == max.
        assert!(SigmaConfig::builder()
            .chunker(ChunkerParams::cdc(4096, 4096, 4096))
            .build()
            .is_ok());
    }

    #[test]
    fn gc_liveness_threshold_is_validated_at_build_time() {
        for bad in [-0.1, 1.1, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = SigmaConfig::builder()
                .gc_liveness_threshold(bad)
                .build()
                .unwrap_err();
            assert!(
                matches!(&err, SigmaError::InvalidConfig(msg) if msg.contains("gc_liveness_threshold")),
                "expected InvalidConfig naming the field, got {:?}",
                err
            );
        }
        // The boundary values themselves are legal.
        for ok in [0.0, 0.5, 1.0] {
            let c = SigmaConfig::builder()
                .gc_liveness_threshold(ok)
                .build()
                .unwrap();
            assert_eq!(c.gc_liveness_threshold, ok);
        }
        assert_eq!(SigmaConfig::default().gc_liveness_threshold, 0.5);
    }

    #[test]
    fn file_backend_requires_root_and_durability() {
        assert_eq!(
            SigmaConfig::default().storage_backend,
            BackendKind::Memory,
            "volatile memory is the default"
        );
        assert_eq!(SigmaConfig::default().storage_root, None);
        // File backend without a root is rejected.
        let err = SigmaConfig::builder()
            .storage_backend(BackendKind::File)
            .durability(true)
            .build()
            .unwrap_err();
        assert!(matches!(&err, SigmaError::InvalidConfig(msg) if msg.contains("storage_root")));
        // File backend without durability is rejected (nothing could recover it).
        let err = SigmaConfig::builder()
            .storage_backend(BackendKind::File)
            .storage_root("/tmp/sigma-test")
            .build()
            .unwrap_err();
        assert!(matches!(&err, SigmaError::InvalidConfig(msg) if msg.contains("durability")));
        // The convenience setter satisfies both constraints at once.
        let c = SigmaConfig::builder()
            .file_storage("/tmp/sigma-test")
            .build()
            .unwrap();
        assert_eq!(c.storage_backend, BackendKind::File);
        assert!(c.durability);
        assert_eq!(
            c.node_storage_dir(3),
            Some(PathBuf::from("/tmp/sigma-test/node-3"))
        );
        // Memory backend is accepted without either.
        let mem = SigmaConfig::builder()
            .storage_backend(BackendKind::Memory)
            .build()
            .unwrap();
        assert_eq!(mem.node_storage_dir(0), None);
    }

    #[test]
    fn sampling_rate_never_zero() {
        let c = SigmaConfig::builder()
            .super_chunk_size(4096)
            .handprint_size(64)
            .build()
            .unwrap();
        assert!(c.sampling_rate_denominator() >= 1);
    }
}

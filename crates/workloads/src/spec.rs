//! Trace data model shared by all workload generators.

use sigma_hashkit::{Digest, Fingerprint, Sha1};
use std::collections::HashMap;

/// Fingerprint and size of one chunk in a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChunkSpec {
    /// The chunk's fingerprint.
    pub fingerprint: Fingerprint,
    /// The chunk's length in bytes.
    pub len: u32,
}

impl ChunkSpec {
    /// Creates a spec from an abstract chunk identity.
    ///
    /// The fingerprint is the SHA-1 of `(namespace, chunk_id)`, so equal identities
    /// always yield equal fingerprints (duplicates) and distinct identities collide
    /// with cryptographic improbability — exactly the behaviour of hashing real
    /// content without having to synthesise it.
    pub fn from_identity(namespace: u64, chunk_id: u64, len: u32) -> Self {
        let mut key = [0u8; 16];
        key[..8].copy_from_slice(&namespace.to_le_bytes());
        key[8..].copy_from_slice(&chunk_id.to_le_bytes());
        ChunkSpec {
            fingerprint: Sha1::fingerprint(&key),
            len,
        }
    }

    /// The bytes a node stores for this chunk: `len` bytes cycling the
    /// fingerprint.
    ///
    /// A trace has no content, only fingerprints and lengths, but every
    /// chunk a node stores must have its bytes.  Nothing re-hashes stored
    /// bytes (routing and dedup read the fingerprint the client sent), so
    /// any bytes serve; these make equal specs store equal bytes.
    pub fn stand_in_payload(&self) -> Vec<u8> {
        let len = self.len as usize;
        let mut payload = self
            .fingerprint
            .as_bytes()
            .repeat(len.div_ceil(Fingerprint::LEN));
        payload.truncate(len);
        payload
    }
}

/// The dataset a trace models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// Linux kernel source snapshots (many small files, many versions).
    Linux,
    /// Virtual-machine full backups (few huge files, skewed sizes).
    Vm,
    /// FIU mail-server trace (no file boundaries, high redundancy).
    Mail,
    /// FIU web-server trace (no file boundaries, low redundancy).
    Web,
    /// A generated workload that models none of the paper's datasets.
    Synthetic,
}

impl std::fmt::Display for DatasetKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            DatasetKind::Linux => "Linux",
            DatasetKind::Vm => "VM",
            DatasetKind::Mail => "Mail",
            DatasetKind::Web => "Web",
            DatasetKind::Synthetic => "Synthetic",
        };
        f.write_str(s)
    }
}

/// Scale factor for preset workloads: how much logical data to generate.
///
/// The paper's datasets are tens to hundreds of gigabytes; these presets shrink them
/// to laptop-friendly sizes while preserving redundancy structure.  What matters for
/// the reproduced figures is the *shape* (ratios, scaling behaviour), not absolute
/// volume.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// Roughly 16 MB logical — unit tests.
    Tiny,
    /// Roughly 128 MB logical — quick experiments.
    Small,
    /// Roughly 512 MB logical — the default for benches.
    Medium,
    /// Roughly 2 GB logical — large cluster sweeps.
    Large,
}

impl Scale {
    /// Approximate logical bytes this scale aims for.
    pub fn target_logical_bytes(&self) -> u64 {
        match self {
            Scale::Tiny => 16 << 20,
            Scale::Small => 128 << 20,
            Scale::Medium => 512 << 20,
            Scale::Large => 2 << 30,
        }
    }
}

/// One file in a trace generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileTrace {
    /// A dataset-unique file identifier (stable across generations so that the same
    /// logical file keeps its identity).
    pub file_id: u64,
    /// Human-readable file name.
    pub name: String,
    /// The file's chunks in order.
    pub chunks: Vec<ChunkSpec>,
}

impl FileTrace {
    /// Logical size of the file in bytes.
    pub fn logical_bytes(&self) -> u64 {
        self.chunks.iter().map(|c| c.len as u64).sum()
    }
}

/// One backup generation (all files backed up in one session).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct GenerationTrace {
    /// Generation index (0 = first full backup).
    pub generation: usize,
    /// The files of this generation.
    pub files: Vec<FileTrace>,
}

impl GenerationTrace {
    /// Logical size of the generation in bytes.
    pub fn logical_bytes(&self) -> u64 {
        self.files.iter().map(|f| f.logical_bytes()).sum()
    }

    /// Number of chunks across all files.
    pub fn chunk_count(&self) -> u64 {
        self.files.iter().map(|f| f.chunks.len() as u64).sum()
    }
}

/// A complete multi-generation workload trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatasetTrace {
    /// Workload name for reports (e.g. `"Linux"`).
    pub name: String,
    /// Which paper dataset this models.
    pub kind: DatasetKind,
    /// Whether file boundaries are meaningful (the FIU traces have none, which is
    /// why Extreme Binning cannot run on them).
    pub has_file_boundaries: bool,
    /// The backup generations in chronological order.
    pub generations: Vec<GenerationTrace>,
}

impl DatasetTrace {
    /// Total logical bytes across all generations.
    pub fn logical_bytes(&self) -> u64 {
        self.generations.iter().map(|g| g.logical_bytes()).sum()
    }

    /// Total number of chunks across all generations.
    pub fn chunk_count(&self) -> u64 {
        self.generations.iter().map(|g| g.chunk_count()).sum()
    }

    /// Bytes that an *exact*, global (single-node) deduplication would store: the sum
    /// of sizes over distinct fingerprints.
    pub fn exact_unique_bytes(&self) -> u64 {
        let mut seen: HashMap<Fingerprint, u32> = HashMap::new();
        for g in &self.generations {
            for f in &g.files {
                for c in &f.chunks {
                    seen.entry(c.fingerprint).or_insert(c.len);
                }
            }
        }
        seen.values().map(|&len| len as u64).sum()
    }

    /// The exact (single-node) deduplication ratio of the trace.
    pub fn exact_dedup_ratio(&self) -> f64 {
        let unique = self.exact_unique_bytes();
        if unique == 0 {
            1.0
        } else {
            self.logical_bytes() as f64 / unique as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(id: u64, chunk_ids: &[u64]) -> FileTrace {
        FileTrace {
            file_id: id,
            name: format!("file-{}", id),
            chunks: chunk_ids
                .iter()
                .map(|&c| ChunkSpec::from_identity(1, c, 4096))
                .collect(),
        }
    }

    #[test]
    fn stand_in_payload_is_len_bytes_of_the_fingerprint() {
        let spec = ChunkSpec::from_identity(1, 7, 50);
        let payload = spec.stand_in_payload();
        assert_eq!(payload.len(), 50);
        let fingerprint = spec.fingerprint.as_bytes();
        assert_eq!(&payload[..20], fingerprint);
        assert_eq!(&payload[40..], &fingerprint[..10]);
        assert_eq!(
            ChunkSpec::from_identity(1, 7, 50).stand_in_payload(),
            payload
        );
        assert_ne!(
            ChunkSpec::from_identity(1, 8, 50).stand_in_payload(),
            payload
        );
        assert!(ChunkSpec::from_identity(1, 7, 0)
            .stand_in_payload()
            .is_empty());
    }

    #[test]
    fn chunk_spec_identity_is_deterministic() {
        let a = ChunkSpec::from_identity(1, 42, 4096);
        let b = ChunkSpec::from_identity(1, 42, 4096);
        let c = ChunkSpec::from_identity(2, 42, 4096);
        assert_eq!(a, b);
        assert_ne!(a.fingerprint, c.fingerprint);
    }

    #[test]
    fn dataset_accounting() {
        let trace = DatasetTrace {
            name: "test".into(),
            kind: DatasetKind::Synthetic,
            has_file_boundaries: true,
            generations: vec![
                GenerationTrace {
                    generation: 0,
                    files: vec![file(1, &[1, 2, 3]), file(2, &[4, 5])],
                },
                GenerationTrace {
                    generation: 1,
                    files: vec![file(1, &[1, 2, 3]), file(2, &[4, 6])],
                },
            ],
        };
        assert_eq!(trace.chunk_count(), 10);
        assert_eq!(trace.logical_bytes(), 10 * 4096);
        // Unique ids: 1..6 => 6 chunks.
        assert_eq!(trace.exact_unique_bytes(), 6 * 4096);
        assert!((trace.exact_dedup_ratio() - 10.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn scale_targets_are_monotonic() {
        assert!(Scale::Tiny.target_logical_bytes() < Scale::Small.target_logical_bytes());
        assert!(Scale::Small.target_logical_bytes() < Scale::Medium.target_logical_bytes());
        assert!(Scale::Medium.target_logical_bytes() < Scale::Large.target_logical_bytes());
    }

    #[test]
    fn dataset_kind_display() {
        assert_eq!(DatasetKind::Linux.to_string(), "Linux");
        assert_eq!(DatasetKind::Mail.to_string(), "Mail");
    }
}

//! A Linux-kernel-source-like workload: many small files across many versions.
//!
//! The paper's Linux dataset is every kernel source tree from 1.0 to 3.3.6
//! (160 GB, DR ≈ 8 with 4 KB chunks).  Its redundancy structure — and the reason it
//! deduplicates so well — is that consecutive *versions* share the overwhelming
//! majority of their files verbatim, while a small fraction of files change a little
//! and a few files are added.  This generator reproduces exactly that structure over
//! an abstract chunk universe.

use crate::{
    ChunkSpec, DatasetKind, DatasetTrace, DeterministicRng, FileTrace, GenerationTrace, LogNormal,
};

/// Parameters of the Linux-like generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinuxLikeParams {
    /// Deterministic seed (also namespaces the fingerprints).
    pub seed: u64,
    /// Number of source-tree versions (backup generations).
    pub versions: usize,
    /// Number of files in the first version.
    pub files_per_version: usize,
    /// Median file size in bytes (file sizes are log-normal around this).
    pub median_file_size: u64,
    /// Chunk size in bytes (the trace is pre-chunked).
    pub chunk_size: u32,
    /// Fraction of files modified from one version to the next.
    pub file_change_rate: f64,
    /// Fraction of a modified file's chunks that are replaced.
    pub chunk_change_rate: f64,
    /// Fraction of new files added each version (relative to the file count).
    pub file_add_rate: f64,
}

impl Default for LinuxLikeParams {
    fn default() -> Self {
        LinuxLikeParams {
            seed: 0x11c0de,
            versions: 10,
            files_per_version: 2000,
            median_file_size: 8 * 1024,
            chunk_size: 4096,
            file_change_rate: 0.08,
            chunk_change_rate: 0.3,
            file_add_rate: 0.02,
        }
    }
}

/// Generates the trace described by `params`.
///
/// # Example
///
/// ```
/// use sigma_workloads::linux_like::{generate, LinuxLikeParams};
///
/// let trace = generate(LinuxLikeParams { versions: 4, files_per_version: 100, ..LinuxLikeParams::default() });
/// assert_eq!(trace.generations.len(), 4);
/// assert!(trace.exact_dedup_ratio() > 2.0);
/// ```
pub fn generate(params: LinuxLikeParams) -> DatasetTrace {
    let mut rng = DeterministicRng::new(params.seed);
    let size_dist = LogNormal::with_median(params.median_file_size as f64, 2.5);
    let mut next_chunk_id = 0u64;
    let mut next_file_id = 0u64;

    let mut new_chunk = |rng_len: u32| {
        let id = next_chunk_id;
        next_chunk_id += 1;
        ChunkSpec::from_identity(params.seed, id, rng_len)
    };

    // Version 0: all-new files.
    let mut current: Vec<FileTrace> = Vec::with_capacity(params.files_per_version);
    for _ in 0..params.files_per_version {
        let size = rng.log_normal(size_dist).max(1.0) as u64;
        let chunks = chunk_sizes(size, params.chunk_size)
            .into_iter()
            .map(&mut new_chunk)
            .collect();
        current.push(FileTrace {
            file_id: next_file_id,
            name: format!("v0/src/file-{}.c", next_file_id),
            chunks,
        });
        next_file_id += 1;
    }

    let mut generations = vec![GenerationTrace {
        generation: 0,
        files: current.clone(),
    }];

    for version in 1..params.versions {
        // Most files carry over unchanged; a few are modified in place; a few new
        // files appear.
        let mut files = current.clone();
        for file in files.iter_mut() {
            if rng.chance(params.file_change_rate) {
                for chunk in file.chunks.iter_mut() {
                    if rng.chance(params.chunk_change_rate) {
                        *chunk = new_chunk(chunk.len);
                    }
                }
            }
        }
        let additions = ((params.files_per_version as f64) * params.file_add_rate).round() as usize;
        for _ in 0..additions {
            let size = rng.log_normal(size_dist).max(1.0) as u64;
            let chunks = chunk_sizes(size, params.chunk_size)
                .into_iter()
                .map(&mut new_chunk)
                .collect();
            files.push(FileTrace {
                file_id: next_file_id,
                name: format!("v{}/src/new-{}.c", version, next_file_id),
                chunks,
            });
            next_file_id += 1;
        }
        generations.push(GenerationTrace {
            generation: version,
            files: files.clone(),
        });
        current = files;
    }

    DatasetTrace {
        name: "Linux".to_string(),
        kind: DatasetKind::Linux,
        has_file_boundaries: true,
        generations,
    }
}

/// Splits a logical size into chunk sizes of at most `chunk_size` bytes.
fn chunk_sizes(total: u64, chunk_size: u32) -> Vec<u32> {
    let mut out = Vec::with_capacity((total / chunk_size as u64 + 1) as usize);
    let mut remaining = total;
    while remaining > 0 {
        let take = remaining.min(chunk_size as u64) as u32;
        out.push(take);
        remaining -= take as u64;
    }
    if out.is_empty() {
        out.push(1);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_params() -> LinuxLikeParams {
        LinuxLikeParams {
            versions: 6,
            files_per_version: 200,
            ..LinuxLikeParams::default()
        }
    }

    #[test]
    fn generations_and_boundaries() {
        let t = generate(small_params());
        assert_eq!(t.generations.len(), 6);
        assert!(t.has_file_boundaries);
        assert_eq!(t.kind, DatasetKind::Linux);
        // Files are added over time.
        assert!(t.generations[5].files.len() > t.generations[0].files.len());
    }

    #[test]
    fn high_inter_version_redundancy() {
        let t = generate(small_params());
        let dr = t.exact_dedup_ratio();
        // 6 versions with ~8% of files changing slightly: DR should approach the
        // number of versions.
        assert!(dr > 3.5 && dr < 6.5, "dr = {}", dr);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = generate(small_params());
        let b = generate(small_params());
        assert_eq!(a, b);
        let c = generate(LinuxLikeParams {
            seed: 999,
            ..small_params()
        });
        assert_ne!(a, c);
    }

    #[test]
    fn file_identity_is_stable_across_versions() {
        let t = generate(small_params());
        let first_ids: std::collections::HashSet<u64> =
            t.generations[0].files.iter().map(|f| f.file_id).collect();
        let later_ids: std::collections::HashSet<u64> =
            t.generations[3].files.iter().map(|f| f.file_id).collect();
        assert!(first_ids.is_subset(&later_ids));
    }

    #[test]
    fn chunk_sizes_tile_the_file() {
        assert_eq!(chunk_sizes(10_000, 4096), vec![4096, 4096, 1808]);
        assert_eq!(chunk_sizes(0, 4096), vec![1]);
        assert_eq!(chunk_sizes(4096, 4096), vec![4096]);
    }

    #[test]
    fn small_files_dominate() {
        let t = generate(small_params());
        let small = t.generations[0]
            .files
            .iter()
            .filter(|f| f.logical_bytes() < 64 * 1024)
            .count();
        assert!(small * 10 > t.generations[0].files.len() * 7);
    }
}

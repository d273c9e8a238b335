//! A virtual-machine-backup-like workload: few huge files, skewed sizes, block churn.
//!
//! The paper's VM dataset is two consecutive monthly full backups of 8 VM images
//! (313 GB, DR ≈ 4.1).  Three properties matter for the evaluation and are modelled
//! here:
//!
//! * files (disk images) are *very large* and their sizes are skewed — which is what
//!   makes Extreme Binning's file-granularity placement skew capacity (Figure 8,
//!   VM panel);
//! * consecutive full backups of the same image are mostly identical (block churn of
//!   a few percent); and
//! * images contain internal redundancy (zero blocks, shared OS files across VMs),
//!   so even the first backup deduplicates somewhat.

use crate::{ChunkSpec, DatasetKind, DatasetTrace, DeterministicRng, FileTrace, GenerationTrace};

/// Parameters of the VM-like generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VmLikeParams {
    /// Deterministic seed (also namespaces the fingerprints).
    pub seed: u64,
    /// Number of virtual machines.
    pub vm_count: usize,
    /// Number of full-backup generations.
    pub generations: usize,
    /// Size of the *smallest* image in bytes; sizes grow linearly up to
    /// `size_skew ×` this for the largest VM.
    pub base_image_size: u64,
    /// Ratio of the largest to the smallest image size.
    pub size_skew: f64,
    /// Chunk size in bytes.
    pub chunk_size: u32,
    /// Fraction of an image's blocks that change between consecutive backups.
    pub block_change_rate: f64,
    /// Fraction of an image's blocks drawn from a small shared pool (zero blocks,
    /// common OS files), which creates intra- and inter-image redundancy.
    pub shared_block_rate: f64,
    /// Number of distinct blocks in the shared pool.
    pub shared_pool_size: u64,
    /// Length (in blocks) of the contiguous runs in which shared and private blocks
    /// appear.  Real images contain zero-block and OS-file *regions*, not isolated
    /// shared blocks, and this locality is what similarity-based routing exploits.
    pub run_length: u64,
}

impl Default for VmLikeParams {
    fn default() -> Self {
        VmLikeParams {
            seed: 0x5eed,
            vm_count: 8,
            generations: 2,
            base_image_size: 8 << 20,
            size_skew: 6.0,
            chunk_size: 4096,
            block_change_rate: 0.03,
            shared_block_rate: 0.35,
            shared_pool_size: 400,
            run_length: 64,
        }
    }
}

/// Generates the trace described by `params`.
///
/// # Example
///
/// ```
/// use sigma_workloads::vm_like::{generate, VmLikeParams};
///
/// let trace = generate(VmLikeParams { vm_count: 3, base_image_size: 1 << 20, ..VmLikeParams::default() });
/// assert_eq!(trace.generations.len(), 2);
/// assert_eq!(trace.generations[0].files.len(), 3);
/// assert!(trace.exact_dedup_ratio() > 1.5);
/// ```
pub fn generate(params: VmLikeParams) -> DatasetTrace {
    let mut rng = DeterministicRng::new(params.seed);
    let mut next_private_chunk = params.shared_pool_size; // ids below this are the shared pool

    // Build generation 0 for every VM.
    let mut images: Vec<FileTrace> = Vec::with_capacity(params.vm_count);
    for vm in 0..params.vm_count {
        let scale = if params.vm_count > 1 {
            1.0 + (params.size_skew - 1.0) * vm as f64 / (params.vm_count - 1) as f64
        } else {
            1.0
        };
        let image_size = (params.base_image_size as f64 * scale) as u64;
        let block_count = (image_size / params.chunk_size as u64).max(1);
        let run_length = params.run_length.max(1);
        let mut chunks = Vec::with_capacity(block_count as usize);
        // Blocks are laid down in contiguous runs: a run is either a region from the
        // shared pool (zero blocks, common OS files) or a region of image-private
        // blocks.  Regions — not isolated blocks — are what real images share.
        while (chunks.len() as u64) < block_count {
            let run = run_length.min(block_count - chunks.len() as u64);
            if rng.chance(params.shared_block_rate) {
                // A contiguous slice of the shared pool, start position zipf-skewed
                // so zero-block-like regions dominate.
                let start = rng.zipf(params.shared_pool_size, 1.2);
                for offset in 0..run {
                    let id = (start + offset) % params.shared_pool_size;
                    chunks.push(ChunkSpec::from_identity(params.seed, id, params.chunk_size));
                }
            } else {
                for _ in 0..run {
                    let id = next_private_chunk;
                    next_private_chunk += 1;
                    chunks.push(ChunkSpec::from_identity(params.seed, id, params.chunk_size));
                }
            }
        }
        images.push(FileTrace {
            file_id: vm as u64,
            name: format!("vm-{:02}.img", vm),
            chunks,
        });
    }

    let mut generations = vec![GenerationTrace {
        generation: 0,
        files: images.clone(),
    }];

    for generation in 1..params.generations {
        for image in images.iter_mut() {
            for chunk in image.chunks.iter_mut() {
                if rng.chance(params.block_change_rate) {
                    let id = next_private_chunk;
                    next_private_chunk += 1;
                    *chunk = ChunkSpec::from_identity(params.seed, id, params.chunk_size);
                }
            }
        }
        generations.push(GenerationTrace {
            generation,
            files: images.clone(),
        });
    }

    DatasetTrace {
        name: "VM".to_string(),
        kind: DatasetKind::Vm,
        has_file_boundaries: true,
        generations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_params() -> VmLikeParams {
        VmLikeParams {
            vm_count: 6,
            base_image_size: 2 << 20,
            ..VmLikeParams::default()
        }
    }

    #[test]
    fn structure_matches_parameters() {
        let t = generate(small_params());
        assert_eq!(t.generations.len(), 2);
        assert_eq!(t.generations[0].files.len(), 6);
        assert!(t.has_file_boundaries);
        assert_eq!(t.kind, DatasetKind::Vm);
    }

    #[test]
    fn dedup_ratio_in_the_vm_ballpark() {
        let t = generate(small_params());
        let dr = t.exact_dedup_ratio();
        // Two nearly identical generations plus intra-image redundancy: the paper
        // reports ≈ 4.1; accept a generous band around it.
        assert!(dr > 2.5 && dr < 7.0, "dr = {}", dr);
    }

    #[test]
    fn file_sizes_are_skewed() {
        let t = generate(small_params());
        let sizes: Vec<u64> = t.generations[0]
            .files
            .iter()
            .map(|f| f.logical_bytes())
            .collect();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        assert!(max as f64 / min as f64 > 3.0, "min {} max {}", min, max);
    }

    #[test]
    fn images_are_large_files() {
        let t = generate(small_params());
        assert!(t.generations[0]
            .files
            .iter()
            .all(|f| f.logical_bytes() >= 1 << 20));
    }

    #[test]
    fn deterministic() {
        assert_eq!(generate(small_params()), generate(small_params()));
    }

    #[test]
    fn consecutive_generations_mostly_overlap() {
        let t = generate(small_params());
        let set0: std::collections::HashSet<_> = t.generations[0]
            .files
            .iter()
            .flat_map(|f| f.chunks.iter().map(|c| c.fingerprint))
            .collect();
        let gen1_chunks: Vec<_> = t.generations[1]
            .files
            .iter()
            .flat_map(|f| f.chunks.iter().map(|c| c.fingerprint))
            .collect();
        let shared = gen1_chunks.iter().filter(|fp| set0.contains(fp)).count();
        assert!(shared as f64 / gen1_chunks.len() as f64 > 0.9);
    }
}

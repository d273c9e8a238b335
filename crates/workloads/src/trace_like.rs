//! FIU-style block traces: chunk streams without file boundaries.
//!
//! The paper's Mail (526 GB, DR ≈ 10.5) and Web (43 GB, DR ≈ 1.9) workloads are I/O
//! traces from departmental servers.  Two properties matter here: they carry **no
//! file-level information** (so the file-similarity baseline cannot run on them),
//! and they differ sharply in how much of the stream re-references a hot working
//! set.  This generator produces a chunk stream whose duplicate references follow a
//! Zipf-skewed working set, tuned by a single `rereference_rate` knob.

use crate::{ChunkSpec, DatasetKind, DatasetTrace, DeterministicRng, FileTrace, GenerationTrace};

/// Parameters of the trace-style generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceLikeParams {
    /// Deterministic seed (also namespaces the fingerprints).
    pub seed: u64,
    /// Display name (e.g. `"Mail"`).
    pub kind: DatasetKind,
    /// Total number of chunk references in the stream.
    pub total_chunks: u64,
    /// Chunk size in bytes.
    pub chunk_size: u32,
    /// Probability that a reference re-uses an already-written chunk instead of
    /// introducing a new one.  Directly controls the deduplication ratio:
    /// `DR ≈ 1 / (1 - rereference_rate)`.
    pub rereference_rate: f64,
    /// Zipf exponent of the re-reference distribution over the working set (larger =
    /// hotter head).
    pub zipf_exponent: f64,
    /// How many chunk references form one "segment" (stand-in for a backup stream
    /// section; segments become pseudo-files so the simulation can stream them, but
    /// `has_file_boundaries` is false).
    pub segment_chunks: u64,
    /// Locality run length: when a re-reference happens, this many consecutive
    /// already-written chunks are replayed in their original order (backup streams
    /// re-see whole regions, not isolated blocks).
    pub rereference_run: u64,
}

impl TraceLikeParams {
    /// Parameters modelling the Mail trace (high redundancy).
    pub fn mail(total_chunks: u64) -> Self {
        TraceLikeParams {
            seed: 0x7a11,
            kind: DatasetKind::Mail,
            total_chunks,
            chunk_size: 4096,
            rereference_rate: 0.905,
            zipf_exponent: 0.9,
            segment_chunks: 4096,
            rereference_run: 64,
        }
    }

    /// Parameters modelling the Web trace (low redundancy).
    pub fn web(total_chunks: u64) -> Self {
        TraceLikeParams {
            seed: 0x3eb,
            kind: DatasetKind::Web,
            total_chunks,
            chunk_size: 4096,
            rereference_rate: 0.474,
            zipf_exponent: 0.8,
            segment_chunks: 4096,
            rereference_run: 32,
        }
    }
}

/// Generates the trace described by `params`.
///
/// # Example
///
/// ```
/// use sigma_workloads::trace_like::{generate, TraceLikeParams};
///
/// let trace = generate(TraceLikeParams::web(20_000));
/// assert!(!trace.has_file_boundaries);
/// let dr = trace.exact_dedup_ratio();
/// assert!(dr > 1.4 && dr < 2.6, "dr = {}", dr);
/// ```
pub fn generate(params: TraceLikeParams) -> DatasetTrace {
    let mut rng = DeterministicRng::new(params.seed);
    let mut written: Vec<u64> = Vec::new();
    let mut next_chunk_id = 0u64;
    let mut stream: Vec<ChunkSpec> = Vec::with_capacity(params.total_chunks as usize);

    // The stream is produced in *runs* of `rereference_run` chunks: a run is either a
    // replay of a previously written region (probability `rereference_rate`) or a run
    // of brand-new chunks.  Because both kinds of run have the same length, the
    // fraction of duplicate chunk references converges to `rereference_rate`, giving
    // an exact deduplication ratio of ≈ 1 / (1 - rereference_rate).
    let run_len = params.rereference_run.max(1);
    let mut i = 0u64;
    while i < params.total_chunks {
        let run = run_len.min(params.total_chunks - i);
        let rereference = !written.is_empty() && rng.chance(params.rereference_rate);
        if rereference {
            // Replay a run of consecutive, previously written chunks.  The run's
            // starting region is Zipf-selected with a recency bias (rank 0 = the most
            // recently written full run), modelling a hot working set.
            let run = run.min(written.len() as u64);
            let positions = written.len() as u64 - run + 1;
            let rank = rng.zipf(positions, params.zipf_exponent);
            let start = positions - 1 - rank;
            for offset in 0..run {
                let id = written[(start + offset) as usize];
                stream.push(ChunkSpec::from_identity(params.seed, id, params.chunk_size));
            }
            i += run;
        } else {
            for _ in 0..run {
                let id = next_chunk_id;
                next_chunk_id += 1;
                written.push(id);
                stream.push(ChunkSpec::from_identity(params.seed, id, params.chunk_size));
            }
            i += run;
        }
    }

    // Cut the stream into segments; these are *not* semantic files (the trace has no
    // file boundaries) but give the simulation units to stream through clients.
    let mut files = Vec::new();
    for (segment, chunk_block) in stream.chunks(params.segment_chunks as usize).enumerate() {
        files.push(FileTrace {
            file_id: segment as u64,
            name: format!("segment-{:05}", segment),
            chunks: chunk_block.to_vec(),
        });
    }

    DatasetTrace {
        name: params.kind.to_string(),
        kind: params.kind,
        has_file_boundaries: false,
        generations: vec![GenerationTrace {
            generation: 0,
            files,
        }],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mail_like_redundancy() {
        let t = generate(TraceLikeParams::mail(40_000));
        let dr = t.exact_dedup_ratio();
        assert!(dr > 6.0 && dr < 16.0, "dr = {}", dr);
        assert!(!t.has_file_boundaries);
        assert_eq!(t.kind, DatasetKind::Mail);
    }

    #[test]
    fn web_like_redundancy() {
        let t = generate(TraceLikeParams::web(40_000));
        let dr = t.exact_dedup_ratio();
        assert!(dr > 1.4 && dr < 2.8, "dr = {}", dr);
    }

    #[test]
    fn chunk_count_matches_request() {
        let t = generate(TraceLikeParams::web(10_000));
        assert_eq!(t.chunk_count(), 10_000);
        assert_eq!(t.logical_bytes(), 10_000 * 4096);
    }

    #[test]
    fn segments_partition_the_stream() {
        let params = TraceLikeParams {
            segment_chunks: 1000,
            ..TraceLikeParams::mail(5500)
        };
        let t = generate(params);
        let sizes: Vec<usize> = t.generations[0]
            .files
            .iter()
            .map(|f| f.chunks.len())
            .collect();
        assert_eq!(sizes.iter().sum::<usize>(), 5500);
        assert_eq!(sizes.len(), 6);
        assert!(sizes[..5].iter().all(|&s| s == 1000));
    }

    #[test]
    fn deterministic() {
        assert_eq!(
            generate(TraceLikeParams::mail(5000)),
            generate(TraceLikeParams::mail(5000))
        );
    }

    #[test]
    fn rereferences_preserve_locality_runs() {
        // Re-reference runs replay previously written regions in order, so most
        // adjacent stream positions reference chunks whose *first occurrences* were
        // also adjacent — that is the locality container prefetching relies on.
        let t = generate(TraceLikeParams::mail(20_000));
        let chunks: Vec<_> = t.generations[0]
            .files
            .iter()
            .flat_map(|f| f.chunks.iter())
            .collect();
        let mut first_seen = std::collections::HashMap::new();
        for (pos, c) in chunks.iter().enumerate() {
            first_seen.entry(c.fingerprint).or_insert(pos);
        }
        let sequential = chunks
            .windows(2)
            .filter(|w| {
                let a = first_seen[&w[0].fingerprint];
                let b = first_seen[&w[1].fingerprint];
                b == a + 1
            })
            .count();
        assert!(
            sequential * 10 > chunks.len() * 6,
            "only {} of {} adjacent pairs preserve original order",
            sequential,
            chunks.len() - 1
        );
    }
}

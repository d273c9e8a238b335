//! The one ingest path: chunk → fingerprint → route → register.
//!
//! [`BackupClient`](crate::BackupClient) is the only ingest front end:
//! `backup_bytes` hands [`ingest`] one stream, `backup_streams` several.  The
//! core runs four stages on a pool of
//! [`SigmaConfig::effective_parallelism`](crate::SigmaConfig::effective_parallelism)
//! workers; at the default width of 1 every stage runs on the caller's thread.
//!
//! 1. **Chunk** — each stream's buffer is split by the configured chunker;
//!    streams are chunked in parallel with each other.
//! 2. **Fingerprint** — the chunk lists are cut into fixed-size tasks that the
//!    pool hashes concurrently, *including within a single stream*;
//!    descriptors are written back in chunk order.  Each task hands its
//!    chunks to [`FingerprintAlgorithm::fingerprint_batch`] in one call, so
//!    on a CPU with AVX-512 SHA-1 hashes sixteen chunks at once on one core.
//! 3. **Assemble** — per stream, the descriptors are cut into super-chunks by
//!    the rule [`SuperChunkBuilder`](crate::SuperChunkBuilder) applies, so
//!    super-chunk boundaries do not depend on the pool width.  Each
//!    super-chunk is a [`SuperChunkView`]: its descriptors beside slices of
//!    the stream buffer.  No chunk is copied.
//! 4. **Submit** — one worker walks each stream's super-chunks front to back
//!    against one node-map snapshot, streams in parallel, so per-stream order
//!    — and therefore every file recipe and restore — is preserved while the
//!    cluster sees multi-stream traffic.  Stages 3 and 4 run interleaved on
//!    that worker, one super-chunk at a time.
//!
//! Files are registered only after every stream succeeded, so a call yields a
//! full set of restorable files or none.
//!
//! Duplicate detection stays exact under this concurrency because
//! [`DedupNode`](crate::DedupNode) claims each new fingerprint atomically in its
//! striped chunk index before storing it: racing streams cannot double-store a
//! chunk, so `dedup_ratio` and `physical_bytes` do not depend on the pool width
//! (the equivalence property suite pins this down over hundreds of generated
//! workloads).

use crate::super_chunk::SuperChunkCut;
use crate::{
    ChunkDescriptor, DedupCluster, FileBackupReport, RecipeEntry, Result, SigmaConfig,
    SuperChunkView,
};
use parking_lot::Mutex;
use sigma_hashkit::FingerprintAlgorithm;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// How many chunks one fingerprint task hashes.  Small enough that a single
/// large stream fans out across the whole pool, large enough that task handoff
/// is noise next to the hashing itself (128 × 4 KB ≈ 0.5 MB per task).
const FINGERPRINT_TASK_CHUNKS: usize = 128;

// A full task fills whole batch groups, leaving no chunk of it to the
// per-chunk path.
const _: () = assert!(FINGERPRINT_TASK_CHUNKS.is_multiple_of(FingerprintAlgorithm::BATCH_LANES));

/// One stream as the core sees it: the caller's bytes, borrowed.
pub(crate) struct Stream<'a> {
    /// The data-stream identifier (distinct streams get distinct open containers).
    pub(crate) id: u64,
    /// The name the file is registered under.
    pub(crate) name: &'a str,
    pub(crate) data: &'a [u8],
}

/// One stream after stages 1 and 2: where its chunks end and what they are.
struct Fingerprinted {
    /// End offset of each chunk in the stream buffer.
    boundaries: Vec<usize>,
    /// Parallel to `boundaries`.
    descriptors: Vec<ChunkDescriptor>,
}

impl Fingerprinted {
    /// The bytes of chunk `j` within the stream buffer.
    fn span(&self, j: usize) -> Range<usize> {
        chunk_span(&self.boundaries, j)
    }

    /// Stage 3: the stream's super-chunks, in order, as views of `data`
    /// (the buffer stages 1 and 2 ran over).
    fn super_chunks<'a>(
        &'a self,
        data: &'a [u8],
        target_size: usize,
    ) -> impl Iterator<Item = SuperChunkView<'a>> + 'a {
        let mut cut = SuperChunkCut::new(target_size);
        let mut start = 0;
        let count = self.descriptors.len();
        (1..=count).filter_map(move |end| {
            if !cut.closes_after(self.descriptors[end - 1].len) && end < count {
                return None;
            }
            let chunks = start..end;
            start = end;
            Some(SuperChunkView::new(
                &self.descriptors[chunks.clone()],
                chunks.map(|j| &data[self.span(j)]).collect(),
            ))
        })
    }
}

/// The bytes of chunk `j` given the chunks' end offsets.
fn chunk_span(boundaries: &[usize], j: usize) -> Range<usize> {
    (if j == 0 { 0 } else { boundaries[j - 1] })..boundaries[j]
}

/// Stages 1 and 2 over every stream, results in stream order.
fn fingerprint_streams(
    config: &SigmaConfig,
    workers: usize,
    streams: &[Stream<'_>],
) -> Vec<Fingerprinted> {
    let chunker = config.chunker.build();
    let algorithm = config.fingerprint_algorithm;

    // Stage 1: chunk-boundary scan per stream (streams in parallel).
    let boundaries: Vec<Vec<usize>> = run_pool(workers, streams.iter().collect(), |_, stream| {
        chunker.chunk_boundaries(stream.data)
    });

    // Stage 2: fingerprint fixed-size chunk ranges (parallel across and within
    // streams), then write the descriptors back in chunk order.
    let mut tasks: Vec<(usize, usize, usize)> = Vec::new();
    for (stream, bounds) in boundaries.iter().enumerate() {
        for start in (0..bounds.len()).step_by(FINGERPRINT_TASK_CHUNKS) {
            tasks.push((
                stream,
                start,
                (start + FINGERPRINT_TASK_CHUNKS).min(bounds.len()),
            ));
        }
    }
    let fingerprinted: Vec<Vec<ChunkDescriptor>> =
        run_pool(workers, tasks.clone(), |_, (stream, start, end)| {
            let data = streams[stream].data;
            let chunks: Vec<&[u8]> = (start..end)
                .map(|j| &data[chunk_span(&boundaries[stream], j)])
                .collect();
            algorithm
                .fingerprint_batch(&chunks)
                .into_iter()
                .zip(&chunks)
                .map(|(fingerprint, chunk)| ChunkDescriptor::new(fingerprint, chunk.len() as u32))
                .collect()
        });
    let mut descriptors: Vec<Vec<ChunkDescriptor>> = boundaries
        .iter()
        .map(|b| Vec::with_capacity(b.len()))
        .collect();
    for ((stream, _, _), descs) in tasks.into_iter().zip(fingerprinted) {
        descriptors[stream].extend(descs);
    }
    boundaries
        .into_iter()
        .zip(descriptors)
        .map(|(boundaries, descriptors)| Fingerprinted {
            boundaries,
            descriptors,
        })
        .collect()
}

/// Backs up `streams` into `cluster`, registering one file per stream in
/// `session_id`.  Reports come back in input order.
///
/// The stream buffers are the scratch the whole core works out of: every
/// stage only borrows them, and a unique chunk's bytes are copied once, by
/// the container append on the node that stores it.
///
/// # Errors
///
/// Returns the first routing/storage error in stream order; the other
/// streams still run to completion (their unique chunks are stored), but no
/// file is registered for any stream.
pub(crate) fn ingest(
    cluster: &DedupCluster,
    session_id: u64,
    streams: &[Stream<'_>],
) -> Result<Vec<FileBackupReport>> {
    let config = cluster.config();
    let workers = config.effective_parallelism();
    let fingerprinted = fingerprint_streams(config, workers, streams);

    // Stages 3 and 4: per stream (streams in parallel), cut the next
    // super-chunk out of the stream buffer and submit it, in order, against
    // one node-map snapshot.  File-boundary hints come from a cluster counter
    // that never repeats.
    let first_hint = cluster.reserve_file_hints(streams.len() as u64);
    let outcomes: Vec<Result<(FileBackupReport, Vec<RecipeEntry>)>> =
        run_pool(workers, fingerprinted, |i, stream_chunks| {
            let stream = &streams[i];
            let hint = Some(first_hint + i as u64);
            let map = cluster.node_map();
            let mut report = FileBackupReport {
                file_id: 0,
                logical_bytes: stream.data.len() as u64,
                transferred_bytes: 0,
                chunks: 0,
                super_chunks: 0,
                duplicate_chunks: 0,
            };
            let mut recipe = Vec::with_capacity(stream_chunks.descriptors.len());
            for sc in stream_chunks.super_chunks(stream.data, config.super_chunk_size) {
                let receipt = cluster.backup_super_chunk_on(&map, stream.id, &sc, hint)?;
                report.chunks += sc.chunk_count() as u64;
                report.super_chunks += 1;
                report.transferred_bytes += receipt.unique_bytes;
                report.duplicate_chunks += receipt.duplicate_chunks;
                recipe.extend(sc.descriptors().iter().map(|d| RecipeEntry {
                    fingerprint: d.fingerprint,
                    len: d.len,
                    node: receipt.node_id,
                }));
            }
            Ok((report, recipe))
        });

    // Register every file or none, in input order.
    let finished = outcomes.into_iter().collect::<Result<Vec<_>>>()?;
    Ok(finished
        .into_iter()
        .zip(streams)
        .map(|((mut report, recipe), stream)| {
            report.file_id = cluster.director().register_file(
                session_id,
                stream.name,
                report.logical_bytes,
                recipe,
            );
            report
        })
        .collect())
}

/// Runs `f` over `items` on up to `workers` threads, returning results in item
/// order.  Falls back to the calling thread when one worker (or one item) makes
/// threading pointless.  Worker panics propagate to the caller via scope join.
///
/// Shared with the restore pipeline, which fans container groups out the same
/// way.
pub(crate) fn run_pool<T, R, F>(workers: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let workers = workers.max(1).min(items.len());
    if workers <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, t)| f(i, t))
            .collect();
    }
    let jobs: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let slots: Vec<Mutex<Option<R>>> = (0..jobs.len()).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= jobs.len() {
                    break;
                }
                let item = jobs[i].lock().take().expect("each job is claimed once");
                *slots[i].lock() = Some(f(i, item));
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("every job ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BackupClient, StreamPayload, SuperChunkBuilder};
    use proptest::prelude::*;
    use std::sync::Arc;

    fn test_config(parallelism: usize) -> SigmaConfig {
        SigmaConfig::builder()
            .super_chunk_size(16 * 1024)
            .chunker(sigma_chunking::ChunkerParams::fixed(1024))
            .container_capacity(64 * 1024)
            .cache_containers(8)
            .parallelism(parallelism)
            .build()
            .unwrap()
    }

    fn pseudo_random(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 32) as u8
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// Stage 3 cuts the same super-chunks, with the same bytes, as
        /// `SuperChunkBuilder::push_chunk` fed the same chunks one by one.
        #[test]
        fn prop_pipeline_super_chunks_match_the_builder(
            len in 0usize..80_000,
            seed in any::<u64>(),
            method in 0u8..3,
            avg_kib in 1usize..5,
            target_chunks in 1usize..12,
            target_extra in 0usize..4096,
            workers in 1usize..3,
        ) {
            let data = pseudo_random(len, seed);
            let avg = avg_kib * 1024;
            let chunker = match method {
                0 => sigma_chunking::ChunkerParams::fixed(avg),
                1 => sigma_chunking::ChunkerParams::cdc(avg / 4, avg, avg * 4),
                _ => sigma_chunking::ChunkerParams::Tttd(sigma_chunking::TttdParams {
                    min_size: avg / 4,
                    minor_mean: avg / 2,
                    major_mean: avg,
                    max_size: avg * 4,
                }),
            };
            let target = avg * target_chunks + target_extra;
            let config = SigmaConfig::builder()
                .chunker(chunker)
                .super_chunk_size(target)
                .build()
                .unwrap();
            let stream = Stream { id: 0, name: "s", data: &data };
            let fingerprinted = fingerprint_streams(&config, workers, std::slice::from_ref(&stream));
            let views: Vec<SuperChunkView<'_>> =
                fingerprinted[0].super_chunks(&data, target).collect();

            let mut builder = SuperChunkBuilder::new(target);
            let mut built = Vec::new();
            for chunk in chunker.build().split(&data) {
                let payload = chunk.data().to_vec();
                let descriptor = ChunkDescriptor::new(
                    config.fingerprint_algorithm.fingerprint(&payload),
                    payload.len() as u32,
                );
                built.extend(builder.push_chunk(descriptor, payload));
            }
            built.extend(builder.finish());

            prop_assert_eq!(views.len(), built.len());
            for (view, sc) in views.iter().zip(&built) {
                prop_assert_eq!(view.descriptors(), sc.descriptors());
                prop_assert_eq!(
                    view.handprint(config.handprint_size),
                    sc.handprint(config.handprint_size)
                );
                // Each chunk's bytes, chunk by chunk.
                prop_assert_eq!(view, &sc.view());
            }
            let covered: u64 = views.iter().map(SuperChunkView::logical_size).sum();
            prop_assert_eq!(covered, len as u64);
        }
    }

    #[test]
    fn run_pool_preserves_item_order() {
        let out = run_pool(4, (0..100usize).collect(), |i, item| {
            assert_eq!(i, item);
            item * 2
        });
        assert_eq!(out, (0..100usize).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn run_pool_on_empty_input_is_empty() {
        let out: Vec<usize> = run_pool(4, Vec::<usize>::new(), |_, x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn pipeline_round_trips_multiple_streams() {
        let cluster = Arc::new(DedupCluster::with_similarity_router(4, test_config(4)));
        let client = BackupClient::new(cluster.clone(), 0);
        let streams: Vec<StreamPayload> = (0..6u64)
            .map(|s| StreamPayload::new(s, format!("s{s}"), pseudo_random(100_000, s)))
            .collect();
        let reports = client.backup_streams(&streams).unwrap();
        cluster.try_flush().unwrap();
        for (report, stream) in reports.iter().zip(&streams) {
            assert_eq!(report.logical_bytes, stream.data.len() as u64);
            assert_eq!(cluster.restore_file(report.file_id).unwrap(), stream.data);
        }
    }

    #[test]
    fn pipeline_matches_serial_client_on_one_stream() {
        let data = pseudo_random(200_000, 7);
        let backup = |parallelism: usize| {
            let cluster = Arc::new(DedupCluster::with_similarity_router(
                3,
                test_config(parallelism),
            ));
            let report = BackupClient::new(cluster.clone(), 0)
                .backup_bytes("f", &data)
                .unwrap();
            cluster.try_flush().unwrap();
            (cluster, report)
        };
        let (serial_cluster, serial_report) = backup(1);
        let (parallel_cluster, parallel_report) = backup(4);

        // One stream means identical submission order, so everything matches.
        assert_eq!(parallel_report, serial_report);
        let serial_stats = serial_cluster.stats();
        let parallel_stats = parallel_cluster.stats();
        assert_eq!(parallel_stats.physical_bytes, serial_stats.physical_bytes);
        assert_eq!(parallel_stats.node_usage, serial_stats.node_usage);
        assert_eq!(parallel_stats.messages, serial_stats.messages);
        assert_eq!(
            parallel_cluster
                .restore_file(parallel_report.file_id)
                .unwrap(),
            data
        );
    }

    #[test]
    fn duplicate_streams_transfer_once() {
        let cluster = Arc::new(DedupCluster::with_similarity_router(1, test_config(4)));
        let client = BackupClient::new(cluster.clone(), 0);
        let data = pseudo_random(64 * 1024, 3);
        let first = client.backup_bytes("gen-1", &data).unwrap();
        let second = client.backup_bytes("gen-2", &data).unwrap();
        assert_eq!(first.transferred_bytes, data.len() as u64);
        assert_eq!(second.transferred_bytes, 0);
        assert_eq!(second.duplicate_chunks, second.chunks);
        cluster.try_flush().unwrap();
        assert_eq!(cluster.restore_file(second.file_id).unwrap(), data);
    }

    #[test]
    fn empty_and_tiny_streams_flow_through() {
        let cluster = Arc::new(DedupCluster::with_similarity_router(2, test_config(4)));
        let reports = BackupClient::new(cluster.clone(), 0)
            .backup_streams(&[
                StreamPayload::new(0, "empty", Vec::new()),
                StreamPayload::new(1, "one-chunk", vec![9u8; 100]),
            ])
            .unwrap();
        assert_eq!(reports[0].logical_bytes, 0);
        assert_eq!(reports[0].chunks, 0);
        assert_eq!(reports[1].chunks, 1);
        cluster.try_flush().unwrap();
        assert_eq!(cluster.restore_file(reports[0].file_id).unwrap(), b"");
        assert_eq!(
            cluster.restore_file(reports[1].file_id).unwrap(),
            vec![9u8; 100]
        );
    }
}

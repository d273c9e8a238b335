//! The parallel ingest pipeline: multi-threaded chunking, fingerprinting and
//! cluster submission.
//!
//! [`BackupClient`](crate::BackupClient) drives one stream through chunking,
//! fingerprinting and routing on the calling thread.  That is faithful to the
//! protocol but leaves a multi-core client (and a cluster full of striped locks)
//! idle.  [`IngestPipeline`] runs the same four stages on a worker pool:
//!
//! 1. **Chunk** — each stream's buffer is split by the configured chunker; streams
//!    are chunked in parallel with each other.
//! 2. **Fingerprint** — the chunk lists are cut into fixed-size tasks that the
//!    pool hashes concurrently, *including within a single stream*; descriptors
//!    are written back in chunk order, so the result is byte-for-byte the sequence
//!    the serial client would have produced.
//! 3. **Assemble** — per stream, descriptors and payloads are folded through a
//!    [`SuperChunkBuilder`] in order, yielding the exact super-chunk boundaries of
//!    the serial path.
//! 4. **Submit** — streams are routed concurrently (one worker walks each
//!    stream's super-chunks front to back), so per-stream order — and therefore
//!    every file recipe and restore — is preserved while the cluster sees
//!    multi-stream traffic.
//!
//! Duplicate detection stays exact under this concurrency because
//! [`DedupNode`](crate::DedupNode) claims each new fingerprint atomically in its
//! striped chunk index before storing it: racing streams cannot double-store a
//! chunk, so `dedup_ratio` and `physical_bytes` match the serial client (the
//! equivalence property suite pins this down over hundreds of generated
//! workloads).
//!
//! The pool width comes from [`crate::SigmaConfig::parallelism`] (`0` = one
//! worker per CPU core) or [`IngestPipeline::with_parallelism`].
//!
//! # Example
//!
//! ```
//! use sigma_core::{DedupCluster, IngestPipeline, SigmaConfig, StreamPayload};
//! use std::sync::Arc;
//!
//! let config = SigmaConfig::builder().parallelism(4).build().unwrap();
//! let cluster = Arc::new(DedupCluster::with_similarity_router(2, config));
//! let pipeline = IngestPipeline::new(cluster.clone());
//!
//! let streams: Vec<StreamPayload> = (0..4u64)
//!     .map(|s| StreamPayload::new(s, format!("stream-{s}.bin"), vec![s as u8; 64 * 1024]))
//!     .collect();
//! let reports = pipeline.backup_streams(streams).unwrap();
//! assert_eq!(reports.len(), 4);
//! for report in &reports {
//!     assert_eq!(report.logical_bytes, 64 * 1024);
//!     let restored = cluster.restore_file(report.file_id).unwrap();
//!     assert_eq!(restored.len(), 64 * 1024);
//! }
//! ```

use crate::{
    ChunkDescriptor, DedupCluster, FileBackupReport, RecipeEntry, Result, SuperChunk,
    SuperChunkBuilder,
};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// How many chunks one fingerprint task hashes.  Small enough that a single
/// large stream fans out across the whole pool, large enough that task handoff
/// is noise next to the hashing itself (128 × 4 KB ≈ 0.5 MB per task).
const FINGERPRINT_TASK_CHUNKS: usize = 128;

/// One backup stream handed to the pipeline: an identifier, a file name for the
/// director, and the stream's bytes.
#[derive(Debug, Clone)]
pub struct StreamPayload {
    /// The data-stream identifier (distinct streams get distinct open containers).
    pub stream_id: u64,
    /// The name the file is registered under for restore.
    pub name: String,
    /// The stream's contents.
    pub data: Vec<u8>,
}

impl StreamPayload {
    /// Creates a stream payload.
    pub fn new(stream_id: u64, name: impl Into<String>, data: Vec<u8>) -> Self {
        StreamPayload {
            stream_id,
            name: name.into(),
            data,
        }
    }
}

/// A multi-threaded ingest front end bound to one cluster.
///
/// See the [module documentation](self) for the stage-by-stage design.
///
/// # Example
///
/// ```
/// use sigma_core::{DedupCluster, IngestPipeline, SigmaConfig};
/// use std::sync::Arc;
///
/// let cluster = Arc::new(DedupCluster::with_similarity_router(2, SigmaConfig::default()));
/// let pipeline = IngestPipeline::with_parallelism(cluster.clone(), 2);
/// let report = pipeline.backup_stream(9, "notes.txt", b"tiny file".to_vec()).unwrap();
/// assert_eq!(cluster.restore_file(report.file_id).unwrap(), b"tiny file");
/// ```
pub struct IngestPipeline {
    cluster: Arc<DedupCluster>,
    parallelism: usize,
    session_id: u64,
}

impl std::fmt::Debug for IngestPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IngestPipeline")
            .field("parallelism", &self.parallelism)
            .field("session_id", &self.session_id)
            .finish()
    }
}

impl IngestPipeline {
    /// Creates a pipeline whose pool width is the cluster configuration's
    /// [`effective_parallelism`](crate::SigmaConfig::effective_parallelism).
    pub fn new(cluster: Arc<DedupCluster>) -> Self {
        let parallelism = cluster.config().effective_parallelism();
        IngestPipeline::with_parallelism(cluster, parallelism)
    }

    /// Creates a pipeline with an explicit worker count (`0` = one per CPU core).
    pub fn with_parallelism(cluster: Arc<DedupCluster>, parallelism: usize) -> Self {
        let parallelism = match parallelism {
            0 => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            n => n,
        };
        let session_id = cluster.director().open_session("pipeline");
        IngestPipeline {
            cluster,
            parallelism,
            session_id,
        }
    }

    /// The worker-pool width.
    pub fn parallelism(&self) -> usize {
        self.parallelism
    }

    /// The backup session this pipeline registers files under.
    pub fn session_id(&self) -> u64 {
        self.session_id
    }

    /// Backs up one stream (convenience wrapper over
    /// [`backup_streams`](IngestPipeline::backup_streams); chunking and
    /// fingerprinting still fan out across the pool).
    ///
    /// # Errors
    ///
    /// Propagates routing/storage errors from the cluster.
    pub fn backup_stream(
        &self,
        stream_id: u64,
        name: impl Into<String>,
        data: Vec<u8>,
    ) -> Result<FileBackupReport> {
        let mut reports = self.backup_streams(vec![StreamPayload::new(stream_id, name, data)])?;
        Ok(reports.pop().expect("one stream in, one report out"))
    }

    /// Backs up a batch of streams through the parallel pipeline.
    ///
    /// Reports come back in input order.  Each stream becomes one file, restorable
    /// via [`DedupCluster::restore_file`]; per-stream chunk order is preserved end
    /// to end, so restores are byte-identical to the serial
    /// [`BackupClient`](crate::BackupClient) path.
    ///
    /// # Errors
    ///
    /// Returns the first routing/storage error any stream hit; the other streams
    /// still run to completion (their unique chunks are stored, but no file is
    /// registered for any stream when an error is returned).
    pub fn backup_streams(&self, streams: Vec<StreamPayload>) -> Result<Vec<FileBackupReport>> {
        let config = self.cluster.config();
        let chunker = config.chunker.build();
        let algorithm = config.fingerprint_algorithm;

        let names: Vec<String> = streams.iter().map(|s| s.name.clone()).collect();
        let stream_ids: Vec<u64> = streams.iter().map(|s| s.stream_id).collect();

        // The stream buffers are the scratch the whole pipeline works out of:
        // stages 1 and 2 only ever *borrow* them (boundaries + fingerprints over
        // slices), and the single per-chunk payload copy happens in stage 3,
        // straight into the exactly-sized Vec the super-chunk will own.  The old
        // shape materialised every chunk as an intermediate Vec in stage 1 — one
        // extra allocation and copy per chunk.
        let datas: Vec<Vec<u8>> = streams.into_iter().map(|s| s.data).collect();

        // Stage 1: chunk-boundary scan per stream (streams in parallel).
        let boundaries: Vec<Vec<usize>> =
            run_pool(self.parallelism, (0..datas.len()).collect(), |_, stream| {
                chunker.chunk_boundaries(&datas[stream])
            });
        // Chunk `j` of stream `s` spans `chunk_span(&boundaries[s], j)`.
        let chunk_span =
            |b: &[usize], j: usize| -> (usize, usize) { (if j == 0 { 0 } else { b[j - 1] }, b[j]) };

        // Stage 2: fingerprint fixed-size chunk ranges (parallel across and within
        // streams) directly from the stream buffers, then write the descriptors
        // back in chunk order.
        let mut tasks: Vec<(usize, usize, usize)> = Vec::new();
        for (stream, bounds) in boundaries.iter().enumerate() {
            let mut start = 0;
            while start < bounds.len() {
                let end = (start + FINGERPRINT_TASK_CHUNKS).min(bounds.len());
                tasks.push((stream, start, end));
                start = end;
            }
        }
        let fingerprinted: Vec<Vec<ChunkDescriptor>> = run_pool(
            self.parallelism,
            tasks.clone(),
            |_, (stream, start, end)| {
                let data = &datas[stream];
                let bounds = &boundaries[stream];
                (start..end)
                    .map(|j| {
                        let (lo, hi) = chunk_span(bounds, j);
                        ChunkDescriptor::new(algorithm.fingerprint(&data[lo..hi]), (hi - lo) as u32)
                    })
                    .collect()
            },
        );
        let mut descriptors: Vec<Vec<ChunkDescriptor>> = boundaries
            .iter()
            .map(|b| Vec::with_capacity(b.len()))
            .collect();
        for ((stream, _, _), descs) in tasks.into_iter().zip(fingerprinted) {
            descriptors[stream].extend(descs);
        }

        // Stage 3: assemble super-chunks in order (streams in parallel), copying
        // each chunk payload out of the stream buffer exactly once.
        let super_chunk_size = config.super_chunk_size;
        let assembled: Vec<(u64, Vec<SuperChunk>)> = run_pool(
            self.parallelism,
            descriptors.into_iter().enumerate().collect(),
            |_, (stream, descs)| {
                let data = &datas[stream];
                let bounds = &boundaries[stream];
                let logical = data.len() as u64;
                let mut builder = SuperChunkBuilder::new(super_chunk_size);
                let mut supers = Vec::new();
                for (j, descriptor) in descs.into_iter().enumerate() {
                    let (lo, hi) = chunk_span(bounds, j);
                    if let Some(sc) = builder.push_chunk(descriptor, data[lo..hi].to_vec()) {
                        supers.push(sc);
                    }
                }
                supers.extend(builder.finish());
                debug_assert!(builder.is_empty(), "finish drains the builder");
                (logical, supers)
            },
        )
        .into_iter()
        .collect();

        // Stage 4: submit each stream's super-chunks in order via the cluster's
        // batched entry point, streams in parallel.  File-boundary hints are
        // unique per stream within this call.
        let marker_base = self.cluster.director().file_count() as u64;
        let cluster = &self.cluster;
        let outcomes: Vec<Result<(FileBackupReport, Vec<RecipeEntry>)>> = run_pool(
            self.parallelism,
            assembled.into_iter().zip(stream_ids).collect::<Vec<_>>(),
            |i, ((logical_bytes, supers), stream_id)| {
                let receipts = cluster.backup_super_chunk_batch(
                    stream_id,
                    &supers,
                    Some(marker_base + i as u64),
                )?;
                let mut report = FileBackupReport {
                    file_id: 0,
                    logical_bytes,
                    transferred_bytes: 0,
                    chunks: 0,
                    super_chunks: 0,
                    duplicate_chunks: 0,
                };
                let mut recipe: Vec<RecipeEntry> = Vec::new();
                for (sc, (receipt, node)) in supers.iter().zip(&receipts) {
                    report.chunks += sc.chunk_count() as u64;
                    report.super_chunks += 1;
                    report.transferred_bytes += receipt.unique_bytes;
                    report.duplicate_chunks += receipt.duplicate_chunks;
                    for d in sc.descriptors() {
                        recipe.push(RecipeEntry {
                            fingerprint: d.fingerprint,
                            len: d.len,
                            node: *node,
                        });
                    }
                }
                Ok((report, recipe))
            },
        );

        // Registration happens after every stream succeeded, in input order, so the
        // batch either yields a full set of restorable files or none.
        let mut finished = Vec::with_capacity(outcomes.len());
        for outcome in outcomes {
            finished.push(outcome?);
        }
        Ok(finished
            .into_iter()
            .zip(names)
            .map(|((mut report, recipe), name)| {
                report.file_id = self.cluster.director().register_file(
                    self.session_id,
                    &name,
                    report.logical_bytes,
                    recipe,
                );
                report
            })
            .collect())
    }
}

/// Runs `f` over `items` on up to `workers` threads, returning results in item
/// order.  Falls back to the calling thread when one worker (or one item) makes
/// threading pointless.  Worker panics propagate to the caller via scope join.
///
/// Shared with [`DedupCluster::backup_batches_concurrent`], which is the same
/// fan-out over stream batches instead of pipeline stages.
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
    use crate::{BackupClient, SigmaConfig};

    fn test_config() -> SigmaConfig {
        SigmaConfig::builder()
            .super_chunk_size(16 * 1024)
            .chunker(sigma_chunking::ChunkerParams::fixed(1024))
            .container_capacity(64 * 1024)
            .cache_containers(8)
            .parallelism(4)
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
        let cluster = Arc::new(DedupCluster::with_similarity_router(4, test_config()));
        let pipeline = IngestPipeline::new(cluster.clone());
        assert_eq!(pipeline.parallelism(), 4);
        let streams: Vec<StreamPayload> = (0..6u64)
            .map(|s| StreamPayload::new(s, format!("s{s}"), pseudo_random(100_000, s)))
            .collect();
        let datas: Vec<Vec<u8>> = streams.iter().map(|s| s.data.clone()).collect();
        let reports = pipeline.backup_streams(streams).unwrap();
        cluster.flush();
        for (report, data) in reports.iter().zip(&datas) {
            assert_eq!(report.logical_bytes, data.len() as u64);
            assert_eq!(&cluster.restore_file(report.file_id).unwrap(), data);
        }
    }

    #[test]
    fn pipeline_matches_serial_client_on_one_stream() {
        let data = pseudo_random(200_000, 7);

        let serial_cluster = Arc::new(DedupCluster::with_similarity_router(3, test_config()));
        let client = BackupClient::new(serial_cluster.clone(), 0);
        let serial_report = client.backup_bytes("f", &data).unwrap();
        serial_cluster.flush();

        let parallel_cluster = Arc::new(DedupCluster::with_similarity_router(3, test_config()));
        let pipeline = IngestPipeline::new(parallel_cluster.clone());
        let parallel_report = pipeline.backup_stream(0, "f", data.clone()).unwrap();
        parallel_cluster.flush();

        // One stream means identical submission order, so everything matches.
        assert_eq!(parallel_report.chunks, serial_report.chunks);
        assert_eq!(parallel_report.super_chunks, serial_report.super_chunks);
        assert_eq!(
            parallel_report.transferred_bytes,
            serial_report.transferred_bytes
        );
        let serial_stats = serial_cluster.stats();
        let parallel_stats = parallel_cluster.stats();
        assert_eq!(parallel_stats.logical_bytes, serial_stats.logical_bytes);
        assert_eq!(parallel_stats.physical_bytes, serial_stats.physical_bytes);
        assert_eq!(parallel_stats.node_usage, serial_stats.node_usage);
        assert_eq!(
            parallel_cluster
                .restore_file(parallel_report.file_id)
                .unwrap(),
            serial_cluster.restore_file(serial_report.file_id).unwrap()
        );
    }

    #[test]
    fn duplicate_streams_transfer_once() {
        let cluster = Arc::new(DedupCluster::with_similarity_router(1, test_config()));
        let pipeline = IngestPipeline::new(cluster.clone());
        let data = pseudo_random(64 * 1024, 3);
        let first = pipeline.backup_stream(0, "gen-1", data.clone()).unwrap();
        let second = pipeline.backup_stream(0, "gen-2", data.clone()).unwrap();
        assert_eq!(first.transferred_bytes, data.len() as u64);
        assert_eq!(second.transferred_bytes, 0);
        assert_eq!(second.duplicate_chunks, second.chunks);
        cluster.flush();
        assert_eq!(cluster.restore_file(second.file_id).unwrap(), data);
    }

    #[test]
    fn empty_and_tiny_streams_flow_through() {
        let cluster = Arc::new(DedupCluster::with_similarity_router(2, test_config()));
        let pipeline = IngestPipeline::new(cluster.clone());
        let reports = pipeline
            .backup_streams(vec![
                StreamPayload::new(0, "empty", Vec::new()),
                StreamPayload::new(1, "one-chunk", vec![9u8; 100]),
            ])
            .unwrap();
        assert_eq!(reports[0].logical_bytes, 0);
        assert_eq!(reports[0].chunks, 0);
        assert_eq!(reports[1].chunks, 1);
        cluster.flush();
        assert_eq!(cluster.restore_file(reports[0].file_id).unwrap(), b"");
        assert_eq!(
            cluster.restore_file(reports[1].file_id).unwrap(),
            vec![9u8; 100]
        );
    }
}

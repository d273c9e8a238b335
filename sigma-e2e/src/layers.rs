//! The traced pass: the leading part of a workload's inputs replayed
//! in-process, through public functions only, with one span per call into a
//! layer. Layers are named by module. End-to-end figures never come from here.
//!
//! Six steps, each on fresh clusters so that none sees another's data:
//!   1. `service.*`: Stats round trips over TCP, full against bare stack, codec;
//!   2. every request over `TcpClient` to one system and over
//!      `ServiceStack::call` to a second — the difference is what the
//!      transport costs;
//!   3. staged ingest on the file backend, span by span, then flush, reopen
//!      all nodes and restore with `RestoreReport`s;
//!   4. prebuilt super-chunks into a memory-backed cluster — the difference
//!      to step 3's cluster spans is what durable storage costs;
//!   5. `BackupClient::backup_bytes` on the same inputs, untraced: the wall
//!      time the staged spans must add up to;
//!   6. the unique chunks through `ContainerStore` + `Journal` on a
//!      `CountingBackend` around `FileBackend`.
//!
//! What is compared is run turn by turn — request by request in step 2, file
//! by file in steps 3 to 5 — because whole passes made one after the other
//! differed by up to 2x on this disk. Before any of it the inputs go through
//! step 2 once, unmeasured: the first touch of fresh memory costs more in this
//! sandbox than the work done in it (a first pass over 60 MiB ran at half the
//! speed of the second), so no measured step may be the one that grows the
//! heap.

use crate::counting::CountingBackend;
use crate::gen::{self, Input};
use crate::report::Metric;
use crate::stats::{median, percentile};
use crate::sut::{self, Res, Sut, NODES, TENANT};
use crate::trace::Tracer;
use crate::workloads::{Sizes, MIB};
use sigma_core::{
    BackupClient, ChunkDescriptor, DedupCluster, RecipeEntry, RestoreReport, SigmaConfig,
    SuperChunk, SuperChunkBuilder,
};
use sigma_hashkit::Fingerprint;
use sigma_service::codec::{decode_request, decode_response, encode_request, encode_response};
use sigma_service::{RequestEnvelope, ResponseEnvelope};
use sigma_storage::{BackendKind, ChunkFetch, ContainerStore, FileBackend, Journal, StoredChunk};
use std::collections::HashSet;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

const STREAM: u64 = 0;
const STATS_CALLS: usize = 1000;

pub struct Traced {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub tracer: Tracer,
}

struct TraceInputs {
    backups: Vec<Input>,
    /// Indices into `backups` of the files restored afterwards.
    restores: Vec<usize>,
}

/// The head of round 0's inputs: the same bytes the untraced pass starts with.
fn trace_inputs(workload: &str, seed: u64, sizes: &Sizes, seconds: u64) -> Res<TraceInputs> {
    let seed = gen::mix(seed, 0x100);
    let s = seconds.max(1) as usize;
    let streams = sizes.versioned_streams;
    let every_nth_version = |count: usize, nth: usize| -> Vec<usize> {
        (0..count)
            .filter(|i| (i / streams).is_multiple_of(nth))
            .collect()
    };
    Ok(match workload {
        "unique_1m" => {
            let backups = gen::unique_files(seed, sizes.unique_files.min(6 * s), MIB);
            let restores = (0..backups.len()).collect();
            TraceInputs { backups, restores }
        }
        "versioned_1m" => {
            let versions = sizes.versioned_versions.min(s.max(2));
            let backups = gen::versioned_round_robin(seed, streams, versions, MIB, 0.05);
            let restores = every_nth_version(backups.len(), sizes.versioned_restore_every);
            TraceInputs { backups, restores }
        }
        "small_16k" => {
            let backups = gen::unique_files(seed, sizes.small_files.min(200 * s), sizes.small_size);
            let restores = gen::sample(
                gen::mix(seed, 0xD),
                backups.len(),
                sizes.small_restores.min(3 * s),
            );
            TraceInputs { backups, restores }
        }
        "mixed_rw" => {
            let versions =
                (sizes.mixed_preload_versions + sizes.mixed_backups / streams).min(s.max(2));
            let backups = gen::versioned_round_robin(seed, streams, versions, MIB, 0.25);
            let restores = (0..backups.len().min(streams * sizes.mixed_preload_versions)).collect();
            TraceInputs { backups, restores }
        }
        other => return Err(format!("unknown workload {other:?}")),
    })
}

fn mbps(bytes: u64, time: Duration) -> f64 {
    bytes as f64 / 1e6 / time.as_secs_f64()
}

fn share(part: Duration, whole: Duration) -> f64 {
    part.as_secs_f64() / whole.as_secs_f64()
}

fn us(time: Duration) -> f64 {
    time.as_secs_f64() * 1e6
}

fn median_us(mut call: impl FnMut(u64), calls: usize) -> f64 {
    let samples: Vec<f64> = (0..calls)
        .map(|i| {
            let start = Instant::now();
            call(i as u64);
            us(start.elapsed())
        })
        .collect();
    median(&samples)
}

/// Step 1. `tcp_rtt_us`, `middleware_us_per_req`, `codec_mbps`.
fn service_costs(sut: &Sut, inputs: &TraceInputs, metrics: &mut Vec<Metric>) -> Res<f64> {
    let mut client = sut.connect()?;
    let mut refused = 0u64;
    let rtt = median_us(
        |i| match client.call(&sut::stats_request(i)) {
            Ok(resp) if resp.is_ok() => {}
            _ => refused += 1,
        },
        STATS_CALLS,
    );
    // Full and bare stack take turns, call by call, over the same cluster.
    let bare = sut::build_stack(sut.cluster.clone(), false);
    let mut samples = [
        Vec::with_capacity(STATS_CALLS),
        Vec::with_capacity(STATS_CALLS),
    ];
    for i in 0..STATS_CALLS as u64 {
        for (stack, samples) in [&sut.stack, &bare].into_iter().zip(&mut samples) {
            let req = sut::stats_request(i);
            let start = Instant::now();
            black_box(stack.call(req));
            samples.push(us(start.elapsed()));
        }
    }
    let middleware = median(&samples[0]) - median(&samples[1]);
    if refused > 0 {
        return Err(format!("{refused} Stats calls were refused"));
    }

    // One request and one response of the workload's size, all four codec
    // functions, until about 64 MiB of frames went through.
    let payload = &inputs.backups[0].payload;
    let request = sut::backup_request(1, TENANT, "codec", payload.clone());
    let response = ResponseEnvelope::ok(1).with_payload(payload.clone());
    let rounds = ((64 * MIB) / (4 * payload.len().max(1))).max(8);
    let mut frames = 0u64;
    let start = Instant::now();
    for _ in 0..rounds {
        let req = encode_request(black_box(&request)).map_err(|e| format!("codec: {e}"))?;
        black_box(decode_request(&req).map_err(|e| format!("codec: {e}"))?);
        let resp = encode_response(black_box(&response)).map_err(|e| format!("codec: {e}"))?;
        black_box(decode_response(&resp).map_err(|e| format!("codec: {e}"))?);
        frames += 2 * (req.len() + resp.len()) as u64;
    }
    let codec = start.elapsed();

    metrics.push(Metric::new("tcp_rtt_us", rtt, "us").with_samples(STATS_CALLS));
    metrics.push(Metric::new("middleware_us_per_req", middleware, "us").with_samples(STATS_CALLS));
    metrics.push(Metric::new("codec_mbps", mbps(frames, codec), "MB/s"));
    Ok(middleware)
}

#[derive(Default)]
struct RequestTimes {
    backup: Duration,
    restore: Duration,
    backup_ms: Vec<f64>,
    restore_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
}

/// Step 2. Every request goes over TCP to one fresh system and then, in
/// process, to a second one, turn by turn, so that both sides meet the same
/// disk and host conditions (a whole pass after the other differed by up to
/// 2x here). Envelopes are built and answers checked off the clock.
fn paired_request_pass(inputs: &TraceInputs, root: &Path) -> Res<[RequestTimes; 2]> {
    let over_tcp = Sut::start(&root.join("tcp"))?;
    let in_process = Sut::start(&root.join("call"))?;
    let mut client = over_tcp.connect()?;
    let stack = in_process.stack.clone();
    let mut send: [Box<dyn FnMut(RequestEnvelope) -> Option<ResponseEnvelope> + '_>; 2] = [
        Box::new(|req| client.call(&req).ok()),
        Box::new(|req| Some(stack.call(req))),
    ];
    let mut times = [RequestTimes::default(), RequestTimes::default()];
    let mut file_ids = Vec::with_capacity(inputs.backups.len());
    for (i, input) in inputs.backups.iter().enumerate() {
        let mut ids = [None, None];
        for side in 0..2 {
            let req = sut::backup_request(i as u64, TENANT, &input.name, input.payload.clone());
            let start = Instant::now();
            let resp = send[side](req);
            let took = start.elapsed();
            times[side].backup += took;
            times[side].backup_ms.push(us(took) / 1e3);
            times[side].attempted += 1;
            ids[side] = resp.as_ref().and_then(sut::accepted_file_id);
            times[side].failed += u64::from(ids[side].is_none());
        }
        file_ids.push(ids);
    }
    over_tcp.flush()?;
    in_process.flush()?;
    for (i, &pick) in inputs.restores.iter().enumerate() {
        for side in 0..2 {
            times[side].attempted += 1;
            let Some(file_id) = file_ids[pick][side] else {
                times[side].failed += 1;
                continue;
            };
            let req = sut::restore_request(i as u64, TENANT, file_id);
            let start = Instant::now();
            let resp = send[side](req);
            let took = start.elapsed();
            times[side].restore += took;
            times[side].restore_ms.push(us(took) / 1e3);
            let good = resp.is_some_and(|r| {
                r.is_ok() && gen::digest(&r.payload) == inputs.backups[pick].digest
            });
            times[side].failed += u64::from(!good);
        }
    }
    drop(send);
    drop(client);
    over_tcp.finish()?;
    in_process.finish()?;
    Ok(times)
}

/// What step 3 hands to the later steps.
struct Staged {
    bytes: u64,
    /// Sum of the stage spans, flush included.
    attributed: Duration,
    /// Wall time of the whole traced ingest loop, flush included.
    wall: Duration,
    cluster_time: Duration,
    /// Step 4: the same super-chunks into the memory-backed cluster.
    memory: Duration,
    /// Step 5: `BackupClient::backup_bytes` on the same inputs.
    reference: Duration,
    failed: u64,
}

fn bare_cluster(kind: BackendKind, root: &Path) -> Res<(Arc<DedupCluster>, SigmaConfig)> {
    let config = sut::config(kind, root)?;
    Ok((
        Arc::new(DedupCluster::with_similarity_router(NODES, config.clone())),
        config,
    ))
}

/// Steps 3 to 5, file by file in turn (for the reason given at step 2): the
/// stages of `BackupClient::backup_reader` with one span each on one
/// file-backed cluster, `backup_bytes` itself on a second, and the prebuilt
/// super-chunks into a memory-backed third.
fn staged_ingest(
    inputs: &TraceInputs,
    prebuilt: &[Vec<SuperChunk>],
    root: &Path,
    tracer: &mut Tracer,
    metrics: &mut Vec<Metric>,
) -> Res<Staged> {
    let (cluster, config) = bare_cluster(BackendKind::File, &root.join("staged"))?;
    let (reference_cluster, _) = bare_cluster(BackendKind::File, &root.join("reference"))?;
    let reference_client = BackupClient::with_tenant(reference_cluster.clone(), STREAM, 0, TENANT);
    // The memory-backed cluster keeps all it is given: a first, unmeasured
    // fill grows the heap so that the measured one does not.
    let fill_memory_cluster = |measured: bool| -> Res<Arc<DedupCluster>> {
        let (cluster, _) = bare_cluster(BackendKind::Memory, root)?;
        for (marker, file) in prebuilt.iter().enumerate().filter(|_| !measured) {
            for sc in file {
                cluster
                    .backup_super_chunk_with_target(STREAM, sc, Some(marker as u64))
                    .map_err(|e| format!("memory ingest: {e}"))?;
            }
        }
        Ok(cluster)
    };
    drop(fill_memory_cluster(false)?);
    let memory_cluster = fill_memory_cluster(true)?;
    let chunker = config.chunker.build();
    let algorithm = config.fingerprint_algorithm;
    let session = cluster.director().open_tenant_session("trace", 0, TENANT);
    let mut staged = Staged {
        bytes: 0,
        attributed: Duration::ZERO,
        wall: Duration::ZERO,
        cluster_time: Duration::ZERO,
        memory: Duration::ZERO,
        reference: Duration::ZERO,
        failed: 0,
    };
    let mut file_ids = Vec::with_capacity(inputs.backups.len());

    for (i, input) in inputs.backups.iter().enumerate() {
        let request = i as u64;
        let data = &input.payload;
        let marker = cluster.director().file_count() as u64;
        let start = Instant::now();
        let file_id = tracer.span("ingest.file", request, |t| -> Res<_> {
            let chunks = t.span("chunking.scan", request, |_| chunker.split(data));
            let descriptors: Vec<ChunkDescriptor> = t.span("hashkit.sha1", request, |_| {
                chunks
                    .iter()
                    .map(|c| ChunkDescriptor::new(algorithm.fingerprint(c.data()), c.len() as u32))
                    .collect()
            });
            let built: Vec<SuperChunk> = t.span("core.super_chunk", request, |_| {
                let mut builder = SuperChunkBuilder::new(config.super_chunk_size);
                let mut out = Vec::new();
                for (descriptor, chunk) in descriptors.into_iter().zip(chunks) {
                    out.extend(builder.push_chunk(descriptor, chunk.into_data()));
                }
                out.extend(builder.finish());
                out
            });
            let mut recipe = Vec::new();
            for sc in &built {
                let (_, node) = t
                    .span("core.cluster", request, |_| {
                        cluster.backup_super_chunk_with_target(STREAM, sc, Some(marker))
                    })
                    .map_err(|e| format!("ingest: {e}"))?;
                recipe.extend(sc.descriptors().iter().map(|d| RecipeEntry {
                    fingerprint: d.fingerprint,
                    len: d.len,
                    node,
                }));
            }
            let file_id = t.span("core.director", request, |_| {
                cluster
                    .director()
                    .register_file(session, &input.name, data.len() as u64, recipe)
            });
            Ok(file_id)
        })?;
        staged.wall += start.elapsed();
        staged.bytes += data.len() as u64;
        file_ids.push(file_id);

        let start = Instant::now();
        reference_client
            .backup_bytes(&input.name, data)
            .map_err(|e| format!("reference ingest: {e}"))?;
        staged.reference += start.elapsed();

        let start = Instant::now();
        for sc in &prebuilt[i] {
            memory_cluster
                .backup_super_chunk_with_target(STREAM, sc, Some(marker))
                .map_err(|e| format!("memory ingest: {e}"))?;
        }
        staged.memory += start.elapsed();
    }
    let flush = |cluster: &DedupCluster| -> Res<Duration> {
        let start = Instant::now();
        cluster.try_flush().map_err(|e| format!("flush: {e}"))?;
        Ok(start.elapsed())
    };
    staged.wall += tracer.span("core.flush", 0, |_| flush(&cluster))?;
    staged.reference += flush(&reference_cluster)?;
    staged.memory += flush(&memory_cluster)?;
    drop((reference_client, reference_cluster, memory_cluster));

    let stage = |name: &str| tracer.total(name);
    let (scan, sha1, build) = (
        stage("chunking.scan"),
        stage("hashkit.sha1"),
        stage("core.super_chunk"),
    );
    staged.cluster_time = stage("core.cluster") + stage("core.flush");
    staged.attributed = scan + sha1 + build + staged.cluster_time + stage("core.director");
    let unattributed = tracer
        .self_times()
        .get("ingest.file")
        .copied()
        .unwrap_or_default();

    // SuperChunk::handprint runs inside core.cluster; timed once more on its
    // own so that core.super_chunk can be reported per super-chunk.
    let super_chunk_count = prebuilt.iter().flatten().count();
    let chunk_count: usize = prebuilt.iter().flatten().map(SuperChunk::chunk_count).sum();
    let start = Instant::now();
    for sc in prebuilt.iter().flatten() {
        black_box(sc.handprint(config.handprint_size));
    }
    let handprint = start.elapsed();

    metrics.push(Metric::new(
        "chunk_scan_mbps",
        mbps(staged.bytes, scan),
        "MB/s",
    ));
    metrics.push(Metric::new(
        "mean_chunk_bytes",
        staged.bytes as f64 / chunk_count as f64,
        "B",
    ));
    metrics.push(Metric::new("sha1_mbps", mbps(staged.bytes, sha1), "MB/s"));
    metrics.push(Metric::new(
        "handprint_us_per_sc",
        us(build + handprint) / super_chunk_count as f64,
        "us",
    ));
    metrics.push(Metric::new(
        "ingest_core_file_mbps",
        mbps(staged.bytes, staged.cluster_time),
        "MB/s",
    ));
    metrics.push(Metric::new(
        "ingest_share_scan",
        share(scan, staged.attributed),
        "ratio",
    ));
    metrics.push(Metric::new(
        "ingest_share_sha1",
        share(sha1, staged.attributed),
        "ratio",
    ));
    metrics.push(Metric::new(
        "ingest_share_super_chunk",
        share(build, staged.attributed),
        "ratio",
    ));
    metrics.push(Metric::new(
        "ingest_share_cluster",
        share(staged.cluster_time, staged.attributed),
        "ratio",
    ));
    metrics.push(Metric::new(
        "ingest_unattributed_share",
        share(unattributed, staged.wall),
        "ratio",
    ));

    let stats = cluster.stats();
    let nodes = &stats.nodes;
    let sum = |f: &dyn Fn(&sigma_core::NodeStats) -> u64| nodes.iter().map(f).sum::<u64>() as f64;
    let chunks = chunk_count as f64;
    metrics.push(Metric::new(
        "lookup_msgs_per_chunk",
        stats.messages.total_lookups() as f64 / chunks,
        "1/chunk",
    ));
    metrics.push(Metric::new("dedup_ratio", stats.dedup_ratio, "ratio"));
    metrics.push(Metric::new("usage_skew", stats.usage_skew, "ratio"));
    metrics.push(Metric::new(
        "fp_cache_hit_ratio",
        sum(&|n| n.cache.hits) / sum(&|n| n.cache.lookups).max(1.0),
        "ratio",
    ));
    metrics.push(Metric::new(
        "index_probes_per_chunk",
        sum(&|n| n.chunk_index.lookups) / chunks,
        "1/chunk",
    ));
    metrics.push(Metric::new(
        "sim_hits_per_sc",
        sum(&|n| n.similarity_index.hits) / stats.messages.super_chunks_routed.max(1) as f64,
        "1/sc",
    ));

    // core.recovery, then core.restore / storage.read_cache, cold after the
    // restart as in the untraced pass.
    let start = Instant::now();
    let mut replayed = (0u64, 0u64);
    for id in cluster.node_ids() {
        let report = tracer
            .span("core.recovery", id as u64, |_| {
                cluster.restart_node_from_disk(id)
            })
            .map_err(|e| format!("restart node {id}: {e}"))?;
        replayed.0 += report.bytes_replayed;
        replayed.1 += report.frames_replayed;
    }
    let recover = start.elapsed();
    metrics.push(Metric::new("recover_core_s", recover.as_secs_f64(), "s"));
    metrics.push(Metric::new(
        "recovery_mib_replayed",
        replayed.0 as f64 / MIB as f64,
        "MiB",
    ));
    metrics.push(Metric::new(
        "recovery_frames_replayed",
        replayed.1 as f64,
        "count",
    ));

    let mut total = RestoreReport::default();
    for &pick in &inputs.restores {
        let (data, report) = tracer
            .span("core.restore", pick as u64, |_| {
                cluster.restore_file_with_report(file_ids[pick])
            })
            .map_err(|e| format!("restore: {e}"))?;
        staged.failed += u64::from(gen::digest(&data) != inputs.backups[pick].digest);
        total.logical_bytes += report.logical_bytes;
        total.backend_bytes_read += report.backend_bytes_read;
        total.cache_hits += report.cache_hits;
        total.cache_misses += report.cache_misses;
        total.coalesced_runs += report.coalesced_runs;
        total.serial_fallback_chunks += report.serial_fallback_chunks;
    }
    let files = inputs.restores.len().max(1) as f64;
    metrics.push(Metric::new(
        "restore_core_mbps",
        mbps(total.logical_bytes, tracer.total("core.restore")),
        "MB/s",
    ));
    metrics.push(Metric::new(
        "read_amplification",
        total.read_amplification(),
        "ratio",
    ));
    metrics.push(Metric::new(
        "read_cache_hit_ratio",
        total.cache_hits as f64 / (total.cache_hits + total.cache_misses).max(1) as f64,
        "ratio",
    ));
    metrics.push(Metric::new(
        "coalesced_runs_per_file",
        total.coalesced_runs as f64 / files,
        "1/file",
    ));
    metrics.push(Metric::new(
        "serial_fallback_chunks",
        total.serial_fallback_chunks as f64,
        "count",
    ));
    Ok(staged)
}

/// Step 6. Every distinct chunk once through the storage layer alone.
fn storage_layer(
    prebuilt: &[Vec<SuperChunk>],
    capacity: usize,
    root: &Path,
    metrics: &mut Vec<Metric>,
) -> Res<(Duration, u64)> {
    let file = FileBackend::open(root).map_err(|e| format!("open backend: {e}"))?;
    let counting = Arc::new(CountingBackend::new(Arc::new(file)));
    let journal = Journal::with_backend(counting.clone()).map_err(|e| format!("journal: {e}"))?;
    let store = ContainerStore::new(capacity)
        .with_backend(counting.clone())
        .with_journal(Arc::new(journal));

    let mut seen: HashSet<Fingerprint> = HashSet::new();
    let mut stored: Vec<(StoredChunk, Fingerprint, &[u8])> = Vec::new();
    let mut unique_bytes = 0u64;
    for sc in prebuilt.iter().flatten() {
        for (i, d) in sc.descriptors().iter().enumerate() {
            if !seen.insert(d.fingerprint) {
                continue;
            }
            let data = sc.payload(i).ok_or("super-chunk without payloads")?;
            let at = store
                .store_chunk(STREAM, d.fingerprint, data)
                .map_err(|e| format!("store_chunk: {e}"))?;
            unique_bytes += data.len() as u64;
            stored.push((at, d.fingerprint, data));
        }
    }
    store.flush().map_err(|e| format!("store flush: {e}"))?;
    let write_busy = counting.write_busy();
    let write_bytes = counting.write_bytes();

    // Read everything back and compare, one batched call per container: one
    // stream fills one container after the other, so a container's chunks
    // are neighbours in `stored`.
    let mut mismatched = 0u64;
    for wanted in stored.chunk_by(|a, b| a.0.container == b.0.container) {
        let mut buffers: Vec<Vec<u8>> = wanted.iter().map(|w| vec![0; w.2.len()]).collect();
        let mut fetches: Vec<ChunkFetch<'_>> = wanted
            .iter()
            .zip(buffers.iter_mut())
            .map(|((at, fingerprint, _), out)| ChunkFetch {
                fingerprint: *fingerprint,
                offset: at.offset,
                out: out.as_mut_slice(),
            })
            .collect();
        store
            .read_chunks_batched(&wanted[0].0.container, &mut fetches)
            .map_err(|e| format!("read_chunks_batched: {e}"))?;
        mismatched += wanted
            .iter()
            .zip(&buffers)
            .filter(|((_, _, data), got)| data != &got.as_slice())
            .count() as u64;
    }

    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let mib = |b: u64| b as f64 / MIB as f64;
    let reads_busy = counting.read_at.busy() + counting.read_at_into.busy();
    for (name, value, unit) in [
        (
            "journal_append_calls",
            counting.append.calls() as f64,
            "count",
        ),
        ("journal_append_mib", mib(counting.append.bytes()), "MiB"),
        ("journal_append_busy_ms", ms(counting.append.busy()), "ms"),
        ("fsync_calls", counting.fsync.calls() as f64, "count"),
        ("fsync_busy_ms", ms(counting.fsync.busy()), "ms"),
        (
            "write_object_calls",
            counting.write_object.calls() as f64,
            "count",
        ),
        (
            "write_object_mib",
            mib(counting.write_object.bytes()),
            "MiB",
        ),
        (
            "write_object_busy_ms",
            ms(counting.write_object.busy()),
            "ms",
        ),
        (
            "backend_read_calls",
            (counting.read_at.calls() + counting.read_at_into.calls()) as f64,
            "count",
        ),
        (
            "backend_read_mib",
            mib(counting.read_at.bytes() + counting.read_at_into.bytes()),
            "MiB",
        ),
        ("backend_read_busy_ms", ms(reads_busy), "ms"),
        (
            "backend_bytes_per_chunk_byte",
            write_bytes as f64 / unique_bytes.max(1) as f64,
            "ratio",
        ),
        (
            "containers_sealed",
            store.stats().sealed_containers as f64,
            "count",
        ),
    ] {
        metrics.push(Metric::new(name, value, unit));
    }
    Ok((write_busy, mismatched))
}

/// The inputs as `BackupClient` would cut them, built once off the clock.
fn build_super_chunks(inputs: &TraceInputs, config: &SigmaConfig) -> Vec<Vec<SuperChunk>> {
    let chunker = config.chunker.build();
    inputs
        .backups
        .iter()
        .map(|input| {
            let mut builder = SuperChunkBuilder::new(config.super_chunk_size);
            let mut out = Vec::new();
            for chunk in chunker.split(&input.payload) {
                let descriptor = ChunkDescriptor::new(
                    config.fingerprint_algorithm.fingerprint(chunk.data()),
                    chunk.len() as u32,
                );
                out.extend(builder.push_chunk(descriptor, chunk.into_data()));
            }
            out.extend(builder.finish());
            out
        })
        .collect()
}

pub fn run_traced(
    workload: &str,
    seed: u64,
    sizes: &Sizes,
    seconds: u64,
    scratch: &Path,
) -> Res<Traced> {
    let inputs = trace_inputs(workload, seed, sizes, seconds)?;
    let root = scratch.join(format!("{workload}-trace"));
    let config = SigmaConfig::default();
    let prebuilt = build_super_chunks(&inputs, &config);
    let mut metrics = Vec::new();
    let mut tracer = Tracer::new();
    paired_request_pass(&inputs, &root)?; // unmeasured, see the module comment

    // Step 1.
    let sut = Sut::start(&root)?;
    let middleware_us = service_costs(&sut, &inputs, &mut metrics)?;
    sut.finish()?;

    // Step 2.
    let [tcp, call] = paired_request_pass(&inputs, &root)?;
    for (backup, name_transport, name_service) in [
        (true, "transport_share_backup", "service_share_backup"),
        (false, "transport_share_restore", "service_share_restore"),
    ] {
        let (over_tcp, in_process, requests) = if backup {
            (tcp.backup, call.backup, inputs.backups.len())
        } else {
            (tcp.restore, call.restore, inputs.restores.len())
        };
        let transport = 1.0 - share(in_process, over_tcp);
        let per_request_us = us(over_tcp) / requests.max(1) as f64;
        metrics.push(Metric::new(name_transport, transport, "ratio"));
        metrics.push(Metric::new(
            name_service,
            transport + middleware_us / per_request_us,
            "ratio",
        ));
    }
    // Backup latency and the tails over TCP, from this pass's (few) requests.
    // The untraced run prints the same of its full sample as `(info)` lines;
    // both are information only, because no bound held on them run after run.
    for (name, samples, p) in [
        ("tcp_backup_p50_ms", &tcp.backup_ms, 50.0),
        ("tcp_backup_p95_ms", &tcp.backup_ms, 95.0),
        ("tcp_restore_p95_ms", &tcp.restore_ms, 95.0),
    ] {
        metrics.push(Metric::new(name, percentile(samples, p), "ms").with_samples(samples.len()));
    }

    // Steps 3 to 6.
    let mut staged = staged_ingest(&inputs, &prebuilt, &root, &mut tracer, &mut metrics)?;
    let (memory, reference) = (staged.memory, staged.reference);
    std::fs::remove_dir_all(&root).map_err(|e| format!("wipe scratch: {e}"))?;
    sut::settle(scratch)?;
    let (write_busy, mismatched) =
        storage_layer(&prebuilt, config.container_capacity, &root, &mut metrics)?;
    staged.failed += mismatched;

    metrics.push(Metric::new(
        "ingest_core_mem_mbps",
        mbps(staged.bytes, memory),
        "MB/s",
    ));
    metrics.push(Metric::new(
        "durable_cost_share",
        1.0 - share(memory, staged.cluster_time),
        "ratio",
    ));
    metrics.push(Metric::new(
        "ingest_share_durable",
        share(
            staged.cluster_time.saturating_sub(memory),
            staged.attributed,
        ),
        "ratio",
    ));
    metrics.push(Metric::new(
        "ingest_share_backend",
        share(write_busy, staged.attributed),
        "ratio",
    ));
    metrics.push(Metric::new(
        "attributed_ratio",
        share(staged.attributed, reference),
        "ratio",
    ));
    metrics.push(Metric::new(
        "trace_overhead",
        share(staged.wall, reference) - 1.0,
        "ratio",
    ));
    metrics.push(Metric::new("spans_recorded", tracer.len() as f64, "count"));

    let failed = tcp.failed + call.failed + staged.failed;
    if failed == 0 {
        std::fs::remove_dir_all(&root).map_err(|e| format!("remove scratch: {e}"))?;
        sut::settle(scratch)?;
    }
    Ok(Traced {
        metrics,
        attempted: tcp.attempted + call.attempted + inputs.restores.len() as u64,
        failed,
        tracer,
    })
}

//! The `sigma-bench` measurement suites: one in-process pass over the
//! headline workloads (ingest, restore, rebalance, recovery, GC
//! reclaim) that produces a [`BenchReport`] for the persisted performance
//! trajectory.
//!
//! Unlike the criterion targets (which explore parameter spaces), the runner
//! measures a fixed configuration per metric, takes the best of a few
//! repetitions, and labels every number with its byte basis so the trajectory
//! file cannot silently mix pre-dedup and post-dedup MB/s.
//!
//! Two sizes exist: **full** (the numbers committed as `BENCH_pr7.json`) and
//! **quick** (CI-sized).  A full run executes *both* and records the quick
//! metrics under `quick/`-prefixed names, so a CI quick run always finds
//! same-sized baselines in the committed file and never compares a 2 MiB run
//! against a 16 MiB one.

use crate::trajectory::{BenchReport, ByteBasis, Metric};
use sigma_chunking::{reference, ChunkerParams};
use sigma_core::{
    BackupClient, DedupCluster, DedupNode, IngestPipeline, SigmaConfig, StreamPayload, SuperChunk,
};
use sigma_hashkit::reference::ReferenceSha1;
use sigma_hashkit::FingerprintAlgorithm;
use sigma_metrics::Stopwatch;
use sigma_simulation::runner::{run_cluster, SimulationConfig};
use sigma_simulation::tenant_storm::{run_tenant_storm, TenantStormConfig};
use sigma_storage::{Journal, MemoryBackend};
use sigma_workloads::payload::{
    generational_payloads, random_bytes, versioned_payloads, GenerationalPayloadParams,
    VersionedPayloadParams,
};
use sigma_workloads::{presets, Scale};
use std::sync::Arc;

/// How the runner is invoked.
#[derive(Debug, Clone)]
pub struct RunnerOptions {
    /// Run only the CI-sized quick suite (a full run includes it anyway,
    /// under `quick/`-prefixed metric names).
    pub quick: bool,
    /// Label recorded in the report (e.g. `pr7`).
    pub label: String,
}

/// Workload sizes for one suite pass.
struct Sizes {
    /// Metric-name prefix (`""` for full, `"quick/"` for the CI size).
    prefix: &'static str,
    /// Ingest: number of client streams.
    ingest_streams: u64,
    /// Ingest: logical bytes per stream.
    ingest_stream_bytes: usize,
    /// Ingest: worker-thread sweep (`_t1` must be first — it anchors the
    /// reference-chunker speedup comparison).
    threads: &'static [usize],
    /// Trace replay scale for the linux-like dataset.
    trace_scale: Scale,
    /// Restore: client streams and logical bytes per stream version (each
    /// stream backs up two overlapping versions, so restores revisit shared
    /// containers).
    restore_streams: u64,
    restore_stream_bytes: usize,
    /// Rebalance: streams and bytes per stream pre-loaded before the join.
    rebalance_streams: u64,
    rebalance_stream_bytes: usize,
    /// Recovery: logical payload bytes ingested before the recovery.
    recover_payload_bytes: usize,
    /// GC: streams, generations, generations expired, initial bytes/stream.
    gc_streams: u64,
    gc_generations: usize,
    gc_expire: u64,
    gc_stream_bytes: usize,
    /// Tenant storm: tenants, clients per tenant, hot-tenant extra clients,
    /// generations, initial payload bytes per client.
    storm_tenants: usize,
    storm_clients_per_tenant: usize,
    storm_hot_extra: usize,
    storm_generations: usize,
    storm_payload_bytes: usize,
    /// Repetitions per metric; the best (max MB/s) is recorded.
    reps: usize,
}

impl Sizes {
    fn full() -> Sizes {
        Sizes {
            prefix: "",
            ingest_streams: 8,
            ingest_stream_bytes: 2 << 20,
            threads: &[1, 2, 4, 8],
            trace_scale: Scale::Tiny,
            restore_streams: 4,
            restore_stream_bytes: 1 << 20,
            rebalance_streams: 4,
            rebalance_stream_bytes: 1 << 20,
            recover_payload_bytes: 8 << 20,
            gc_streams: 4,
            gc_generations: 4,
            gc_expire: 2,
            gc_stream_bytes: 2 << 20,
            storm_tenants: 16,
            storm_clients_per_tenant: 4,
            storm_hot_extra: 8,
            storm_generations: 3,
            storm_payload_bytes: 16 << 10,
            reps: 3,
        }
    }

    fn quick() -> Sizes {
        Sizes {
            prefix: "quick/",
            ingest_streams: 4,
            ingest_stream_bytes: 256 << 10,
            threads: &[1, 4],
            trace_scale: Scale::Tiny,
            restore_streams: 2,
            restore_stream_bytes: 256 << 10,
            rebalance_streams: 2,
            rebalance_stream_bytes: 256 << 10,
            recover_payload_bytes: 2 << 20,
            gc_streams: 2,
            gc_generations: 4,
            gc_expire: 2,
            gc_stream_bytes: 512 << 10,
            storm_tenants: 8,
            storm_clients_per_tenant: 2,
            storm_hot_extra: 4,
            storm_generations: 2,
            storm_payload_bytes: 8 << 10,
            reps: 2,
        }
    }
}

/// Runs the selected suites and assembles the trajectory report.
pub fn run(opts: &RunnerOptions) -> BenchReport {
    let calibration_mbps = calibrate();
    eprintln!("calibration: {calibration_mbps:.1} MB/s (portable sha1 over a fixed buffer)");
    let mut metrics = Vec::new();
    let mut speedup = 0.0;
    if !opts.quick {
        speedup = suite(&Sizes::full(), &mut metrics);
    }
    let quick_speedup = suite(&Sizes::quick(), &mut metrics);
    if opts.quick {
        speedup = quick_speedup;
    }
    BenchReport {
        label: opts.label.clone(),
        mode: if opts.quick { "quick" } else { "full" }.to_string(),
        calibration_mbps,
        ingest_speedup_vs_reference: speedup,
        metrics,
    }
}

/// Fixed CPU workload (SHA-1 over 8 MiB) whose MB/s captures how fast the
/// measuring machine is; comparisons divide metrics by it so a slower CI
/// runner does not read as a code regression.
///
/// It hashes with [`ReferenceSha1`], the portable kernel, never the SHA-NI
/// one: a hardware-hashed calibration would read ~2.3x faster on SHA-NI
/// machines while restore, rebalance and recovery metrics stay put, and the
/// normalized comparison would report them all as regressions.
pub fn calibrate() -> f64 {
    let data = random_bytes(8 << 20, 0xCA_11B);
    best_of(3, || {
        let sw = Stopwatch::start();
        let fp = ReferenceSha1::fingerprint_bytes(&data);
        let tp = sw.stop(data.len() as u64);
        std::hint::black_box(fp);
        tp.mb_per_sec()
    })
}

/// Runs every suite at `sizes`, appending metrics, and returns the
/// single-thread ingest speedup measured within the pass: hardware vs portable
/// SHA-1 plus strided vs reference chunker.
fn suite(sizes: &Sizes, metrics: &mut Vec<Metric>) -> f64 {
    let speedup = ingest_suite(sizes, metrics);
    trace_suite(sizes, metrics);
    restore_suite(sizes, metrics);
    rebalance_suite(sizes, metrics);
    recover_suite(sizes, metrics);
    file_suite(sizes, metrics);
    gc_suite(sizes, metrics);
    tenant_suite(sizes, metrics);
    speedup
}

fn best_of(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    (0..reps.max(1)).map(|_| f()).fold(0.0, f64::max)
}

/// The CDC parameters every ingest measurement uses: small chunks so the
/// rolling-hash scan dominates and the pipeline hot path is what's measured.
fn ingest_chunker_params() -> ChunkerParams {
    ChunkerParams::cdc(1 << 10, 4 << 10, 16 << 10)
}

fn ingest_config(threads: usize) -> SigmaConfig {
    SigmaConfig::builder()
        .parallelism(threads)
        .chunker(ingest_chunker_params())
        .build()
        .expect("valid bench config")
}

fn payload_streams(sizes: &Sizes) -> Vec<StreamPayload> {
    (0..sizes.ingest_streams)
        .flat_map(|s| {
            versioned_payloads(VersionedPayloadParams {
                seed: 0xF00D + s,
                versions: 1,
                version_size: sizes.ingest_stream_bytes,
                mutation_rate: 0.05,
            })
            .into_iter()
            .map(move |(name, data)| StreamPayload::new(s, format!("u{s}/{name}"), data))
        })
        .collect()
}

/// One full ingest of `streams` into a fresh 4-node cluster; pre-dedup MB/s.
///
/// With `reference_hot_loops` the identical pipeline runs on the scalar
/// reference chunker scan and the portable SHA-1 kernel — the measured
/// "before" of the strided scan and the hardware SHA-1 kernel, recorded in the
/// same process as the optimized number.
fn ingest_once(threads: usize, streams: &[StreamPayload], reference_hot_loops: bool) -> f64 {
    let cluster = Arc::new(DedupCluster::with_similarity_router(
        4,
        ingest_config(threads),
    ));
    let pipeline = IngestPipeline::new(cluster.clone());
    let total: u64 = streams.iter().map(|s| s.data.len() as u64).sum();
    let sw = Stopwatch::start();
    if reference_hot_loops {
        let chunker = reference::build(&ingest_chunker_params());
        pipeline.backup_streams_with(
            streams.to_vec(),
            chunker.as_ref(),
            &ReferenceSha1::fingerprint_bytes,
        )
    } else {
        pipeline.backup_streams(streams.to_vec())
    }
    .expect("payload ingest cannot fail");
    cluster.flush();
    sw.stop(total).mb_per_sec()
}

/// Payload ingest sweep plus the in-run reference baseline (reference chunker,
/// portable SHA-1); returns the single-thread optimized/reference speedup.
fn ingest_suite(sizes: &Sizes, metrics: &mut Vec<Metric>) -> f64 {
    let streams = payload_streams(sizes);
    let total: u64 = streams.iter().map(|s| s.data.len() as u64).sum();
    let mut t1 = 0.0;
    for &threads in sizes.threads {
        let mbps = best_of(sizes.reps, || ingest_once(threads, &streams, false));
        eprintln!("{}ingest_payload_t{threads}: {mbps:.1} MB/s", sizes.prefix);
        if threads == 1 {
            t1 = mbps;
        }
        metrics.push(Metric {
            name: format!("{}ingest_payload_t{threads}", sizes.prefix),
            mbps,
            bytes: total,
            byte_basis: ByteBasis::LogicalPreDedup,
            // Multi-thread numbers depend on host core count, so only the
            // single-thread figure gates the trajectory.
            headline: threads == 1,
        });
    }
    // Same pipeline, same cluster configuration, byte-identical boundaries and
    // digests — only the hot loops (chunker scan, SHA-1 compress) are swapped
    // for their unoptimized reference versions.
    let ref_mbps = best_of(sizes.reps, || ingest_once(1, &streams, true));
    eprintln!(
        "{}ingest_payload_reference_t1: {ref_mbps:.1} MB/s",
        sizes.prefix
    );
    metrics.push(Metric {
        name: format!("{}ingest_payload_reference_t1", sizes.prefix),
        mbps: ref_mbps,
        bytes: total,
        byte_basis: ByteBasis::LogicalPreDedup,
        headline: false,
    });
    if ref_mbps > 0.0 {
        t1 / ref_mbps
    } else {
        0.0
    }
}

/// Linux-like trace replayed through the simulation runner (no client-side
/// payload hashing; exercises routing, sharded indexes, container stores).
fn trace_suite(sizes: &Sizes, metrics: &mut Vec<Metric>) {
    let dataset = presets::linux_dataset(sizes.trace_scale);
    let logical = dataset.logical_bytes();
    let mbps = best_of(sizes.reps, || {
        let sigma = SigmaConfig::builder().parallelism(1).build().unwrap();
        let config = SimulationConfig {
            node_count: 4,
            sigma,
            client_streams: 8,
        };
        let sw = Stopwatch::start();
        let outcome = run_cluster(
            &dataset,
            Box::new(sigma_core::SimilarityRouter::new(true)),
            &config,
        );
        let tp = sw.stop(logical);
        std::hint::black_box(outcome);
        tp.mb_per_sec()
    });
    eprintln!("{}ingest_trace_t1: {mbps:.1} MB/s", sizes.prefix);
    metrics.push(Metric {
        name: format!("{}ingest_trace_t1", sizes.prefix),
        mbps,
        bytes: logical,
        byte_basis: ByteBasis::LogicalPreDedup,
        headline: true,
    });
}

/// Restore configuration: the ingest CDC parameters with small containers, so
/// each restored file spans many sealed containers and the planner's
/// per-container batching has real extents to coalesce.  `file_root` switches
/// to the real-file backend (durable, fsynced containers on disk).
fn restore_config(file_root: Option<&std::path::Path>) -> SigmaConfig {
    let mut builder = SigmaConfig::builder()
        .parallelism(1)
        .chunker(ingest_chunker_params())
        .super_chunk_size(64 * 1024)
        .container_capacity(256 * 1024);
    if let Some(root) = file_root {
        builder = builder.file_storage(root);
    }
    builder.build().expect("valid bench config")
}

/// Backs up the restore payload set (two overlapping versions per stream, so
/// files share containers) and returns `(file_id, expected_bytes)` pairs.
fn restore_dataset(cluster: &Arc<DedupCluster>, sizes: &Sizes) -> Vec<(u64, Vec<u8>)> {
    let mut files = Vec::new();
    for stream in 0..sizes.restore_streams {
        let client = BackupClient::new(cluster.clone(), stream);
        for (name, data) in versioned_payloads(VersionedPayloadParams {
            seed: 0x4E57 + stream,
            versions: 2,
            version_size: sizes.restore_stream_bytes,
            mutation_rate: 0.05,
        }) {
            let report = client
                .backup_bytes(&format!("u{stream}/{name}"), &data)
                .expect("payload backup cannot fail");
            files.push((report.file_id, data));
        }
    }
    cluster.flush();
    files
}

/// Restores every file once — through the planned pipeline or the serial
/// per-chunk reference — and returns logical-restored MB/s.  Outputs are
/// verified byte-for-byte *after* the clock stops.
fn timed_restore(cluster: &DedupCluster, files: &[(u64, Vec<u8>)], pipelined: bool) -> f64 {
    let total: u64 = files.iter().map(|(_, data)| data.len() as u64).sum();
    let mut restored = Vec::with_capacity(files.len());
    let sw = Stopwatch::start();
    for (file_id, _) in files {
        let bytes = if pipelined {
            cluster
                .restore_file_pipelined(*file_id, 1)
                .expect("restore cannot fail in bench")
                .0
        } else {
            cluster
                .restore_file_reference(*file_id)
                .expect("restore cannot fail in bench")
        };
        restored.push(bytes);
    }
    let tp = sw.stop(total);
    for ((file_id, expected), got) in files.iter().zip(&restored) {
        assert!(got == expected, "restore corrupted file {file_id}");
    }
    tp.mb_per_sec()
}

/// Cold-cache restore throughput: the planned pipeline (batched container
/// reads, read cache, single-copy assembly) against the preserved serial
/// per-chunk reference, in the same process on identical data — the restore
/// analogue of the ingest reference comparison.  Every rep rebuilds the
/// cluster so the pipeline's container read cache starts cold; the reference
/// path never touches that cache, so measuring it first steals nothing from
/// the pipelined pass.  Single worker (`_t1`) for the same reason the ingest
/// headline is single-threaded: fan-out scaling depends on host core count
/// and lives in the `restore_throughput` criterion target instead.
fn restore_suite(sizes: &Sizes, metrics: &mut Vec<Metric>) {
    let mut mem_reference = (0.0f64, 0u64);
    let mut mem_pipelined = (0.0f64, 0u64);
    let mut file_reference = (0.0f64, 0u64);
    let mut file_pipelined = (0.0f64, 0u64);
    for _ in 0..sizes.reps {
        let cluster = Arc::new(DedupCluster::with_similarity_router(
            2,
            restore_config(None),
        ));
        let files = restore_dataset(&cluster, sizes);
        let total: u64 = files.iter().map(|(_, data)| data.len() as u64).sum();
        let mbps = timed_restore(&cluster, &files, false);
        if mbps > mem_reference.0 {
            mem_reference = (mbps, total);
        }
        let mbps = timed_restore(&cluster, &files, true);
        if mbps > mem_pipelined.0 {
            mem_pipelined = (mbps, total);
        }

        // Real-file backend: a fresh directory per rep, so the serial
        // reference issues one backend read per chunk off actual container
        // files and the pipeline's coalesced runs replace those seeks.
        let root = file_scratch();
        let cluster = Arc::new(DedupCluster::with_similarity_router(
            2,
            restore_config(Some(&root)),
        ));
        let files = restore_dataset(&cluster, sizes);
        let mbps = timed_restore(&cluster, &files, false);
        if mbps > file_reference.0 {
            file_reference = (mbps, total);
        }
        let mbps = timed_restore(&cluster, &files, true);
        if mbps > file_pipelined.0 {
            file_pipelined = (mbps, total);
        }
        std::fs::remove_dir_all(&root).expect("scratch dir is removable");
    }
    for (name, (mbps, bytes), headline) in [
        ("restore_mem_reference_t1", mem_reference, false),
        ("restore_mem_t1", mem_pipelined, true),
        ("restore_file_reference_t1", file_reference, false),
        ("restore_file_t1", file_pipelined, true),
    ] {
        eprintln!("{}{name}: {mbps:.1} MB/s", sizes.prefix);
        metrics.push(Metric {
            name: format!("{}{name}", sizes.prefix),
            mbps,
            bytes,
            byte_basis: ByteBasis::LogicalRestored,
            headline,
        });
    }
    if file_reference.0 > 0.0 {
        eprintln!(
            "{}restore file-backend speedup vs reference: {:.2}x",
            sizes.prefix,
            file_pipelined.0 / file_reference.0
        );
    }
}

fn rebalance_config() -> SigmaConfig {
    SigmaConfig::builder()
        .super_chunk_size(64 * 1024)
        .container_capacity(256 * 1024)
        .build()
        .expect("valid bench config")
}

/// Node join then drain on a pre-populated cluster; physical container MB/s.
fn rebalance_suite(sizes: &Sizes, metrics: &mut Vec<Metric>) {
    let mut join_best = (0.0f64, 0u64);
    let mut leave_best = (0.0f64, 0u64);
    for _ in 0..sizes.reps {
        let cluster = Arc::new(DedupCluster::with_similarity_router(4, rebalance_config()));
        for stream in 0..sizes.rebalance_streams {
            let client = BackupClient::new(cluster.clone(), stream);
            let data = random_bytes(sizes.rebalance_stream_bytes, 0xBA1A + stream);
            client
                .backup_bytes(&format!("stream-{stream}"), &data)
                .expect("payload backup cannot fail");
        }
        cluster.flush();
        let sw = Stopwatch::start();
        let (join_id, join) = cluster.add_node_rebalanced().expect("no faults in bench");
        let join_tp = sw.stop(join.bytes_moved);
        assert!(join.bytes_moved > 0, "join must migrate data");
        if join_tp.mb_per_sec() > join_best.0 {
            join_best = (join_tp.mb_per_sec(), join.bytes_moved);
        }
        let sw = Stopwatch::start();
        let leave = cluster.remove_node(join_id).expect("node is active");
        let leave_tp = sw.stop(leave.bytes_moved);
        assert!(leave.bytes_moved > 0, "drain must migrate data");
        if leave_tp.mb_per_sec() > leave_best.0 {
            leave_best = (leave_tp.mb_per_sec(), leave.bytes_moved);
        }
    }
    for (name, (mbps, bytes)) in [
        ("rebalance_join", join_best),
        ("rebalance_leave", leave_best),
    ] {
        eprintln!("{}{name}: {mbps:.1} MB/s", sizes.prefix);
        metrics.push(Metric {
            name: format!("{}{name}", sizes.prefix),
            mbps,
            bytes,
            byte_basis: ByteBasis::PhysicalMoved,
            headline: true,
        });
    }
}

fn recover_config() -> SigmaConfig {
    SigmaConfig::builder()
        .super_chunk_size(64 * 1024)
        .container_capacity(256 * 1024)
        .durability(true)
        .build()
        .expect("valid bench config")
}

/// Ingests `bytes` of payload on a durable node and returns the medium a
/// crash would leave behind — journal and container objects — optionally
/// after compacting the journal.
fn crash_image(config: &SigmaConfig, bytes: usize, compacted: bool) -> MemoryBackend {
    let node = DedupNode::new(0, config);
    let client_chunks: Vec<Vec<u8>> = random_bytes(bytes, 0x4EC0)
        .chunks(4096)
        .map(<[u8]>::to_vec)
        .collect();
    for (i, window) in client_chunks.chunks(16).enumerate() {
        let sc = SuperChunk::from_payloads(FingerprintAlgorithm::Sha1, i as u64, window.to_vec());
        node.process_super_chunk(0, &sc, &sc.handprint(8))
            .expect("payload ingest cannot fail");
    }
    node.try_flush().expect("no faults in bench");
    if compacted {
        node.compact_journal().expect("no faults in bench");
    }
    let journal = node.journal().expect("durable node has a journal");
    MemoryBackend::copy_of(journal.backend().as_ref()).expect("in-memory medium")
}

/// Recovery from a raw vs. a compacted journal; MB/s of container bytes the
/// recovered node serves again, a basis the journal's layout cannot move.
fn recover_suite(sizes: &Sizes, metrics: &mut Vec<Metric>) {
    let config = recover_config();
    for (name, compacted) in [("recover_raw", false), ("recover_compacted", true)] {
        let image = crash_image(&config, sizes.recover_payload_bytes, compacted);
        let mut bytes = 0;
        let mbps = best_of(sizes.reps, || {
            let medium = MemoryBackend::copy_of(&image).expect("in-memory medium");
            let sw = Stopwatch::start();
            let journal = Arc::new(Journal::open(Arc::new(medium)).expect("in-memory journal"));
            let (node, report) =
                DedupNode::recover(0, &config, journal).expect("recovery cannot fail");
            bytes = node.storage_usage();
            let tp = sw.stop(bytes);
            assert!(report.containers_recovered > 0);
            std::hint::black_box(node);
            tp.mb_per_sec()
        });
        eprintln!("{}{name}: {mbps:.1} MB/s", sizes.prefix);
        metrics.push(Metric {
            name: format!("{}{name}", sizes.prefix),
            mbps,
            bytes,
            byte_basis: ByteBasis::PhysicalRecovered,
            headline: true,
        });
    }
}

/// A unique scratch directory for one file-backend pass, removed afterwards.
fn file_scratch() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sigma-bench-file-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .expect("clock after the epoch")
            .as_nanos()
    ));
    std::fs::create_dir_all(&dir).expect("scratch dir is creatable");
    dir
}

fn file_config(root: &std::path::Path) -> SigmaConfig {
    SigmaConfig::builder()
        .parallelism(1)
        .chunker(ingest_chunker_params())
        .file_storage(root)
        .build()
        .expect("valid bench config")
}

/// Real-file backend: the payload ingest against actual `journal.wal` +
/// container files (every flush an fsync), then a full process-restart
/// recovery — both nodes re-opened from nothing but their directories with
/// [`DedupNode::recover_from_dir`].  Non-headline: fsync latency on shared CI
/// runners varies with the host's storage, which the CPU-bound calibration
/// cannot normalize away; the figures are tracked, not gated.
fn file_suite(sizes: &Sizes, metrics: &mut Vec<Metric>) {
    let streams = payload_streams(sizes);
    let total: u64 = streams.iter().map(|s| s.data.len() as u64).sum();
    let mut ingest_best = 0.0f64;
    let mut recover_best = (0.0f64, 0u64);
    for _ in 0..sizes.reps {
        let root = file_scratch();
        let config = file_config(&root);
        {
            let cluster = Arc::new(DedupCluster::with_similarity_router(2, config.clone()));
            let pipeline = IngestPipeline::new(cluster.clone());
            let sw = Stopwatch::start();
            pipeline
                .backup_streams(streams.clone())
                .expect("payload ingest cannot fail");
            cluster.flush();
            ingest_best = ingest_best.max(sw.stop(total).mb_per_sec());
        } // every in-memory handle dropped; only the directories remain
        let sw = Stopwatch::start();
        let mut recovered = 0u64;
        for id in 0..2 {
            let (node, report) =
                DedupNode::recover_from_dir(id, &config).expect("directory is recoverable");
            recovered += node.storage_usage();
            std::hint::black_box((node, report));
        }
        let tp = sw.stop(recovered);
        if tp.mb_per_sec() > recover_best.0 {
            recover_best = (tp.mb_per_sec(), recovered);
        }
        std::fs::remove_dir_all(&root).expect("scratch dir is removable");
    }
    eprintln!("{}ingest_file_t1: {ingest_best:.1} MB/s", sizes.prefix);
    metrics.push(Metric {
        name: format!("{}ingest_file_t1", sizes.prefix),
        mbps: ingest_best,
        bytes: total,
        byte_basis: ByteBasis::LogicalPreDedup,
        headline: false,
    });
    eprintln!("{}recover_file: {:.1} MB/s", sizes.prefix, recover_best.0);
    metrics.push(Metric {
        name: format!("{}recover_file", sizes.prefix),
        mbps: recover_best.0,
        bytes: recover_best.1,
        byte_basis: ByteBasis::PhysicalRecovered,
        headline: false,
    });
}

fn gc_config() -> SigmaConfig {
    // Threshold 1.0 compacts every container holding any dead byte, so the
    // sweep reclaims all expired space deterministically — a stable basis for
    // the trajectory gate (lower thresholds reclaim an amount that depends on
    // how dead chunks happen to cluster into containers).
    SigmaConfig::builder()
        .super_chunk_size(64 * 1024)
        .container_capacity(256 * 1024)
        .gc_liveness_threshold(1.0)
        .build()
        .expect("valid bench config")
}

/// Mark-and-sweep over a cluster with expired generations; MB/s of physical
/// bytes reclaimed.
fn gc_suite(sizes: &Sizes, metrics: &mut Vec<Metric>) {
    let mut best = (0.0f64, 0u64);
    for _ in 0..sizes.reps {
        let cluster = Arc::new(DedupCluster::with_similarity_router(4, gc_config()));
        for stream in 0..sizes.gc_streams {
            let dataset = generational_payloads(GenerationalPayloadParams {
                seed: 0x6C_0DE ^ stream,
                generations: sizes.gc_generations,
                initial_size: sizes.gc_stream_bytes,
                mutation_rate: 0.2,
                growth_per_generation: sizes.gc_stream_bytes / 16,
            });
            for (generation, (name, data)) in dataset.iter().enumerate() {
                let client =
                    BackupClient::with_generation(cluster.clone(), stream, generation as u64);
                client
                    .backup_bytes(name, data)
                    .expect("payload backup cannot fail");
            }
        }
        cluster.flush();
        for generation in 0..sizes.gc_expire {
            cluster
                .delete_generation(generation)
                .expect("generation exists");
        }
        let sw = Stopwatch::start();
        let gc = cluster.collect_garbage().expect("no faults in bench");
        let tp = sw.stop(gc.bytes_reclaimed);
        assert!(gc.bytes_reclaimed > 0, "expiry must reclaim space");
        if tp.mb_per_sec() > best.0 {
            best = (tp.mb_per_sec(), gc.bytes_reclaimed);
        }
    }
    eprintln!("{}gc_reclaim: {:.1} MB/s", sizes.prefix, best.0);
    metrics.push(Metric {
        name: format!("{}gc_reclaim", sizes.prefix),
        mbps: best.0,
        bytes: best.1,
        byte_basis: ByteBasis::PhysicalReclaimed,
        headline: true,
    });
}

/// End-to-end multi-tenant storm through the full six-layer service stack
/// (auth, admission, quota, rate-limit, DRR fair scheduler, logging) into a
/// real cluster: generational ingest with a hot tenant, churn (delete + GC)
/// racing mid-churn restores, final byte-for-byte verification.  MB/s of the
/// live logical bytes the deterministic dataset leaves behind, over the whole
/// scenario.  Non-headline: the storm runs one thread per client, so absolute
/// MB/s depends on host core count the way the multi-thread ingest numbers do.
fn tenant_suite(sizes: &Sizes, metrics: &mut Vec<Metric>) {
    let config = TenantStormConfig {
        tenants: sizes.storm_tenants,
        clients_per_tenant: sizes.storm_clients_per_tenant,
        hot_tenant_extra_clients: sizes.storm_hot_extra,
        generations: sizes.storm_generations,
        initial_payload_bytes: sizes.storm_payload_bytes,
        growth_per_generation: sizes.storm_payload_bytes / 8,
        // No service-time floor: this metric is stack + cluster throughput,
        // not the fairness measurement (which needs the floor and lives in
        // the tenant_storm tests and CI job).
        service_time_us: 0,
        ..TenantStormConfig::default()
    };
    let mut best = (0.0f64, 0u64);
    for _ in 0..sizes.reps {
        let sw = Stopwatch::start();
        let report = run_tenant_storm(&config);
        let tp = sw.stop(report.cluster_logical_bytes);
        assert!(
            report.isolation_holds() && report.partition_holds() && report.accounting_consistent,
            "storm isolation must hold in the bench run"
        );
        if tp.mb_per_sec() > best.0 {
            best = (tp.mb_per_sec(), report.cluster_logical_bytes);
        }
    }
    eprintln!("{}tenant_storm: {:.1} MB/s", sizes.prefix, best.0);
    metrics.push(Metric {
        name: format!("{}tenant_storm", sizes.prefix),
        mbps: best.0,
        bytes: best.1,
        byte_basis: ByteBasis::LogicalPreDedup,
        headline: false,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_is_positive() {
        assert!(calibrate() > 0.0);
    }

    #[test]
    fn quick_run_produces_every_expected_metric() {
        let report = run(&RunnerOptions {
            quick: true,
            label: "test".to_string(),
        });
        assert_eq!(report.mode, "quick");
        assert!(report.calibration_mbps > 0.0);
        assert!(report.ingest_speedup_vs_reference > 0.0);
        for name in [
            "quick/ingest_payload_t1",
            "quick/ingest_payload_t4",
            "quick/ingest_payload_reference_t1",
            "quick/ingest_trace_t1",
            "quick/restore_mem_reference_t1",
            "quick/restore_mem_t1",
            "quick/restore_file_reference_t1",
            "quick/restore_file_t1",
            "quick/rebalance_join",
            "quick/rebalance_leave",
            "quick/recover_raw",
            "quick/recover_compacted",
            "quick/ingest_file_t1",
            "quick/recover_file",
            "quick/gc_reclaim",
            "quick/tenant_storm",
        ] {
            let metric = report.metric(name).unwrap_or_else(|| {
                panic!("metric {name} missing from quick report");
            });
            assert!(metric.mbps > 0.0, "{name} must measure a positive rate");
            assert!(metric.bytes > 0, "{name} must cover bytes");
        }
        // The quick report round-trips through the persisted JSON form.
        let parsed = BenchReport::from_json(&report.to_json()).expect("report parses");
        assert_eq!(parsed, report);
    }
}

//! Property tests for durability and crash recovery.
//!
//! Properties over deterministically generated workloads:
//!
//! * **boundary sweep** — for a random single-node workload with flush
//!   (acknowledgement) points, kill the node at *every* journal-record boundary
//!   and recover from the whole medium as it stood there: the journal prefix
//!   plus every container object written or deleted by then, taken both at
//!   the first and at the last instant the journal had that length.  Every
//!   super-chunk acknowledged before the boundary must read back byte-identical,
//!   and physical bytes must be conserved or strictly reduced — the torn tail is
//!   discarded, never duplicated.  Every acknowledgement offset must be one
//!   the journal was fsynced at.
//! * **power-cut sweep** — the same kills, but the journal survives only up
//!   to its last fsync (unsynced frames are lost): every acknowledged round
//!   still reads back byte-identical, and the lost frames are unacknowledged
//!   ones (similarity hints, rollover seals), so the recovered node is the
//!   one a process crash at the last fsync leaves, plus the lost seals'
//!   objects, swept as orphans.
//! * **torn tail** — a cut *inside* a frame (plus a corrupted tail byte) must
//!   recover to exactly the state of the last complete boundary before it.
//! * **object/record window** — orphan objects written before their record are
//!   swept, and a record whose object was removed, truncated or bit-flipped
//!   discards exactly that container, index entries and all.
//! * **mid-rebalance kills** — on a cluster draining a node, arm an in-band
//!   crash at every journal append the drain performs (source tombstones and
//!   destination adopts alike), recover, resume the drain, and verify that no
//!   container was lost or duplicated and every acknowledged file restores
//!   byte-identically through an intact tombstone chain.
//!
//! On failure, the medium under test is left in `target/fault-artifacts/<case>/`
//! as a node directory (`node-0/journal.wal` + `container-<id>.sc`) that
//! `DedupNode::open` reopens on a `FileBackend` over it (the CI `faults` job
//! uploads them);
//! on success the artifacts are removed.
//! `SIGMA_FAULT_SEED` perturbs the workload seeds so a CI seed matrix explores
//! different workloads with the same deterministic harness.

use proptest::prelude::*;
use sigma_dedupe::prelude::*;
use sigma_dedupe::storage::{
    ContainerBuilder, Result as StorageResult, StorageObject, CONTAINER_BLOB_DATA_OFFSET,
};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// Extra seed from the environment so a CI matrix varies the workloads.
fn env_seed() -> u64 {
    std::env::var("SIGMA_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

fn durable_config() -> SigmaConfig {
    SigmaConfig::builder()
        .super_chunk_size(4 * 1024)
        .chunker(ChunkerParams::fixed(512))
        .container_capacity(8 * 1024)
        .cache_containers(4)
        .build()
        .expect("valid test config")
}

/// Deterministic pseudo-random payload, perturbed by `SIGMA_FAULT_SEED`.
fn payload(len: usize, seed: u64) -> Vec<u8> {
    let mut state = (seed ^ env_seed().wrapping_mul(0x9E37_79B9)).wrapping_mul(0x2545_F491) | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 32) as u8
        })
        .collect()
}

// ---- failure artifacts ----

fn artifact_dir(name: &str) -> PathBuf {
    PathBuf::from("target/fault-artifacts").join(name)
}

/// Saves the medium a case is recovering from as a node directory; `clear`
/// removes it once the case passed, so a failed run leaves exactly the
/// failing image.
fn save_artifact(name: &str, medium: &dyn StorageBackend) {
    let dir = artifact_dir(name).join("node-0");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("artifact dir is creatable");
    for obj in medium.list().expect("in-memory medium") {
        let bytes = medium.read_all(obj).expect("in-memory medium");
        std::fs::write(dir.join(obj.file_name()), bytes).expect("artifact is writable");
    }
}

fn clear_artifact(name: &str) {
    let _ = std::fs::remove_dir_all(artifact_dir(name));
}

// ---- the medium at a crash point ----

/// A [`StorageBackend`] over a [`MemoryBackend`] that keeps the history of its
/// container objects — every write and delete, stamped with the journal's
/// length at that moment — and the journal's length after every append to it
/// and at every fsync of it.  The journal only grows during a forward run, so
/// the medium a crash left behind when `cut` journal bytes were durable is the
/// journal prefix plus that history replayed up to the cut.
#[derive(Debug, Default)]
struct RecordingBackend {
    inner: MemoryBackend,
    history: Mutex<Vec<ObjectEvent>>,
    appended: Mutex<Vec<usize>>,
    synced: Mutex<Vec<usize>>,
}

/// One container-object write (`Some(bytes)`) or delete (`None`), stamped
/// with the journal length at that moment.
type ObjectEvent = (usize, StorageObject, Option<Vec<u8>>);

impl RecordingBackend {
    fn journal_len(&self) -> usize {
        self.inner
            .object_len(StorageObject::Journal)
            .unwrap()
            .unwrap_or(0) as usize
    }

    fn log(&self, obj: StorageObject, bytes: Option<&[u8]>) {
        if let StorageObject::Container(_) = obj {
            let at = self.journal_len();
            self.history
                .lock()
                .unwrap()
                .push((at, obj, bytes.map(<[u8]>::to_vec)));
        }
    }

    /// The durable journal length when a power cut hits at `cut`: the
    /// journal's length at its last fsync up to there.
    fn last_sync_before(&self, cut: usize) -> usize {
        let synced = self.synced.lock().unwrap();
        synced
            .iter()
            .copied()
            .filter(|&len| len <= cut)
            .max()
            .unwrap_or(0)
    }

    /// The medium as it stood with `cut` journal bytes durable: at the first
    /// instant the journal had that length (`late == false`, right after the
    /// append that reached it) or at the last (just before the next append,
    /// every object written or deleted in between included).
    fn medium_at(&self, cut: usize, late: bool) -> MemoryBackend {
        let medium = MemoryBackend::new();
        let journal = self.inner.read_all(StorageObject::Journal).unwrap();
        medium
            .write_object(StorageObject::Journal, &journal[..cut])
            .unwrap();
        for (at, obj, bytes) in self.history.lock().unwrap().iter() {
            if *at > cut || (*at == cut && !late) {
                break;
            }
            match bytes {
                Some(bytes) => medium.write_object(*obj, bytes).unwrap(),
                None => medium.delete(*obj).unwrap(),
            }
        }
        medium
    }
}

/// Container objects on a medium.
fn container_objects(medium: &MemoryBackend) -> usize {
    let objects = medium.list().unwrap();
    objects
        .iter()
        .filter(|obj| matches!(obj, StorageObject::Container(_)))
        .count()
}

impl StorageBackend for RecordingBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Memory
    }
    fn append(&self, obj: StorageObject, bytes: &[u8]) -> StorageResult<u64> {
        let offset = self.inner.append(obj, bytes)?;
        if obj == StorageObject::Journal {
            self.appended.lock().unwrap().push(self.journal_len());
        }
        Ok(offset)
    }
    fn write_object(&self, obj: StorageObject, bytes: &[u8]) -> StorageResult<()> {
        self.log(obj, Some(bytes));
        self.inner.write_object(obj, bytes)
    }
    fn read_all(&self, obj: StorageObject) -> StorageResult<Vec<u8>> {
        self.inner.read_all(obj)
    }
    fn read_at(&self, obj: StorageObject, offset: u64, len: usize) -> StorageResult<Vec<u8>> {
        self.inner.read_at(obj, offset, len)
    }
    fn object_len(&self, obj: StorageObject) -> StorageResult<Option<u64>> {
        self.inner.object_len(obj)
    }
    fn truncate(&self, obj: StorageObject, len: u64) -> StorageResult<()> {
        self.inner.truncate(obj, len)
    }
    fn fsync(&self, obj: StorageObject) -> StorageResult<()> {
        if obj == StorageObject::Journal {
            let len = self.journal_len();
            self.synced.lock().unwrap().push(len);
        }
        self.inner.fsync(obj)
    }
    fn delete(&self, obj: StorageObject) -> StorageResult<()> {
        self.log(obj, None);
        self.inner.delete(obj)
    }
    fn list(&self) -> StorageResult<Vec<StorageObject>> {
        self.inner.list()
    }
}

/// A fresh node whose journal and containers live on a [`RecordingBackend`].
fn recorded_node(config: &SigmaConfig) -> (DedupNode, Arc<RecordingBackend>) {
    let medium = Arc::new(RecordingBackend::default());
    let (node, _) = DedupNode::open(0, config, medium.clone()).expect("empty medium");
    (node, medium)
}

/// Recovers node 0 from a crash image.
fn recover_from(config: &SigmaConfig, medium: MemoryBackend) -> (DedupNode, RecoveryReport) {
    DedupNode::open(0, config, Arc::new(medium)).expect("recoverable medium")
}

/// Opens node 0 on its directory under `config`, as a new process would.
fn open_dir(config: &SigmaConfig) -> Result<(DedupNode, RecoveryReport), SigmaError> {
    let dir = config.node_storage_dir(0).expect("file backend has a dir");
    let medium = FileBackend::open(dir).expect("node directory opens");
    DedupNode::open(0, config, Arc::new(medium))
}

// ---- boundary sweep ----

/// One acknowledged round: the super-chunks flushed together, with the journal
/// frame count at the acknowledgement point.
struct AckedRound {
    super_chunks: Vec<SuperChunk>,
    /// Journal byte offset of the acknowledgement (all frames ≤ this offset).
    ack_offset: usize,
}

/// Runs `rounds` of super-chunks (each entry a chunk length) through a fresh
/// recorded node over `stream_count` streams, flushing after every round.
fn run_acked_rounds(
    config: &SigmaConfig,
    rounds: &[Vec<usize>],
    stream_count: u64,
) -> (DedupNode, Arc<RecordingBackend>, Vec<AckedRound>) {
    let (node, medium) = recorded_node(config);
    let journal = node.journal().clone();
    let mut acked: Vec<AckedRound> = Vec::new();
    for (round_no, round) in rounds.iter().enumerate() {
        let mut super_chunks = Vec::new();
        for (sc_no, &chunk_len) in round.iter().enumerate() {
            let chunks = 1 + chunk_len % 5;
            let payloads: Vec<Vec<u8>> = (0..chunks)
                .map(|i| payload(chunk_len, (round_no * 1000 + sc_no * 10 + i) as u64))
                .collect();
            let stream = (sc_no as u64) % stream_count;
            let sc = SuperChunk::from_payloads(FingerprintAlgorithm::Sha1, 0, payloads);
            node.process_super_chunk(stream, &sc.view(), &sc.handprint(4))
                .unwrap();
            super_chunks.push(sc);
        }
        node.try_flush().unwrap();
        acked.push(AckedRound {
            super_chunks,
            ack_offset: journal.len_bytes(),
        });
    }
    (node, medium, acked)
}

/// Fails unless every super-chunk of every round acknowledged at or before
/// `cut` reads back byte-identically from `recovered`.
fn check_acked_rounds(recovered: &DedupNode, acked: &[AckedRound], cut: usize) {
    for round in acked.iter().filter(|r| r.ack_offset <= cut) {
        for sc in &round.super_chunks {
            for (i, d) in sc.descriptors().iter().enumerate() {
                assert_eq!(
                    recovered.read_chunk(&d.fingerprint).unwrap(),
                    sc.payload(i).unwrap().to_vec(),
                    "acked chunk must survive a crash at offset {}",
                    cut
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Recovery at every journal-record boundary restores exactly the
    /// acknowledged prefix of the workload.
    #[test]
    fn recovery_at_every_boundary_restores_acked_data(
        rounds in proptest::collection::vec(
            proptest::collection::vec(64usize..1500, 1..4),
            1..4,
        ),
        stream_count in 1u64..3,
    ) {
        let config = durable_config();
        let (node, medium, acked) = run_acked_rounds(&config, &rounds, stream_count);
        let journal = node.journal().clone();
        for round in &acked {
            prop_assert_eq!(
                medium.last_sync_before(round.ack_offset),
                round.ack_offset,
                "the acknowledgement must be fsynced"
            );
        }

        let boundaries = journal.frame_boundaries();
        let final_physical = node.storage_usage();
        let mut last_physical = 0u64;
        // Boundary 0 (empty journal) plus after every complete frame, each at
        // the first and the last instant the journal stood there.
        for (cut, late) in std::iter::once(0)
            .chain(boundaries.iter().copied())
            .flat_map(|cut| [(cut, false), (cut, true)])
        {
            let image = medium.medium_at(cut, late);
            save_artifact("boundary-sweep", &image);
            let objects = container_objects(&image);
            let (recovered, report) = recover_from(&config, image);
            prop_assert_eq!(report.bytes_discarded, 0, "cuts are at boundaries");
            prop_assert_eq!(report.containers_discarded, 0, "every record's object is durable");
            prop_assert_eq!(
                report.orphan_objects_swept as usize,
                objects - recovered.sealed_container_ids().len(),
                "objects written ahead of their record are swept"
            );
            // Acknowledged super-chunks are served byte-identically.
            check_acked_rounds(&recovered, &acked, cut);
            // Conserved or strictly reduced — never duplicated.
            let physical = recovered.storage_usage();
            prop_assert!(physical <= final_physical);
            prop_assert!(physical >= last_physical, "replay is monotone over the log");
            last_physical = physical;
            recovered.verify_consistency().unwrap();
        }
        prop_assert_eq!(last_physical, final_physical, "full replay loses nothing");
        clear_artifact("boundary-sweep");
    }

    /// A power cut at every length the journal stood at between two appends
    /// (a group commit's inner frame boundaries never reach the medium on
    /// their own): the journal survives up to its last fsync, every container
    /// object written by then survives (object writes are durable when they
    /// return).  Acknowledged rounds read back byte-identically, and the
    /// frames the cut lost are unacknowledged ones — similarity hints and
    /// rollover seals: the node recovers as a process crash at the journal's
    /// last fsync would, short of the objects of the lost seals, which it
    /// sweeps as orphans.
    #[test]
    fn power_cut_at_every_boundary_loses_only_unacknowledged_frames(
        rounds in proptest::collection::vec(
            proptest::collection::vec(64usize..1500, 1..4),
            1..4,
        ),
        stream_count in 1u64..3,
    ) {
        let config = durable_config();
        let (node, medium, acked) = run_acked_rounds(&config, &rounds, stream_count);
        let journal = node.journal().clone();
        let bytes = journal.bytes();
        let appended = medium.appended.lock().unwrap().clone();
        let mut hints_lost = 0;
        for (cut, late) in std::iter::once(0)
            .chain(appended)
            .flat_map(|cut| [(cut, false), (cut, true)])
        {
            let synced = medium.last_sync_before(cut);
            let (written, _) = Journal::replay(&bytes[..cut]).unwrap();
            let (kept, _) = Journal::replay(&bytes[..synced]).unwrap();
            for lost in &written[kept.len()..] {
                prop_assert!(lost.defers_sync(), "a {} frame was never fsynced", lost.kind());
                hints_lost += 1;
            }

            let image = medium.medium_at(cut, late);
            image.truncate(StorageObject::Journal, synced as u64).unwrap();
            save_artifact("power-cut-sweep", &image);
            let (recovered, report) = recover_from(&config, image);
            let (crashed, crash_report) = recover_from(&config, medium.medium_at(synced, late));
            prop_assert_eq!(report.bytes_discarded, 0, "fsyncs land on frame boundaries");
            prop_assert_eq!(report.containers_discarded, 0, "every record's object is durable");
            check_acked_rounds(&recovered, &acked, cut);
            prop_assert_eq!(recovered.sealed_container_ids(), crashed.sealed_container_ids());
            let counters = |n: &DedupNode| {
                let s = n.stats();
                (s.logical_bytes, s.physical_bytes, s.total_chunks, s.unique_chunks, s.super_chunks)
            };
            prop_assert_eq!(counters(&recovered), counters(&crashed));
            prop_assert_eq!(report.chunks_indexed, crash_report.chunks_indexed);
            prop_assert_eq!(report.similarity_entries, crash_report.similarity_entries);
            prop_assert!(report.orphan_objects_swept >= crash_report.orphan_objects_swept);
            recovered.verify_consistency().unwrap();
        }
        prop_assert!(hints_lost > 0, "every round publishes a hint before its ack");
        clear_artifact("power-cut-sweep");
    }

    /// Boundary sweep over a journal that ends in garbage-collection records:
    /// recovery at every boundary is consistent, survivors stay readable from
    /// their acknowledgement on, and the final boundary reproduces the post-GC
    /// state exactly — collected chunks can neither resurrect (physical bytes
    /// monotonically *decrease* over the GC suffix) nor take survivors with
    /// them.
    #[test]
    fn recovery_at_gc_record_boundaries_converges(
        rounds in proptest::collection::vec(
            proptest::collection::vec(64usize..1200, 1..4),
            2..5,
        ),
        survivor_mask in 0u64..u64::MAX,
        threshold in 0.3f64..1.0,
    ) {
        let config = SigmaConfig::builder()
            .super_chunk_size(4 * 1024)
            .chunker(ChunkerParams::fixed(512))
            .container_capacity(8 * 1024)
            .cache_containers(4)
            .gc_liveness_threshold(threshold)
            .build()
            .expect("valid test config");
        let (node, medium) = recorded_node(&config);
        let journal = node.journal().clone();

        // Acknowledged ingest: every round flushed.
        let mut all: Vec<SuperChunk> = Vec::new();
        for (round_no, round) in rounds.iter().enumerate() {
            for (sc_no, &chunk_len) in round.iter().enumerate() {
                let payloads: Vec<Vec<u8>> = (0..1 + chunk_len % 4)
                    .map(|i| payload(chunk_len, (90_000 + round_no * 1000 + sc_no * 10 + i) as u64))
                    .collect();
                let sc = SuperChunk::from_payloads(FingerprintAlgorithm::Sha1, 0, payloads);
                node.process_super_chunk((sc_no % 2) as u64, &sc.view(), &sc.handprint(4)).unwrap();
                all.push(sc);
            }
            node.try_flush().unwrap();
        }
        let ingest_end = journal.len_bytes();

        // Retention: a random subset of super-chunks survives; the rest are
        // "deleted backups" whose chunks become garbage.  Survivor chunks are
        // marked at the container the index resolves them to — exactly what the
        // cluster mark phase hands the node.
        let survivors: Vec<&SuperChunk> = all
            .iter()
            .enumerate()
            .filter(|(i, _)| survivor_mask & (1 << (i % 63)) != 0)
            .map(|(_, sc)| sc)
            .collect();
        let mut live: std::collections::HashMap<
            ContainerId,
            std::collections::HashSet<Fingerprint>,
        > = std::collections::HashMap::new();
        for sc in &survivors {
            for d in sc.descriptors() {
                let loc = node.chunk_location(&d.fingerprint).expect("acked chunk is indexed");
                live.entry(loc.container).or_default().insert(d.fingerprint);
            }
        }
        node.note_recipe_deleted(0xDEAD);
        node.sweep_garbage(&live, threshold).unwrap();
        let physical_after_gc = node.storage_usage();

        let boundaries = journal.frame_boundaries();
        let mut last_physical: Option<u64> = None;
        for (cut, late) in boundaries
            .iter()
            .copied()
            .filter(|&b| b >= ingest_end)
            .flat_map(|cut| [(cut, false), (cut, true)])
        {
            let image = medium.medium_at(cut, late);
            save_artifact("gc-boundary-sweep", &image);
            let (recovered, report) = recover_from(&config, image);
            prop_assert_eq!(report.bytes_discarded, 0, "cuts are at boundaries");
            prop_assert_eq!(report.containers_discarded, 0, "every record's object is durable");
            // Survivors are acked before the GC window: readable at every cut.
            for sc in &survivors {
                for (i, d) in sc.descriptors().iter().enumerate() {
                    prop_assert_eq!(
                        recovered.read_chunk(&d.fingerprint).unwrap(),
                        sc.payload(i).unwrap().to_vec(),
                        "live chunk lost at offset {}", cut
                    );
                }
            }
            // Over the GC suffix physical bytes only ever shrink: a replayed
            // drop/compact cannot resurrect collected data.
            let physical = recovered.storage_usage();
            if let Some(last) = last_physical {
                prop_assert!(physical <= last, "GC replay must be monotone decreasing");
            }
            prop_assert!(physical >= physical_after_gc);
            last_physical = Some(physical);
            recovered.verify_consistency().unwrap();
        }
        prop_assert_eq!(
            last_physical.expect("at least the pre-GC boundary exists"),
            physical_after_gc,
            "full replay converges to the post-GC state"
        );
        clear_artifact("gc-boundary-sweep");
    }

    /// A torn or corrupted tail recovers to the last complete boundary — the
    /// torn suffix is discarded wholesale, never half-applied.
    #[test]
    fn torn_tails_recover_to_the_previous_boundary(
        chunk_lens in proptest::collection::vec(64usize..1200, 4..16),
        cut_fraction in 0.05f64..0.95,
    ) {
        let config = durable_config();
        let (node, medium) = recorded_node(&config);
        for (i, &len) in chunk_lens.iter().enumerate() {
            let sc = SuperChunk::from_payloads(
                FingerprintAlgorithm::Sha1,
                0,
                vec![payload(len, 5000 + i as u64)],
            );
            node.process_super_chunk(0, &sc.view(), &sc.handprint(2)).unwrap();
        }
        node.try_flush().unwrap();
        let journal = node.journal();
        let bytes = journal.bytes();
        let boundaries = journal.frame_boundaries();

        // A cut strictly inside some frame.
        let cut = ((bytes.len() as f64 * cut_fraction) as usize).clamp(1, bytes.len() - 1);
        let reference_cut = boundaries
            .iter()
            .copied()
            .take_while(|&b| b <= cut)
            .last()
            .unwrap_or(0);
        save_artifact("torn-tail", &medium.medium_at(cut, true));

        // The torn append was in flight: every object written before it is
        // on the medium, the torn frame's own included.
        let (torn, torn_report) = recover_from(&config, medium.medium_at(cut, true));
        let (reference, _) = recover_from(&config, medium.medium_at(reference_cut, true));
        prop_assert_eq!(torn_report.bytes_discarded as usize, cut - reference_cut);
        prop_assert_eq!(torn.storage_usage(), reference.storage_usage());
        prop_assert_eq!(torn.sealed_container_ids(), reference.sealed_container_ids());
        torn.verify_consistency().unwrap();

        // Corrupting a byte of the tail frame is equivalent to tearing it.
        if cut < bytes.len() {
            let mut corrupt = bytes.clone();
            let target = reference_cut + (cut - reference_cut) / 2;
            corrupt.truncate(cut);
            if target < corrupt.len() {
                corrupt[target] ^= 0x5A;
                let image = medium.medium_at(cut, true);
                image.write_object(StorageObject::Journal, &corrupt).unwrap();
                let (after_corruption, _) = recover_from(&config, image);
                prop_assert!(after_corruption.storage_usage() <= reference.storage_usage());
                after_corruption.verify_consistency().unwrap();
            }
        }
        clear_artifact("torn-tail");
    }
}

// ---- file-backend boundary sweep ----

/// A unique scratch directory for one test case, removed on success.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sigma-{tag}-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    std::fs::create_dir_all(&dir).expect("scratch dir is creatable");
    dir
}

fn durable_file_config(root: &std::path::Path) -> SigmaConfig {
    SigmaConfig::builder()
        .super_chunk_size(4 * 1024)
        .chunker(ChunkerParams::fixed(512))
        .container_capacity(8 * 1024)
        .cache_containers(4)
        .file_storage(root)
        .build()
        .expect("valid test config")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The boundary sweep of `recovery_at_every_boundary_restores_acked_data`,
    /// re-run against the real-file backend: the node directory's actual
    /// `journal.wal` is truncated at every frame boundary (plus one cut strictly
    /// inside a frame), the node is reopened on the directory with
    /// [`DedupNode::open`], and the recovered state must match a
    /// volatile recovery from an in-memory copy of the same directory
    /// bit-for-bit — acked chunks byte-identical, same physical bytes, same
    /// report counters.
    #[test]
    fn file_backend_recovery_sweep_matches_volatile(
        rounds in proptest::collection::vec(
            proptest::collection::vec(64usize..1200, 1..4),
            1..4,
        ),
        cut_fraction in 0.05f64..0.95,
    ) {
        let root = scratch_dir("file-sweep");
        let config = durable_file_config(&root);

        // Drive the workload on a file-backed node; every round acknowledged.
        let mut acked: Vec<AckedRound> = Vec::new();
        {
            let node = DedupNode::new(0, &config);
            let journal = node.journal().clone();
            for (round_no, round) in rounds.iter().enumerate() {
                let mut super_chunks = Vec::new();
                for (sc_no, &chunk_len) in round.iter().enumerate() {
                    let payloads: Vec<Vec<u8>> = (0..1 + chunk_len % 5)
                        .map(|i| payload(chunk_len, (70_000 + round_no * 1000 + sc_no * 10 + i) as u64))
                        .collect();
                    let sc = SuperChunk::from_payloads(FingerprintAlgorithm::Sha1, 0, payloads);
                    node.process_super_chunk((sc_no % 2) as u64, &sc.view(), &sc.handprint(4)).unwrap();
                    super_chunks.push(sc);
                }
                node.try_flush().unwrap();
                acked.push(AckedRound { super_chunks, ack_offset: journal.len_bytes() });
            }
        }
        // The node and its journal handle are gone; only the directory remains.
        let node_dir = config.node_storage_dir(0).expect("file backend has a dir");
        let journal_path = node_dir.join("journal.wal");
        let bytes = std::fs::read(&journal_path).expect("journal file exists");
        let container_files: Vec<(std::ffi::OsString, Vec<u8>)> = std::fs::read_dir(&node_dir)
            .unwrap()
            .filter_map(|e| {
                let e = e.unwrap();
                let name = e.file_name();
                name.to_string_lossy()
                    .starts_with("container-")
                    .then(|| (name.clone(), std::fs::read(e.path()).unwrap()))
            })
            .collect();
        let boundaries = {
            let medium = MemoryBackend::new();
            medium.write_object(StorageObject::Journal, &bytes).unwrap();
            Journal::open(Arc::new(medium)).unwrap().frame_boundaries()
        };
        let torn_cut = ((bytes.len() as f64 * cut_fraction) as usize).clamp(1, bytes.len() - 1);

        for cut in std::iter::once(0)
            .chain(boundaries.iter().copied())
            .chain(std::iter::once(torn_cut))
        {
            // Simulate the crash against the real medium: the directory holds
            // every container file the full run produced (recovery must sweep
            // the orphans) and a journal truncated — possibly mid-frame — at
            // the kill point.
            let crash_root = scratch_dir("file-sweep-cut");
            let crash_config = durable_file_config(&crash_root);
            let crash_dir = crash_config.node_storage_dir(0).unwrap();
            std::fs::create_dir_all(&crash_dir).unwrap();
            for (name, data) in &container_files {
                std::fs::write(crash_dir.join(name), data).unwrap();
            }
            std::fs::write(crash_dir.join("journal.wal"), &bytes[..cut]).unwrap();
            let image = MemoryBackend::copy_of(&FileBackend::open(&crash_dir).unwrap()).unwrap();

            let (from_disk, disk_report) =
                open_dir(&crash_config).expect("directory is recoverable");
            let (volatile, volatile_report) = recover_from(&durable_config(), image);

            // Equivalence: the medium must be invisible to recovery.
            prop_assert_eq!(disk_report, volatile_report);
            prop_assert_eq!(from_disk.storage_usage(), volatile.storage_usage());
            prop_assert_eq!(from_disk.sealed_container_ids(), volatile.sealed_container_ids());

            // Acked data is served byte-identically off the real files.
            for round in acked.iter().filter(|r| r.ack_offset <= cut) {
                for sc in &round.super_chunks {
                    for (i, d) in sc.descriptors().iter().enumerate() {
                        prop_assert_eq!(
                            from_disk.read_chunk(&d.fingerprint).unwrap(),
                            sc.payload(i).unwrap().to_vec(),
                            "acked chunk must survive a file-backend crash at offset {}", cut
                        );
                    }
                }
            }
            // Consistency now includes the backend cross-check: on-disk
            // container bytes must equal the in-memory accounting, so the
            // orphan sweep must have removed containers from beyond the cut.
            from_disk.verify_consistency().unwrap();
            std::fs::remove_dir_all(&crash_root).unwrap();
        }
        std::fs::remove_dir_all(&root).unwrap();
    }
}

// ---- the object/record window ----

/// How a container object is damaged behind a durable record.
#[derive(Debug, Clone, Copy)]
enum Damage {
    Removed,
    Truncated,
    BitFlipped,
}

fn damage(medium: &MemoryBackend, obj: StorageObject, how: Damage) {
    let mut bytes = medium.read_all(obj).unwrap();
    match how {
        Damage::Removed => return medium.delete(obj).unwrap(),
        Damage::Truncated => {
            bytes.pop();
        }
        Damage::BitFlipped => bytes[CONTAINER_BLOB_DATA_OFFSET + 3] ^= 0x04,
    }
    medium.write_object(obj, &bytes).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Both sides of the window between a container's object and its journal
    /// record.  A crash after the object write but before the record — the
    /// late image at every boundary — sweeps the orphan and loses nothing
    /// acknowledged.  A record whose object was removed, truncated or
    /// bit-flipped discards exactly that container, counted in the report:
    /// no index entry points at it, the node is consistent, every other
    /// acknowledged chunk restores byte-identically, and a re-ingest of the
    /// lost chunks stores them anew instead of deduplicating against bytes
    /// the medium lost.
    #[test]
    fn object_record_window_sweep(
        rounds in proptest::collection::vec(
            proptest::collection::vec(64usize..1500, 1..4),
            1..4,
        ),
        how in 0usize..3,
    ) {
        let how = [Damage::Removed, Damage::Truncated, Damage::BitFlipped][how];
        let config = durable_config();
        let (node, medium) = recorded_node(&config);
        let journal = node.journal().clone();
        let mut acked: Vec<SuperChunk> = Vec::new();
        let mut ack_offsets = Vec::new();
        for (round_no, round) in rounds.iter().enumerate() {
            for (sc_no, &chunk_len) in round.iter().enumerate() {
                let payloads: Vec<Vec<u8>> = (0..1 + chunk_len % 5)
                    .map(|i| payload(chunk_len, (40_000 + round_no * 1000 + sc_no * 10 + i) as u64))
                    .collect();
                let sc = SuperChunk::from_payloads(FingerprintAlgorithm::Sha1, 0, payloads);
                node.process_super_chunk((sc_no % 2) as u64, &sc.view(), &sc.handprint(4)).unwrap();
                acked.push(sc);
            }
            node.try_flush().unwrap();
            ack_offsets.push((acked.len(), journal.len_bytes()));
        }

        // Side one: every boundary with the objects written ahead of its
        // next record on the medium.
        let mut orphans_seen = 0;
        for cut in std::iter::once(0).chain(journal.frame_boundaries()) {
            let image = medium.medium_at(cut, true);
            let objects = container_objects(&image);
            let (recovered, report) = recover_from(&config, image);
            prop_assert_eq!(
                report.orphan_objects_swept as usize,
                objects - recovered.sealed_container_ids().len()
            );
            orphans_seen += report.orphan_objects_swept;
            prop_assert_eq!(report.containers_discarded, 0);
            let durable = ack_offsets.iter().filter(|(_, at)| *at <= cut).map(|(n, _)| *n).max();
            for sc in &acked[..durable.unwrap_or(0)] {
                for (i, d) in sc.descriptors().iter().enumerate() {
                    prop_assert_eq!(recovered.read_chunk(&d.fingerprint).unwrap(), sc.payload(i).unwrap());
                }
            }
            recovered.verify_consistency().unwrap();
        }
        prop_assert!(orphans_seen > 0, "every seal opens the window once");

        // Side two: each container's object damaged behind its record.
        let full = medium.medium_at(journal.len_bytes(), true);
        let containers = node.sealed_container_ids();
        for &victim in &containers {
            let image = MemoryBackend::copy_of(&full).unwrap();
            damage(&image, StorageObject::Container(victim), how);
            let (recovered, report) = recover_from(&config, image);
            prop_assert_eq!(report.containers_discarded, 1, "{:?} container {}", how, victim);
            prop_assert_eq!(report.backend_objects_verified, containers.len() as u64 - 1);
            prop_assert_eq!(recovered.container_state(&victim), ContainerState::Absent);
            recovered.verify_consistency().unwrap();

            let mut lost = std::collections::HashSet::new();
            for sc in &acked {
                for (i, d) in sc.descriptors().iter().enumerate() {
                    if node.chunk_location(&d.fingerprint).unwrap().container == victim {
                        prop_assert!(recovered.chunk_location(&d.fingerprint).is_none());
                        prop_assert!(recovered.read_chunk(&d.fingerprint).is_err());
                        lost.insert(d.fingerprint);
                    } else {
                        prop_assert_eq!(
                            recovered.read_chunk(&d.fingerprint).unwrap(),
                            sc.payload(i).unwrap(),
                            "{:?} container {} took a foreign chunk with it", how, victim
                        );
                    }
                }
            }
            prop_assert!(!lost.is_empty());
            let stored: u64 = acked
                .iter()
                .map(|sc| recovered.process_super_chunk(0, &sc.view(), &sc.handprint(4)).unwrap().unique_chunks)
                .sum();
            prop_assert_eq!(stored, lost.len() as u64, "lost chunks are stored again");
            recovered.try_flush().unwrap();
            for sc in &acked {
                for (i, d) in sc.descriptors().iter().enumerate() {
                    prop_assert_eq!(recovered.read_chunk(&d.fingerprint).unwrap(), sc.payload(i).unwrap());
                }
            }
            recovered.verify_consistency().unwrap();
        }
    }
}

/// A journal frame that is whole — its checksum holds — but carries a record
/// this version cannot decode, followed by valid frames: recovery must refuse
/// it and leave the medium untouched, instead of truncating there and silently
/// dropping the acknowledged records after it.  The foreign payloads are an
/// unknown tag, a compaction snapshot (tag 14) laid out as the builds that
/// wrote one did, and the other retired refused tags 1, 4, 7 and 9.
#[test]
fn unreadable_journal_frame_is_refused_not_truncated() {
    // Each builds its payload from the records the node's journal holds.
    type ForeignPayload = fn(&[JournalRecord]) -> Vec<u8>;
    let foreign: [ForeignPayload; 6] = [
        |_| vec![0xEE, 1, 2, 3],
        retired_snapshot_payload,
        |_| vec![1],
        |_| vec![4],
        |_| vec![7],
        |_| vec![9],
    ];
    for foreign_payload in foreign {
        let root = scratch_dir("unreadable-frame");
        let config = durable_file_config(&root);
        let tag = {
            let node = DedupNode::new(0, &config);
            let sc =
                SuperChunk::from_payloads(FingerprintAlgorithm::Sha1, 0, vec![payload(900, 1)]);
            node.process_super_chunk(0, &sc.view(), &sc.handprint(2))
                .unwrap();
            node.try_flush().unwrap();
            let journal = node.journal();
            let (records, _) = Journal::replay(&journal.bytes()).unwrap();
            let payload = foreign_payload(&records);
            journal
                .backend()
                .append(
                    StorageObject::Journal,
                    &raw_frame(journal.next_seq(), &payload),
                )
                .unwrap();
            payload[0]
        };
        // Valid frames after the unreadable one.
        {
            let backend = Arc::new(FileBackend::open(config.node_storage_dir(0).unwrap()).unwrap());
            let journal = Journal::open(backend).unwrap();
            journal
                .append(&JournalRecord::RecipeDelete { file_id: 7 })
                .unwrap();
            journal
                .append(&JournalRecord::RecipeDelete { file_id: 8 })
                .unwrap();
        }
        let dir = config.node_storage_dir(0).unwrap();
        let before = snapshot_dir(&dir);
        match open_dir(&config) {
            Err(SigmaError::Storage(StorageError::UnreadableRecord { .. })) => {}
            Err(e) => panic!("tag {tag}: wrong error: {e}"),
            Ok(_) => panic!("tag {tag}: an unreadable frame must refuse recovery"),
        }
        assert_eq!(
            snapshot_dir(&dir),
            before,
            "tag {tag}: the medium is left untouched"
        );
        std::fs::remove_dir_all(&root).unwrap();
    }
}

/// The payload of a tag-14 frame, the compaction snapshot older builds wrote
/// in place of the whole log, for the node whose journal holds `records`:
/// `14 | next container ID u64`, its sealed containers (`u32` count, each
/// `0u8` for no adoption origin, then the summary as a seal record encodes
/// it), no further chunk entries, its similarity entries (`u32` count,
/// `(fingerprint, container u64)` each), no tombstones, and its last ingest
/// counters (four `u64`).
fn retired_snapshot_payload(records: &[JournalRecord]) -> Vec<u8> {
    let mut containers = Vec::new();
    let mut similarity = Vec::new();
    let mut counters = [0u64; 4];
    for record in records {
        match record {
            JournalRecord::ContainerSeal { container } => containers.push(container),
            JournalRecord::SimilarityPublish { container, rfps } => {
                similarity.extend(rfps.iter().map(|rfp| (*rfp, *container)));
            }
            JournalRecord::StatsCheckpoint {
                logical_bytes,
                total_chunks,
                unique_chunks,
                super_chunks,
            } => counters = [*logical_bytes, *total_chunks, *unique_chunks, *super_chunks],
            _ => {}
        }
    }
    assert!(!containers.is_empty(), "the node sealed a container");
    let next_id = containers.iter().map(|c| c.id.as_u64() + 1).max().unwrap();
    let mut out = vec![14u8];
    out.extend_from_slice(&next_id.to_le_bytes());
    out.extend_from_slice(&(containers.len() as u32).to_le_bytes());
    for container in containers {
        out.push(0);
        out.extend_from_slice(&container.id.as_u64().to_le_bytes());
        out.extend_from_slice(&container.logical_size.to_le_bytes());
        out.extend_from_slice(&container.data_len.to_le_bytes());
        out.extend_from_slice(container.checksum.as_bytes());
        out.extend_from_slice(&(container.meta.records.len() as u32).to_le_bytes());
        for record in &container.meta.records {
            out.extend_from_slice(record.fingerprint.as_bytes());
            out.extend_from_slice(&record.offset.to_le_bytes());
            out.extend_from_slice(&record.len.to_le_bytes());
        }
    }
    out.extend_from_slice(&0u32.to_le_bytes());
    out.extend_from_slice(&(similarity.len() as u32).to_le_bytes());
    for (rfp, container) in similarity {
        out.extend_from_slice(rfp.as_bytes());
        out.extend_from_slice(&container.as_u64().to_le_bytes());
    }
    out.extend_from_slice(&0u32.to_le_bytes());
    for counter in counters {
        out.extend_from_slice(&counter.to_le_bytes());
    }
    out
}

/// A whole journal frame around `payload`, written by hand: magic | payload
/// length | sequence | FNV-1a | payload.
fn raw_frame(seq: u64, payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::new();
    frame.extend_from_slice(&0x534A_524Eu32.to_le_bytes());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&seq.to_le_bytes());
    frame.extend_from_slice(&sigma_dedupe::hashkit::fnv1a_64(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// Every file in `dir` with its bytes, sorted by name.
fn snapshot_dir(dir: &std::path::Path) -> Vec<(std::ffi::OsString, Vec<u8>)> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (e.file_name(), std::fs::read(e.path()).unwrap())
        })
        .collect();
    files.sort();
    files
}

/// The chunks [`hand_built_directory`] stores.
fn hand_built_chunks() -> Vec<Vec<u8>> {
    (0..3).map(|seed| payload(1000, seed)).collect()
}

/// Writes one sealed container into node 0's directory under `config` the
/// way format version `version` lays it out — its object and the journal's
/// seal record beside it — and returns the container's ID.  Version 2 is
/// version 3's layout with the checksum taken over the whole data section
/// in one SHA-1, not over sixteen stripes.
///
/// With `finalize_cut: Some(cut)` the seal is followed by a tag-2 frame, as
/// older builds wrote after every seal: the container ID and its chunk-index
/// entries again, `(fingerprint, container, offset, len)` each, with the
/// last `cut` bytes of the payload left off (its checksum still holds).
fn hand_built_directory(
    config: &SigmaConfig,
    version: u8,
    finalize_cut: Option<usize>,
) -> ContainerId {
    let backend = Arc::new(FileBackend::open(config.node_storage_dir(0).unwrap()).unwrap());
    let journal = Journal::with_backend(backend.clone()).unwrap();
    let id = ContainerId::new(0);
    let mut builder = ContainerBuilder::new(id, config.container_capacity);
    for chunk in hand_built_chunks() {
        assert!(builder.try_append(Sha1::fingerprint(&chunk), &chunk));
    }
    let (mut summary, mut object) = builder.seal().to_object();
    assert_eq!(object[4], 3, "the version byte follows the magic");
    if version == 2 {
        let data_end = CONTAINER_BLOB_DATA_OFFSET + summary.data_len as usize;
        summary.checksum = Sha1::fingerprint(&object[CONTAINER_BLOB_DATA_OFFSET..data_end]);
        object[4] = 2;
        object[CONTAINER_BLOB_DATA_OFFSET - Fingerprint::LEN..CONTAINER_BLOB_DATA_OFFSET]
            .copy_from_slice(summary.checksum.as_bytes());
    }
    backend
        .write_object(StorageObject::Container(id), &object)
        .unwrap();
    let finalize = finalize_cut.map(|cut| {
        let mut payload = vec![2u8];
        payload.extend_from_slice(&id.as_u64().to_le_bytes());
        payload.extend_from_slice(&(summary.meta.records.len() as u32).to_le_bytes());
        for record in &summary.meta.records {
            payload.extend_from_slice(record.fingerprint.as_bytes());
            payload.extend_from_slice(&id.as_u64().to_le_bytes());
            payload.extend_from_slice(&record.offset.to_le_bytes());
            payload.extend_from_slice(&record.len.to_le_bytes());
        }
        payload.truncate(payload.len() - cut);
        payload
    });
    journal
        .append(&JournalRecord::ContainerSeal { container: summary })
        .unwrap();
    if let Some(payload) = finalize {
        backend
            .append(StorageObject::Journal, &raw_frame(1, &payload))
            .unwrap();
    }
    id
}

/// A directory an older format version wrote: its container object's magic
/// is intact but its version is not this one's.  Recovery must refuse it
/// with a typed error and leave every file byte-identical, instead of
/// failing the object like rot and sweeping it as an orphan.
#[test]
fn an_object_of_another_format_version_is_refused_not_discarded() {
    let root = scratch_dir("foreign-version");
    let config = durable_file_config(&root);
    let id = hand_built_directory(&config, 2, None);
    let dir = config.node_storage_dir(0).unwrap();
    let before = snapshot_dir(&dir);
    assert_eq!(before.len(), 2, "one object beside the journal");
    match open_dir(&config) {
        Err(SigmaError::Storage(StorageError::UnreadableObject {
            container,
            version: 2,
        })) => assert_eq!(container, id),
        Err(e) => panic!("wrong error: {e}"),
        Ok(_) => panic!("an object of another version must refuse recovery"),
    }
    assert_eq!(snapshot_dir(&dir), before, "the medium is left untouched");
    std::fs::remove_dir_all(&root).unwrap();

    // The same directory in this version's layout recovers in full.
    let root = scratch_dir("own-version");
    let config = durable_file_config(&root);
    hand_built_directory(&config, 3, None);
    let (_, report) = open_dir(&config).unwrap();
    assert_eq!(report.backend_objects_verified, 1);
    assert_eq!(report.containers_discarded, 0);
    assert_eq!(report.orphan_objects_swept, 0);
    std::fs::remove_dir_all(&root).unwrap();
}

/// A directory an older build wrote, whose journal follows each seal with
/// a tag-2 frame repeating the container's chunk-index entries.  The frame
/// is read and skipped: recovery succeeds, counts it, serves every chunk
/// from the seal's record table, and the next append follows it.  A tag-2
/// payload cut short inside its entry list is refused like any unreadable
/// frame, and the directory is left as it was.
#[test]
fn a_log_with_retired_finalize_frames_still_replays() {
    let root = scratch_dir("retired-finalize");
    let config = durable_file_config(&root);
    hand_built_directory(&config, 3, Some(0));
    let (node, report) = open_dir(&config).unwrap();
    assert_eq!(report.frames_replayed, 2, "the seal and the skipped frame");
    assert_eq!(report.containers_recovered, 1);
    assert_eq!(report.containers_discarded, 0);
    for chunk in hand_built_chunks() {
        assert_eq!(node.read_chunk(&Sha1::fingerprint(&chunk)).unwrap(), chunk);
    }
    node.verify_consistency().unwrap();
    let journal = node.journal();
    assert_eq!(
        journal
            .append(&JournalRecord::RecipeDelete { file_id: 1 })
            .unwrap(),
        2
    );
    std::fs::remove_dir_all(&root).unwrap();

    let root = scratch_dir("cut-finalize");
    let config = durable_file_config(&root);
    hand_built_directory(&config, 3, Some(10));
    let dir = config.node_storage_dir(0).unwrap();
    let before = snapshot_dir(&dir);
    match open_dir(&config) {
        Err(SigmaError::Storage(StorageError::UnreadableRecord { seq: 1, .. })) => {}
        Err(e) => panic!("wrong error: {e}"),
        Ok(_) => panic!("a cut tag-2 payload must refuse recovery"),
    }
    assert_eq!(snapshot_dir(&dir), before, "the medium is left untouched");
    std::fs::remove_dir_all(&root).unwrap();
}

// ---- the recovered index ----

/// Checks a node recovered from `medium` against the live node `live` it was
/// copied from: every ingested fingerprint the live node indexes at a sealed
/// or tombstoned container is indexed at the same location, and every other
/// entry names a sealed container whose record table holds the fingerprint
/// at that offset.
fn check_recovered_index(
    config: &SigmaConfig,
    live: &DedupNode,
    medium: MemoryBackend,
    fingerprints: &[Fingerprint],
) {
    let (recovered, _) =
        DedupNode::open(live.id(), config, Arc::new(medium)).expect("a raw medium recovers");
    recovered.verify_consistency().unwrap();
    for fp in fingerprints {
        let durable = live.chunk_location(fp).filter(|loc| {
            matches!(
                live.container_state(&loc.container),
                ContainerState::Sealed | ContainerState::Migrated { .. }
            )
        });
        match (durable, recovered.chunk_location(fp)) {
            (Some(loc), got) => assert_eq!(got, Some(loc), "chunk {} moved", fp),
            (None, Some(loc)) => {
                assert_eq!(
                    recovered.container_state(&loc.container),
                    ContainerState::Sealed
                );
                let container = recovered
                    .export_container(&loc.container)
                    .expect("sealed container reads")
                    .expect("sealed container exports");
                assert!(
                    container
                        .meta()
                        .records
                        .iter()
                        .any(|r| (r.fingerprint, r.offset, r.len) == (*fp, loc.offset, loc.len)),
                    "chunk {} indexed where its container's table does not hold it",
                    fp
                );
            }
            (None, None) => {}
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The journal carries the chunk index once, in its seal and adopt
    /// records' tables.  On a cluster that ingested, deleted and collected
    /// garbage, drained a node and left an unacknowledged tail open, each
    /// node's raw medium — journal and container objects as they stand —
    /// recovers the live node's durable index, and every acknowledged file
    /// restores after every node restarted from its journal.
    #[test]
    fn a_raw_journal_image_recovers_the_same_index(
        fallback in any::<bool>(),
        files in proptest::collection::vec(proptest::collection::vec(0usize..6, 1..5), 4..9),
        delete_mask in 0u64..u64::MAX,
        threshold in 0.3f64..1.0,
        removed_slot in 0usize..4,
    ) {
        let config = SigmaConfig::builder()
            .super_chunk_size(4 * 1024)
            .chunker(ChunkerParams::fixed(512))
            .container_capacity(8 * 1024)
            .cache_containers(4)
            .chunk_index_fallback(fallback)
            .gc_liveness_threshold(threshold)
            .build()
            .expect("valid test config");
        let cluster = Arc::new(DedupCluster::with_similarity_router(4, config.clone()));
        // Blocks shared across files, so chunks recur under other handprints.
        let blocks: Vec<Vec<u8>> = (0..6u64).map(|b| payload(1024, 70_000 + b)).collect();
        let data_of = |i: usize, picks: &[usize]| -> Vec<u8> {
            let mut data = Vec::new();
            for (k, &pick) in picks.iter().enumerate() {
                data.extend_from_slice(&blocks[pick]);
                data.extend_from_slice(&payload(512, 71_000 + (i * 10 + k) as u64));
            }
            data
        };
        let mut fingerprints: Vec<Fingerprint> = Vec::new();
        let mut backup = |i: usize, picks: &[usize]| -> (u64, Vec<u8>) {
            let data = data_of(i, picks);
            fingerprints.extend(data.chunks(512).map(Sha1::fingerprint));
            let client = BackupClient::new(cluster.clone(), (i % 3) as u64);
            let report = client
                .backup_bytes(&format!("file-{i}"), &data)
                .expect("payload backup cannot fail");
            (report.file_id, data)
        };

        // Wave one, acknowledged; then deletes and a GC pass.
        let half = files.len() / 2;
        let mut acked: Vec<(u64, Vec<u8>)> = (0..half).map(|i| backup(i, &files[i])).collect();
        cluster.try_flush().unwrap();
        let mut kept = Vec::new();
        for (i, file) in acked.drain(..).enumerate() {
            if delete_mask & (1 << i) != 0 {
                cluster.delete_file(file.0).unwrap();
            } else {
                kept.push(file);
            }
        }
        cluster.collect_garbage().unwrap();
        // One node drains away, leaving tombstones behind.
        let removed = cluster.node_ids()[removed_slot];
        cluster.remove_node(removed).unwrap();
        // Wave two, acknowledged; then a tail left open.
        kept.extend((half..files.len()).map(|i| backup(i, &files[i])));
        cluster.try_flush().unwrap();
        backup(files.len(), &[5, 0, 3]);

        let mut ids = cluster.node_ids();
        ids.push(removed);
        for &id in &ids {
            let node = cluster.node_by_id(id).expect("a member");
            let raw = MemoryBackend::copy_of(node.journal().backend().as_ref())
                .expect("in-memory medium");
            check_recovered_index(&config, &node, raw, &fingerprints);
        }
        for &id in &ids {
            cluster.restart_node(id).unwrap();
        }
        for (file_id, expected) in &kept {
            let restored = cluster.restore_file(*file_id).unwrap();
            prop_assert_eq!(&restored, expected, "file {} corrupted", file_id);
        }
    }
}

// ---- mid-rebalance kills ----

/// Backs three overlapping streams up on a durable 3-node cluster and
/// acknowledges them; returns the cluster and ground truth.
fn acked_cluster(case: u64) -> (Arc<DedupCluster>, Vec<(u64, Vec<u8>)>) {
    let cluster = Arc::new(DedupCluster::with_similarity_router(3, durable_config()));
    let mut files = Vec::new();
    // Shared blocks so streams overlap (cluster-wide duplicates cross nodes).
    let blocks: Vec<Vec<u8>> = (0..4u64).map(|b| payload(700, case * 100 + b)).collect();
    for stream in 0..3u64 {
        let mut data = Vec::new();
        for pick in 0..6u64 {
            data.extend_from_slice(&blocks[((stream + pick) % 4) as usize]);
            data.extend_from_slice(&payload(300, case * 1000 + stream * 10 + pick));
        }
        let client = BackupClient::new(cluster.clone(), stream);
        let report = client
            .backup_bytes(&format!("stream-{stream}"), &data)
            .expect("payload backup cannot fail");
        files.push((report.file_id, data));
    }
    cluster.try_flush().expect("no fault armed yet");
    (cluster, files)
}

fn assert_all_restore(cluster: &DedupCluster, files: &[(u64, Vec<u8>)]) {
    for (file_id, expected) in files {
        let restored = cluster
            .restore_file(*file_id)
            .unwrap_or_else(|e| panic!("file {file_id} failed to restore: {e}"));
        assert_eq!(&restored, expected, "file {} corrupted", file_id);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Killing the drain at *every* journal append it performs — destination
    /// adopts and source tombstones alike, torn and clean — never loses or
    /// duplicates a container: after recovery and a resumed drain, physical
    /// bytes are exactly conserved and every file restores through an intact
    /// tombstone chain.
    #[test]
    fn mid_rebalance_kills_never_lose_or_duplicate(case in 0u64..1000) {
        // Profile the drain fault-free: how many appends each node performs.
        let baseline = {
            let (cluster, files) = acked_cluster(case);
            let before: Vec<u64> = (0..3)
                .map(|id| cluster.node_by_id(id).unwrap().journal().next_seq())
                .collect();
            cluster.remove_node(0).expect("no fault armed");
            assert_all_restore(&cluster, &files);
            let spans: Vec<(u64, u64)> = (0..3)
                .map(|id| {
                    let after = cluster.node_by_id(id).unwrap().journal().next_seq();
                    (before[id], after)
                })
                .collect();
            (cluster.stats().physical_bytes, spans)
        };
        let (physical_expected, spans) = baseline;

        // Now kill at every append of every node inside the drain window.
        for (victim, &(start, end)) in spans.iter().enumerate() {
            for seq in start..end {
                let mode = if (seq + case) % 2 == 0 { CrashMode::Torn } else { CrashMode::Clean };
                let (cluster, files) = acked_cluster(case);
                let node = cluster.node_by_id(victim).unwrap();
                let journal = node.journal().clone();
                save_artifact("mid-rebalance", journal.backend().as_ref());
                journal.arm_crash_at_seq(seq, mode);

                match cluster.remove_node(0) {
                    Ok(_) => {
                        // The workload is deterministic, so the armed append
                        // must have fired inside the drain.
                        prop_assert!(
                            !cluster.crashed_nodes().is_empty() || journal.next_seq() <= seq,
                            "armed seq {} on node {} never fired", seq, victim
                        );
                    }
                    Err(e) => {
                        prop_assert!(
                            matches!(
                                e,
                                SigmaError::Storage(
                                    StorageError::Crashed
                                )
                            ),
                            "drain failed for a non-crash reason: {}", e
                        );
                    }
                }
                if !cluster.crashed_nodes().is_empty() {
                    save_artifact("mid-rebalance", journal.backend().as_ref());
                    let report = cluster.restart_node(victim).expect("recoverable");
                    prop_assert_eq!(report.node_id, victim);
                    // Finish the interrupted removal.
                    cluster
                        .resume_drain(0)
                        .expect("node 0 is retired")
                        .run()
                        .expect("resumed drain cannot crash again");
                }

                // The drained node is empty, bytes are exactly conserved (no
                // container lost, none duplicated), restores follow the chain.
                prop_assert_eq!(
                    cluster.node_by_id(0).unwrap().storage_usage(),
                    0,
                    "victim {} seq {}: drain must complete", victim, seq
                );
                prop_assert_eq!(
                    cluster.stats().physical_bytes,
                    physical_expected,
                    "victim {} seq {} ({:?}): bytes not conserved", victim, seq, mode
                );
                assert_all_restore(&cluster, &files);
                for id in 0..3 {
                    cluster
                        .node_by_id(id)
                        .unwrap()
                        .verify_consistency()
                        .unwrap();
                }
            }
        }
        clear_artifact("mid-rebalance");
    }
}

/// A caller that re-runs an already-executed drain plan (lost acknowledgement,
/// confused supervisor) must not double-adopt: overlapping executions converge
/// to the same conserved state.
#[test]
fn replayed_drain_plans_cannot_double_adopt() {
    let (cluster, files) = acked_cluster(42);
    let physical_before = cluster.stats().physical_bytes;

    let first = cluster.begin_remove_node(0).expect("3-node cluster");
    let planned = first.remaining();
    assert!(planned > 0);
    first.run().expect("no faults armed");

    // "Retry" the removal wholesale: the node is already retired, so the resume
    // path re-plans — and must find nothing left to move.
    let retry = cluster.resume_drain(0).expect("node 0 is retired");
    let report = retry.run().expect("no faults armed");
    assert_eq!(report.containers_moved, 0, "nothing left to re-migrate");

    assert_eq!(cluster.stats().physical_bytes, physical_before, "conserved");
    for (file_id, expected) in &files {
        assert_eq!(&cluster.restore_file(*file_id).unwrap(), expected);
    }
}

// ---- multi-tenant delete + GC crash window ----

use sigma_dedupe::service::backend::FILE_ID_KEY;
use sigma_dedupe::service::Backend;

/// Ground truth for one tenant-tagged acknowledged backup.
struct TenantFile {
    tenant: &'static str,
    file_id: u64,
    generation: u64,
    data: Vec<u8>,
}

/// Two tenants with overlapping payloads on a durable 3-node cluster, backed
/// up through the tenant-tagging [`BackupService`] and acknowledged; returns
/// the cluster, the service and per-file ground truth.
fn tenant_acked_cluster(case: u64) -> (Arc<DedupCluster>, Arc<BackupService>, Vec<TenantFile>) {
    let config = SigmaConfig::builder()
        .super_chunk_size(4 * 1024)
        .chunker(ChunkerParams::fixed(512))
        .container_capacity(8 * 1024)
        .cache_containers(4)
        // Maximal reclaim: any container with a dead byte is compacted, so
        // the expiry window is guaranteed to append GC records to sweep over.
        .gc_liveness_threshold(1.0)
        .build()
        .expect("valid test config");
    let cluster = Arc::new(DedupCluster::with_similarity_router(3, config));
    let service = Arc::new(BackupService::new(cluster.clone()));
    // Shared blocks: the tenants' files deduplicate against each other, so
    // one tenant's expiry churns containers holding the other's chunks.
    let blocks: Vec<Vec<u8>> = (0..4u64).map(|b| payload(700, case * 77 + b)).collect();
    let mut files = Vec::new();
    let mut request_id = 1u64;
    for (t, tenant) in ["alpha", "beta"].into_iter().enumerate() {
        for generation in 0..2u64 {
            let mut data = Vec::new();
            for pick in 0..8u64 {
                data.extend_from_slice(&blocks[((pick + generation) % 4) as usize]);
                data.extend_from_slice(&payload(
                    1200,
                    case * 1000 + (t as u64) * 100 + generation * 10 + pick,
                ));
            }
            let resp = service
                .call(
                    RequestEnvelope::new(
                        request_id,
                        tenant,
                        Operation::Backup {
                            file_name: format!("{tenant}-g{generation}"),
                            generation,
                        },
                    )
                    .with_payload(data.clone()),
                )
                .expect("acked backup cannot fail");
            request_id += 1;
            files.push(TenantFile {
                tenant,
                file_id: resp.metadata_u64(FILE_ID_KEY).expect("backup returns id"),
                generation,
                data,
            });
        }
    }
    cluster.try_flush().expect("no fault armed yet");
    (cluster, service, files)
}

/// Alpha's generation 0 is expired; everything else must survive, and the
/// per-tenant live bytes must still partition the cluster's logical total.
fn assert_tenant_state(
    cluster: &DedupCluster,
    service: &BackupService,
    files: &[TenantFile],
    request_id: &mut u64,
) {
    for file in files {
        *request_id += 1;
        let resp = service.call(RequestEnvelope::new(
            *request_id,
            file.tenant,
            Operation::Restore {
                file_id: file.file_id,
            },
        ));
        if file.tenant == "alpha" && file.generation == 0 {
            assert!(
                matches!(resp, Err(SigmaError::FileNotFound(_))),
                "expired file {} must stay expired",
                file.file_id
            );
        } else {
            let resp = resp.unwrap_or_else(|e| {
                panic!(
                    "{} file {} failed to restore: {}",
                    file.tenant, file.file_id, e
                )
            });
            assert_eq!(
                resp.payload, file.data,
                "{} file {} corrupted by alpha's churn",
                file.tenant, file.file_id
            );
        }
    }
    let live_sum: u64 = service
        .tenant_stats()
        .values()
        .map(|r| r.live_logical_bytes)
        .sum();
    assert_eq!(
        live_sum,
        cluster.stats().logical_bytes,
        "per-tenant live bytes must partition the cluster total"
    );
    for id in 0..3 {
        cluster
            .node_by_id(id)
            .unwrap()
            .verify_consistency()
            .unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Killing a node at every journal append inside one tenant's expiry
    /// window (delete generation + mark-and-sweep) converges, after recovery
    /// and one re-run of the sweep, to the fault-free end state — with the
    /// *other* tenant's files byte-identical throughout and per-tenant
    /// accounting still partitioning the cluster.
    #[test]
    fn tenant_expiry_crash_window_preserves_other_tenants(case in 0u64..1000) {
        // Fault-free baseline: end-state physical bytes plus the journal
        // window the delete + sweep spans on each node.
        let (physical_expected, spans) = {
            let (cluster, service, files) = tenant_acked_cluster(case);
            let before: Vec<u64> = (0..3)
                .map(|id| cluster.node_by_id(id).unwrap().journal().next_seq())
                .collect();
            let mut request_id = 1000u64;
            service
                .call(RequestEnvelope::new(
                    request_id,
                    "alpha",
                    Operation::DeleteGeneration { generation: 0 },
                ))
                .expect("generation exists");
            service
                .call(RequestEnvelope::new(request_id + 1, "alpha", Operation::CollectGarbage))
                .expect("no fault armed");
            assert_tenant_state(&cluster, &service, &files, &mut request_id);
            let spans: Vec<(u64, u64)> = (0..3)
                .map(|id| {
                    let after = cluster.node_by_id(id).unwrap().journal().next_seq();
                    (before[id], after)
                })
                .collect();
            (cluster.stats().physical_bytes, spans)
        };
        prop_assert!(
            spans.iter().any(|&(start, end)| end > start),
            "the expiry window must append journal records to sweep over"
        );

        for (victim, &(start, end)) in spans.iter().enumerate() {
            for seq in start..end {
                let mode = if (seq + case) % 2 == 0 { CrashMode::Torn } else { CrashMode::Clean };
                let (cluster, service, files) = tenant_acked_cluster(case);
                let journal = cluster.node_by_id(victim).unwrap().journal().clone();
                save_artifact("tenant-expiry", journal.backend().as_ref());
                journal.arm_crash_at_seq(seq, mode);

                let mut request_id = 2000u64;
                // The deletion is director state: it succeeds even if its
                // journal audit record fires the armed crash (swallowed).
                service
                    .call(RequestEnvelope::new(
                        request_id,
                        "alpha",
                        Operation::DeleteGeneration { generation: 0 },
                    ))
                    .expect("generation exists");
                match service.call(RequestEnvelope::new(
                    request_id + 1,
                    "alpha",
                    Operation::CollectGarbage,
                )) {
                    Ok(_) => {
                        prop_assert!(
                            !cluster.crashed_nodes().is_empty() || journal.next_seq() <= seq,
                            "armed seq {} on node {} never fired", seq, victim
                        );
                    }
                    Err(e) => {
                        prop_assert!(
                            matches!(e, SigmaError::Storage(StorageError::Crashed)),
                            "sweep failed for a non-crash reason: {}", e
                        );
                    }
                }
                if !cluster.crashed_nodes().is_empty() {
                    save_artifact("tenant-expiry", journal.backend().as_ref());
                    cluster.restart_node(victim).expect("recoverable");
                }
                // One re-run finishes whatever the crash interrupted.
                service
                    .call(RequestEnvelope::new(request_id + 2, "alpha", Operation::CollectGarbage))
                    .expect("retried sweep cannot crash again");
                request_id += 10;

                prop_assert_eq!(
                    cluster.stats().physical_bytes,
                    physical_expected,
                    "victim {} seq {} ({:?}): expiry did not converge",
                    victim, seq, mode
                );
                assert_tenant_state(&cluster, &service, &files, &mut request_id);
            }
        }
        clear_artifact("tenant-expiry");
    }
}

/// Restarting a node that never crashed is a harmless (if pointless) operation:
/// the node comes back from its journal serving the same acknowledged bytes.
#[test]
fn restarting_a_healthy_node_is_idempotent() {
    let (cluster, files) = acked_cluster(7);
    let physical_before = cluster.stats().physical_bytes;
    for id in 0..3 {
        let report = cluster.restart_node(id).expect("journaled node");
        assert_eq!(report.reconciled_migrations, 0, "nothing was in flight");
    }
    assert_eq!(cluster.stats().physical_bytes, physical_before);
    for (file_id, expected) in &files {
        assert_eq!(&cluster.restore_file(*file_id).unwrap(), expected);
    }
}

//! The write-ahead journal: durable node state and deterministic crash points.
//!
//! Everything a deduplication node keeps in RAM — chunk index, similarity index,
//! container directory — is rebuildable from an append-only journal of checksummed
//! frames plus the container objects beside it on the same
//! [`StorageBackend`].  The journal carries metadata only: a container record
//! names the container, its records, and the length and checksum of the data
//! section, whose bytes live once, in the container's object.  A crash destroys
//! the in-memory structures but never the medium, and
//! [`DedupNode::open`](../../sigma_core/struct.DedupNode.html#method.open)
//! replays the surviving frames back into a consistent node, then checks every
//! replayed container against its object.
//!
//! # Record kinds
//!
//! | record | written when | synced? | replay effect |
//! |---|---|---|---|
//! | [`ContainerSeal`](JournalRecord::ContainerSeal) | an open container fills or is flushed, after its object is durable | deferred (the flush's `Journal::sync` covers it, or a migration's export) | reinstall the container summary and index its chunks from its record table |
//! | [`SimilarityPublish`](JournalRecord::SimilarityPublish) | a super-chunk's handprint is mapped to its container | deferred | re-insert RFP → container mappings |
//! | [`ContainerAdopt`](JournalRecord::ContainerAdopt) | the rebalancer installs a migrated container, after its object is durable | yes | reinstall summary + index + RFPs, keyed by origin so a duplicated record cannot double-adopt |
//! | [`Tombstone`](JournalRecord::Tombstone) | a migrated container's forwarding pointer is published (always *before* its object is deleted) | yes | drop the container, keep the chunk entries, record the forwarding pointer |
//! | [`StatsCheckpoint`](JournalRecord::StatsCheckpoint) | a flush acknowledges a backup session | yes | restore the node's ingest counters |
//! | [`RecipeDelete`](JournalRecord::RecipeDelete) | the director deletes a backup whose recipe referenced this node | deferred | no structural effect (recipes are director state); records that the GC which follows replays against a post-delete history, and gives fault plans a boundary between deletion and sweep |
//! | [`GcCompact`](JournalRecord::GcCompact) | the sweep rewrites a mostly-dead container's live chunks into a fresh one (replacement object durable before, victim object deleted after) | yes | drop the victim (and its chunk entries), install the replacement, index its chunks, re-home the travelling RFPs |
//! | [`GcDrop`](JournalRecord::GcDrop) | the sweep drops a container with no live chunks (object deleted after) | yes | drop the container and its chunk-index/similarity entries — unlike a tombstone, nothing forwards anywhere |
//!
//! # When an append is fsynced
//!
//! One rule, [`JournalRecord::defers_sync`], decides by record kind.  A record
//! that licenses something irreversible or answers an acknowledgement — an
//! adopt (the source's tombstone follows it), a tombstone or GC record (an
//! object delete follows it), the flush's stats checkpoint — is fsynced
//! before its append returns.  A container seal ([`ContainerSeal`]), a
//! routing hint ([`SimilarityPublish`]) or an advisory witness
//! ([`RecipeDelete`]) is written in order but not fsynced: the next synced
//! append covers it, because an fsync makes every earlier byte of the log
//! durable.  The end of a flush is such a point: after its group commit,
//! [`ContainerStore::flush`](crate::ContainerStore::flush) calls
//! `Journal::sync`, which fsyncs the log if anything was appended since
//! the last fsync, so every seal is durable when a flush returns `Ok`.
//!
//! A deferred seal is safe because it licenses nothing irreversible.  Its
//! object is durable before the record is appended, and dropping the RAM copy
//! deletes nothing from the medium.  A flush retires every open container, so
//! a container sealed by rollover after an acknowledgement holds only chunks
//! stored after it, referenced only by unacknowledged files.  Every path that
//! deletes a container appends a synced record to the same journal first
//! (tombstone, `GcDrop`, `GcCompact`), which covers the seal.  A migration
//! hands the container to a peer, whose adopt is fsynced in the peer's
//! journal and covers nothing in this one, so
//! [`ContainerStore::export_sealed`](crate::ContainerStore::export_sealed)
//! syncs this journal before the container leaves: no peer ever holds a
//! container whose seal its source could still lose, and whose ID the
//! source could then reuse.  A power cut can therefore lose only a suffix of deferred
//! frames: a handprint not remembered, a witness, or a seal whose object
//! recovery then sweeps as an orphan — exactly the outcome of a crash just
//! before the seal — never acknowledged data.  Frames, sequence numbers and
//! replay are the same either way; only the fsync count differs.
//!
//! [`ContainerSeal`]: JournalRecord::ContainerSeal
//! [`SimilarityPublish`]: JournalRecord::SimilarityPublish
//! [`RecipeDelete`]: JournalRecord::RecipeDelete
//!
//! # Frames, torn tails and crash points
//!
//! Each record is wrapped in a frame — magic, payload length, sequence number,
//! FNV-1a checksum, payload — so replay can tell a *complete* record from a torn
//! one.  Replay stops at the first truncated or corrupt frame and reports the
//! discarded suffix: a torn tail is data that was never acknowledged, so it is
//! dropped, never half-applied.  A frame whose checksum holds but whose payload
//! does not decode is different: it was written whole, by a writer speaking
//! another record layout (an older version of this crate, say), so replay
//! refuses the journal with [`StorageError::UnreadableRecord`] and leaves it
//! untouched rather than cutting away every acknowledged record after it.
//!
//! Crash points are *journal-append boundaries*: [`Journal::arm_crash_at_seq`]
//! makes the append that would receive the given sequence number fail (optionally
//! leaving a torn frame behind, as a real power cut would) and marks the journal
//! crashed; every later append fails too.  Because appends are the only way state
//! becomes durable, this deterministically reproduces "the process died between
//! these two records" for any record boundary, including the
//! adopt-then-tombstone boundary inside a rebalance step.

use crate::{
    ContainerId, ContainerSummary, MemoryBackend, StorageBackend, StorageError, StorageObject,
};
use parking_lot::Mutex;
use sigma_hashkit::{fnv1a_64, Fingerprint};
use std::sync::Arc;

/// Magic bytes starting every journal frame (`"SJRN"`).
const FRAME_MAGIC: u32 = 0x534A_524E;

/// Fixed size of a frame header: magic + payload length + sequence + checksum.
const FRAME_HEADER: usize = 4 + 4 + 8 + 8;

/// One durable record in a node's write-ahead journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalRecord {
    /// A locally filled container was sealed; its object was durable first.
    ContainerSeal {
        /// The sealed container's summary (metadata, data length, checksum).
        container: ContainerSummary,
    },
    /// Representative fingerprints of a deduplicated super-chunk were mapped to a
    /// container in the similarity index.
    ///
    /// A routing hint: its append is not fsynced, and the next synced record
    /// makes it durable (see [`defers_sync`](Self::defers_sync)).
    SimilarityPublish {
        /// Container the handprint was mapped to.
        container: ContainerId,
        /// The representative fingerprints.
        rfps: Vec<Fingerprint>,
    },
    /// A container migrated from another node was installed here.
    ContainerAdopt {
        /// Stable ID of the node the container came from.
        origin_node: u64,
        /// The container's identifier on the origin node.
        origin_container: ContainerId,
        /// The container's summary under its new local identifier.
        container: ContainerSummary,
        /// Representative fingerprints re-homed with the container.
        rfps: Vec<Fingerprint>,
    },
    /// A migrated-away container's forwarding pointer; journaled *before* the
    /// container data is dropped, which is what keeps mid-migration crashes safe.
    Tombstone {
        /// The retired container.
        container: ContainerId,
        /// Stable ID of the node now holding the data.
        successor: u64,
    },
    /// A file recipe referencing this node was deleted by the director.
    ///
    /// Structurally a no-op on replay — recipes live in the director, not on
    /// nodes — but journaled on every node the recipe named, durable there
    /// with the next synced record (its own append is not fsynced).  So the
    /// record (a) witnesses that any later GC record was computed against a
    /// post-delete root set and (b) is a journal-append boundary a fault plan
    /// can kill at, deterministically reproducing "the process died between
    /// the deletion and the sweep".
    RecipeDelete {
        /// The deleted file's identifier.
        file_id: u64,
    },
    /// The garbage collector compacted a mostly-dead container: its live chunks
    /// were rewritten into `replacement` and the victim dropped.  One atomic
    /// record — a crash on either side of it leaves the node consistent (before:
    /// nothing happened; after: replay performs the whole swap).
    GcCompact {
        /// The container that was compacted away.
        victim: ContainerId,
        /// The fresh container holding exactly the victim's live chunks.
        replacement: ContainerSummary,
        /// Representative fingerprints re-homed from the victim to the
        /// replacement (resemblance queries keep finding the surviving data).
        rfps: Vec<Fingerprint>,
    },
    /// The garbage collector dropped a container with no live chunks.  Unlike a
    /// [`Tombstone`](JournalRecord::Tombstone) nothing forwards anywhere: the
    /// data is unreferenced by every surviving recipe and replay removes its
    /// chunk-index and similarity entries with it.
    GcDrop {
        /// The dropped container.
        container: ContainerId,
    },
    /// Ingest counters at an acknowledgement point (end of a flush).
    StatsCheckpoint {
        /// Logical bytes ingested.
        logical_bytes: u64,
        /// Total chunks received.
        total_chunks: u64,
        /// Unique chunks stored.
        unique_chunks: u64,
        /// Super-chunks processed.
        super_chunks: u64,
    },
}

impl JournalRecord {
    /// Short name of the record kind (for reports and debugging).
    pub fn kind(&self) -> &'static str {
        match self {
            JournalRecord::ContainerSeal { .. } => "container-seal",
            JournalRecord::SimilarityPublish { .. } => "similarity-publish",
            JournalRecord::ContainerAdopt { .. } => "container-adopt",
            JournalRecord::Tombstone { .. } => "tombstone",
            JournalRecord::RecipeDelete { .. } => "recipe-delete",
            JournalRecord::GcCompact { .. } => "gc-compact",
            JournalRecord::GcDrop { .. } => "gc-drop",
            JournalRecord::StatsCheckpoint { .. } => "stats-checkpoint",
        }
    }

    /// True when an append of this record is written in order but not
    /// fsynced: the next synced append, or the `Journal::sync` that ends
    /// [`ContainerStore::flush`](crate::ContainerStore::flush), makes it
    /// durable together with every earlier byte of the log.
    ///
    /// Only records that license nothing irreversible and answer no
    /// acknowledgement defer, so a power cut that loses them loses only
    /// unacknowledged state:
    ///
    /// - a similarity publish is a routing hint (recovery already drops one
    ///   whose container never sealed);
    /// - a recipe delete is an advisory witness;
    /// - a container seal comes after its object is durable (write to a temp
    ///   file, fsync, rename, fsync the directory), and dropping the RAM copy
    ///   deletes nothing from the medium.  The flush that acknowledges a
    ///   session retires every open container and syncs the log, so a
    ///   container sealed by rollover after an acknowledgement holds only
    ///   chunks stored after it, which only unacknowledged files reference.
    ///   A cut that loses the seal frame leaves its object an orphan, which
    ///   recovery sweeps — as after a crash just before the seal.
    ///
    /// A container leaves its node only after its seal is durable: the
    /// export that hands it to a peer syncs the source's journal, since the
    /// peer's adopt is fsynced in the peer's own journal.
    ///
    /// Every other record is fsynced before its append returns: adopts (a
    /// source's tombstone follows an adopt), tombstones and GC records (an
    /// object delete follows them), whose fsync also covers any seal appended
    /// before them in the same journal, and the stats checkpoint that ends
    /// [`DedupNode::try_flush`](../../sigma_core/struct.DedupNode.html#method.try_flush),
    /// the acknowledgement point.
    pub fn defers_sync(&self) -> bool {
        match self {
            JournalRecord::ContainerSeal { .. }
            | JournalRecord::SimilarityPublish { .. }
            | JournalRecord::RecipeDelete { .. } => true,
            JournalRecord::ContainerAdopt { .. }
            | JournalRecord::Tombstone { .. }
            | JournalRecord::GcCompact { .. }
            | JournalRecord::GcDrop { .. }
            | JournalRecord::StatsCheckpoint { .. } => false,
        }
    }
}

/// Summary of one journal replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplaySummary {
    /// Complete frames replayed, skipped tag-2 frames included (see
    /// [`Journal::replay`]).
    pub frames: u64,
    /// Bytes covered by the replayed frames.
    pub bytes_replayed: u64,
    /// Trailing bytes discarded as a torn or corrupt tail.
    pub bytes_discarded: u64,
}

/// How an armed crash manifests on the journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashMode {
    /// The append persists nothing: the crash hit exactly on the record boundary.
    Clean,
    /// The append persists a prefix of the frame, as a power cut mid-write would;
    /// replay must discard it as a torn tail.
    Torn,
}

#[derive(Debug)]
struct ArmedCrash {
    at_seq: u64,
    mode: CrashMode,
}

#[derive(Debug, Default)]
struct JournalState {
    /// Length in bytes of the journal object on the backend (including any torn
    /// tail).  The bytes themselves live on the [`StorageBackend`].
    len: usize,
    /// Sequence number the next append will receive.
    next_seq: u64,
    /// End offset (and sequence) of every complete frame, in order.
    boundaries: Vec<(u64, usize)>,
    /// True while bytes the last fsync did not cover may sit on the medium:
    /// a deferred append since then, or a log adopted from a previous process.
    unsynced: bool,
    crashed: bool,
    armed: Option<ArmedCrash>,
    /// The log as [`Journal::open`] read it, kept for the
    /// [`Journal::recover_truncating`] that follows so a restart reads the
    /// log once.  Any write drops it.
    opened: Option<Vec<u8>>,
}

/// An append-only, checksummed write-ahead journal — one per durable node.
///
/// Each append (or group of appends) reaches the backend as one sequential
/// write; replay reads the log back in one pass.
///
/// # Example
///
/// ```
/// use sigma_storage::{Journal, JournalRecord, ContainerId};
///
/// let journal = Journal::new();
/// journal
///     .append(&JournalRecord::Tombstone { container: ContainerId::new(7), successor: 2 })
///     .unwrap();
/// let (records, summary) = Journal::replay(&journal.bytes()).unwrap();
/// assert_eq!(records.len(), 1);
/// assert_eq!(summary.bytes_discarded, 0);
/// ```
pub struct Journal {
    state: Mutex<JournalState>,
    /// The durable medium the frames live on.  Appends and the fsync at each
    /// acknowledgement point go through it; on volatile backends the fsync is a
    /// no-op and on the file backend it is a real `fsync(2)`.
    backend: Arc<dyn StorageBackend>,
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.state.lock();
        f.debug_struct("Journal")
            .field("bytes", &state.len)
            .field("frames", &state.boundaries.len())
            .field("next_seq", &state.next_seq)
            .field("crashed", &state.crashed)
            .field("backend", &self.backend.kind())
            .finish()
    }
}

impl Default for Journal {
    fn default() -> Self {
        Journal::new()
    }
}

impl Journal {
    /// Creates an empty journal on a volatile in-memory backend.
    pub fn new() -> Self {
        Journal {
            state: Mutex::new(JournalState::default()),
            backend: Arc::new(MemoryBackend::new()),
        }
    }

    /// Creates a *fresh* journal on `backend`, truncating to empty any journal
    /// object a previous process left there.  An absent object is left
    /// absent: it opens as an empty log, the first append creates it, and
    /// the first sync after that makes its name durable too (see
    /// [`StorageBackend::fsync`]).
    ///
    /// Use [`open`](Self::open) instead to adopt an existing journal object,
    /// as every node does when it opens its medium.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::Io`] when the backend cannot truncate the
    /// journal object.
    pub fn with_backend(backend: Arc<dyn StorageBackend>) -> Result<Self, StorageError> {
        if backend
            .object_len(StorageObject::Journal)?
            .is_some_and(|len| len > 0)
        {
            backend.truncate(StorageObject::Journal, 0)?;
        }
        Ok(Journal {
            state: Mutex::new(JournalState::default()),
            backend,
        })
    }

    /// Opens the journal object already present on `backend` — the path every
    /// node takes to adopt the log a previous process left behind.  An absent
    /// object opens as an empty journal.  The log is adopted verbatim, torn tail
    /// and all; run [`recover_truncating`](Self::recover_truncating) (which
    /// `DedupNode::open` does) before appending.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::Io`] when the backend cannot read the object.
    pub fn open(backend: Arc<dyn StorageBackend>) -> Result<Self, StorageError> {
        let bytes = backend.read_all(StorageObject::Journal)?;
        let boundaries = scan_frames(&bytes);
        Ok(Journal {
            state: Mutex::new(JournalState {
                len: bytes.len(),
                next_seq: boundaries.last().map(|&(seq, _)| seq + 1).unwrap_or(0),
                boundaries,
                unsynced: !bytes.is_empty(),
                crashed: false,
                armed: None,
                opened: Some(bytes),
            }),
            backend,
        })
    }

    /// The backend this journal's frames live on — shared with the container
    /// store when the node persists, so both planes survive (or vanish) together.
    pub fn backend(&self) -> Arc<dyn StorageBackend> {
        self.backend.clone()
    }

    /// Appends one record, returning its sequence number.  The frame is
    /// fsynced before this returns unless the record
    /// [`defers_sync`](JournalRecord::defers_sync).
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::Crashed`] when an armed fault point fires on this
    /// append (the frame is dropped or torn according to the [`CrashMode`]) or
    /// when the journal already crashed; nothing after a crash becomes durable.
    pub fn append(&self, record: &JournalRecord) -> Result<u64, StorageError> {
        self.write(std::slice::from_ref(record))
    }

    /// Appends a batch of records under one lock acquisition and one coalesced
    /// backend write, returning the first record's sequence number.
    ///
    /// Durability-equivalent to calling [`append`](Self::append) once per record
    /// — in particular, armed crash points keep firing at the exact per-record
    /// boundary they name: records ahead of the armed sequence number become
    /// durable (they are flushed as the prefix of the group write), the armed
    /// record crashes clean or torn according to its [`CrashMode`], and the rest
    /// of the batch is dropped.  What changes is only the cost: one journal-lock
    /// round, one backend append and at most one fsync for the whole
    /// group instead of one per record — the group-commit optimisation every
    /// production WAL performs.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::Crashed`] when the journal has already crashed or
    /// an armed fault point fires inside the batch.
    pub fn append_batch(&self, records: &[JournalRecord]) -> Result<u64, StorageError> {
        self.write(records)
    }

    /// The one write path behind [`append`](Self::append) and
    /// [`append_batch`](Self::append_batch): frames `records` into a single
    /// write, fsyncs it when any record needs a sync, and fires an armed crash
    /// point at the record it names.
    fn write(&self, records: &[JournalRecord]) -> Result<u64, StorageError> {
        let mut state = self.state.lock();
        if state.crashed {
            return Err(StorageError::Crashed);
        }
        state.opened = None;
        let first_seq = state.next_seq;
        // Frames accumulate in a scratch buffer so the durable medium receives
        // the whole group in a single append.
        let mut buf: Vec<u8> = Vec::new();
        let mut frames: Vec<(u64, usize)> = Vec::with_capacity(records.len());
        let mut sync = false;
        for (seq, record) in (first_seq..).zip(records) {
            if let Some(armed) = state.armed.take_if(|armed| armed.at_seq == seq) {
                if armed.mode == CrashMode::Torn {
                    // A power cut mid-write leaves a prefix of the frame behind;
                    // cutting inside the payload (past the header) exercises the
                    // checksum path rather than the short-header path alone.
                    let frame = encode_frame(seq, record);
                    buf.extend_from_slice(&frame[..(frame.len() / 2).max(1)]);
                }
                state.crashed = true;
                // The complete frames ahead of the crash (plus any torn prefix)
                // still reach the medium: the power cut interrupted the group
                // write partway through, it did not unwrite the prefix.  The
                // node is dead after this point either way; a backend error
                // merely makes the cut tear earlier.
                if !buf.is_empty() && self.backend.append(StorageObject::Journal, &buf).is_ok() {
                    if sync {
                        let _ = self.backend.fsync(StorageObject::Journal);
                    }
                    Self::commit(&mut state, buf.len(), frames);
                }
                state.next_seq = seq;
                return Err(StorageError::Crashed);
            }
            sync |= !record.defers_sync();
            buf.extend_from_slice(&encode_frame(seq, record));
            frames.push((seq, buf.len()));
        }
        if !buf.is_empty() {
            // A failed write or fsync means durability is gone, so the journal
            // declares itself crashed just as it does for an injected fault.
            let written = self.backend.append(StorageObject::Journal, &buf);
            if let Err(e) = written.and_then(|_| {
                if sync {
                    self.backend.fsync(StorageObject::Journal)
                } else {
                    Ok(())
                }
            }) {
                state.crashed = true;
                return Err(e);
            }
            state.unsynced = !sync;
        }
        Self::commit(&mut state, buf.len(), frames);
        state.next_seq = first_seq + records.len() as u64;
        Ok(first_seq)
    }

    /// Accounts `written` bytes that reached the medium, with the end offset
    /// (relative to the write) of each complete frame among them.
    fn commit(state: &mut JournalState, written: usize, frames: Vec<(u64, usize)>) {
        let base = state.len;
        state.len += written;
        state
            .boundaries
            .extend(frames.into_iter().map(|(seq, end)| (seq, base + end)));
    }

    /// Arms a deterministic crash: the append that would receive sequence number
    /// `seq` fails in the given [`CrashMode`] and the journal refuses all further
    /// appends until [`recover_truncating`](Self::recover_truncating) runs.
    pub fn arm_crash_at_seq(&self, seq: u64, mode: CrashMode) {
        self.state.lock().armed = Some(ArmedCrash { at_seq: seq, mode });
    }

    /// True once an armed crash fired; all appends fail until recovery.
    pub fn crashed(&self) -> bool {
        self.state.lock().crashed
    }

    /// Sequence number the next append will receive.
    pub fn next_seq(&self) -> u64 {
        self.state.lock().next_seq
    }

    /// Number of complete frames currently in the journal.
    pub fn frame_count(&self) -> u64 {
        self.state.lock().boundaries.len() as u64
    }

    /// Total journal size in bytes (including any torn tail).
    pub fn len_bytes(&self) -> usize {
        self.state.lock().len
    }

    /// Byte offset just past each complete frame, in order — the crash points a
    /// fault plan samples from.
    pub fn frame_boundaries(&self) -> Vec<usize> {
        self.state
            .lock()
            .boundaries
            .iter()
            .map(|&(_, end)| end)
            .collect()
    }

    /// A copy of the raw journal bytes (the durable medium's current contents).
    ///
    /// The fault harness uses this to capture crash images.
    ///
    /// # Panics
    ///
    /// Panics if the backend cannot read the journal object (file backend only,
    /// and only on a real OS-level failure).
    pub fn bytes(&self) -> Vec<u8> {
        // Hold the state lock so the read is atomic with respect to appends.
        let _state = self.state.lock();
        self.backend
            .read_all(StorageObject::Journal)
            .expect("journal backend read failed")
    }

    /// Parses a journal byte stream into records.
    ///
    /// Replay is *lenient at the tail*: the first truncated or corrupt frame ends
    /// the replay and everything from it onward is reported as discarded.  This is
    /// the torn-tail rule — an interrupted append must disappear, not half-apply.
    /// A well-formed frame of the retired tag 2, which older builds wrote after
    /// each seal, is counted in [`ReplaySummary::frames`] but yields no record.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::UnreadableRecord`] for a frame whose checksum
    /// holds but whose payload is not a record this version can decode: it
    /// was written whole, so it is not a torn tail, and dropping it would drop
    /// every acknowledged record after it too.
    pub fn replay(bytes: &[u8]) -> Result<(Vec<JournalRecord>, ReplaySummary), StorageError> {
        let mut records = Vec::new();
        let mut frames = 0u64;
        let mut offset = 0usize;
        while let Some((seq, end)) = peek_frame(bytes, offset) {
            let mut reader = Reader::new(&bytes[offset + FRAME_HEADER..end]);
            match decode_record(&mut reader) {
                Some(record) if reader.is_empty() => records.extend(record),
                _ => {
                    return Err(StorageError::UnreadableRecord {
                        seq,
                        offset: offset as u64,
                    })
                }
            }
            frames += 1;
            offset = end;
        }
        let summary = ReplaySummary {
            frames,
            bytes_replayed: offset as u64,
            bytes_discarded: (bytes.len() - offset) as u64,
        };
        Ok((records, summary))
    }

    /// Replays this journal's own contents, truncating any torn tail and clearing
    /// the crashed flag — what recovery does before the journal is reused as the
    /// recovered node's write-ahead log.  A log with no torn tail is left as
    /// it is (no truncate, so no fsync), and a journal fresh from
    /// [`open`](Self::open) replays the bytes `open` read instead of reading
    /// the log again.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::UnreadableRecord`] (see [`replay`](Self::replay))
    /// without truncating anything or clearing the crashed flag.
    ///
    /// # Panics
    ///
    /// Panics if the backend cannot read or truncate the journal object: a
    /// recovery whose truncation did not stick would re-append after a torn
    /// tail and corrupt the log, so there is no safe way to continue.
    pub fn recover_truncating(&self) -> Result<(Vec<JournalRecord>, ReplaySummary), StorageError> {
        let mut state = self.state.lock();
        let bytes = match state.opened.take() {
            Some(bytes) => bytes,
            None => self
                .backend
                .read_all(StorageObject::Journal)
                .expect("journal backend read failed"),
        };
        let (records, summary) = Journal::replay(&bytes)?;
        if summary.bytes_discarded > 0 {
            self.backend
                .truncate(StorageObject::Journal, summary.bytes_replayed)
                .expect("journal backend truncate failed");
        }
        state.len = summary.bytes_replayed as usize;
        state.boundaries = scan_frames(&bytes[..state.len]);
        state.next_seq = state
            .boundaries
            .last()
            .map(|&(seq, _)| seq + 1)
            .unwrap_or(0);
        state.unsynced = state.len > 0;
        state.crashed = false;
        state.armed = None;
        Ok((records, summary))
    }

    /// Fsyncs the log if a frame was appended since its last fsync, so that
    /// every frame appended so far is durable when this returns `Ok`;
    /// otherwise does nothing.  [`ContainerStore::flush`](crate::ContainerStore::flush)
    /// calls it after its group commit, which is what makes the rollover
    /// seals it appended unsynced (see
    /// [`defers_sync`](JournalRecord::defers_sync)) durable at the flush.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::Crashed`] when the journal has crashed, or the
    /// backend's error when the fsync fails — which marks the journal
    /// crashed, as a failed synced append does.
    pub(crate) fn sync(&self) -> Result<(), StorageError> {
        let mut state = self.state.lock();
        if state.crashed {
            return Err(StorageError::Crashed);
        }
        if state.unsynced {
            if let Err(e) = self.backend.fsync(StorageObject::Journal) {
                state.crashed = true;
                return Err(e);
            }
            state.unsynced = false;
        }
        Ok(())
    }
}

/// Scans a byte stream for complete frames, returning `(seq, end_offset)` pairs.
fn scan_frames(bytes: &[u8]) -> Vec<(u64, usize)> {
    let mut out = Vec::new();
    let mut offset = 0usize;
    while let Some((seq, end)) = peek_frame(bytes, offset) {
        out.push((seq, end));
        offset = end;
    }
    out
}

/// Validates the frame at `offset` without decoding its payload.
fn peek_frame(bytes: &[u8], offset: usize) -> Option<(u64, usize)> {
    if bytes.len() < offset + FRAME_HEADER {
        return None;
    }
    let magic = u32::from_le_bytes(bytes[offset..offset + 4].try_into().ok()?);
    if magic != FRAME_MAGIC {
        return None;
    }
    let len = u32::from_le_bytes(bytes[offset + 4..offset + 8].try_into().ok()?) as usize;
    let seq = u64::from_le_bytes(bytes[offset + 8..offset + 16].try_into().ok()?);
    let checksum = u64::from_le_bytes(bytes[offset + 16..offset + 24].try_into().ok()?);
    let start = offset + FRAME_HEADER;
    let end = start.checked_add(len)?;
    if bytes.len() < end {
        return None;
    }
    let payload = &bytes[start..end];
    if fnv1a_64(payload) != checksum {
        return None;
    }
    Some((seq, end))
}

fn encode_frame(seq: u64, record: &JournalRecord) -> Vec<u8> {
    let payload = encode_record(record);
    let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
    frame.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&seq.to_le_bytes());
    frame.extend_from_slice(&fnv1a_64(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    frame
}

// ---- record payload encoding ----
//
// A tiny hand-rolled little-endian format (tag byte + fields) that the journal
// defines itself: a file-backed node reopens the directory an earlier build
// left, so the layout is stable across versions, and a tag is never reused.  A retired tag
// is either refused or skipped:
// - Tags 1 (seal), 4 (adopt), 7 (snapshot) and 9 (GC compact) carried whole
//   container images, and tag 14 a compaction snapshot of the node's whole
//   state, which no build writes any more.  A frame with one of them is
//   refused as unreadable rather than misparsed.
// - Tag 2 carried a seal's chunk-index entries again, after the seal or adopt
//   record whose record table already holds them.  Its frame is checked and
//   skipped: it yields no record, so an older log still replays.
const TAG_RETIRED_CHUNK_INDEX_FINALIZE: u8 = 2;
/// One tag-2 entry: a fingerprint, then its container id, offset and length.
const RETIRED_FINALIZE_ENTRY_LEN: usize = Fingerprint::LEN + 8 + 4 + 4;
const TAG_SIMILARITY_PUBLISH: u8 = 3;
const TAG_TOMBSTONE: u8 = 5;
const TAG_STATS_CHECKPOINT: u8 = 6;
const TAG_RECIPE_DELETE: u8 = 8;
const TAG_GC_DROP: u8 = 10;
const TAG_CONTAINER_SEAL: u8 = 11;
const TAG_CONTAINER_ADOPT: u8 = 12;
const TAG_GC_COMPACT: u8 = 13;

fn encode_record(record: &JournalRecord) -> Vec<u8> {
    let mut out = Vec::new();
    match record {
        JournalRecord::ContainerSeal { container } => {
            out.push(TAG_CONTAINER_SEAL);
            container.encode(&mut out);
        }
        JournalRecord::SimilarityPublish { container, rfps } => {
            out.push(TAG_SIMILARITY_PUBLISH);
            out.extend_from_slice(&container.as_u64().to_le_bytes());
            encode_fingerprints(&mut out, rfps);
        }
        JournalRecord::ContainerAdopt {
            origin_node,
            origin_container,
            container,
            rfps,
        } => {
            out.push(TAG_CONTAINER_ADOPT);
            out.extend_from_slice(&origin_node.to_le_bytes());
            out.extend_from_slice(&origin_container.as_u64().to_le_bytes());
            container.encode(&mut out);
            encode_fingerprints(&mut out, rfps);
        }
        JournalRecord::Tombstone {
            container,
            successor,
        } => {
            out.push(TAG_TOMBSTONE);
            out.extend_from_slice(&container.as_u64().to_le_bytes());
            out.extend_from_slice(&successor.to_le_bytes());
        }
        JournalRecord::RecipeDelete { file_id } => {
            out.push(TAG_RECIPE_DELETE);
            out.extend_from_slice(&file_id.to_le_bytes());
        }
        JournalRecord::GcCompact {
            victim,
            replacement,
            rfps,
        } => {
            out.push(TAG_GC_COMPACT);
            out.extend_from_slice(&victim.as_u64().to_le_bytes());
            replacement.encode(&mut out);
            encode_fingerprints(&mut out, rfps);
        }
        JournalRecord::GcDrop { container } => {
            out.push(TAG_GC_DROP);
            out.extend_from_slice(&container.as_u64().to_le_bytes());
        }
        JournalRecord::StatsCheckpoint {
            logical_bytes,
            total_chunks,
            unique_chunks,
            super_chunks,
        } => {
            out.push(TAG_STATS_CHECKPOINT);
            out.extend_from_slice(&logical_bytes.to_le_bytes());
            out.extend_from_slice(&total_chunks.to_le_bytes());
            out.extend_from_slice(&unique_chunks.to_le_bytes());
            out.extend_from_slice(&super_chunks.to_le_bytes());
        }
    }
    out
}

/// Decodes one frame's payload: `None` when it is not a layout this version
/// reads, `Some(None)` for a well-formed frame of the skipped tag 2.
fn decode_record(r: &mut Reader<'_>) -> Option<Option<JournalRecord>> {
    let record = match r.u8()? {
        TAG_CONTAINER_SEAL => JournalRecord::ContainerSeal {
            container: ContainerSummary::decode(r)?,
        },
        TAG_RETIRED_CHUNK_INDEX_FINALIZE => {
            r.u64()?;
            let count = r.u32()? as usize;
            r.bytes(count.checked_mul(RETIRED_FINALIZE_ENTRY_LEN)?)?;
            return Some(None);
        }
        TAG_SIMILARITY_PUBLISH => JournalRecord::SimilarityPublish {
            container: ContainerId::new(r.u64()?),
            rfps: decode_fingerprints(r)?,
        },
        TAG_CONTAINER_ADOPT => JournalRecord::ContainerAdopt {
            origin_node: r.u64()?,
            origin_container: ContainerId::new(r.u64()?),
            container: ContainerSummary::decode(r)?,
            rfps: decode_fingerprints(r)?,
        },
        TAG_TOMBSTONE => JournalRecord::Tombstone {
            container: ContainerId::new(r.u64()?),
            successor: r.u64()?,
        },
        TAG_RECIPE_DELETE => JournalRecord::RecipeDelete { file_id: r.u64()? },
        TAG_GC_COMPACT => JournalRecord::GcCompact {
            victim: ContainerId::new(r.u64()?),
            replacement: ContainerSummary::decode(r)?,
            rfps: decode_fingerprints(r)?,
        },
        TAG_GC_DROP => JournalRecord::GcDrop {
            container: ContainerId::new(r.u64()?),
        },
        TAG_STATS_CHECKPOINT => JournalRecord::StatsCheckpoint {
            logical_bytes: r.u64()?,
            total_chunks: r.u64()?,
            unique_chunks: r.u64()?,
            super_chunks: r.u64()?,
        },
        _ => return None,
    };
    Some(Some(record))
}

fn encode_fingerprints(out: &mut Vec<u8>, fps: &[Fingerprint]) {
    out.extend_from_slice(&(fps.len() as u32).to_le_bytes());
    for fp in fps {
        out.extend_from_slice(fp.as_bytes());
    }
}

fn decode_fingerprints(r: &mut Reader<'_>) -> Option<Vec<Fingerprint>> {
    let count = r.u32()? as usize;
    let mut out = Vec::with_capacity(count.min(65_536));
    for _ in 0..count {
        out.push(r.fingerprint()?);
    }
    Some(out)
}

/// A bounds-checked little-endian byte reader (journal records and container
/// objects).
pub(crate) struct Reader<'a> {
    bytes: &'a [u8],
    offset: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, offset: 0 }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.offset == self.bytes.len()
    }

    pub(crate) fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.offset.checked_add(n)?;
        if end > self.bytes.len() {
            return None;
        }
        let out = &self.bytes[self.offset..end];
        self.offset = end;
        Some(out)
    }

    pub(crate) fn u8(&mut self) -> Option<u8> {
        Some(self.bytes(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.bytes(4)?.try_into().ok()?))
    }

    pub(crate) fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.bytes(8)?.try_into().ok()?))
    }

    pub(crate) fn fingerprint(&mut self) -> Option<Fingerprint> {
        Some(Fingerprint::from_digest(self.bytes(Fingerprint::LEN)?))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::ContainerBuilder;
    use sigma_hashkit::{Digest, Sha1};

    fn fp(i: u64) -> Fingerprint {
        Sha1::fingerprint(&i.to_le_bytes())
    }

    fn sample_container(id: u64) -> ContainerSummary {
        let mut b = ContainerBuilder::new(ContainerId::new(id), 4096);
        for i in 0..4u64 {
            let data = vec![(id + i) as u8; 100];
            assert!(b.try_append(Sha1::fingerprint(&data), &data));
        }
        b.seal().to_object().0
    }

    fn sample_records() -> Vec<JournalRecord> {
        vec![
            JournalRecord::ContainerSeal {
                container: sample_container(0),
            },
            JournalRecord::SimilarityPublish {
                container: ContainerId::new(0),
                rfps: vec![fp(10), fp(11)],
            },
            JournalRecord::ContainerAdopt {
                origin_node: 3,
                origin_container: ContainerId::new(9),
                container: sample_container(1),
                rfps: vec![fp(20)],
            },
            JournalRecord::Tombstone {
                container: ContainerId::new(0),
                successor: 2,
            },
            JournalRecord::RecipeDelete { file_id: 17 },
            JournalRecord::GcCompact {
                victim: ContainerId::new(1),
                replacement: sample_container(2),
                rfps: vec![fp(30), fp(31)],
            },
            JournalRecord::GcDrop {
                container: ContainerId::new(2),
            },
            JournalRecord::StatsCheckpoint {
                logical_bytes: 1000,
                total_chunks: 8,
                unique_chunks: 8,
                super_chunks: 2,
            },
        ]
    }

    #[test]
    fn every_record_kind_round_trips() {
        let journal = Journal::new();
        let records = sample_records();
        for record in &records {
            journal.append(record).unwrap();
        }
        let (replayed, summary) = Journal::replay(&journal.bytes()).unwrap();
        assert_eq!(replayed, records);
        assert_eq!(summary.frames, records.len() as u64);
        assert_eq!(summary.bytes_discarded, 0);
        assert_eq!(journal.frame_count(), records.len() as u64);
    }

    #[test]
    fn torn_tail_is_discarded_at_every_cut() {
        let journal = Journal::new();
        let records = sample_records();
        for record in &records {
            journal.append(record).unwrap();
        }
        let bytes = journal.bytes();
        let boundaries = journal.frame_boundaries();
        // Cutting anywhere strictly inside frame k+1 must replay exactly k+... the
        // frames whose end precedes the cut, never a partial record.
        for cut in [
            1usize,
            boundaries[0] - 1,
            boundaries[0] + 1,
            bytes.len() - 1,
        ] {
            let (replayed, summary) = Journal::replay(&bytes[..cut]).unwrap();
            let expect = boundaries.iter().filter(|&&end| end <= cut).count();
            assert_eq!(replayed.len(), expect, "cut at {}", cut);
            assert_eq!(replayed.as_slice(), &records[..expect]);
            assert!(summary.bytes_discarded > 0);
        }
    }

    #[test]
    fn corrupt_frame_stops_replay() {
        let journal = Journal::new();
        for record in sample_records() {
            journal.append(&record).unwrap();
        }
        let mut bytes = journal.bytes();
        let boundaries = journal.frame_boundaries();
        // Flip one payload byte in the third frame: frames 0-1 replay, the rest
        // is reported as a corrupt/discarded tail.
        bytes[boundaries[1] + FRAME_HEADER + 2] ^= 0xFF;
        let (replayed, summary) = Journal::replay(&bytes).unwrap();
        assert_eq!(replayed.len(), 2);
        assert_eq!(
            summary.bytes_discarded as usize,
            bytes.len() - boundaries[1]
        );
    }

    #[test]
    fn armed_clean_crash_persists_nothing_and_poisons_appends() {
        let journal = Journal::new();
        journal.append(&sample_records()[4]).unwrap();
        journal.arm_crash_at_seq(1, CrashMode::Clean);
        let before = journal.len_bytes();
        assert_eq!(
            journal.append(&sample_records()[4]),
            Err(StorageError::Crashed)
        );
        assert!(journal.crashed());
        assert_eq!(journal.len_bytes(), before, "clean crash writes nothing");
        // Everything after the crash fails too.
        assert_eq!(
            journal.append(&sample_records()[4]),
            Err(StorageError::Crashed)
        );
        // Recovery truncates (no-op here) and clears the crash.
        let (records, summary) = journal.recover_truncating().unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(summary.bytes_discarded, 0);
        assert!(!journal.crashed());
        assert_eq!(journal.next_seq(), 1);
        journal.append(&sample_records()[4]).unwrap();
    }

    #[test]
    fn armed_torn_crash_leaves_a_discardable_tail() {
        let journal = Journal::new();
        journal.append(&sample_records()[0]).unwrap();
        let clean_len = journal.len_bytes();
        journal.arm_crash_at_seq(1, CrashMode::Torn);
        assert_eq!(
            journal.append(&sample_records()[0]),
            Err(StorageError::Crashed)
        );
        assert!(journal.len_bytes() > clean_len, "torn prefix persisted");
        let (records, summary) = journal.recover_truncating().unwrap();
        assert_eq!(records.len(), 1, "torn frame discarded");
        assert!(summary.bytes_discarded > 0);
        assert_eq!(journal.len_bytes(), clean_len, "tail truncated for reuse");
    }

    #[test]
    fn open_restores_boundaries_and_sequencing() {
        let journal = Journal::new();
        for record in sample_records().into_iter().take(3) {
            journal.append(&record).unwrap();
        }
        let copy = MemoryBackend::copy_of(journal.backend().as_ref()).unwrap();
        let reloaded = Journal::open(Arc::new(copy)).unwrap();
        assert_eq!(reloaded.frame_count(), 3);
        assert_eq!(reloaded.next_seq(), journal.next_seq());
        assert_eq!(reloaded.bytes(), journal.bytes());
    }

    /// A whole frame (valid checksum) around `payload`, written raw.
    fn raw_frame(seq: u64, payload: &[u8]) -> Vec<u8> {
        let mut frame = Vec::new();
        frame.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&seq.to_le_bytes());
        frame.extend_from_slice(&fnv1a_64(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        frame
    }

    /// The payload of a tag-2 frame in the layout older builds wrote after
    /// each seal: the container, then its `(fingerprint, location)` entries.
    fn retired_finalize_payload(container: &ContainerSummary) -> Vec<u8> {
        let mut out = vec![TAG_RETIRED_CHUNK_INDEX_FINALIZE];
        out.extend_from_slice(&container.id.as_u64().to_le_bytes());
        out.extend_from_slice(&(container.meta.records.len() as u32).to_le_bytes());
        for record in &container.meta.records {
            out.extend_from_slice(record.fingerprint.as_bytes());
            out.extend_from_slice(&container.id.as_u64().to_le_bytes());
            out.extend_from_slice(&record.offset.to_le_bytes());
            out.extend_from_slice(&record.len.to_le_bytes());
        }
        out
    }

    #[test]
    fn unreadable_frame_refuses_the_journal_and_leaves_it_untouched() {
        // Retired full-image tags, an unknown tag, and a tag-2 payload cut
        // short inside its entry list.
        let finalize = retired_finalize_payload(&sample_container(0));
        let mut payloads: Vec<Vec<u8>> = [1u8, 4, 7, 9, 0xEE]
            .iter()
            .map(|&tag| vec![tag, 0xAB, 0xCD])
            .collect();
        payloads.push(finalize[..finalize.len() - 10].to_vec());
        for payload in payloads {
            let journal = Journal::new();
            journal.append(&sample_records()[4]).unwrap();
            let foreign_at = journal.len_bytes();
            journal
                .backend()
                .append(StorageObject::Journal, &raw_frame(1, &payload))
                .unwrap();
            let reopened = Journal::open(journal.backend()).unwrap();
            reopened.append(&sample_records()[3]).unwrap();
            let before = reopened.bytes();
            assert_eq!(reopened.frame_count(), 3, "the foreign frame is whole");

            assert_eq!(
                Journal::replay(&before),
                Err(StorageError::UnreadableRecord {
                    seq: 1,
                    offset: foreign_at as u64
                })
            );
            assert!(reopened.recover_truncating().is_err(), "tag {}", payload[0]);
            assert_eq!(reopened.bytes(), before, "nothing truncated");
            assert_eq!(reopened.frame_count(), 3);
        }
    }

    #[test]
    fn a_retired_finalize_frame_is_counted_and_skipped() {
        let journal = Journal::new();
        let seal = sample_records().swap_remove(0);
        journal.append(&seal).unwrap();
        let JournalRecord::ContainerSeal { container } = &seal else {
            unreachable!()
        };
        journal
            .backend()
            .append(
                StorageObject::Journal,
                &raw_frame(1, &retired_finalize_payload(container)),
            )
            .unwrap();
        let reopened = Journal::open(journal.backend()).unwrap();
        assert_eq!(reopened.next_seq(), 2);
        let (records, summary) = reopened.recover_truncating().unwrap();
        assert_eq!(records, [seal], "tag 2 yields no record");
        assert_eq!(summary.frames, 2, "but its frame counts");
        assert_eq!(summary.bytes_discarded, 0);
        assert_eq!(reopened.next_seq(), 2);
        assert_eq!(reopened.append(&sample_records()[3]).unwrap(), 2);
        let (records, summary) = Journal::replay(&reopened.bytes()).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(summary.frames, 3);
    }

    #[test]
    fn append_batch_matches_sequential_appends_byte_for_byte() {
        let records = sample_records();
        let sequential = Journal::new();
        for record in &records {
            sequential.append(record).unwrap();
        }
        let batched = Journal::new();
        let first = batched.append_batch(&records).unwrap();
        assert_eq!(first, 0);
        assert_eq!(batched.bytes(), sequential.bytes());
        assert_eq!(batched.frame_boundaries(), sequential.frame_boundaries());
        assert_eq!(batched.next_seq(), sequential.next_seq());
        // Empty batches are free and consume no sequence numbers.
        let seq = batched.append_batch(&[]).unwrap();
        assert_eq!(seq, batched.next_seq());
        assert_eq!(batched.bytes(), sequential.bytes());
    }

    #[test]
    fn append_batch_is_one_backend_append_and_one_fsync() {
        let backend = Arc::new(SyncLog::default());
        let journal = Journal::with_backend(backend.clone()).unwrap();
        journal.append_batch(&sample_records()).unwrap();
        assert_eq!(
            *backend.appends.lock(),
            [journal.len_bytes()],
            "a group commit is one append"
        );
        assert_eq!(*backend.synced.lock(), [journal.len_bytes() as u64]);
    }

    #[test]
    fn append_batch_honors_mid_batch_crash_points() {
        let records = sample_records();
        // Clean crash on the third record: the first two frames are durable,
        // the rest of the batch vanishes.
        let journal = Journal::new();
        journal.arm_crash_at_seq(2, CrashMode::Clean);
        assert_eq!(journal.append_batch(&records), Err(StorageError::Crashed));
        assert!(journal.crashed());
        let (replayed, summary) = journal.recover_truncating().unwrap();
        assert_eq!(replayed.as_slice(), &records[..2]);
        assert_eq!(summary.bytes_discarded, 0);

        // Torn crash mid-batch: same durable prefix plus a discardable tail.
        let journal = Journal::new();
        journal.arm_crash_at_seq(2, CrashMode::Torn);
        assert_eq!(journal.append_batch(&records), Err(StorageError::Crashed));
        let (replayed, summary) = journal.recover_truncating().unwrap();
        assert_eq!(replayed.as_slice(), &records[..2]);
        assert!(summary.bytes_discarded > 0, "torn frame must be discarded");

        // A crash armed past the batch leaves the whole batch durable.
        let journal = Journal::new();
        journal.arm_crash_at_seq(records.len() as u64, CrashMode::Clean);
        journal.append_batch(&records).unwrap();
        assert!(!journal.crashed());
        assert_eq!(journal.frame_count(), records.len() as u64);
    }

    /// A memory backend that notes the length of every journal append, the
    /// journal's length at every fsync of it, the length of every journal
    /// truncate, and how often the journal is read whole or rewritten whole;
    /// it fails every journal fsync once `fail_fsync` is set.  A truncate
    /// also counts as an fsync at the new length, because the file backend's
    /// truncate fsyncs the file.
    #[derive(Debug, Default)]
    pub(crate) struct SyncLog {
        inner: MemoryBackend,
        pub(crate) appends: Mutex<Vec<usize>>,
        pub(crate) synced: Mutex<Vec<u64>>,
        pub(crate) truncates: Mutex<Vec<u64>>,
        pub(crate) reads: std::sync::atomic::AtomicUsize,
        pub(crate) rewrites: std::sync::atomic::AtomicUsize,
        fail_fsync: std::sync::atomic::AtomicBool,
    }

    impl StorageBackend for SyncLog {
        fn kind(&self) -> crate::BackendKind {
            self.inner.kind()
        }
        fn append(&self, obj: StorageObject, bytes: &[u8]) -> crate::Result<u64> {
            if obj == StorageObject::Journal {
                self.appends.lock().push(bytes.len());
            }
            self.inner.append(obj, bytes)
        }
        fn write_object(&self, obj: StorageObject, bytes: &[u8]) -> crate::Result<()> {
            if obj == StorageObject::Journal {
                self.rewrites
                    .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            }
            self.inner.write_object(obj, bytes)
        }
        fn read_all(&self, obj: StorageObject) -> crate::Result<Vec<u8>> {
            if obj == StorageObject::Journal {
                self.reads.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            }
            self.inner.read_all(obj)
        }
        fn read_at(&self, obj: StorageObject, offset: u64, len: usize) -> crate::Result<Vec<u8>> {
            self.inner.read_at(obj, offset, len)
        }
        fn object_len(&self, obj: StorageObject) -> crate::Result<Option<u64>> {
            self.inner.object_len(obj)
        }
        fn truncate(&self, obj: StorageObject, len: u64) -> crate::Result<()> {
            if obj == StorageObject::Journal {
                self.truncates.lock().push(len);
                self.synced.lock().push(len);
            }
            self.inner.truncate(obj, len)
        }
        fn fsync(&self, obj: StorageObject) -> crate::Result<()> {
            if obj == StorageObject::Journal {
                if self.fail_fsync.load(std::sync::atomic::Ordering::SeqCst) {
                    return Err(StorageError::Io("fsync failed".into()));
                }
                let len = self.inner.object_len(obj)?.unwrap_or(0);
                self.synced.lock().push(len);
            }
            self.inner.fsync(obj)
        }
        fn delete(&self, obj: StorageObject) -> crate::Result<()> {
            self.inner.delete(obj)
        }
        fn list(&self) -> crate::Result<Vec<StorageObject>> {
            self.inner.list()
        }
    }

    #[test]
    fn only_hints_and_witnesses_skip_the_fsync() {
        let backend = Arc::new(SyncLog::default());
        let journal = Journal::with_backend(backend.clone()).unwrap();
        let synced = || backend.synced.lock().clone();
        for record in sample_records() {
            let before = synced().len();
            journal.append(&record).unwrap();
            let expected = if record.defers_sync() {
                before
            } else {
                before + 1
            };
            assert_eq!(synced().len(), expected, "{}", record.kind());
        }
        let deferred: Vec<_> = sample_records()
            .into_iter()
            .filter(JournalRecord::defers_sync)
            .collect();
        assert_eq!(
            deferred.iter().map(JournalRecord::kind).collect::<Vec<_>>(),
            ["container-seal", "similarity-publish", "recipe-delete"]
        );
        // A group of deferred records stays unsynced; one synced record in a
        // group syncs all of it, the deferred frames ahead of it included.
        let before = synced().len();
        journal.append_batch(&deferred).unwrap();
        assert_eq!(synced().len(), before);
        assert!(*synced().last().unwrap() < journal.len_bytes() as u64);
        let checkpoint = sample_records().swap_remove(7);
        assert_eq!(checkpoint.kind(), "stats-checkpoint");
        journal
            .append_batch(&[deferred[0].clone(), checkpoint, deferred[1].clone()])
            .unwrap();
        assert_eq!(synced().len(), before + 1);
        assert_eq!(*synced().last().unwrap(), journal.len_bytes() as u64);
        // `sync` does nothing when nothing was appended since the last
        // fsync, and fsyncs once, covering every deferred frame, when
        // something was.
        journal.sync().unwrap();
        assert_eq!(synced().len(), before + 1);
        journal.append_batch(&deferred).unwrap();
        assert_eq!(synced().len(), before + 1);
        journal.sync().unwrap();
        assert_eq!(synced().len(), before + 2);
        assert_eq!(*synced().last().unwrap(), journal.len_bytes() as u64);
        journal.sync().unwrap();
        assert_eq!(synced().len(), before + 2);
        // Replay does not see the difference.
        let (replayed, summary) = Journal::replay(&journal.bytes()).unwrap();
        assert_eq!(replayed.len() as u64, journal.frame_count());
        assert_eq!(summary.bytes_discarded, 0);
        // A crashed journal refuses to sync, pending frames or not.
        journal.append(&deferred[0]).unwrap();
        journal.arm_crash_at_seq(journal.next_seq(), CrashMode::Clean);
        assert_eq!(journal.append(&deferred[1]), Err(StorageError::Crashed));
        let after_crash = synced().len();
        assert_eq!(journal.sync(), Err(StorageError::Crashed));
        assert_eq!(synced().len(), after_crash);
        // A failed fsync crashes the journal, as a failed synced append does.
        let backend = Arc::new(SyncLog::default());
        let journal = Journal::with_backend(backend.clone()).unwrap();
        journal.append(&deferred[0]).unwrap();
        backend
            .fail_fsync
            .store(true, std::sync::atomic::Ordering::SeqCst);
        assert!(matches!(journal.sync(), Err(StorageError::Io(_))));
        assert!(journal.crashed());
        assert_eq!(journal.sync(), Err(StorageError::Crashed));
    }

    #[test]
    fn a_restart_reads_the_log_once_and_truncates_only_a_torn_tail() {
        use std::sync::atomic::Ordering::SeqCst;
        let backend = Arc::new(SyncLog::default());
        let journal = Journal::with_backend(backend.clone()).unwrap();
        journal.append_batch(&sample_records()).unwrap();
        let clean_len = journal.len_bytes() as u64;
        let counts = || {
            (
                backend.reads.load(SeqCst),
                backend.truncates.lock().clone(),
                backend.synced.lock().len(),
            )
        };

        // A clean log: one read, no truncate, no fsync.
        let (reads, truncates, syncs) = counts();
        let reopened = Journal::open(backend.clone()).unwrap();
        let (records, summary) = reopened.recover_truncating().unwrap();
        assert_eq!(records, sample_records());
        assert_eq!(summary.bytes_discarded, 0);
        assert_eq!(counts(), (reads + 1, truncates.clone(), syncs));
        assert_eq!(reopened.len_bytes() as u64, clean_len);

        // A torn tail: one read, one truncate to the clean prefix, whose
        // fsync is the only one.
        reopened.arm_crash_at_seq(reopened.next_seq(), CrashMode::Torn);
        assert_eq!(
            reopened.append(&sample_records()[0]),
            Err(StorageError::Crashed)
        );
        let (reads, truncates, syncs) = counts();
        let reopened = Journal::open(backend.clone()).unwrap();
        let (records, summary) = reopened.recover_truncating().unwrap();
        assert_eq!(records.len(), sample_records().len());
        assert!(summary.bytes_discarded > 0);
        assert_eq!(backend.reads.load(SeqCst), reads + 1);
        assert_eq!(
            *backend.truncates.lock(),
            [truncates, vec![clean_len]].concat()
        );
        assert_eq!(backend.synced.lock().len(), syncs + 1);
        assert_eq!(*backend.synced.lock().last().unwrap(), clean_len);

        // A journal written since `open` replays what is on the medium now.
        let reopened = Journal::open(backend.clone()).unwrap();
        reopened.append(&sample_records()[0]).unwrap();
        let (records, _) = reopened.recover_truncating().unwrap();
        assert_eq!(records.len(), sample_records().len() + 1);
    }

    #[test]
    fn a_fresh_journal_never_rewrites_the_log() {
        use std::sync::atomic::Ordering::SeqCst;
        // Nothing on the medium: nothing to truncate, nothing written.
        let backend = Arc::new(SyncLog::default());
        let journal = Journal::with_backend(backend.clone()).unwrap();
        assert_eq!(backend.object_len(StorageObject::Journal).unwrap(), None);
        assert!(backend.truncates.lock().is_empty());
        assert!(backend.synced.lock().is_empty());
        journal.append(&sample_records()[0]).unwrap();

        // A previous log is cut to empty in place, not replaced.
        let journal = Journal::with_backend(backend.clone()).unwrap();
        assert_eq!(*backend.truncates.lock(), [0]);
        assert_eq!(journal.len_bytes(), 0);
        assert_eq!(backend.rewrites.load(SeqCst), 0);
        assert_eq!(Journal::open(backend.clone()).unwrap().frame_count(), 0);
        journal.append(&sample_records()[0]).unwrap();
        assert_eq!(journal.recover_truncating().unwrap().0.len(), 1);
    }

    #[test]
    fn a_torn_group_reaches_the_medium_as_one_append() {
        let backend = Arc::new(SyncLog::default());
        let journal = Journal::with_backend(backend.clone()).unwrap();
        journal.arm_crash_at_seq(0, CrashMode::Torn);
        assert_eq!(
            journal.append(&sample_records()[4]),
            Err(StorageError::Crashed)
        );
        assert!(
            journal.len_bytes() > 0,
            "the torn prefix reached the medium"
        );
        assert_eq!(*backend.appends.lock(), [journal.len_bytes()]);

        let backend = Arc::new(SyncLog::default());
        let journal = Journal::with_backend(backend.clone()).unwrap();
        journal.arm_crash_at_seq(2, CrashMode::Torn);
        assert_eq!(
            journal.append_batch(&sample_records()),
            Err(StorageError::Crashed)
        );
        assert_eq!(
            *backend.appends.lock(),
            [journal.len_bytes()],
            "the durable prefix and the torn frame are one append"
        );
    }
}

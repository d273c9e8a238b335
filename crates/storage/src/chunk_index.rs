//! The traditional on-disk chunk fingerprint index.
//!
//! Every unique chunk stored by a node gets an entry mapping its fingerprint to the
//! container (and offset) holding it.  For a large dataset this index does not fit in
//! RAM — that is exactly the disk-bottleneck problem Σ-Dedupe's similarity index and
//! fingerprint cache are designed to avoid — so every lookup against it counts in
//! [`ChunkIndexStats::lookups`] as one random read.  The paper keeps this index only
//! as a fallback for fingerprints that miss in the cache and treats such misses as a
//! "relatively rare occurrence" (Section 3.3); experiments can also disable it to
//! obtain the similarity-index-only approximate deduplication mode of Figure 5(b).
//!
//! Like the [`SimilarityIndex`](crate::SimilarityIndex), the hash table is
//! partitioned into lock *stripes* so that concurrent backup streams contend on
//! 1/`stripe_count` of the index instead of one global lock.  On top of the plain
//! insert/lookup API the index offers an atomic [`claim`](ChunkIndex::claim) /
//! [`finalize`](ChunkIndex::finalize) protocol: a stream that wants to store a new
//! chunk first claims its fingerprint, and exactly one of several racing streams
//! wins the claim.  This is what keeps the unique-chunk set — and therefore the
//! physical bytes a node stores — deterministic under the parallel ingest pipeline.

use crate::ContainerId;
use sigma_hashkit::{Fingerprint, FingerprintMap};
use std::sync::atomic::{AtomicU64, Ordering};

/// Where a unique chunk is stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkLocation {
    /// Container holding the chunk.
    pub container: ContainerId,
    /// Offset of the chunk within the container's data section.
    pub offset: u32,
    /// Chunk length in bytes.
    pub len: u32,
}

/// Outcome of [`ChunkIndex::claim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClaimOutcome {
    /// The fingerprint was absent; the caller now owns it and must either
    /// [`finalize`](ChunkIndex::finalize) the entry with the chunk's storage
    /// location or [`abandon`](ChunkIndex::abandon) it on failure.
    Claimed,
    /// The fingerprint is already stored (or claimed by a concurrent stream that
    /// is about to store it): the chunk is a duplicate.
    Duplicate,
}

/// One index entry: either finalized with a location, or claimed by a stream that
/// is still appending the chunk to its open container.  A claim that took over a
/// stale entry keeps its location, which lookups answer until the claim is
/// finalized and an abandon restores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    Pending(Option<ChunkLocation>),
    Stored(ChunkLocation),
}

impl Slot {
    /// The location a lookup answers.
    fn location(&self) -> Option<ChunkLocation> {
        match self {
            Slot::Stored(location) | Slot::Pending(Some(location)) => Some(*location),
            Slot::Pending(None) => None,
        }
    }
}

/// Statistics of a [`ChunkIndex`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ChunkIndexStats {
    /// Lookup operations (each one random read of the on-disk index).
    pub lookups: u64,
    /// Lookups that found an entry.
    pub hits: u64,
    /// Insert operations.
    pub inserts: u64,
    /// Current number of entries.
    pub entries: u64,
}

/// A striped hash-table chunk index with lookup accounting.
///
/// # Example
///
/// ```
/// use sigma_storage::{ChunkIndex, ChunkLocation, ContainerId};
/// use sigma_hashkit::{Digest, Sha1};
///
/// let index = ChunkIndex::new();
/// let fp = Sha1::fingerprint(b"unique chunk");
/// let loc = ChunkLocation { container: ContainerId::new(1), offset: 0, len: 17 };
/// assert!(index.insert(fp, loc).is_none());
/// assert_eq!(index.lookup(&fp), Some(loc));
/// ```
#[derive(Debug)]
pub struct ChunkIndex {
    stripes: Vec<parking_lot::RwLock<FingerprintMap<Slot>>>,
    lookups: AtomicU64,
    hits: AtomicU64,
    inserts: AtomicU64,
}

/// Default number of lock stripes; enough that eight concurrent streams rarely
/// collide, cheap enough to allocate per node.
const DEFAULT_STRIPES: usize = 256;

impl Default for ChunkIndex {
    fn default() -> Self {
        ChunkIndex::with_stripes(DEFAULT_STRIPES)
    }
}

impl ChunkIndex {
    /// Creates an index with the default stripe count.
    pub fn new() -> Self {
        ChunkIndex::default()
    }

    /// Creates an index with `stripe_count` lock stripes (rounded up to a power of
    /// two).
    ///
    /// # Panics
    ///
    /// Panics if `stripe_count` is zero.
    pub fn with_stripes(stripe_count: usize) -> Self {
        assert!(stripe_count > 0, "stripe count must be non-zero");
        let stripes = stripe_count.next_power_of_two();
        ChunkIndex {
            stripes: (0..stripes)
                .map(|_| parking_lot::RwLock::new(FingerprintMap::default()))
                .collect(),
            lookups: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
        }
    }

    /// Number of lock stripes (always a power of two).
    pub fn stripe_count(&self) -> usize {
        self.stripes.len()
    }

    fn stripe_of(&self, fp: &Fingerprint) -> usize {
        (fp.prefix_u64() as usize) & (self.stripes.len() - 1)
    }

    /// Inserts an entry, returning the previous location if the fingerprint was
    /// already present (and finalized).
    pub fn insert(&self, fp: Fingerprint, location: ChunkLocation) -> Option<ChunkLocation> {
        self.inserts.fetch_add(1, Ordering::Relaxed);
        let stripe = self.stripe_of(&fp);
        match self.stripes[stripe]
            .write()
            .insert(fp, Slot::Stored(location))
        {
            Some(Slot::Stored(prev)) => Some(prev),
            _ => None,
        }
    }

    /// Atomically claims a fingerprint that is about to be stored.
    ///
    /// Exactly one of several streams racing on the same new fingerprint receives
    /// [`ClaimOutcome::Claimed`]; every other one receives
    /// [`ClaimOutcome::Duplicate`].  A successful claim must be completed with
    /// [`finalize`](ChunkIndex::finalize) once the chunk has a storage location, or
    /// rolled back with [`abandon`](ChunkIndex::abandon) if storing fails.
    ///
    /// A finalized entry is a duplicate only while `holds` accepts its location
    /// (it runs under the entry's stripe lock).  Otherwise the claim takes the
    /// entry over and the chunk is stored again; lookups keep answering the old
    /// location until the claim is finalized, and an abandon restores it.
    ///
    /// Counted as a lookup plus, when the claim is won, as an insert.
    pub fn claim(
        &self,
        fp: Fingerprint,
        holds: impl FnOnce(&ChunkLocation) -> bool,
    ) -> ClaimOutcome {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        let stripe = self.stripe_of(&fp);
        let mut map = self.stripes[stripe].write();
        let stale = match map.get(&fp) {
            None => None,
            Some(Slot::Stored(location)) if !holds(location) => Some(*location),
            Some(_) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return ClaimOutcome::Duplicate;
            }
        };
        map.insert(fp, Slot::Pending(stale));
        drop(map);
        self.inserts.fetch_add(1, Ordering::Relaxed);
        ClaimOutcome::Claimed
    }

    /// Records the storage location of a previously claimed fingerprint.
    ///
    /// Not counted as an insert: the claim already counted it, this merely
    /// fills in the location.
    pub fn finalize(&self, fp: Fingerprint, location: ChunkLocation) {
        let stripe = self.stripe_of(&fp);
        self.stripes[stripe]
            .write()
            .insert(fp, Slot::Stored(location));
    }

    /// Rolls back a claim whose chunk could not be stored, so the fingerprint can
    /// be claimed again later; an entry the claim took over comes back.
    /// Finalized entries are left untouched.
    pub fn abandon(&self, fp: &Fingerprint) {
        let stripe = self.stripe_of(fp);
        let mut map = self.stripes[stripe].write();
        match map.get(fp) {
            Some(Slot::Pending(Some(stale))) => {
                let stale = *stale;
                map.insert(*fp, Slot::Stored(stale));
            }
            Some(Slot::Pending(None)) => {
                map.remove(fp);
            }
            _ => {}
        }
    }

    /// Looks up the location of a chunk fingerprint.
    ///
    /// A fingerprint that is claimed but not yet finalized reads as absent — or
    /// as the entry the claim took over: its new location is not known yet.
    pub fn lookup(&self, fp: &Fingerprint) -> Option<ChunkLocation> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        let stripe = self.stripe_of(fp);
        let found = self.stripes[stripe].read().get(fp).and_then(Slot::location);
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// True if the fingerprint is indexed — claimed or finalized — without
    /// incrementing the lookup statistics (used by invariant checks in tests
    /// and by the stateful baseline router's in-RAM probe).
    pub fn contains_silent(&self, fp: &Fingerprint) -> bool {
        let stripe = self.stripe_of(fp);
        self.stripes[stripe].read().contains_key(fp)
    }

    /// The finalized location of a fingerprint, without touching the lookup
    /// statistics.
    ///
    /// The garbage collector's mark phase walks every chunk of every live recipe;
    /// counting each walk as a cache-path lookup would drown the ingest
    /// statistics the experiments report, so the mark phase reads the index
    /// silently — on a real node it would scan the index sequentially anyway.
    pub fn lookup_silent(&self, fp: &Fingerprint) -> Option<ChunkLocation> {
        let stripe = self.stripe_of(fp);
        self.stripes[stripe].read().get(fp).and_then(Slot::location)
    }

    /// Removes the entry for `fp` **iff** it still points at `container`.
    ///
    /// This is the sweep phase's striped removal primitive: a chunk declared dead
    /// in one container may meanwhile have been re-ingested into a *different*
    /// container (its entry overwritten), in which case the newer entry must
    /// survive the old container's collection.  Returns `true` when an entry was
    /// removed.
    pub fn remove_if_at(&self, fp: &Fingerprint, container: ContainerId) -> bool {
        let stripe = self.stripe_of(fp);
        let mut map = self.stripes[stripe].write();
        match map.get(fp) {
            Some(Slot::Stored(loc)) if loc.container == container => {
                map.remove(fp);
                true
            }
            _ => false,
        }
    }

    /// Re-points the entry for `fp` at `location` **iff** it currently points at
    /// `container` — the compaction primitive: live chunks rewritten into a fresh
    /// container keep exactly one index entry, atomically per stripe.  Returns
    /// `true` when the entry was retargeted.
    pub fn retarget(
        &self,
        fp: &Fingerprint,
        container: ContainerId,
        location: ChunkLocation,
    ) -> bool {
        let stripe = self.stripe_of(fp);
        let mut map = self.stripes[stripe].write();
        match map.get(fp) {
            Some(Slot::Stored(loc)) if loc.container == container => {
                map.insert(*fp, Slot::Stored(location));
                true
            }
            _ => false,
        }
    }

    /// Every finalized entry as `(fingerprint, location)` pairs, sorted by
    /// fingerprint — the chunk-index half of a compaction snapshot.  Pending
    /// claims are skipped (their chunks have no durable location yet), except
    /// for the entry a claim took over.
    pub fn finalized_entries(&self) -> Vec<(Fingerprint, ChunkLocation)> {
        let mut out = Vec::new();
        for stripe in &self.stripes {
            for (fp, slot) in stripe.read().iter() {
                if let Some(loc) = slot.location() {
                    out.push((*fp, loc));
                }
            }
        }
        out.sort_unstable_by_key(|(fp, _)| *fp);
        out
    }

    /// Number of indexed chunks.
    pub fn len(&self) -> usize {
        self.stripes.iter().map(|s| s.read().len()).sum()
    }

    /// True when the index holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Estimated size in bytes (entries × 40 B, the paper's index-entry estimate).
    pub fn estimated_bytes(&self) -> usize {
        self.len() * 40
    }

    /// Snapshot of the index statistics.
    pub fn stats(&self) -> ChunkIndexStats {
        ChunkIndexStats {
            lookups: self.lookups.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            entries: self.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigma_hashkit::{Digest, Sha1};
    use std::sync::Arc;

    fn fp(i: u64) -> Fingerprint {
        Sha1::fingerprint(&i.to_le_bytes())
    }

    fn loc(c: u64, offset: u32) -> ChunkLocation {
        ChunkLocation {
            container: ContainerId::new(c),
            offset,
            len: 4096,
        }
    }

    #[test]
    fn insert_and_lookup() {
        let idx = ChunkIndex::new();
        assert!(idx.insert(fp(1), loc(1, 0)).is_none());
        assert_eq!(idx.insert(fp(1), loc(2, 0)), Some(loc(1, 0)));
        assert_eq!(idx.lookup(&fp(1)), Some(loc(2, 0)));
        assert_eq!(idx.lookup(&fp(2)), None);
        assert_eq!(idx.len(), 1);
        assert!(!idx.is_empty());
    }

    #[test]
    fn stats_and_size_estimate() {
        let idx = ChunkIndex::new();
        for i in 0..50u64 {
            idx.insert(fp(i), loc(i, 0));
        }
        for i in 0..100u64 {
            idx.lookup(&fp(i));
        }
        let s = idx.stats();
        assert_eq!(s.inserts, 50);
        assert_eq!(s.lookups, 100);
        assert_eq!(s.hits, 50);
        assert_eq!(s.entries, 50);
        assert_eq!(idx.estimated_bytes(), 50 * 40);
    }

    #[test]
    fn contains_silent_does_not_touch_stats() {
        let idx = ChunkIndex::new();
        idx.insert(fp(1), loc(1, 0));
        assert!(idx.contains_silent(&fp(1)));
        assert!(!idx.contains_silent(&fp(2)));
        assert_eq!(idx.stats().lookups, 0);
    }

    #[test]
    fn stripe_count_rounds_to_power_of_two() {
        assert_eq!(ChunkIndex::with_stripes(1).stripe_count(), 1);
        assert_eq!(ChunkIndex::with_stripes(3).stripe_count(), 4);
        assert_eq!(ChunkIndex::new().stripe_count(), 256);
    }

    #[test]
    fn entries_spread_across_stripes() {
        let idx = ChunkIndex::with_stripes(8);
        for i in 0..256u64 {
            idx.insert(fp(i), loc(i, 0));
        }
        assert_eq!(idx.len(), 256);
        let populated = idx.stripes.iter().filter(|s| !s.read().is_empty()).count();
        assert!(populated > 1, "striping must spread the keys");
    }

    #[test]
    fn claim_is_won_exactly_once() {
        let idx = ChunkIndex::new();
        assert_eq!(idx.claim(fp(1), |_| true), ClaimOutcome::Claimed);
        assert_eq!(idx.claim(fp(1), |_| true), ClaimOutcome::Duplicate);
        // A pending claim has no location yet.
        assert_eq!(idx.lookup(&fp(1)), None);
        assert!(idx.contains_silent(&fp(1)));
        idx.finalize(fp(1), loc(3, 0));
        assert_eq!(idx.lookup(&fp(1)), Some(loc(3, 0)));
        assert_eq!(idx.claim(fp(1), |_| true), ClaimOutcome::Duplicate);
    }

    #[test]
    fn a_claim_takes_over_an_entry_the_caller_no_longer_holds() {
        let idx = ChunkIndex::new();
        idx.insert(fp(1), loc(1, 0));
        let gone = |l: &ChunkLocation| l.container != ContainerId::new(1);
        assert_eq!(idx.claim(fp(1), gone), ClaimOutcome::Claimed);
        assert_eq!(
            idx.claim(fp(1), |_| true),
            ClaimOutcome::Duplicate,
            "pending"
        );
        // Until the claim settles, lookups still answer the old location...
        assert_eq!(idx.lookup(&fp(1)), Some(loc(1, 0)));
        // ...an abandon restores it, and a finalize replaces it.
        idx.abandon(&fp(1));
        assert_eq!(idx.lookup(&fp(1)), Some(loc(1, 0)));
        assert_eq!(idx.claim(fp(1), gone), ClaimOutcome::Claimed);
        idx.finalize(fp(1), loc(2, 0));
        assert_eq!(idx.claim(fp(1), gone), ClaimOutcome::Duplicate);
        assert_eq!(idx.lookup(&fp(1)), Some(loc(2, 0)));
    }

    #[test]
    fn abandon_rolls_back_only_pending_claims() {
        let idx = ChunkIndex::new();
        idx.claim(fp(1), |_| true);
        idx.abandon(&fp(1));
        assert!(!idx.contains_silent(&fp(1)));
        // Re-claimable after abandon.
        assert_eq!(idx.claim(fp(1), |_| true), ClaimOutcome::Claimed);
        idx.finalize(fp(1), loc(1, 0));
        // Abandon after finalize is a no-op.
        idx.abandon(&fp(1));
        assert_eq!(idx.lookup(&fp(1)), Some(loc(1, 0)));
    }

    #[test]
    fn lookup_silent_reads_without_stats() {
        let idx = ChunkIndex::new();
        idx.insert(fp(1), loc(1, 0));
        assert_eq!(idx.lookup_silent(&fp(1)), Some(loc(1, 0)));
        assert_eq!(idx.lookup_silent(&fp(2)), None);
        // A pending claim has no location.
        idx.claim(fp(3), |_| true);
        assert_eq!(idx.lookup_silent(&fp(3)), None);
        let s = idx.stats();
        assert_eq!(s.lookups, 1, "only the claim counted");
    }

    #[test]
    fn remove_if_at_only_removes_matching_entries() {
        let idx = ChunkIndex::new();
        idx.insert(fp(1), loc(1, 0));
        assert!(
            !idx.remove_if_at(&fp(1), ContainerId::new(2)),
            "wrong container"
        );
        assert!(idx.contains_silent(&fp(1)));
        assert!(idx.remove_if_at(&fp(1), ContainerId::new(1)));
        assert!(!idx.contains_silent(&fp(1)));
        // Absent entries and pending claims are untouched.
        assert!(!idx.remove_if_at(&fp(1), ContainerId::new(1)));
        idx.claim(fp(2), |_| true);
        assert!(!idx.remove_if_at(&fp(2), ContainerId::new(1)));
        assert!(idx.contains_silent(&fp(2)));
    }

    #[test]
    fn retarget_moves_only_matching_entries() {
        let idx = ChunkIndex::new();
        idx.insert(fp(1), loc(1, 0));
        assert!(idx.retarget(&fp(1), ContainerId::new(1), loc(9, 64)));
        assert_eq!(idx.lookup_silent(&fp(1)), Some(loc(9, 64)));
        // A second retarget against the old container is a no-op.
        assert!(!idx.retarget(&fp(1), ContainerId::new(1), loc(7, 0)));
        assert_eq!(idx.lookup_silent(&fp(1)), Some(loc(9, 64)));
        assert!(
            !idx.retarget(&fp(2), ContainerId::new(1), loc(7, 0)),
            "absent"
        );
    }

    #[test]
    fn concurrent_claims_have_one_winner_per_fingerprint() {
        let idx = Arc::new(ChunkIndex::with_stripes(64));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let idx = idx.clone();
            handles.push(std::thread::spawn(move || {
                let mut won = 0u64;
                for i in 0..500u64 {
                    if idx.claim(fp(i), |_| true) == ClaimOutcome::Claimed {
                        idx.finalize(fp(i), loc(i, 0));
                        won += 1;
                    }
                }
                won
            }));
        }
        let total_wins: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total_wins, 500, "each fingerprint claimed exactly once");
        assert_eq!(idx.len(), 500);
    }
}

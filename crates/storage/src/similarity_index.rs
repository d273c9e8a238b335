//! The similarity index: representative fingerprint → container ID.
//!
//! This is the central RAM structure of Σ-Dedupe's intra-node design (Section 3.3).
//! Each entry maps a representative fingerprint (RFP — a member of some stored
//! super-chunk's handprint) to the container that super-chunk was written to.  The
//! index is consulted twice:
//!
//! 1. during **pre-routing**, when a backup client asks a candidate node how many of
//!    a super-chunk's representative fingerprints it has already stored (the
//!    resemblance count of Algorithm 1), and
//! 2. during **deduplication**, when a matched RFP identifies a container whose full
//!    fingerprint list is prefetched into the chunk fingerprint cache.
//!
//! To let multiple backup streams query concurrently on a multi-core node, the hash
//! table is partitioned into lock *stripes*; Figure 4(b) of the paper studies the
//! lookup throughput as a function of the number of locks, which is reproduced by
//! the `fig4b_index_locks` bench.

use crate::ContainerId;
use parking_lot::RwLock;
use sigma_hashkit::{Fingerprint, FingerprintMap};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Aggregate statistics of a [`SimilarityIndex`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SimilarityIndexStats {
    /// Number of lookup calls served.
    pub lookups: u64,
    /// Number of lookups that found an entry.
    pub hits: u64,
    /// Number of insert calls.
    pub inserts: u64,
    /// Current number of entries.
    pub entries: u64,
}

impl SimilarityIndexStats {
    /// Fraction of lookups that hit, or 0 when no lookups were made.
    pub fn hit_ratio(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }
}

/// A striped, thread-safe map from representative fingerprints to container IDs.
///
/// # Example
///
/// ```
/// use sigma_storage::{ContainerId, SimilarityIndex};
/// use sigma_hashkit::{Digest, Sha1};
///
/// let index = SimilarityIndex::new(64);
/// let rfp = Sha1::fingerprint(b"representative");
/// index.insert(rfp, ContainerId::new(3));
/// assert_eq!(index.lookup(&rfp), Some(ContainerId::new(3)));
/// assert_eq!(index.len(), 1);
/// ```
#[derive(Debug)]
pub struct SimilarityIndex {
    stripes: Vec<RwLock<FingerprintMap<ContainerId>>>,
    /// Reverse map for container migration: candidate RFPs per container, so
    /// [`extract_container`](SimilarityIndex::extract_container) does not have to
    /// scan every stripe.  Entries are *candidates* — an RFP later overwritten to
    /// another container stays listed here and is filtered against the forward
    /// map at extraction time.
    by_container: RwLock<HashMap<ContainerId, Vec<Fingerprint>>>,
    lookups: AtomicU64,
    hits: AtomicU64,
    inserts: AtomicU64,
}

impl SimilarityIndex {
    /// Creates an index with `lock_count` lock stripes.
    ///
    /// The paper finds 1024 locks to be a good setting for 8 concurrent streams;
    /// the count is rounded up to a power of two.
    ///
    /// # Panics
    ///
    /// Panics if `lock_count` is zero.
    pub fn new(lock_count: usize) -> Self {
        assert!(lock_count > 0, "lock count must be non-zero");
        let stripes = lock_count.next_power_of_two();
        SimilarityIndex {
            stripes: (0..stripes)
                .map(|_| RwLock::new(FingerprintMap::default()))
                .collect(),
            by_container: RwLock::new(HashMap::new()),
            lookups: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
        }
    }

    /// Number of lock stripes (always a power of two).
    pub fn stripe_count(&self) -> usize {
        self.stripes.len()
    }

    /// The lock stripe a fingerprint's entry lives under.
    pub fn stripe_of(&self, fp: &Fingerprint) -> usize {
        (fp.prefix_u64() as usize) & (self.stripes.len() - 1)
    }

    /// Inserts (or overwrites) the container mapping for a representative fingerprint.
    pub fn insert(&self, rfp: Fingerprint, container: ContainerId) {
        self.inserts.fetch_add(1, Ordering::Relaxed);
        let stripe = self.stripe_of(&rfp);
        let previous = self.stripes[stripe].write().insert(rfp, container);
        // Track the reverse candidate only on a fresh mapping: re-inserting the
        // same rfp → container pair (the common repeated-super-chunk case) must
        // not grow the candidate list.
        if previous != Some(container) {
            self.by_container
                .write()
                .entry(container)
                .or_default()
                .push(rfp);
        }
    }

    /// Looks up the container that stores the super-chunk this RFP belongs to.
    pub fn lookup(&self, rfp: &Fingerprint) -> Option<ContainerId> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        let stripe = self.stripe_of(rfp);
        let found = self.stripes[stripe].read().get(rfp).copied();
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Counts how many of the given representative fingerprints are present.
    ///
    /// This is the "resemblance count" a candidate node returns during pre-routing
    /// (step 2 of Algorithm 1); it costs one message regardless of handprint size.
    pub fn count_matches(&self, rfps: &[Fingerprint]) -> usize {
        rfps.iter().filter(|rfp| self.lookup(rfp).is_some()).count()
    }

    /// Looks up many RFPs at once, returning the matched container IDs (deduplicated,
    /// in first-match order) for cache prefetching.
    pub fn matched_containers(&self, rfps: &[Fingerprint]) -> Vec<ContainerId> {
        let mut out = Vec::new();
        for rfp in rfps {
            if let Some(cid) = self.lookup(rfp) {
                if !out.contains(&cid) {
                    out.push(cid);
                }
            }
        }
        out
    }

    /// Returns every representative fingerprint currently mapped to `container`,
    /// sorted ascending, *without* removing anything.
    ///
    /// The read-only half of a container migration: the destination needs the
    /// RFPs before it durably adopts the container, but the source must keep
    /// them until the adoption is known to have succeeded — otherwise a crashed
    /// destination would silently discard the container's similarity state.
    pub fn peek_container(&self, container: ContainerId) -> Vec<Fingerprint> {
        let candidates = self
            .by_container
            .read()
            .get(&container)
            .cloned()
            .unwrap_or_default();
        let mut out = Vec::with_capacity(candidates.len());
        for rfp in candidates {
            let stripe = self.stripe_of(&rfp);
            if self.stripes[stripe].read().get(&rfp) == Some(&container) {
                out.push(rfp);
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Removes and returns every representative fingerprint mapped to `container`,
    /// sorted ascending.
    ///
    /// This is the source-side half of a container migration: the extracted RFPs
    /// are re-inserted on the destination node under the container's new local ID,
    /// so similar super-chunks route to (and deduplicate on) the new owner.  Cost
    /// is proportional to the container's own candidate list, not the index size,
    /// so draining a many-container node stays linear overall.
    pub fn extract_container(&self, container: ContainerId) -> Vec<Fingerprint> {
        let candidates = self
            .by_container
            .write()
            .remove(&container)
            .unwrap_or_default();
        let mut extracted = Vec::with_capacity(candidates.len());
        for rfp in candidates {
            let stripe = self.stripe_of(&rfp);
            let mut map = self.stripes[stripe].write();
            // Only candidates still mapping to this container belong to it; an
            // rfp since overwritten to another container stays where it is.
            if map.get(&rfp) == Some(&container) {
                map.remove(&rfp);
                extracted.push(rfp);
            }
        }
        extracted.sort_unstable();
        extracted.dedup();
        extracted
    }

    /// Every entry as `(representative fingerprint, container)` pairs, sorted by
    /// fingerprint — the similarity-index half of a compaction snapshot.
    pub fn entries(&self) -> Vec<(Fingerprint, ContainerId)> {
        let mut out = Vec::new();
        for stripe in &self.stripes {
            for (fp, cid) in stripe.read().iter() {
                out.push((*fp, *cid));
            }
        }
        out.sort_unstable_by_key(|(fp, _)| *fp);
        out
    }

    /// Current number of entries across all stripes.
    pub fn len(&self) -> usize {
        self.stripes.iter().map(|s| s.read().len()).sum()
    }

    /// True when the index holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Estimated RAM usage in bytes (entries × (fingerprint + container id)).
    ///
    /// This is the figure used for the RAM-usage comparison of Section 4.3
    /// (similarity index vs. full chunk index vs. Extreme Binning file index).
    pub fn estimated_ram_bytes(&self) -> usize {
        self.len() * (Fingerprint::LEN + std::mem::size_of::<ContainerId>())
    }

    /// Snapshot of the aggregate statistics.
    pub fn stats(&self) -> SimilarityIndexStats {
        SimilarityIndexStats {
            lookups: self.lookups.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            entries: self.len() as u64,
        }
    }
}

impl Default for SimilarityIndex {
    /// An index with the paper's preferred 1024 lock stripes.
    fn default() -> Self {
        SimilarityIndex::new(1024)
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

    #[test]
    fn insert_lookup_roundtrip() {
        let idx = SimilarityIndex::new(8);
        for i in 0..100u64 {
            idx.insert(fp(i), ContainerId::new(i));
        }
        assert_eq!(idx.len(), 100);
        for i in 0..100u64 {
            assert_eq!(idx.lookup(&fp(i)), Some(ContainerId::new(i)));
        }
        assert_eq!(idx.lookup(&fp(1000)), None);
    }

    #[test]
    fn insert_overwrites() {
        let idx = SimilarityIndex::new(4);
        idx.insert(fp(1), ContainerId::new(1));
        idx.insert(fp(1), ContainerId::new(2));
        assert_eq!(idx.lookup(&fp(1)), Some(ContainerId::new(2)));
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn count_matches_counts_only_present() {
        let idx = SimilarityIndex::new(4);
        idx.insert(fp(1), ContainerId::new(1));
        idx.insert(fp(2), ContainerId::new(1));
        let queries = vec![fp(1), fp(2), fp(3), fp(4)];
        assert_eq!(idx.count_matches(&queries), 2);
    }

    #[test]
    fn matched_containers_deduplicates() {
        let idx = SimilarityIndex::new(4);
        idx.insert(fp(1), ContainerId::new(9));
        idx.insert(fp(2), ContainerId::new(9));
        idx.insert(fp(3), ContainerId::new(5));
        let got = idx.matched_containers(&[fp(1), fp(2), fp(3), fp(4)]);
        assert_eq!(got, vec![ContainerId::new(9), ContainerId::new(5)]);
    }

    #[test]
    fn extract_container_removes_exactly_its_entries() {
        let idx = SimilarityIndex::new(8);
        idx.insert(fp(1), ContainerId::new(9));
        idx.insert(fp(2), ContainerId::new(9));
        idx.insert(fp(3), ContainerId::new(5));
        // fp(2) is overwritten to container 5: it must NOT be extracted with 9.
        idx.insert(fp(2), ContainerId::new(5));
        // Repeated identical insert must not duplicate the extracted entry.
        idx.insert(fp(1), ContainerId::new(9));

        let mut expected = vec![fp(1)];
        expected.sort_unstable();
        assert_eq!(idx.extract_container(ContainerId::new(9)), expected);
        assert_eq!(idx.lookup(&fp(1)), None, "extracted entries are removed");
        assert_eq!(idx.lookup(&fp(2)), Some(ContainerId::new(5)));
        assert_eq!(idx.lookup(&fp(3)), Some(ContainerId::new(5)));
        // Extracting again (or a never-seen container) yields nothing.
        assert!(idx.extract_container(ContainerId::new(9)).is_empty());
        assert!(idx.extract_container(ContainerId::new(77)).is_empty());
        // Remaining entries are still extractable.
        let mut rest = idx.extract_container(ContainerId::new(5));
        rest.sort_unstable();
        let mut expected = vec![fp(2), fp(3)];
        expected.sort_unstable();
        assert_eq!(rest, expected);
        assert!(idx.is_empty());
    }

    #[test]
    fn stripe_count_rounds_to_power_of_two() {
        assert_eq!(SimilarityIndex::new(1).stripe_count(), 1);
        assert_eq!(SimilarityIndex::new(3).stripe_count(), 4);
        assert_eq!(SimilarityIndex::new(1000).stripe_count(), 1024);
        assert_eq!(SimilarityIndex::default().stripe_count(), 1024);
    }

    #[test]
    fn stats_track_hits_and_misses() {
        let idx = SimilarityIndex::new(4);
        idx.insert(fp(1), ContainerId::new(1));
        idx.lookup(&fp(1));
        idx.lookup(&fp(2));
        let s = idx.stats();
        assert_eq!(s.lookups, 2);
        assert_eq!(s.hits, 1);
        assert_eq!(s.inserts, 1);
        assert_eq!(s.entries, 1);
        assert!((s.hit_ratio() - 0.5).abs() < f64::EPSILON);
    }

    #[test]
    fn ram_estimate_grows_linearly() {
        let idx = SimilarityIndex::new(4);
        assert_eq!(idx.estimated_ram_bytes(), 0);
        for i in 0..10u64 {
            idx.insert(fp(i), ContainerId::new(i));
        }
        assert_eq!(idx.estimated_ram_bytes(), 10 * (Fingerprint::LEN + 8));
    }

    #[test]
    fn concurrent_inserts_and_lookups() {
        let idx = Arc::new(SimilarityIndex::new(64));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let idx = idx.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..1000u64 {
                    let key = t * 1000 + i;
                    idx.insert(fp(key), ContainerId::new(key));
                    assert_eq!(idx.lookup(&fp(key)), Some(ContainerId::new(key)));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(idx.len(), 8000);
    }
}

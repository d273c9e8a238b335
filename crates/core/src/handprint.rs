//! Handprinting: deterministic min-k sampling of chunk fingerprints.
//!
//! Section 2.2 of the paper generalises Broder's theorem: if `h` is (approximately)
//! min-wise independent, the probability that two super-chunks share at least one of
//! their k smallest chunk fingerprints is at least `1 - (1 - r)^k`, where `r` is the
//! Jaccard resemblance of the two chunk-fingerprint sets.  The k smallest
//! fingerprints of a super-chunk therefore form a *handprint* whose overlap with
//! stored handprints is a cheap, RAM-friendly resemblance detector — the basis of
//! both the similarity router (inter-node) and the similarity index (intra-node).

use sigma_hashkit::Fingerprint;
use std::collections::BTreeSet;

/// Exact Jaccard index of two fingerprint sets.
///
/// Used as the ground-truth resemblance in the Figure 1 reproduction; duplicates in
/// the inputs are ignored (set semantics).  Returns 1.0 when both sets are empty.
///
/// # Example
///
/// ```
/// use sigma_core::jaccard;
/// use sigma_hashkit::{Digest, Sha1};
///
/// let a: Vec<_> = [b"x" as &[u8], b"y", b"z"].iter().map(|d| Sha1::fingerprint(d)).collect();
/// let b: Vec<_> = [b"y" as &[u8], b"z", b"w"].iter().map(|d| Sha1::fingerprint(d)).collect();
/// let r = jaccard(&a, &b);
/// assert!((r - 0.5).abs() < 1e-9); // |{y,z}| / |{x,y,z,w}|
/// ```
pub fn jaccard(a: &[Fingerprint], b: &[Fingerprint]) -> f64 {
    let sa: BTreeSet<_> = a.iter().copied().collect();
    let sb: BTreeSet<_> = b.iter().copied().collect();
    if sa.is_empty() && sb.is_empty() {
        return 1.0;
    }
    let intersection = sa.intersection(&sb).count();
    let union = sa.len() + sb.len() - intersection;
    intersection as f64 / union as f64
}

/// The k smallest chunk fingerprints of a super-chunk, kept sorted ascending.
///
/// # Example
///
/// ```
/// use sigma_core::Handprint;
/// use sigma_hashkit::{Digest, Sha1};
///
/// let fps: Vec<_> = (0..100u32).map(|i| Sha1::fingerprint(&i.to_le_bytes())).collect();
/// let hp = Handprint::from_fingerprints(fps.iter().copied(), 8);
/// assert_eq!(hp.size(), 8);
/// // The handprint of the same data is identical, so the overlap is total.
/// let hp2 = Handprint::from_fingerprints(fps.iter().copied(), 8);
/// assert_eq!(hp.overlap(&hp2), 8);
/// assert!((hp.estimate_resemblance(&hp2) - 1.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Handprint {
    /// Sorted ascending, deduplicated, at most k entries.
    rfps: Vec<Fingerprint>,
}

impl Handprint {
    /// Selects the `k` smallest distinct fingerprints from `fingerprints`.
    ///
    /// If the input has fewer than `k` distinct fingerprints the handprint is
    /// correspondingly smaller.  A `k` of zero yields an empty handprint.
    pub fn from_fingerprints(
        fingerprints: impl IntoIterator<Item = Fingerprint>,
        k: usize,
    ) -> Self {
        if k == 0 {
            return Handprint::default();
        }
        // A bounded BTreeSet keeps the k smallest seen so far.
        let mut set: BTreeSet<Fingerprint> = BTreeSet::new();
        for fp in fingerprints {
            if set.len() < k {
                set.insert(fp);
            } else if let Some(max) = set.iter().next_back().copied() {
                if fp < max && set.insert(fp) {
                    set.remove(&max);
                }
            }
        }
        Handprint {
            rfps: set.into_iter().collect(),
        }
    }

    /// The representative fingerprints, sorted ascending.
    pub fn representative_fingerprints(&self) -> &[Fingerprint] {
        &self.rfps
    }

    /// Number of representative fingerprints (≤ k).
    pub fn size(&self) -> usize {
        self.rfps.len()
    }

    /// True when the handprint holds no fingerprints.
    pub fn is_empty(&self) -> bool {
        self.rfps.is_empty()
    }

    /// The single smallest fingerprint (the "characteristic fingerprint" used by
    /// file-similarity schemes such as Extreme Binning), if any.
    pub fn min_fingerprint(&self) -> Option<Fingerprint> {
        self.rfps.first().copied()
    }

    /// Number of representative fingerprints shared with `other`.
    pub fn overlap(&self, other: &Handprint) -> usize {
        // Both sides are sorted: merge-count.
        let (mut i, mut j, mut n) = (0usize, 0usize, 0usize);
        while i < self.rfps.len() && j < other.rfps.len() {
            match self.rfps[i].cmp(&other.rfps[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    n += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        n
    }

    /// Estimated resemblance of the two underlying super-chunks: the fraction of this
    /// handprint's fingerprints found in `other`.
    ///
    /// Returns 0 for an empty handprint.
    pub fn estimate_resemblance(&self, other: &Handprint) -> f64 {
        if self.rfps.is_empty() {
            return 0.0;
        }
        self.overlap(other) as f64 / self.rfps.len() as f64
    }

    /// The candidate deduplication nodes for this handprint in a cluster of
    /// `node_count` nodes: `rfp mod N` for each representative fingerprint, with
    /// duplicates removed (first occurrence kept).
    ///
    /// This is step 1 of Algorithm 1.
    ///
    /// # Panics
    ///
    /// Panics if `node_count` is zero.
    pub fn candidate_nodes(&self, node_count: usize) -> Vec<usize> {
        assert!(node_count > 0, "node count must be non-zero");
        let mut out = Vec::with_capacity(self.rfps.len());
        for rfp in &self.rfps {
            let node = rfp.bucket(node_count);
            if !out.contains(&node) {
                out.push(node);
            }
        }
        out
    }
}

impl FromIterator<Fingerprint> for Handprint {
    /// Collects *all* distinct fingerprints (equivalent to `from_fingerprints` with
    /// an unbounded k); mostly useful in tests.
    fn from_iter<T: IntoIterator<Item = Fingerprint>>(iter: T) -> Self {
        let set: BTreeSet<Fingerprint> = iter.into_iter().collect();
        Handprint {
            rfps: set.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sigma_hashkit::{Digest, Sha1};

    fn fp(i: u64) -> Fingerprint {
        Sha1::fingerprint(&i.to_le_bytes())
    }

    #[test]
    fn handprint_is_k_smallest_sorted() {
        let fps: Vec<Fingerprint> = (0..1000u64).map(fp).collect();
        let hp = Handprint::from_fingerprints(fps.iter().copied(), 16);
        let mut sorted = fps.clone();
        sorted.sort();
        assert_eq!(hp.representative_fingerprints(), &sorted[..16]);
        assert_eq!(hp.min_fingerprint(), Some(sorted[0]));
    }

    #[test]
    fn handprint_smaller_than_k_when_few_distinct() {
        let fps = vec![fp(1), fp(1), fp(2)];
        let hp = Handprint::from_fingerprints(fps, 8);
        assert_eq!(hp.size(), 2);
    }

    #[test]
    fn zero_k_yields_empty() {
        let hp = Handprint::from_fingerprints((0..10u64).map(fp), 0);
        assert!(hp.is_empty());
        assert_eq!(hp.min_fingerprint(), None);
        assert_eq!(hp.estimate_resemblance(&hp.clone()), 0.0);
    }

    #[test]
    fn overlap_and_resemblance() {
        // Two streams sharing half their chunks.
        let a = Handprint::from_fingerprints((0..64u64).map(fp), 8);
        let b = Handprint::from_fingerprints((32..96u64).map(fp), 8);
        let overlap = a.overlap(&b);
        assert_eq!(overlap, b.overlap(&a));
        assert!(overlap <= 8);
        let disjoint = Handprint::from_fingerprints((1000..1064u64).map(fp), 8);
        assert_eq!(a.overlap(&disjoint), 0);
        assert_eq!(a.estimate_resemblance(&disjoint), 0.0);
        assert!((a.estimate_resemblance(&a.clone()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn candidate_nodes_are_stable_and_bounded() {
        let hp = Handprint::from_fingerprints((0..256u64).map(fp), 8);
        let candidates = hp.candidate_nodes(32);
        assert!(!candidates.is_empty());
        assert!(candidates.len() <= 8);
        assert!(candidates.iter().all(|&c| c < 32));
        assert_eq!(candidates, hp.candidate_nodes(32));
        // With a single node everything maps to node 0.
        assert_eq!(hp.candidate_nodes(1), vec![0]);
    }

    #[test]
    #[should_panic(expected = "node count must be non-zero")]
    fn candidate_nodes_zero_panics() {
        Handprint::from_fingerprints((0..8u64).map(fp), 4).candidate_nodes(0);
    }

    #[test]
    fn jaccard_edge_cases() {
        assert_eq!(jaccard(&[], &[]), 1.0);
        assert_eq!(jaccard(&[fp(1)], &[]), 0.0);
        assert_eq!(jaccard(&[fp(1), fp(1)], &[fp(1)]), 1.0);
    }

    #[test]
    fn broder_bound_holds_on_generated_data() {
        // Estimated resemblance via handprints should grow with the true Jaccard
        // index, and larger handprints should detect similarity at least as often as
        // a single representative fingerprint.
        let base: Vec<Fingerprint> = (0..512u64).map(fp).collect();
        let mut detections_k1 = 0usize;
        let mut detections_k16 = 0usize;
        let trials = 50usize;
        for t in 0..trials {
            // ~25% overlap with `base`.
            let other: Vec<Fingerprint> = (384..512u64)
                .map(fp)
                .chain((0..384u64).map(|i| fp(10_000 + t as u64 * 1000 + i)))
                .collect();
            let a1 = Handprint::from_fingerprints(base.iter().copied(), 1);
            let b1 = Handprint::from_fingerprints(other.iter().copied(), 1);
            let a16 = Handprint::from_fingerprints(base.iter().copied(), 16);
            let b16 = Handprint::from_fingerprints(other.iter().copied(), 16);
            if a1.overlap(&b1) > 0 {
                detections_k1 += 1;
            }
            if a16.overlap(&b16) > 0 {
                detections_k16 += 1;
            }
        }
        assert!(
            detections_k16 >= detections_k1,
            "larger handprints must not detect less similarity ({} vs {})",
            detections_k16,
            detections_k1
        );
        assert!(
            detections_k16 > trials / 2,
            "a 16-fingerprint handprint should usually detect 25% resemblance, got {}/{}",
            detections_k16,
            trials
        );
    }

    proptest! {
        #[test]
        fn prop_handprint_subset_of_input(
            keys in proptest::collection::vec(any::<u64>(), 0..200),
            k in 0usize..32,
        ) {
            let fps: Vec<Fingerprint> = keys.iter().map(|&i| fp(i)).collect();
            let hp = Handprint::from_fingerprints(fps.iter().copied(), k);
            prop_assert!(hp.size() <= k);
            for rfp in hp.representative_fingerprints() {
                prop_assert!(fps.contains(rfp));
            }
            // Sorted ascending and unique.
            let v = hp.representative_fingerprints();
            for w in v.windows(2) {
                prop_assert!(w[0] < w[1]);
            }
        }

        #[test]
        fn prop_overlap_symmetric_and_bounded(
            a in proptest::collection::vec(any::<u64>(), 0..100),
            b in proptest::collection::vec(any::<u64>(), 0..100),
            k in 1usize..16,
        ) {
            let ha = Handprint::from_fingerprints(a.iter().map(|&i| fp(i)), k);
            let hb = Handprint::from_fingerprints(b.iter().map(|&i| fp(i)), k);
            let o = ha.overlap(&hb);
            prop_assert_eq!(o, hb.overlap(&ha));
            prop_assert!(o <= ha.size().min(hb.size()));
            prop_assert!(ha.estimate_resemblance(&hb) <= 1.0);
        }

        #[test]
        fn prop_jaccard_bounds(
            a in proptest::collection::vec(any::<u64>(), 0..60),
            b in proptest::collection::vec(any::<u64>(), 0..60),
        ) {
            let fa: Vec<Fingerprint> = a.iter().map(|&i| fp(i)).collect();
            let fb: Vec<Fingerprint> = b.iter().map(|&i| fp(i)).collect();
            let r = jaccard(&fa, &fb);
            prop_assert!((0.0..=1.0).contains(&r));
            prop_assert!((jaccard(&fa, &fa) - 1.0).abs() < 1e-12 || fa.is_empty());
        }
    }
}

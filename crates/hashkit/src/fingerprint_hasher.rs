//! Hashing for fingerprint-keyed maps.
//!
//! A chunk fingerprint is a SHA-1 digest, already uniformly distributed, so
//! running SipHash over all twenty bytes of it again (what std's
//! `RandomState` does) only costs time. [`FingerprintHasher`] folds one
//! eight-byte word of the digest with a seed instead: one 64 × 64 → 128-bit
//! multiply per key.
//!
//! The word is bytes 8–15. The striped indexes pick a key's lock stripe from
//! the low bits of [`Fingerprint::prefix_u64`] (bytes 0–7), so every key in
//! one stripe shares those bits; a hash built from them would give every key
//! in a stripe the same bucket bits. Representative fingerprints, the
//! smallest of their super-chunk, also have biased leading bytes.
//!
//! The seed is random per process and varied per map, so a tenant cannot
//! grind out chunks whose fingerprints pile into one bucket, and two maps
//! never share a bucket order (re-inserting one map's keys in iteration order
//! into another stays linear).

use crate::Fingerprint;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// A `HashMap` keyed by fingerprint, hashed with [`FingerprintHasher`].
pub type FingerprintMap<V> = HashMap<Fingerprint, V, FingerprintBuildHasher>;

/// A `HashSet` of fingerprints, hashed with [`FingerprintHasher`].
pub type FingerprintSet = HashSet<Fingerprint, FingerprintBuildHasher>;

/// An odd constant with well-mixed bits (2^64 / φ), the fold's multiplier
/// and the step between the seeds of successive maps.
const MIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// Multiplies to 128 bits and folds the halves together, so every input bit
/// reaches the low output bits a hash table indexes with.
fn fold(x: u64) -> u64 {
    let product = u128::from(x) * u128::from(MIX);
    (product as u64) ^ ((product >> 64) as u64)
}

/// The seed of the next map: a random per-process base, stepped per map.
fn next_seed() -> u64 {
    static BASE: OnceLock<u64> = OnceLock::new();
    static MAPS: AtomicU64 = AtomicU64::new(0);
    let base = *BASE.get_or_init(|| std::collections::hash_map::RandomState::new().hash_one(0u64));
    base.wrapping_add(MAPS.fetch_add(1, Ordering::Relaxed).wrapping_mul(MIX))
}

/// Builds [`FingerprintHasher`]s sharing one seed; each default-constructed
/// builder (one per map) draws a fresh seed.
///
/// # Example
///
/// ```
/// use sigma_hashkit::{Digest, FingerprintMap, Sha1};
///
/// let mut map = FingerprintMap::default();
/// map.insert(Sha1::fingerprint(b"chunk"), 7u32);
/// assert_eq!(map.get(&Sha1::fingerprint(b"chunk")), Some(&7));
/// ```
#[derive(Debug, Clone)]
pub struct FingerprintBuildHasher {
    seed: u64,
}

impl Default for FingerprintBuildHasher {
    fn default() -> Self {
        FingerprintBuildHasher { seed: next_seed() }
    }
}

impl BuildHasher for FingerprintBuildHasher {
    type Hasher = FingerprintHasher;

    fn build_hasher(&self) -> FingerprintHasher {
        FingerprintHasher {
            seed: self.seed,
            hash: 0,
        }
    }
}

/// Hashes a [`Fingerprint`] by folding its bytes 8–15 with a seed.
///
/// Any other key is folded eight bytes at a time, so the hasher stays
/// correct, just not tuned, for keys that are not fingerprints.
#[derive(Debug, Clone)]
pub struct FingerprintHasher {
    seed: u64,
    hash: u64,
}

impl Hasher for FingerprintHasher {
    fn write(&mut self, bytes: &[u8]) {
        if bytes.len() == Fingerprint::LEN {
            let word = u64::from_le_bytes(bytes[8..16].try_into().expect("eight bytes"));
            self.hash = fold(self.hash ^ word ^ self.seed);
            return;
        }
        for part in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..part.len()].copy_from_slice(part);
            self.hash = fold(self.hash ^ u64::from_le_bytes(word) ^ self.seed);
        }
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Digest, Sha1};
    use std::hash::BuildHasher;

    /// Fingerprints whose bytes 0–7 are all equal (one stripe, one
    /// `prefix_u64`), varying only in bytes 8–19.
    fn one_stripe(count: u64) -> Vec<Fingerprint> {
        (0..count)
            .map(|i| {
                let mut bytes = Sha1::fingerprint(&i.to_le_bytes()).into_bytes();
                bytes[..8].copy_from_slice(&[0xAB; 8]);
                Fingerprint::new(bytes)
            })
            .collect()
    }

    #[test]
    fn keys_sharing_a_stripe_spread_over_buckets() {
        let keys = one_stripe(4096);
        assert!(keys.iter().all(|k| k.prefix_u64() == keys[0].prefix_u64()));
        let builder = FingerprintBuildHasher::default();
        // 4096 keys over 1024 buckets: a uniform hash leaves about
        // 1024 * e^-4 ≈ 19 buckets empty and fills no bucket past ~14.
        let mut buckets = [0u32; 1024];
        for key in &keys {
            buckets[(builder.hash_one(key) & 1023) as usize] += 1;
        }
        let empty = buckets.iter().filter(|&&n| n == 0).count();
        let fullest = *buckets.iter().max().unwrap();
        assert!(empty < 60, "{empty} of 1024 buckets empty");
        assert!(fullest <= 20, "a bucket holds {fullest} keys");
        // The top seven bits (hashbrown's in-group tag) spread too.
        let tags: std::collections::HashSet<u64> =
            keys.iter().map(|k| builder.hash_one(k) >> 57).collect();
        assert_eq!(tags.len(), 128);
    }

    #[test]
    fn a_hash_is_stable_per_map_and_seeded_per_map() {
        let key = Sha1::fingerprint(b"chunk");
        let a = FingerprintBuildHasher::default();
        let b = FingerprintBuildHasher::default();
        assert_eq!(a.hash_one(key), a.hash_one(key));
        assert_eq!(a.clone().hash_one(key), a.hash_one(key));
        assert_ne!(a.hash_one(key), b.hash_one(key));
    }

    #[test]
    fn maps_and_sets_behave_as_std_collections() {
        let keys = one_stripe(1000);
        let mut map: FingerprintMap<usize> = FingerprintMap::default();
        let mut set = FingerprintSet::default();
        for (i, key) in keys.iter().enumerate() {
            assert!(map.insert(*key, i).is_none());
            assert!(set.insert(*key));
        }
        assert!(!set.insert(keys[3]));
        assert_eq!(map.len(), keys.len());
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(map.get(key), Some(&i));
            assert!(set.contains(key));
        }
        assert_eq!(map.get(&Sha1::fingerprint(b"absent")), None);
        // Keys that are not fingerprints still hash by every byte.
        let builder = FingerprintBuildHasher::default();
        assert_ne!(builder.hash_one(1u64), builder.hash_one(2u64));
        assert_ne!(
            builder.hash_one("a long string key"),
            builder.hash_one("a long string kez")
        );
    }
}

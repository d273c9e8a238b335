//! Payload (real-bytes) workload generators.
//!
//! Some experiments need actual bytes rather than pre-chunked fingerprint traces:
//! the client-side chunking/fingerprinting throughput study (Figure 4(a)), the
//! single-node deduplication-efficiency sweep (Figure 5(a)) and the end-to-end
//! backup/restore examples.  These generators produce deterministic pseudo-random
//! buffers and *versioned* families of buffers whose later versions share most of
//! their content with earlier ones.

use crate::DeterministicRng;

/// Generates `len` bytes of seeded pseudo-random data (high entropy, so CDC finds
/// natural boundaries and nothing deduplicates by accident).
///
/// # Example
///
/// ```
/// use sigma_workloads::payload::random_bytes;
/// assert_eq!(random_bytes(1024, 7), random_bytes(1024, 7));
/// assert_ne!(random_bytes(1024, 7), random_bytes(1024, 8));
/// ```
pub fn random_bytes(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = DeterministicRng::new(seed);
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        out.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    out.truncate(len);
    out
}

/// Parameters for a versioned payload dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VersionedPayloadParams {
    /// Deterministic seed.
    pub seed: u64,
    /// Number of versions (backup generations).
    pub versions: usize,
    /// Size of each version in bytes.
    pub version_size: usize,
    /// Fraction of 4 KB regions rewritten between consecutive versions.
    pub mutation_rate: f64,
}

impl Default for VersionedPayloadParams {
    fn default() -> Self {
        VersionedPayloadParams {
            seed: 42,
            versions: 4,
            version_size: 4 << 20,
            mutation_rate: 0.05,
        }
    }
}

/// A named sequence of payload versions, each mostly identical to its predecessor.
///
/// # Example
///
/// ```
/// use sigma_workloads::payload::{versioned_payloads, VersionedPayloadParams};
///
/// let versions = versioned_payloads(VersionedPayloadParams {
///     versions: 3,
///     version_size: 256 * 1024,
///     ..VersionedPayloadParams::default()
/// });
/// assert_eq!(versions.len(), 3);
/// assert_eq!(versions[0].1.len(), 256 * 1024);
/// // Consecutive versions differ, but only a little.
/// let diff = versions[0].1.iter().zip(&versions[1].1).filter(|(a, b)| a != b).count();
/// assert!(diff > 0 && diff < versions[0].1.len() / 4);
/// ```
pub fn versioned_payloads(params: VersionedPayloadParams) -> Vec<(String, Vec<u8>)> {
    const REGION: usize = 4096;
    let mut rng = DeterministicRng::new(params.seed);
    let mut current = random_bytes(params.version_size, params.seed.wrapping_add(1));
    let mut out = Vec::with_capacity(params.versions);
    out.push(("version-0".to_string(), current.clone()));
    for v in 1..params.versions {
        let regions = current.len().div_ceil(REGION);
        for r in 0..regions {
            if rng.chance(params.mutation_rate) {
                let start = r * REGION;
                let end = (start + REGION).min(current.len());
                let fresh = random_bytes(end - start, rng.next_u64());
                current[start..end].copy_from_slice(&fresh);
            }
        }
        out.push((format!("version-{}", v), current.clone()));
    }
    out
}

/// Parameters for a *generational* payload dataset: versioned mutation plus
/// per-generation growth — the shape of a real protection workload, where each
/// backup generation rewrites a little of the old data and appends some new.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenerationalPayloadParams {
    /// Deterministic seed.
    pub seed: u64,
    /// Number of backup generations.
    pub generations: usize,
    /// Size of generation 0 in bytes.
    pub initial_size: usize,
    /// Fraction of 4 KB regions rewritten between consecutive generations.
    pub mutation_rate: f64,
    /// Fresh bytes appended by each generation after the first (dataset growth).
    pub growth_per_generation: usize,
}

impl Default for GenerationalPayloadParams {
    fn default() -> Self {
        GenerationalPayloadParams {
            seed: 42,
            generations: 4,
            initial_size: 4 << 20,
            mutation_rate: 0.05,
            growth_per_generation: 256 * 1024,
        }
    }
}

/// A named sequence of backup generations: each generation mutates a fraction of
/// its predecessor's 4 KB regions **and** appends fresh data, so later
/// generations share most-but-not-all content with earlier ones and the dataset
/// grows monotonically — the workload a retention policy expires from the front.
///
/// # Example
///
/// ```
/// use sigma_workloads::payload::{generational_payloads, GenerationalPayloadParams};
///
/// let gens = generational_payloads(GenerationalPayloadParams {
///     generations: 3,
///     initial_size: 128 * 1024,
///     growth_per_generation: 16 * 1024,
///     ..GenerationalPayloadParams::default()
/// });
/// assert_eq!(gens.len(), 3);
/// assert_eq!(gens[0].1.len(), 128 * 1024);
/// assert_eq!(gens[2].1.len(), 128 * 1024 + 2 * 16 * 1024);
/// ```
pub fn generational_payloads(params: GenerationalPayloadParams) -> Vec<(String, Vec<u8>)> {
    const REGION: usize = 4096;
    let mut rng = DeterministicRng::new(params.seed);
    let mut current = random_bytes(params.initial_size, params.seed.wrapping_add(1));
    let mut out = Vec::with_capacity(params.generations);
    out.push(("generation-0".to_string(), current.clone()));
    for g in 1..params.generations {
        let regions = current.len().div_ceil(REGION);
        for r in 0..regions {
            if rng.chance(params.mutation_rate) {
                let start = r * REGION;
                let end = (start + REGION).min(current.len());
                let fresh = random_bytes(end - start, rng.next_u64());
                current[start..end].copy_from_slice(&fresh);
            }
        }
        current.extend_from_slice(&random_bytes(params.growth_per_generation, rng.next_u64()));
        out.push((format!("generation-{}", g), current.clone()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_bytes_length_and_determinism() {
        for len in [0usize, 1, 7, 8, 1000] {
            assert_eq!(random_bytes(len, 3).len(), len);
        }
        assert_eq!(random_bytes(500, 1), random_bytes(500, 1));
    }

    #[test]
    fn versions_mostly_overlap() {
        let versions = versioned_payloads(VersionedPayloadParams {
            versions: 3,
            version_size: 1 << 20,
            mutation_rate: 0.05,
            seed: 9,
        });
        assert_eq!(versions.len(), 3);
        for pair in versions.windows(2) {
            let same = pair[0]
                .1
                .iter()
                .zip(&pair[1].1)
                .filter(|(a, b)| a == b)
                .count();
            let frac = same as f64 / pair[0].1.len() as f64;
            assert!(frac > 0.85, "only {:.2} of bytes shared", frac);
        }
    }

    #[test]
    fn zero_mutation_rate_gives_identical_versions() {
        let versions = versioned_payloads(VersionedPayloadParams {
            versions: 3,
            version_size: 64 * 1024,
            mutation_rate: 0.0,
            seed: 5,
        });
        assert_eq!(versions[0].1, versions[1].1);
        assert_eq!(versions[1].1, versions[2].1);
    }

    #[test]
    fn generational_payloads_grow_and_mostly_overlap() {
        let gens = generational_payloads(GenerationalPayloadParams {
            seed: 11,
            generations: 4,
            initial_size: 512 * 1024,
            mutation_rate: 0.05,
            growth_per_generation: 64 * 1024,
        });
        assert_eq!(gens.len(), 4);
        for (g, (name, data)) in gens.iter().enumerate() {
            assert_eq!(name, &format!("generation-{}", g));
            assert_eq!(data.len(), 512 * 1024 + g * 64 * 1024);
        }
        // The shared prefix mostly overlaps generation to generation.
        for pair in gens.windows(2) {
            let prefix = pair[0].1.len();
            let same = pair[0]
                .1
                .iter()
                .zip(&pair[1].1[..prefix])
                .filter(|(a, b)| a == b)
                .count();
            assert!(same as f64 / prefix as f64 > 0.85);
        }
        // Deterministic.
        let again = generational_payloads(GenerationalPayloadParams {
            seed: 11,
            generations: 4,
            initial_size: 512 * 1024,
            mutation_rate: 0.05,
            growth_per_generation: 64 * 1024,
        });
        assert_eq!(gens, again);
    }

    #[test]
    fn zero_growth_generational_matches_versioned_shape() {
        let gens = generational_payloads(GenerationalPayloadParams {
            seed: 3,
            generations: 3,
            initial_size: 64 * 1024,
            mutation_rate: 0.0,
            growth_per_generation: 0,
        });
        assert_eq!(gens[0].1, gens[1].1);
        assert_eq!(gens[1].1, gens[2].1);
    }

    #[test]
    fn names_are_sequential() {
        let versions = versioned_payloads(VersionedPayloadParams {
            versions: 2,
            version_size: 1024,
            ..VersionedPayloadParams::default()
        });
        assert_eq!(versions[0].0, "version-0");
        assert_eq!(versions[1].0, "version-1");
    }
}

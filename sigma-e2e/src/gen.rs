//! Seeded inputs. The program under test sees only the bytes made here; the
//! digest of every payload is taken at generation time and is what restored
//! bytes are later checked against.

use sigma_hashkit::{Fingerprint, FingerprintAlgorithm};
use sigma_workloads::payload::{random_bytes, versioned_payloads, VersionedPayloadParams};
use sigma_workloads::DeterministicRng;

/// One file to back up.
pub struct Input {
    pub name: String,
    pub payload: Vec<u8>,
    pub digest: Fingerprint,
}

impl Input {
    fn new(name: String, payload: Vec<u8>) -> Input {
        let digest = digest(&payload);
        Input {
            name,
            payload,
            digest,
        }
    }
}

/// SHA-1 of a whole payload.
pub fn digest(data: &[u8]) -> Fingerprint {
    FingerprintAlgorithm::Sha1.fingerprint(data)
}

/// Derives an independent seed from the run's seed and a tag (splitmix64
/// finaliser), so that workloads, rounds and streams never share a sequence.
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed
        .wrapping_add(tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `count` incompressible files of `size` bytes that share nothing.
pub fn unique_files(seed: u64, count: usize, size: usize) -> Vec<Input> {
    (0..count)
        .map(|i| {
            Input::new(
                format!("unique-{i}"),
                random_bytes(size, mix(seed, i as u64)),
            )
        })
        .collect()
}

/// `streams` machines, each backed up `versions` times with `mutation_rate`
/// of its 4 KiB regions rewritten between versions, in the order nightly
/// backups would arrive: version 0 of every stream, then version 1, and so on.
pub fn versioned_round_robin(
    seed: u64,
    streams: usize,
    versions: usize,
    size: usize,
    mutation_rate: f64,
) -> Vec<Input> {
    let mut per_stream: Vec<_> = (0..streams)
        .map(|s| {
            versioned_payloads(VersionedPayloadParams {
                seed: mix(seed, s as u64),
                versions,
                version_size: size,
                mutation_rate,
            })
            .into_iter()
        })
        .collect();
    let mut out = Vec::with_capacity(streams * versions);
    for v in 0..versions {
        for (s, stream) in per_stream.iter_mut().enumerate() {
            let (_, payload) = stream.next().expect("one payload per version");
            out.push(Input::new(format!("stream-{s}/version-{v}"), payload));
        }
    }
    out
}

/// `count` distinct indices below `population`, in seeded order.
pub fn sample(seed: u64, population: usize, count: usize) -> Vec<usize> {
    assert!(count <= population, "sample larger than population");
    let mut rng = DeterministicRng::new(seed);
    let mut all: Vec<usize> = (0..population).collect();
    for i in 0..count {
        let j = i + rng.below((population - i) as u64) as usize;
        all.swap(i, j);
    }
    all.truncate(count);
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digests(inputs: &[Input]) -> Vec<Fingerprint> {
        inputs.iter().map(|i| i.digest).collect()
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(
            digests(&unique_files(7, 4, 4096)),
            digests(&unique_files(7, 4, 4096))
        );
        assert_ne!(
            digests(&unique_files(7, 4, 4096)),
            digests(&unique_files(8, 4, 4096))
        );
        let a = versioned_round_robin(7, 2, 3, 64 << 10, 0.25);
        let b = versioned_round_robin(7, 2, 3, 64 << 10, 0.25);
        let c = versioned_round_robin(8, 2, 3, 64 << 10, 0.25);
        assert_eq!(digests(&a), digests(&b));
        assert_ne!(digests(&a), digests(&c));
        assert_eq!(a[0].name, "stream-0/version-0");
        assert_eq!(a[1].name, "stream-1/version-0");
        assert_eq!(a[2].name, "stream-0/version-1");
        assert_eq!(a[0].digest, digest(&a[0].payload));
    }

    #[test]
    fn versions_share_most_of_their_content() {
        let v = versioned_round_robin(3, 1, 2, 256 << 10, 0.05);
        let same = v[0]
            .payload
            .chunks(4096)
            .zip(v[1].payload.chunks(4096))
            .filter(|(a, b)| a == b)
            .count();
        assert!((48..64).contains(&same), "{same} of 64 regions unchanged");
    }

    #[test]
    fn sample_is_seeded_and_distinct() {
        let a = sample(1, 100, 20);
        assert_eq!(a, sample(1, 100, 20));
        assert_ne!(a, sample(2, 100, 20));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 20);
        assert!(a.iter().all(|&i| i < 100));
    }
}

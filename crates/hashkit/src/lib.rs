//! Cryptographic and rolling hash primitives for the Σ-Dedupe deduplication framework.
//!
//! The paper ("A Scalable Inline Cluster Deduplication Framework for Big Data
//! Protection", Fu et al., MIDDLEWARE 2012) fingerprints every data chunk with a
//! collision-resistant cryptographic hash (SHA-1 or MD5) and uses rolling hashes
//! (Rabin fingerprints) inside the content-defined chunking algorithms.  This crate
//! provides self-contained implementations of all of those primitives so that the
//! rest of the workspace has no dependency on external cryptography crates:
//!
//! * [`Sha1`] — the 160-bit SHA-1 hash used for chunk fingerprinting. It runs on
//!   the x86_64 SHA-NI instructions when the CPU has them (detected at runtime)
//!   and on a portable unrolled kernel otherwise, with identical digests;
//!   [`reference::ReferenceSha1`] always takes the portable kernel.
//!   [`FingerprintAlgorithm::fingerprint_batch`] hashes many chunks at once:
//!   on a CPU with AVX-512 (`avx512f` + `avx512bw`, also detected at
//!   runtime), sixteen chunks side by side, one per vector lane. It has two
//!   consumers: ingest fingerprints its chunks through it, and the storage
//!   layer's container checksum hashes a data section's sixteen stripes
//!   through it in one call.
//! * [`Md5`] — the 128-bit MD5 hash, the weaker alternative evaluated in
//!   Figure 4(a) of the paper.
//!
//! The paper measured MD5 at about twice SHA-1's throughput. Which is faster
//! now depends on the hardware. On one core of a 2-vCPU Intel Xeon with
//! SHA-NI and AVX-512, hashing 1 MiB as 4 KiB chunks (medians of 41 runs, two
//! processes), SHA-1 runs at ~0.45–0.55 GB/s per chunk on the portable
//! kernel, ~1.40–1.44 GB/s per chunk on SHA-NI and ~4.7–5.0 GB/s through
//! `fingerprint_batch` (3.4–3.5x SHA-NI); MD5 at ~0.35 GB/s.
//!
//! Other primitives:
//!
//! * [`RabinHasher`] — a polynomial rolling hash over a sliding window, used by the
//!   content-defined chunkers.
//! * [`fnv1a_64`] — a tiny non-cryptographic hash: the journal's frame
//!   checksum.
//! * [`Fingerprint`] — the fixed-width chunk fingerprint value type shared by the
//!   whole workspace, and [`FingerprintMap`] / [`FingerprintSet`], the
//!   collections keyed by it, which hash one word of the digest instead of
//!   running SipHash over it.
//!
//! # Example
//!
//! ```
//! use sigma_hashkit::{Digest, Sha1, Fingerprint};
//!
//! let fp: Fingerprint = Sha1::fingerprint(b"hello sigma-dedupe");
//! assert_eq!(fp.as_bytes().len(), Fingerprint::LEN);
//! // Fingerprints display as lowercase hex.
//! assert_eq!(fp.to_string().len(), 2 * Fingerprint::LEN);
//! ```

// Four `unsafe` blocks in the crate, all in `sha1`: the calls into the
// SHA-NI and AVX-512 kernels after runtime feature detection
// (`compress_blocks`, `avx512::fingerprint_lanes`), and the AVX-512 kernel's
// unaligned 64-byte load from each lane's block and store of each state
// vector (`avx512::compress_lanes`).
#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::undocumented_unsafe_blocks)]

mod fingerprint;
mod fingerprint_hasher;
mod fnv;
mod md5;
mod rabin;
pub mod reference;
mod sha1;

pub use fingerprint::{Fingerprint, ParseFingerprintError};
pub use fingerprint_hasher::{
    FingerprintBuildHasher, FingerprintHasher, FingerprintMap, FingerprintSet,
};
pub use fnv::fnv1a_64;
pub use md5::Md5;
pub use rabin::{RabinHasher, RabinParams, DEFAULT_IRREDUCIBLE_POLY};
pub use sha1::Sha1;

/// A cryptographic digest algorithm producing a fixed-size output.
///
/// Both [`Sha1`] and [`Md5`] implement this trait.  The incremental API
/// (`update`/`finalize`) mirrors the usual streaming digest interface so that large
/// chunks can be hashed without first concatenating them into one buffer.
///
/// # Example
///
/// ```
/// use sigma_hashkit::{Digest, Md5};
///
/// let mut hasher = Md5::new();
/// hasher.update(b"hello ");
/// hasher.update(b"world");
/// let streamed = hasher.finalize();
/// assert_eq!(streamed, Md5::digest(b"hello world"));
/// ```
pub trait Digest: Default {
    /// Number of bytes in the digest output.
    const OUTPUT_LEN: usize;

    /// Human-readable algorithm name (e.g. `"sha1"`).
    const NAME: &'static str;

    /// Creates a fresh hasher state.
    fn new() -> Self {
        Self::default()
    }

    /// Feeds `data` into the hasher.
    fn update(&mut self, data: &[u8]);

    /// Consumes the hasher and returns the raw digest bytes.
    fn finalize(self) -> Vec<u8>;

    /// Convenience one-shot digest of `data`.
    fn digest(data: &[u8]) -> Vec<u8> {
        let mut h = Self::new();
        h.update(data);
        h.finalize()
    }

    /// One-shot digest of `data`, truncated/zero-padded into a [`Fingerprint`].
    fn fingerprint(data: &[u8]) -> Fingerprint {
        Fingerprint::from_digest(&Self::digest(data))
    }
}

/// The fingerprinting algorithm used by a backup client.
///
/// The paper evaluates both SHA-1 and MD5 for chunk fingerprinting (Figure 4(a)) and
/// selects SHA-1 for its lower collision probability.  This enum lets higher layers
/// pick either at runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FingerprintAlgorithm {
    /// 160-bit SHA-1 (the paper's default).
    #[default]
    Sha1,
    /// 128-bit MD5 (higher collision probability). The paper found it about
    /// 2x faster than SHA-1; whether it is faster depends on the hardware
    /// (see the crate docs: on a SHA-NI CPU, SHA-1 is ~4x faster per chunk).
    Md5,
}

impl FingerprintAlgorithm {
    /// Computes the fingerprint of `data` with the selected algorithm.
    ///
    /// # Example
    ///
    /// ```
    /// use sigma_hashkit::FingerprintAlgorithm;
    /// let fp = FingerprintAlgorithm::Sha1.fingerprint(b"abc");
    /// assert_ne!(fp, FingerprintAlgorithm::Md5.fingerprint(b"abc"));
    /// ```
    pub fn fingerprint(self, data: &[u8]) -> Fingerprint {
        match self {
            FingerprintAlgorithm::Sha1 => Sha1::fingerprint(data),
            FingerprintAlgorithm::Md5 => Md5::fingerprint(data),
        }
    }

    /// Computes the fingerprint of every chunk in `chunks`, in order.
    ///
    /// Equal to calling [`fingerprint`](Self::fingerprint) on each chunk.
    /// For SHA-1 on a CPU that reports `avx512f` and `avx512bw`, full groups
    /// of [`BATCH_LANES`](Self::BATCH_LANES) chunks are hashed side by side
    /// on a 16-lane AVX-512 kernel; the rest, MD5 and other CPUs take the
    /// per-chunk path. The chunks may be ranges of one buffer or separate
    /// allocations.
    ///
    /// # Example
    ///
    /// ```
    /// use sigma_hashkit::FingerprintAlgorithm;
    /// let chunks: Vec<Vec<u8>> = (0..40u8).map(|i| vec![i; 4096]).collect();
    /// let batch = FingerprintAlgorithm::Sha1.fingerprint_batch(&chunks);
    /// for (chunk, fp) in chunks.iter().zip(&batch) {
    ///     assert_eq!(*fp, FingerprintAlgorithm::Sha1.fingerprint(chunk));
    /// }
    /// ```
    pub fn fingerprint_batch<C: AsRef<[u8]>>(self, chunks: &[C]) -> Vec<Fingerprint> {
        match self {
            FingerprintAlgorithm::Sha1 => sha1::fingerprint_batch(chunks),
            FingerprintAlgorithm::Md5 => chunks
                .iter()
                .map(|chunk| Md5::fingerprint(chunk.as_ref()))
                .collect(),
        }
    }

    /// How many chunks [`fingerprint_batch`](Self::fingerprint_batch) hashes
    /// side by side; a batch whose length is a multiple of this leaves no
    /// chunk to the per-chunk path.
    pub const BATCH_LANES: usize = sha1::LANES;

    /// Algorithm name, e.g. `"sha1"`.
    pub fn name(self) -> &'static str {
        match self {
            FingerprintAlgorithm::Sha1 => Sha1::NAME,
            FingerprintAlgorithm::Md5 => Md5::NAME,
        }
    }
}

impl std::fmt::Display for FingerprintAlgorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for FingerprintAlgorithm {
    type Err = ParseAlgorithmError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "sha1" | "sha-1" => Ok(FingerprintAlgorithm::Sha1),
            "md5" => Ok(FingerprintAlgorithm::Md5),
            _ => Err(ParseAlgorithmError {
                input: s.to_string(),
            }),
        }
    }
}

/// Error returned when parsing a [`FingerprintAlgorithm`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseAlgorithmError {
    input: String,
}

impl std::fmt::Display for ParseAlgorithmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown fingerprint algorithm `{}`", self.input)
    }
}

impl std::error::Error for ParseAlgorithmError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algorithm_roundtrip_parse() {
        for (s, a) in [
            ("sha1", FingerprintAlgorithm::Sha1),
            ("SHA-1", FingerprintAlgorithm::Sha1),
            ("md5", FingerprintAlgorithm::Md5),
            ("MD5", FingerprintAlgorithm::Md5),
        ] {
            assert_eq!(s.parse::<FingerprintAlgorithm>().unwrap(), a);
        }
        assert!("blake3".parse::<FingerprintAlgorithm>().is_err());
    }

    #[test]
    fn algorithm_display_matches_name() {
        assert_eq!(FingerprintAlgorithm::Sha1.to_string(), "sha1");
        assert_eq!(FingerprintAlgorithm::Md5.to_string(), "md5");
    }

    #[test]
    fn one_shot_matches_streaming() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let mut s = Sha1::new();
        for b in data.chunks(7) {
            s.update(b);
        }
        assert_eq!(s.finalize(), Sha1::digest(data));
    }

    #[test]
    fn md5_batch_equals_its_per_chunk_digests() {
        let chunks: Vec<Vec<u8>> = (0..40usize).map(|i| vec![i as u8; 97 * i]).collect();
        let batch = FingerprintAlgorithm::Md5.fingerprint_batch(&chunks);
        let single: Vec<Fingerprint> = chunks.iter().map(|c| Md5::fingerprint(c)).collect();
        assert_eq!(batch, single);
    }

    #[test]
    fn fingerprints_differ_between_algorithms() {
        let fp_sha = FingerprintAlgorithm::Sha1.fingerprint(b"same input");
        let fp_md5 = FingerprintAlgorithm::Md5.fingerprint(b"same input");
        assert_ne!(fp_sha, fp_md5);
    }
}

//! The portable reference path of the hardware-dispatched hashes.
//!
//! [`ReferenceSha1`] runs the same buffering and padding code as
//! [`Sha1`](crate::Sha1) but always compresses on the portable unrolled
//! scalar kernel, never on the SHA-NI one. Where the CPU has SHA-NI, the
//! equivalence tests in this module therefore pin the hardware kernel to the
//! portable one bit for bit. Benchmarks also use it as the in-run "before" of
//! the hardware kernel, and as a fixed CPU workload that measures the machine
//! rather than the build.

use crate::sha1::{compress_blocks_portable, Sha1Core};
use crate::{Digest, Fingerprint};

/// Streaming SHA-1 hasher that never uses hardware SHA instructions.
///
/// # Example
///
/// ```
/// use sigma_hashkit::{reference::ReferenceSha1, Digest, Sha1};
/// assert_eq!(ReferenceSha1::digest(b"abc"), Sha1::digest(b"abc"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct ReferenceSha1(Sha1Core);

impl ReferenceSha1 {
    /// One-shot fingerprint helper mirroring
    /// [`FingerprintAlgorithm::fingerprint`](crate::FingerprintAlgorithm::fingerprint).
    pub fn fingerprint_bytes(data: &[u8]) -> Fingerprint {
        Fingerprint::new(Sha1Core::digest(data, compress_blocks_portable))
    }
}

impl Digest for ReferenceSha1 {
    const OUTPUT_LEN: usize = 20;
    const NAME: &'static str = "sha1-reference";

    fn update(&mut self, data: &[u8]) {
        self.0.update(data, compress_blocks_portable);
    }

    fn finalize(self) -> Vec<u8> {
        self.0.finalize(compress_blocks_portable).to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sha1;
    use proptest::prelude::*;

    /// Every length up to 65 blocks, so each tail length (0..=63 bytes, on
    /// both sides of the one-or-two padding block cut at 56) is hit with
    /// every number of whole blocks before it.
    const MAX_LEN: usize = 65 * 64;

    #[test]
    fn every_length_matches_reference() {
        let data: Vec<u8> = (0..MAX_LEN as u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
            .collect();
        for len in 0..=MAX_LEN {
            let data = &data[..len];
            assert_eq!(
                Sha1::digest(data),
                ReferenceSha1::digest(data),
                "length {len}"
            );
            assert_eq!(
                Sha1::fingerprint(data),
                ReferenceSha1::fingerprint_bytes(data),
                "length {len}"
            );
        }
    }

    proptest! {
        #[test]
        fn optimized_sha1_matches_reference(
            data in proptest::collection::vec(any::<u8>(), 0..MAX_LEN + 1),
        ) {
            prop_assert_eq!(Sha1::digest(&data), ReferenceSha1::digest(&data));
            prop_assert_eq!(Sha1::fingerprint(&data), ReferenceSha1::fingerprint_bytes(&data));
        }

        #[test]
        fn optimized_sha1_matches_reference_streaming(
            data in proptest::collection::vec(any::<u8>(), 0..MAX_LEN + 1),
            pieces in proptest::collection::vec(0usize..200, 1..48),
        ) {
            // Pieces of up to three blocks and a bit: one piece can top up a
            // buffered partial block, run whole blocks straight from the
            // input and leave a new partial block behind. The last update
            // takes whatever the pieces did not.
            let mut opt = Sha1::new();
            let mut reference = ReferenceSha1::new();
            let mut rest = &data[..];
            for len in pieces.into_iter().chain([usize::MAX]) {
                let (piece, tail) = rest.split_at(len.min(rest.len()));
                opt.update(piece);
                reference.update(piece);
                rest = tail;
            }
            prop_assert_eq!(opt.finalize(), reference.finalize());
        }
    }
}

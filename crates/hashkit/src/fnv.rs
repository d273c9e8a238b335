//! FNV-1a: a tiny, fast, non-cryptographic hash.
//!
//! The journal checksums each frame's payload with it.  It is *not* used for
//! chunk fingerprints.

const FNV64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV64_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One-shot 64-bit FNV-1a hash of `data`.
///
/// # Example
///
/// ```
/// use sigma_hashkit::fnv1a_64;
/// assert_ne!(fnv1a_64(b"node-0"), fnv1a_64(b"node-1"));
/// ```
pub fn fnv1a_64(data: &[u8]) -> u64 {
    let mut h = FNV64_OFFSET;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(FNV64_PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Reference values for FNV-1a (from the FNV specification test vectors).
        assert_eq!(fnv1a_64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
    }
}

//! The fixed-width chunk fingerprint value type.

/// A chunk fingerprint: the (possibly truncated) output of a cryptographic hash.
///
/// The paper uses SHA-1 (20 bytes) as the default fingerprinting function; MD5
/// digests (16 bytes) are zero-padded to the same width so that all indexes in the
/// workspace can store a single fixed-width key type.  The natural lexicographic
/// ordering of fingerprints is used by the handprinting technique, which selects the
/// *k smallest* fingerprints of a super-chunk as its handprint.
///
/// # Example
///
/// ```
/// use sigma_hashkit::{Digest, Fingerprint, Sha1};
///
/// let a = Sha1::fingerprint(b"chunk A");
/// let b = Sha1::fingerprint(b"chunk B");
/// assert_ne!(a, b);
/// let hex = a.to_string();
/// assert_eq!(Fingerprint::from_hex(&hex).unwrap(), a);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct Fingerprint([u8; Fingerprint::LEN]);

impl Fingerprint {
    /// Width of a fingerprint in bytes (SHA-1 output size).
    pub const LEN: usize = 20;

    /// The all-zero fingerprint. Useful as a sentinel in tests.
    pub const ZERO: Fingerprint = Fingerprint([0u8; Fingerprint::LEN]);

    /// Creates a fingerprint from exactly [`Fingerprint::LEN`] bytes.
    pub fn new(bytes: [u8; Fingerprint::LEN]) -> Self {
        Fingerprint(bytes)
    }

    /// Builds a fingerprint from an arbitrary-length digest.
    ///
    /// Digests longer than [`Fingerprint::LEN`] are truncated; shorter digests are
    /// zero-padded on the right.  This is how 16-byte MD5 digests are widened.
    pub fn from_digest(digest: &[u8]) -> Self {
        let mut out = [0u8; Fingerprint::LEN];
        let n = digest.len().min(Fingerprint::LEN);
        out[..n].copy_from_slice(&digest[..n]);
        Fingerprint(out)
    }

    /// Parses a fingerprint from a lowercase or uppercase hex string.
    ///
    /// # Errors
    ///
    /// Returns [`ParseFingerprintError`] if the string is not exactly
    /// `2 * Fingerprint::LEN` hex digits.
    pub fn from_hex(s: &str) -> Result<Self, ParseFingerprintError> {
        let s = s.trim();
        if s.len() != 2 * Fingerprint::LEN {
            return Err(ParseFingerprintError::Length(s.len()));
        }
        let mut out = [0u8; Fingerprint::LEN];
        for (i, chunk) in s.as_bytes().chunks(2).enumerate() {
            let hi =
                hex_val(chunk[0]).ok_or(ParseFingerprintError::InvalidDigit(chunk[0] as char))?;
            let lo =
                hex_val(chunk[1]).ok_or(ParseFingerprintError::InvalidDigit(chunk[1] as char))?;
            out[i] = (hi << 4) | lo;
        }
        Ok(Fingerprint(out))
    }

    /// Raw fingerprint bytes.
    pub fn as_bytes(&self) -> &[u8; Fingerprint::LEN] {
        &self.0
    }

    /// Consumes the fingerprint, returning its raw bytes.
    pub fn into_bytes(self) -> [u8; Fingerprint::LEN] {
        self.0
    }

    /// Interprets the first eight bytes as a big-endian `u64`.
    ///
    /// Because a cryptographic hash output is (approximately) uniformly distributed,
    /// this prefix is itself uniformly distributed and is used for modulo-based node
    /// placement (`rfp mod N`) by the routing schemes.
    pub fn prefix_u64(&self) -> u64 {
        u64::from_be_bytes(self.0[..8].try_into().expect("fingerprint has >= 8 bytes"))
    }

    /// Deterministically maps this fingerprint onto one of `buckets` buckets.
    ///
    /// # Panics
    ///
    /// Panics if `buckets` is zero.
    pub fn bucket(&self, buckets: usize) -> usize {
        assert!(buckets > 0, "bucket count must be non-zero");
        (self.prefix_u64() % buckets as u64) as usize
    }

    /// Returns true if every byte is zero.
    pub fn is_zero(&self) -> bool {
        self.0.iter().all(|&b| b == 0)
    }
}

fn hex_val(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    }
}

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for b in &self.0 {
            write!(f, "{:02x}", b)?;
        }
        Ok(())
    }
}

impl std::fmt::Debug for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Fingerprint({})", self)
    }
}

impl std::str::FromStr for Fingerprint {
    type Err = ParseFingerprintError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Fingerprint::from_hex(s)
    }
}

impl From<[u8; Fingerprint::LEN]> for Fingerprint {
    fn from(bytes: [u8; Fingerprint::LEN]) -> Self {
        Fingerprint(bytes)
    }
}

/// Feeds the hasher the twenty digest bytes in one write, with no length
/// prefix, which is what lets [`FingerprintHasher`](crate::FingerprintHasher)
/// recognise a fingerprint and fold just one word of it.
impl std::hash::Hash for Fingerprint {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write(&self.0);
    }
}

impl AsRef<[u8]> for Fingerprint {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

/// Error returned when parsing a [`Fingerprint`] from hex fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseFingerprintError {
    /// The input length was not `2 * Fingerprint::LEN` characters.
    Length(usize),
    /// The input contained a non-hex character.
    InvalidDigit(char),
}

impl std::fmt::Display for ParseFingerprintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseFingerprintError::Length(n) => {
                write!(f, "expected {} hex digits, got {}", 2 * Fingerprint::LEN, n)
            }
            ParseFingerprintError::InvalidDigit(c) => write!(f, "invalid hex digit `{}`", c),
        }
    }
}

impl std::error::Error for ParseFingerprintError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Digest, Md5, Sha1};
    use proptest::prelude::*;

    #[test]
    fn zero_is_zero() {
        assert!(Fingerprint::ZERO.is_zero());
        assert!(!Sha1::fingerprint(b"x").is_zero());
    }

    #[test]
    fn md5_digest_is_zero_padded() {
        let fp = Md5::fingerprint(b"hello");
        assert_eq!(&fp.as_bytes()[16..], &[0u8; 4]);
        assert_ne!(&fp.as_bytes()[..16], &[0u8; 16]);
    }

    #[test]
    fn hex_roundtrip() {
        let fp = Sha1::fingerprint(b"roundtrip");
        let parsed: Fingerprint = fp.to_string().parse().unwrap();
        assert_eq!(parsed, fp);
    }

    #[test]
    fn hex_parse_rejects_bad_input() {
        assert_eq!(
            Fingerprint::from_hex("abcd"),
            Err(ParseFingerprintError::Length(4))
        );
        let bad = "zz".repeat(Fingerprint::LEN);
        assert!(matches!(
            Fingerprint::from_hex(&bad),
            Err(ParseFingerprintError::InvalidDigit('z'))
        ));
    }

    #[test]
    fn bucket_is_stable_and_in_range() {
        let fp = Sha1::fingerprint(b"bucket me");
        for n in 1..100usize {
            let b = fp.bucket(n);
            assert!(b < n);
            assert_eq!(b, fp.bucket(n));
        }
    }

    #[test]
    #[should_panic(expected = "bucket count must be non-zero")]
    fn bucket_zero_panics() {
        Fingerprint::ZERO.bucket(0);
    }

    #[test]
    fn ordering_is_lexicographic() {
        let a = Fingerprint::from_digest(&[1u8; 20]);
        let b = Fingerprint::from_digest(&[2u8; 20]);
        assert!(a < b);
    }

    proptest! {
        #[test]
        fn prop_hex_roundtrip(bytes in proptest::array::uniform20(any::<u8>())) {
            let fp = Fingerprint::new(bytes);
            let back = Fingerprint::from_hex(&fp.to_string()).unwrap();
            prop_assert_eq!(back, fp);
        }

        #[test]
        fn prop_bucket_in_range(bytes in proptest::array::uniform20(any::<u8>()), n in 1usize..4096) {
            let fp = Fingerprint::new(bytes);
            prop_assert!(fp.bucket(n) < n);
        }

        #[test]
        fn prop_from_digest_truncates(data in proptest::collection::vec(any::<u8>(), 0..64)) {
            let fp = Fingerprint::from_digest(&data);
            let n = data.len().min(Fingerprint::LEN);
            prop_assert_eq!(&fp.as_bytes()[..n], &data[..n]);
        }
    }
}

//! A self-contained MD5 implementation (RFC 1321).
//!
//! MD5 is evaluated in the paper as the faster fingerprinting alternative
//! (roughly twice the throughput of SHA-1 in Figure 4(a)); the prototype ultimately
//! selects SHA-1 for its lower collision probability, but MD5 is kept here both for
//! the benchmark reproduction and as a runtime option.

use crate::Digest;

const BLOCK_LEN: usize = 64;

/// Per-round left-rotation amounts.
const S: [u32; 64] = [
    7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, //
    5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, //
    4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, //
    6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21,
];

/// Sine-derived additive constants: `K[i] = floor(2^32 * abs(sin(i + 1)))`.
const K: [u32; 64] = [
    0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a, 0xa8304613, 0xfd469501,
    0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be, 0x6b901122, 0xfd987193, 0xa679438e, 0x49b40821,
    0xf61e2562, 0xc040b340, 0x265e5a51, 0xe9b6c7aa, 0xd62f105d, 0x02441453, 0xd8a1e681, 0xe7d3fbc8,
    0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed, 0xa9e3e905, 0xfcefa3f8, 0x676f02d9, 0x8d2a4c8a,
    0xfffa3942, 0x8771f681, 0x6d9d6122, 0xfde5380c, 0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70,
    0x289b7ec6, 0xeaa127fa, 0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665,
    0xf4292244, 0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92, 0xffeff47d, 0x85845dd1,
    0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1, 0xf7537e82, 0xbd3af235, 0x2ad7d2bb, 0xeb86d391,
];

/// Streaming MD5 hasher.
///
/// # Example
///
/// ```
/// use sigma_hashkit::{Digest, Md5};
///
/// let digest = Md5::digest(b"abc");
/// assert_eq!(
///     digest.iter().map(|b| format!("{:02x}", b)).collect::<String>(),
///     "900150983cd24fb0d6963f7d28e17f72"
/// );
/// ```
#[derive(Debug, Clone)]
pub struct Md5 {
    state: [u32; 4],
    buffer: [u8; BLOCK_LEN],
    buffer_len: usize,
    total_len: u64,
}

impl Default for Md5 {
    fn default() -> Self {
        Md5 {
            state: [0x6745_2301, 0xefcd_ab89, 0x98ba_dcfe, 0x1032_5476],
            buffer: [0u8; BLOCK_LEN],
            buffer_len: 0,
            total_len: 0,
        }
    }
}

impl Md5 {
    fn compress(&mut self, block: &[u8; BLOCK_LEN]) {
        let mut m = [0u32; 16];
        for (i, word) in m.iter_mut().enumerate() {
            *word = u32::from_le_bytes(block[4 * i..4 * i + 4].try_into().unwrap());
        }

        let [mut a, mut b, mut c, mut d] = self.state;

        for i in 0..64 {
            let (f, g) = match i {
                0..=15 => ((b & c) | ((!b) & d), i),
                16..=31 => ((d & b) | ((!d) & c), (5 * i + 1) % 16),
                32..=47 => (b ^ c ^ d, (3 * i + 5) % 16),
                _ => (c ^ (b | !d), (7 * i) % 16),
            };
            let tmp = d;
            d = c;
            c = b;
            let sum = a.wrapping_add(f).wrapping_add(K[i]).wrapping_add(m[g]);
            b = b.wrapping_add(sum.rotate_left(S[i]));
            a = tmp;
        }

        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
    }
}

impl Digest for Md5 {
    const OUTPUT_LEN: usize = 16;
    const NAME: &'static str = "md5";

    fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);

        if self.buffer_len > 0 {
            let need = BLOCK_LEN - self.buffer_len;
            let take = need.min(data.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&data[..take]);
            self.buffer_len += take;
            data = &data[take..];
            if self.buffer_len == BLOCK_LEN {
                let block = self.buffer;
                self.compress(&block);
                self.buffer_len = 0;
            }
        }

        while data.len() >= BLOCK_LEN {
            let block: [u8; BLOCK_LEN] = data[..BLOCK_LEN].try_into().unwrap();
            self.compress(&block);
            data = &data[BLOCK_LEN..];
        }

        if !data.is_empty() {
            self.buffer[..data.len()].copy_from_slice(data);
            self.buffer_len = data.len();
        }
    }

    fn finalize(mut self) -> Vec<u8> {
        let bit_len = self.total_len.wrapping_mul(8);

        let mut padding = Vec::with_capacity(2 * BLOCK_LEN);
        padding.push(0x80u8);
        let pad_to = {
            let rem = (self.buffer_len + 1) % BLOCK_LEN;
            if rem <= 56 {
                56 - rem
            } else {
                BLOCK_LEN + 56 - rem
            }
        };
        padding.extend(std::iter::repeat_n(0u8, pad_to));
        padding.extend_from_slice(&bit_len.to_le_bytes());

        self.update(&padding);
        debug_assert_eq!(self.buffer_len, 0);

        let mut out = Vec::with_capacity(Self::OUTPUT_LEN);
        for word in self.state {
            out.extend_from_slice(&word.to_le_bytes());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{:02x}", b)).collect()
    }

    #[test]
    fn rfc1321_vectors() {
        let cases: &[(&[u8], &str)] = &[
            (b"", "d41d8cd98f00b204e9800998ecf8427e"),
            (b"a", "0cc175b9c0f1b6a831c399e269772661"),
            (b"abc", "900150983cd24fb0d6963f7d28e17f72"),
            (b"message digest", "f96b697d7cb7938d525a2f31aaf161d0"),
            (
                b"abcdefghijklmnopqrstuvwxyz",
                "c3fcd3d76192e4007dfb496cca67e13b",
            ),
            (
                b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
                "d174ab98d277d9f5a5611c2c9f419d9f",
            ),
            (
                b"12345678901234567890123456789012345678901234567890123456789012345678901234567890",
                "57edf4a22be3c955ac49da2e2107b67a",
            ),
        ];
        for (input, expected) in cases {
            assert_eq!(hex(&Md5::digest(input)), *expected, "input {:?}", input);
        }
    }

    #[test]
    fn boundary_lengths() {
        for len in [55usize, 56, 57, 63, 64, 65, 119, 120, 128] {
            let data = vec![0x5au8; len];
            let one_shot = Md5::digest(&data);
            let mut streaming = Md5::new();
            for piece in data.chunks(3) {
                streaming.update(piece);
            }
            assert_eq!(streaming.finalize(), one_shot, "length {}", len);
        }
    }

    proptest! {
        #[test]
        fn prop_streaming_equals_one_shot(
            data in proptest::collection::vec(any::<u8>(), 0..2048),
            split in 0usize..2048,
        ) {
            let split = split.min(data.len());
            let mut h = Md5::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            prop_assert_eq!(h.finalize(), Md5::digest(&data));
        }

        #[test]
        fn prop_output_len(data in proptest::collection::vec(any::<u8>(), 0..512)) {
            prop_assert_eq!(Md5::digest(&data).len(), Md5::OUTPUT_LEN);
        }
    }
}

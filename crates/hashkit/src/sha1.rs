//! A self-contained SHA-1 implementation (FIPS 180-1).
//!
//! SHA-1 is the chunk fingerprinting function selected by the paper (Section 4.3):
//! it halves the throughput of MD5 but its collision probability is low enough that
//! fingerprint collisions are far less likely than undetected disk errors, which is
//! the standard assumption for hash-based deduplication.
//!
//! Two compression kernels produce bit-identical digests: on x86_64 CPUs that
//! report the SHA and SSE4.1 extensions, the SHA-NI instructions; everywhere
//! else, an unrolled scalar loop. [`Sha1`] picks one at runtime for every
//! compression; [`ReferenceSha1`](crate::reference::ReferenceSha1) always runs
//! the scalar one, so tests can pin the two against each other.

use crate::{Digest, Fingerprint};

const BLOCK_LEN: usize = 64;
const OUTPUT_LEN: usize = 20;

/// Compresses every whole 64-byte block of its second argument into the state.
pub(crate) type CompressFn = fn(&mut [u32; 5], &[u8]);

/// The streaming state both SHA-1 front ends share: chaining value, buffered
/// partial block and message length. The kernel is passed per call, so the
/// same buffering and padding code serves the hardware and portable paths.
#[derive(Debug, Clone)]
pub(crate) struct Sha1Core {
    state: [u32; 5],
    buffer: [u8; BLOCK_LEN],
    buffer_len: usize,
    total_len: u64,
}

impl Default for Sha1Core {
    fn default() -> Self {
        Sha1Core {
            state: [
                0x6745_2301,
                0xEFCD_AB89,
                0x98BA_DCFE,
                0x1032_5476,
                0xC3D2_E1F0,
            ],
            buffer: [0u8; BLOCK_LEN],
            buffer_len: 0,
            total_len: 0,
        }
    }
}

impl Sha1Core {
    pub(crate) fn update(&mut self, mut data: &[u8], compress: CompressFn) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);

        if self.buffer_len > 0 {
            let take = (BLOCK_LEN - self.buffer_len).min(data.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&data[..take]);
            self.buffer_len += take;
            data = &data[take..];
            if self.buffer_len < BLOCK_LEN {
                return;
            }
            compress(&mut self.state, &self.buffer);
            self.buffer_len = 0;
        }

        let whole = data.len() - data.len() % BLOCK_LEN;
        if whole > 0 {
            compress(&mut self.state, &data[..whole]);
        }
        let tail = &data[whole..];
        self.buffer[..tail.len()].copy_from_slice(tail);
        self.buffer_len = tail.len();
    }

    pub(crate) fn finalize(self, compress: CompressFn) -> [u8; OUTPUT_LEN] {
        // The tail, the 0x80 terminator, zero padding and the 64-bit
        // big-endian bit length fill one block, or two when the tail leaves
        // fewer than 9 bytes free.
        let mut pad = [0u8; 2 * BLOCK_LEN];
        pad[..self.buffer_len].copy_from_slice(&self.buffer[..self.buffer_len]);
        pad[self.buffer_len] = 0x80;
        let len = if self.buffer_len < BLOCK_LEN - 8 {
            BLOCK_LEN
        } else {
            2 * BLOCK_LEN
        };
        pad[len - 8..len].copy_from_slice(&self.total_len.wrapping_mul(8).to_be_bytes());
        let mut state = self.state;
        compress(&mut state, &pad[..len]);

        let mut out = [0u8; OUTPUT_LEN];
        for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// One-shot digest of `data` with no heap allocation.
    pub(crate) fn digest(data: &[u8], compress: CompressFn) -> [u8; OUTPUT_LEN] {
        let mut core = Sha1Core::default();
        core.update(data, compress);
        core.finalize(compress)
    }
}

/// Streaming SHA-1 hasher.
///
/// Compresses on the SHA-NI instructions when the CPU has them and on the
/// portable scalar kernel otherwise; the digest is the same either way.
///
/// # Example
///
/// ```
/// use sigma_hashkit::{Digest, Sha1};
///
/// let digest = Sha1::digest(b"abc");
/// assert_eq!(
///     digest.iter().map(|b| format!("{:02x}", b)).collect::<String>(),
///     "a9993e364706816aba3e25717850c26c9cd0d89d"
/// );
/// ```
#[derive(Debug, Clone, Default)]
pub struct Sha1(Sha1Core);

impl Digest for Sha1 {
    const OUTPUT_LEN: usize = OUTPUT_LEN;
    const NAME: &'static str = "sha1";

    fn update(&mut self, data: &[u8]) {
        self.0.update(data, compress_blocks);
    }

    fn finalize(self) -> Vec<u8> {
        self.0.finalize(compress_blocks).to_vec()
    }

    /// The per-chunk fingerprint path: padding on the stack, no allocation.
    fn fingerprint(data: &[u8]) -> Fingerprint {
        Fingerprint::new(Sha1Core::digest(data, compress_blocks))
    }
}

/// Whether [`compress_blocks`] runs the SHA-NI kernel on this CPU.
#[cfg(target_arch = "x86_64")]
fn hardware_active() -> bool {
    std::is_x86_feature_detected!("sha") && std::is_x86_feature_detected!("sse4.1")
}

/// Compresses the whole blocks of `blocks` into `state`: on the SHA-NI
/// kernel when [`hardware_active`], else on the portable one.
fn compress_blocks(state: &mut [u32; 5], blocks: &[u8]) {
    #[cfg(target_arch = "x86_64")]
    if hardware_active() {
        #[allow(unsafe_code)]
        // SAFETY: `sha_ni::compress_blocks` is compiled for sha, sse2, ssse3
        // and sse4.1. `hardware_active` has just confirmed that this CPU
        // reports sha and sse4.1; sse2 is part of the x86_64 baseline, and
        // sse4.1 implies ssse3 (no CPU has one without the other, and Rust's
        // feature table enables ssse3 whenever sse4.1 is enabled).
        unsafe {
            sha_ni::compress_blocks(state, blocks)
        };
        return;
    }
    compress_blocks_portable(state, blocks);
}

/// The portable kernel: [`compress_block`] over each whole block.
pub(crate) fn compress_blocks_portable(state: &mut [u32; 5], blocks: &[u8]) {
    for block in blocks.chunks_exact(BLOCK_LEN) {
        compress_block(
            state,
            block.try_into().expect("chunks_exact yields whole blocks"),
        );
    }
}

fn compress_block(state: &mut [u32; 5], block: &[u8; BLOCK_LEN]) {
    // 16-word circular message schedule instead of the expanded 80-word
    // array: the working set stays in registers/L1 and each round's
    // schedule word is computed exactly when needed.  The four stages are
    // separate fixed-trip loops so no round pays a `match` on its index,
    // and the boolean functions use their cheapest 3-op forms.
    let mut w = [0u32; 16];
    for (i, word) in w.iter_mut().enumerate() {
        *word = u32::from_be_bytes(block[4 * i..4 * i + 4].try_into().unwrap());
    }

    let [mut a, mut b, mut c, mut d, mut e] = *state;

    // Schedule word for round $i (16..80): w[i-3] ^ w[i-8] ^ w[i-14] ^
    // w[i-16] rotated left 1, indices mod 16.
    macro_rules! s {
        ($i:expr) => {{
            let x = (w[($i + 13) & 15] ^ w[($i + 8) & 15] ^ w[($i + 2) & 15] ^ w[$i & 15])
                .rotate_left(1);
            w[$i & 15] = x;
            x
        }};
    }
    // One round with explicit register roles: the caller rotates the
    // argument order instead of the body shuffling five variables, so the
    // only per-round data movement is the two rotates the spec demands.
    macro_rules! rnd {
        ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:expr, $k:expr, $wi:expr) => {
            $e = $e
                .wrapping_add($a.rotate_left(5))
                .wrapping_add($f)
                .wrapping_add($k)
                .wrapping_add($wi);
            $b = $b.rotate_left(30);
        };
    }
    macro_rules! r_ch {
        ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $wi:expr) => {
            rnd!(
                $a,
                $b,
                $c,
                $d,
                $e,
                $d ^ ($b & ($c ^ $d)),
                0x5A82_7999u32,
                $wi
            )
        };
    }
    macro_rules! r_p1 {
        ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $wi:expr) => {
            rnd!($a, $b, $c, $d, $e, $b ^ $c ^ $d, 0x6ED9_EBA1u32, $wi)
        };
    }
    macro_rules! r_maj {
        ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $wi:expr) => {
            rnd!(
                $a,
                $b,
                $c,
                $d,
                $e,
                ($b & $c) | ($d & ($b | $c)),
                0x8F1B_BCDCu32,
                $wi
            )
        };
    }
    macro_rules! r_p2 {
        ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $wi:expr) => {
            rnd!($a, $b, $c, $d, $e, $b ^ $c ^ $d, 0xCA62_C1D6u32, $wi)
        };
    }

    r_ch!(a, b, c, d, e, w[0]);
    r_ch!(e, a, b, c, d, w[1]);
    r_ch!(d, e, a, b, c, w[2]);
    r_ch!(c, d, e, a, b, w[3]);
    r_ch!(b, c, d, e, a, w[4]);
    r_ch!(a, b, c, d, e, w[5]);
    r_ch!(e, a, b, c, d, w[6]);
    r_ch!(d, e, a, b, c, w[7]);
    r_ch!(c, d, e, a, b, w[8]);
    r_ch!(b, c, d, e, a, w[9]);
    r_ch!(a, b, c, d, e, w[10]);
    r_ch!(e, a, b, c, d, w[11]);
    r_ch!(d, e, a, b, c, w[12]);
    r_ch!(c, d, e, a, b, w[13]);
    r_ch!(b, c, d, e, a, w[14]);
    r_ch!(a, b, c, d, e, w[15]);
    r_ch!(e, a, b, c, d, s!(16));
    r_ch!(d, e, a, b, c, s!(17));
    r_ch!(c, d, e, a, b, s!(18));
    r_ch!(b, c, d, e, a, s!(19));
    r_p1!(a, b, c, d, e, s!(20));
    r_p1!(e, a, b, c, d, s!(21));
    r_p1!(d, e, a, b, c, s!(22));
    r_p1!(c, d, e, a, b, s!(23));
    r_p1!(b, c, d, e, a, s!(24));
    r_p1!(a, b, c, d, e, s!(25));
    r_p1!(e, a, b, c, d, s!(26));
    r_p1!(d, e, a, b, c, s!(27));
    r_p1!(c, d, e, a, b, s!(28));
    r_p1!(b, c, d, e, a, s!(29));
    r_p1!(a, b, c, d, e, s!(30));
    r_p1!(e, a, b, c, d, s!(31));
    r_p1!(d, e, a, b, c, s!(32));
    r_p1!(c, d, e, a, b, s!(33));
    r_p1!(b, c, d, e, a, s!(34));
    r_p1!(a, b, c, d, e, s!(35));
    r_p1!(e, a, b, c, d, s!(36));
    r_p1!(d, e, a, b, c, s!(37));
    r_p1!(c, d, e, a, b, s!(38));
    r_p1!(b, c, d, e, a, s!(39));
    r_maj!(a, b, c, d, e, s!(40));
    r_maj!(e, a, b, c, d, s!(41));
    r_maj!(d, e, a, b, c, s!(42));
    r_maj!(c, d, e, a, b, s!(43));
    r_maj!(b, c, d, e, a, s!(44));
    r_maj!(a, b, c, d, e, s!(45));
    r_maj!(e, a, b, c, d, s!(46));
    r_maj!(d, e, a, b, c, s!(47));
    r_maj!(c, d, e, a, b, s!(48));
    r_maj!(b, c, d, e, a, s!(49));
    r_maj!(a, b, c, d, e, s!(50));
    r_maj!(e, a, b, c, d, s!(51));
    r_maj!(d, e, a, b, c, s!(52));
    r_maj!(c, d, e, a, b, s!(53));
    r_maj!(b, c, d, e, a, s!(54));
    r_maj!(a, b, c, d, e, s!(55));
    r_maj!(e, a, b, c, d, s!(56));
    r_maj!(d, e, a, b, c, s!(57));
    r_maj!(c, d, e, a, b, s!(58));
    r_maj!(b, c, d, e, a, s!(59));
    r_p2!(a, b, c, d, e, s!(60));
    r_p2!(e, a, b, c, d, s!(61));
    r_p2!(d, e, a, b, c, s!(62));
    r_p2!(c, d, e, a, b, s!(63));
    r_p2!(b, c, d, e, a, s!(64));
    r_p2!(a, b, c, d, e, s!(65));
    r_p2!(e, a, b, c, d, s!(66));
    r_p2!(d, e, a, b, c, s!(67));
    r_p2!(c, d, e, a, b, s!(68));
    r_p2!(b, c, d, e, a, s!(69));
    r_p2!(a, b, c, d, e, s!(70));
    r_p2!(e, a, b, c, d, s!(71));
    r_p2!(d, e, a, b, c, s!(72));
    r_p2!(c, d, e, a, b, s!(73));
    r_p2!(b, c, d, e, a, s!(74));
    r_p2!(a, b, c, d, e, s!(75));
    r_p2!(e, a, b, c, d, s!(76));
    r_p2!(d, e, a, b, c, s!(77));
    r_p2!(c, d, e, a, b, s!(78));
    r_p2!(b, c, d, e, a, s!(79));
    // The final rounds' schedule writes are dead by construction.
    let _ = w;

    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
}

/// The SHA-NI kernel (Intel SHA extensions).
///
/// Each `sha1rnds4` runs four rounds on a vector holding A, B, C, D (A in the
/// highest lane) and a vector of four message words with E folded into the
/// highest lane. E after four rounds is A from four rounds earlier rotated
/// by 30, which `sha1nexte` adds into the next group's message words; the
/// schedule `w[i] = rotl1(w[i-3] ^ w[i-8] ^ w[i-14] ^ w[i-16])` is computed
/// four words at a time by `sha1msg1`, one xor and `sha1msg2`.
#[cfg(target_arch = "x86_64")]
mod sha_ni {
    use super::BLOCK_LEN;
    use std::arch::x86_64::*;

    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) fn compress_blocks(state: &mut [u32; 5], blocks: &[u8]) {
        let mut abcd = _mm_set_epi32(
            state[0] as i32,
            state[1] as i32,
            state[2] as i32,
            state[3] as i32,
        );
        let mut e = _mm_set_epi32(state[4] as i32, 0, 0, 0);

        for block in blocks.chunks_exact(BLOCK_LEN) {
            let block: &[u8; BLOCK_LEN] =
                block.try_into().expect("chunks_exact yields whole blocks");
            // Message words `4q .. 4q + 4`, word `4q` in the highest lane.
            let quad = |q: usize| {
                let word = |i: usize| {
                    let at = 16 * q + 4 * i;
                    u32::from_be_bytes([block[at], block[at + 1], block[at + 2], block[at + 3]])
                        as i32
                };
                _mm_set_epi32(word(0), word(1), word(2), word(3))
            };
            let (abcd_in, e_in) = (abcd, e);
            let (mut w0, mut w1, mut w2, mut w3) = (quad(0), quad(1), quad(2), quad(3));
            // ABCD as it was before the current group of four rounds.
            let mut prev = abcd;

            // Four rounds with round function `$f` on message words `$w`.
            macro_rules! rounds4 {
                ($f:literal, $w:expr) => {{
                    let ew = _mm_sha1nexte_epu32(prev, $w);
                    prev = abcd;
                    abcd = _mm_sha1rnds4_epu32::<$f>(abcd, ew);
                }};
            }
            // Replaces the oldest quad `$w0` with the next four schedule
            // words, from the four quads before it in age order, then runs
            // four rounds on it.
            macro_rules! schedule_rounds4 {
                ($f:literal, $w0:ident, $w1:ident, $w2:ident, $w3:ident) => {{
                    $w0 = _mm_sha1msg2_epu32(_mm_xor_si128(_mm_sha1msg1_epu32($w0, $w1), $w2), $w3);
                    rounds4!($f, $w0);
                }};
            }

            abcd = _mm_sha1rnds4_epu32::<0>(abcd, _mm_add_epi32(e, w0));
            rounds4!(0, w1);
            rounds4!(0, w2);
            rounds4!(0, w3);
            schedule_rounds4!(0, w0, w1, w2, w3);
            schedule_rounds4!(1, w1, w2, w3, w0);
            schedule_rounds4!(1, w2, w3, w0, w1);
            schedule_rounds4!(1, w3, w0, w1, w2);
            schedule_rounds4!(1, w0, w1, w2, w3);
            schedule_rounds4!(1, w1, w2, w3, w0);
            schedule_rounds4!(2, w2, w3, w0, w1);
            schedule_rounds4!(2, w3, w0, w1, w2);
            schedule_rounds4!(2, w0, w1, w2, w3);
            schedule_rounds4!(2, w1, w2, w3, w0);
            schedule_rounds4!(2, w2, w3, w0, w1);
            schedule_rounds4!(3, w3, w0, w1, w2);
            schedule_rounds4!(3, w0, w1, w2, w3);
            schedule_rounds4!(3, w1, w2, w3, w0);
            schedule_rounds4!(3, w2, w3, w0, w1);
            schedule_rounds4!(3, w3, w0, w1, w2);

            e = _mm_sha1nexte_epu32(prev, e_in);
            abcd = _mm_add_epi32(abcd, abcd_in);
        }

        state[0] = _mm_extract_epi32::<3>(abcd) as u32;
        state[1] = _mm_extract_epi32::<2>(abcd) as u32;
        state[2] = _mm_extract_epi32::<1>(abcd) as u32;
        state[3] = _mm_extract_epi32::<0>(abcd) as u32;
        state[4] = _mm_extract_epi32::<3>(e) as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::ReferenceSha1;
    use proptest::prelude::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{:02x}", b)).collect()
    }

    /// The digest of `data` through the dispatched and the portable path,
    /// each both streamed and one-shot.
    fn both_paths(data: &[u8]) -> [String; 4] {
        [
            hex(&Sha1::digest(data)),
            hex(Sha1::fingerprint(data).as_bytes()),
            hex(&ReferenceSha1::digest(data)),
            hex(ReferenceSha1::fingerprint_bytes(data).as_bytes()),
        ]
    }

    #[test]
    fn fips_vectors() {
        let cases: &[(&[u8], &str)] = &[
            (b"", "da39a3ee5e6b4b0d3255bfef95601890afd80709"),
            (b"abc", "a9993e364706816aba3e25717850c26c9cd0d89d"),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "84983e441c3bd26ebaae4aa1f95129e5e54670f1",
            ),
            (
                b"The quick brown fox jumps over the lazy dog",
                "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12",
            ),
        ];
        for (input, expected) in cases {
            for got in both_paths(input) {
                assert_eq!(got, *expected, "input {:?}", input);
            }
        }
    }

    #[test]
    fn million_a() {
        let data = vec![b'a'; 1_000_000];
        for got in both_paths(&data) {
            assert_eq!(got, "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
        }
    }

    #[test]
    fn boundary_lengths() {
        // Exercise padding around the 56/64-byte boundaries.
        for len in [55usize, 56, 57, 63, 64, 65, 119, 120, 128] {
            let data = vec![0xabu8; len];
            let one_shot = Sha1::digest(&data);
            let mut streaming = Sha1::new();
            for b in &data {
                streaming.update(std::slice::from_ref(b));
            }
            assert_eq!(streaming.finalize(), one_shot, "length {}", len);
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn hardware_kernel_is_selected_whenever_the_cpu_has_it() {
        if std::is_x86_feature_detected!("sha") && std::is_x86_feature_detected!("sse4.1") {
            assert!(hardware_active(), "CPU reports sha + sse4.1");
        }
    }

    proptest! {
        #[test]
        fn prop_streaming_equals_one_shot(
            data in proptest::collection::vec(any::<u8>(), 0..2048),
            split in 0usize..2048,
        ) {
            let split = split.min(data.len());
            let mut h = Sha1::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            prop_assert_eq!(h.finalize(), Sha1::digest(&data));
        }

        #[test]
        fn prop_output_len(data in proptest::collection::vec(any::<u8>(), 0..512)) {
            prop_assert_eq!(Sha1::digest(&data).len(), Sha1::OUTPUT_LEN);
        }
    }
}

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
//!
//! A third kernel hashes many chunks at once: [`fingerprint_batch`] runs
//! groups of [`LANES`] chunks through a 16-lane AVX-512 compression (one
//! chunk per 32-bit lane, the multi-buffer technique) on CPUs that report
//! `avx512f` and `avx512bw`, and finishes each chunk's tail and padding on
//! the per-chunk kernel above.

use crate::{Digest, Fingerprint};

const BLOCK_LEN: usize = 64;
const OUTPUT_LEN: usize = 20;

/// The SHA-1 initial chaining value (FIPS 180-1).
const IV: [u32; 5] = [
    0x6745_2301,
    0xEFCD_AB89,
    0x98BA_DCFE,
    0x1032_5476,
    0xC3D2_E1F0,
];

/// How many chunks the wide kernel hashes side by side: one per 32-bit lane
/// of a 512-bit register.
pub(crate) const LANES: usize = 16;

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
        Sha1Core::resume(IV, 0)
    }
}

impl Sha1Core {
    /// The core after `consumed` bytes, a whole number of blocks, have been
    /// compressed into `state`: how a chunk whose leading blocks ran on the
    /// wide kernel continues on the per-chunk one.
    pub(crate) fn resume(state: [u32; 5], consumed: u64) -> Self {
        assert_eq!(
            consumed % BLOCK_LEN as u64,
            0,
            "a chaining value stands for whole blocks"
        );
        Sha1Core {
            state,
            buffer: [0u8; BLOCK_LEN],
            buffer_len: 0,
            total_len: consumed,
        }
    }

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

/// Whether [`fingerprint_batch`] runs full groups of chunks on the 16-lane
/// AVX-512 kernel on this CPU.
#[cfg(target_arch = "x86_64")]
fn wide_active() -> bool {
    std::is_x86_feature_detected!("avx512f") && std::is_x86_feature_detected!("avx512bw")
}

/// The SHA-1 fingerprint of every chunk, in order: full groups of [`LANES`]
/// chunks on the 16-lane kernel when [`wide_active`], everything else one
/// chunk at a time on [`Sha1::fingerprint`]'s path. The fingerprints are the
/// same either way.
pub(crate) fn fingerprint_batch<C: AsRef<[u8]>>(chunks: &[C]) -> Vec<Fingerprint> {
    #[cfg(target_arch = "x86_64")]
    if chunks.len() >= LANES && wide_active() {
        return avx512::fingerprint_batch(chunks);
    }
    chunks
        .iter()
        .map(|chunk| Sha1::fingerprint(chunk.as_ref()))
        .collect()
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

/// The 16-lane AVX-512 kernel (the multi-buffer technique).
///
/// Lane `l` of every 512-bit register belongs to chunk `l` of a group: A–E
/// are five registers and the message schedule sixteen, each holding one
/// word of all sixteen chunks. Each block step loads every lane's 64 bytes
/// through that lane's own bounds-checked slice, byte-swaps the words and
/// transposes the 16×16 words in registers, so the chunks may live in one
/// buffer or in separate allocations. A round is the scalar round on
/// vectors: `vpternlogd` computes the boolean function (and the schedule's
/// three-way xor) in one instruction and `vprold` does the rotates.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{compress_blocks, wide_active, Sha1, Sha1Core, BLOCK_LEN, IV, LANES};
    use crate::{Digest, Fingerprint};
    use std::arch::x86_64::*;

    /// [`super::fingerprint_batch`] on a CPU with the wide kernel.
    ///
    /// Chunks are grouped by length, longest first, so the lanes of a group
    /// share as many whole blocks as content-defined chunks allow and the
    /// fewer than [`LANES`] left over are the shortest.
    pub(super) fn fingerprint_batch<C: AsRef<[u8]>>(chunks: &[C]) -> Vec<Fingerprint> {
        let mut order: Vec<usize> = (0..chunks.len()).collect();
        order.sort_unstable_by_key(|&i| std::cmp::Reverse(chunks[i].as_ref().len()));
        let mut out = vec![Fingerprint::ZERO; chunks.len()];
        let groups = order.chunks_exact(LANES);
        for &i in groups.remainder() {
            out[i] = Sha1::fingerprint(chunks[i].as_ref());
        }
        for group in groups {
            let lanes: [&[u8]; LANES] = std::array::from_fn(|l| chunks[group[l]].as_ref());
            for (&i, fingerprint) in group.iter().zip(fingerprint_lanes(&lanes)) {
                out[i] = fingerprint;
            }
        }
        out
    }

    /// Runs the whole blocks all `lanes` have on the wide kernel, then each
    /// lane's remaining bytes and padding on the per-chunk kernel.
    fn fingerprint_lanes(lanes: &[&[u8]; LANES]) -> [Fingerprint; LANES] {
        let blocks = lanes
            .iter()
            .map(|lane| lane.len() / BLOCK_LEN)
            .min()
            .expect("a group has lanes");
        let (states, consumed) = if blocks > 0 && wide_active() {
            #[allow(unsafe_code)]
            // SAFETY: `compress_lanes` is compiled for avx512f and avx512bw,
            // and `wide_active` has just confirmed that this CPU reports both.
            let states = unsafe { compress_lanes(lanes, blocks) };
            (states, blocks * BLOCK_LEN)
        } else {
            ([IV; LANES], 0)
        };
        std::array::from_fn(|l| {
            let mut core = Sha1Core::resume(states[l], consumed as u64);
            core.update(&lanes[l][consumed..], compress_blocks);
            Fingerprint::new(core.finalize(compress_blocks))
        })
    }

    /// Compresses the first `blocks` blocks of every lane, starting from the
    /// IV, and returns each lane's chaining value.
    ///
    /// # Panics
    ///
    /// Panics if a lane is shorter than `blocks` blocks.
    #[target_feature(enable = "avx512f,avx512bw")]
    fn compress_lanes(lanes: &[&[u8]; LANES], blocks: usize) -> [[u32; 5]; LANES] {
        // Reverses the bytes of every 32-bit word: message words are big-endian.
        let bswap = _mm512_broadcast_i32x4(_mm_set_epi8(
            12, 13, 14, 15, 8, 9, 10, 11, 4, 5, 6, 7, 0, 1, 2, 3,
        ));
        let k = [
            _mm512_set1_epi32(0x5A82_7999),
            _mm512_set1_epi32(0x6ED9_EBA1),
            _mm512_set1_epi32(0x8F1B_BCDCu32 as i32),
            _mm512_set1_epi32(0xCA62_C1D6u32 as i32),
        ];
        let mut state = IV.map(|word| _mm512_set1_epi32(word as i32));

        for block in 0..blocks {
            let at = block * BLOCK_LEN;
            let mut rows = [_mm512_setzero_si512(); LANES];
            for (row, lane) in rows.iter_mut().zip(lanes) {
                let bytes: &[u8; BLOCK_LEN] = lane[at..at + BLOCK_LEN]
                    .try_into()
                    .expect("the slice is one block long");
                #[allow(unsafe_code)]
                // SAFETY: `bytes` borrows exactly the 64 initialised bytes the
                // unaligned load reads, and `_mm512_loadu_si512` has no
                // alignment requirement; avx512f is enabled on this function.
                let loaded = unsafe { _mm512_loadu_si512(bytes.as_ptr().cast()) };
                *row = _mm512_shuffle_epi8(loaded, bswap);
            }
            let mut w = transpose(rows);
            let [mut a, mut b, mut c, mut d, mut e] = state;

            // Schedule word for round $i (16..80), computed in place as in
            // the portable kernel; rounds 0..16 read the block's words.
            macro_rules! msg {
                ($i:expr) => {{
                    if $i < 16 {
                        w[$i & 15]
                    } else {
                        let x = _mm512_rol_epi32::<1>(_mm512_xor_si512(
                            _mm512_ternarylogic_epi32::<0x96>(
                                w[($i + 13) & 15],
                                w[($i + 8) & 15],
                                w[($i + 2) & 15],
                            ),
                            w[$i & 15],
                        ));
                        w[$i & 15] = x;
                        x
                    }
                }};
            }
            // One round; `$f` is the `vpternlogd` truth table of the round's
            // boolean function of B, C and D (0xCA choose, 0x96 parity,
            // 0xE8 majority).
            macro_rules! rnd {
                ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:literal, $k:expr, $i:expr) => {
                    let f = _mm512_ternarylogic_epi32::<$f>($b, $c, $d);
                    $e = _mm512_add_epi32(
                        _mm512_add_epi32($e, _mm512_rol_epi32::<5>($a)),
                        _mm512_add_epi32(f, _mm512_add_epi32($k, msg!($i))),
                    );
                    $b = _mm512_rol_epi32::<30>($b);
                };
            }
            // Five rounds from round $i, rotating the register roles back to
            // where they started.
            macro_rules! rounds5 {
                ($f:literal, $k:expr, $i:expr) => {
                    rnd!(a, b, c, d, e, $f, $k, $i);
                    rnd!(e, a, b, c, d, $f, $k, $i + 1);
                    rnd!(d, e, a, b, c, $f, $k, $i + 2);
                    rnd!(c, d, e, a, b, $f, $k, $i + 3);
                    rnd!(b, c, d, e, a, $f, $k, $i + 4);
                };
            }

            rounds5!(0xCA, k[0], 0);
            rounds5!(0xCA, k[0], 5);
            rounds5!(0xCA, k[0], 10);
            rounds5!(0xCA, k[0], 15);
            rounds5!(0x96, k[1], 20);
            rounds5!(0x96, k[1], 25);
            rounds5!(0x96, k[1], 30);
            rounds5!(0x96, k[1], 35);
            rounds5!(0xE8, k[2], 40);
            rounds5!(0xE8, k[2], 45);
            rounds5!(0xE8, k[2], 50);
            rounds5!(0xE8, k[2], 55);
            rounds5!(0x96, k[3], 60);
            rounds5!(0x96, k[3], 65);
            rounds5!(0x96, k[3], 70);
            rounds5!(0x96, k[3], 75);
            // The final rounds' schedule writes are dead by construction.
            let _ = w;

            for (word, round) in state.iter_mut().zip([a, b, c, d, e]) {
                *word = _mm512_add_epi32(*word, round);
            }
        }

        let mut words = [[0u32; LANES]; 5];
        for (out, word) in words.iter_mut().zip(state) {
            #[allow(unsafe_code)]
            // SAFETY: `out` is 64 bytes of writable `u32`s, exactly what the
            // unaligned store writes, and `_mm512_storeu_si512` has no
            // alignment requirement; avx512f is enabled on this function.
            unsafe {
                _mm512_storeu_si512(out.as_mut_ptr().cast(), word)
            };
        }
        std::array::from_fn(|l| words.map(|word| word[l]))
    }

    /// Transposes sixteen rows of sixteen 32-bit words: word `j` of row `i`
    /// becomes word `i` of row `j`.
    ///
    /// Two unpack stages interleave words, then pairs of words, within each
    /// 128-bit segment; after them, segment `s` of `c[j][m]` holds column
    /// `4s + j` of rows `4m..4m + 4`. Two `vshufi32x4` stages then transpose
    /// the 4×4 matrix of segments for each `j`.
    #[target_feature(enable = "avx512f")]
    fn transpose(r: [__m512i; 16]) -> [__m512i; 16] {
        let mut a = [_mm512_setzero_si512(); 16];
        for k in 0..8 {
            a[2 * k] = _mm512_unpacklo_epi32(r[2 * k], r[2 * k + 1]);
            a[2 * k + 1] = _mm512_unpackhi_epi32(r[2 * k], r[2 * k + 1]);
        }
        let mut c = [[_mm512_setzero_si512(); 4]; 4];
        for m in 0..4 {
            let (lo0, hi0, lo1, hi1) = (a[4 * m], a[4 * m + 1], a[4 * m + 2], a[4 * m + 3]);
            c[0][m] = _mm512_unpacklo_epi64(lo0, lo1);
            c[1][m] = _mm512_unpackhi_epi64(lo0, lo1);
            c[2][m] = _mm512_unpacklo_epi64(hi0, hi1);
            c[3][m] = _mm512_unpackhi_epi64(hi0, hi1);
        }
        let mut out = [_mm512_setzero_si512(); 16];
        for (j, c) in c.iter().enumerate() {
            let d0 = _mm512_shuffle_i32x4::<0x44>(c[0], c[1]);
            let d1 = _mm512_shuffle_i32x4::<0xEE>(c[0], c[1]);
            let d2 = _mm512_shuffle_i32x4::<0x44>(c[2], c[3]);
            let d3 = _mm512_shuffle_i32x4::<0xEE>(c[2], c[3]);
            out[j] = _mm512_shuffle_i32x4::<0x88>(d0, d2);
            out[4 + j] = _mm512_shuffle_i32x4::<0xDD>(d0, d2);
            out[8 + j] = _mm512_shuffle_i32x4::<0x88>(d1, d3);
            out[12 + j] = _mm512_shuffle_i32x4::<0xDD>(d1, d3);
        }
        out
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

    /// `copies` copies of `data` through the batch path, each as hex.
    fn batch_of(data: &[u8], copies: usize) -> Vec<String> {
        fingerprint_batch(&vec![data; copies])
            .iter()
            .map(|fp| hex(fp.as_bytes()))
            .collect()
    }

    #[test]
    fn fips_vectors_through_the_batch_path() {
        let cases: &[(&[u8], &str)] = &[
            (b"", "da39a3ee5e6b4b0d3255bfef95601890afd80709"),
            (b"abc", "a9993e364706816aba3e25717850c26c9cd0d89d"),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "84983e441c3bd26ebaae4aa1f95129e5e54670f1",
            ),
            (
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn\
                  hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
                "a49b2446a02c645bf419f995b67091253a04a259",
            ),
        ];
        // One full group and one chunk left over.
        for (input, expected) in cases {
            for got in batch_of(input, LANES + 1) {
                assert_eq!(got, *expected, "input {:?}", input);
            }
        }
    }

    #[test]
    fn million_a_through_the_batch_path() {
        for got in batch_of(&vec![b'a'; 1_000_000], LANES) {
            assert_eq!(got, "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
        }
    }

    #[test]
    fn batch_of_fixed_4k_chunks_matches_reference() {
        let data: Vec<u8> = (0..1u32 << 20)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
            .collect();
        let chunks: Vec<&[u8]> = data.chunks(4096).collect();
        let expected: Vec<Fingerprint> = chunks
            .iter()
            .map(|c| ReferenceSha1::fingerprint_bytes(c))
            .collect();
        assert_eq!(fingerprint_batch(&chunks), expected);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn wide_kernel_is_selected_whenever_the_cpu_has_it() {
        if std::is_x86_feature_detected!("avx512f") && std::is_x86_feature_detected!("avx512bw") {
            assert!(wide_active(), "CPU reports avx512f + avx512bw");
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

    /// Lengths around the padding cut (55/56), the block edge and a 4 KiB
    /// chunk, which random lengths up to 9 000 would rarely hit.
    const EDGE_LENGTHS: [usize; 11] = [0, 1, 55, 56, 63, 64, 65, 119, 4095, 4096, 4097];
    /// The longest random chunk.
    const MAX_CHUNK: usize = 9_000;
    /// The furthest a chunk starts past the buffer's first byte.
    const MAX_SKEW: usize = 63;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn batch_matches_reference_chunk_by_chunk(
            data in proptest::collection::vec(any::<u8>(), MAX_CHUNK + MAX_SKEW..MAX_CHUNK + MAX_SKEW + 1),
            specs in proptest::collection::vec(any::<u64>(), 0..41),
        ) {
            // 0..=40 chunks: full groups, a partial group and remainders.
            // Each spec picks an edge length or a random one, mixed within a
            // group, and a start 0..=63 bytes into the shared buffer.
            let chunks: Vec<&[u8]> = specs
                .iter()
                .map(|&spec| {
                    let len = if spec & 1 == 0 {
                        EDGE_LENGTHS[(spec >> 8) as usize % EDGE_LENGTHS.len()]
                    } else {
                        (spec >> 8) as usize % (MAX_CHUNK + 1)
                    };
                    let start = (spec >> 40) as usize % (MAX_SKEW + 1);
                    &data[start..start + len]
                })
                .collect();
            let expected: Vec<Fingerprint> = chunks
                .iter()
                .map(|c| ReferenceSha1::fingerprint_bytes(c))
                .collect();
            prop_assert_eq!(&fingerprint_batch(&chunks), &expected);
            // The same chunks as separate allocations.
            let owned: Vec<Vec<u8>> = chunks.iter().map(|c| c.to_vec()).collect();
            prop_assert_eq!(&fingerprint_batch(&owned), &expected);
        }
    }
}

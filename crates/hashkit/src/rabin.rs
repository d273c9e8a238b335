//! Rabin fingerprinting: a rolling hash over GF(2) polynomials.
//!
//! Content-defined chunking (CDC) — including the TTTD variant used by the paper —
//! slides a fixed-size window over the data stream and declares a chunk boundary
//! whenever the Rabin fingerprint of the window matches a divisor condition.  This
//! module implements the classic table-driven Rabin fingerprint (as popularised by
//! LBFS) with an explicit sliding window.

/// A degree-53 irreducible polynomial over GF(2), the classic LBFS choice.
///
/// The top set bit encodes the leading coefficient (x^53).
pub const DEFAULT_IRREDUCIBLE_POLY: u64 = 0x003D_A335_8B4D_C173;

/// Default sliding-window width in bytes.
pub const DEFAULT_WINDOW_SIZE: usize = 48;

/// Parameters for a [`RabinHasher`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RabinParams {
    /// The irreducible polynomial (with its leading coefficient bit set).
    pub poly: u64,
    /// Sliding-window width in bytes.
    pub window_size: usize,
}

impl Default for RabinParams {
    fn default() -> Self {
        RabinParams {
            poly: DEFAULT_IRREDUCIBLE_POLY,
            window_size: DEFAULT_WINDOW_SIZE,
        }
    }
}

/// Degree of a GF(2) polynomial represented as a bit mask.
fn degree(poly: u64) -> u32 {
    63 - poly.leading_zeros()
}

/// Reduces a 128-bit GF(2) polynomial modulo `poly`.
fn polymod128(mut value: u128, poly: u64) -> u64 {
    let deg = degree(poly);
    let poly128 = poly as u128;
    let mut bit = 127u32;
    loop {
        if value >> bit & 1 == 1 && bit >= deg {
            value ^= poly128 << (bit - deg);
        }
        if bit == 0 {
            break;
        }
        bit -= 1;
    }
    value as u64
}

/// Carry-less multiplication of two GF(2) polynomials (result up to 127 bits).
fn polymul(a: u64, b: u64) -> u128 {
    let mut result = 0u128;
    let a = a as u128;
    for i in 0..64 {
        if b >> i & 1 == 1 {
            result ^= a << i;
        }
    }
    result
}

/// Multiplies two polynomials modulo `poly`.
fn polymulmod(a: u64, b: u64, poly: u64) -> u64 {
    polymod128(polymul(a, b), poly)
}

/// A table-driven Rabin rolling hash with an explicit byte window.
///
/// The chunkers in `sigma-chunking` cut with [`scan`](RabinHasher::scan),
/// which borrows only the precomputed tables. [`roll`](RabinHasher::roll) and
/// [`reset`](RabinHasher::reset) move the hasher's own window one byte at a
/// time; the scalar reference chunkers use them, and tests hold `scan` to them.
///
/// # Example
///
/// ```
/// use sigma_hashkit::{RabinHasher, RabinParams};
///
/// let mut h = RabinHasher::new(RabinParams::default());
/// let data = b"some streaming data that is longer than the window .....";
/// let mut v = 0;
/// for &b in data.iter() {
///     v = h.roll(b);
/// }
/// assert_ne!(v, 0);
/// ```
#[derive(Debug, Clone)]
pub struct RabinHasher {
    /// Degree of the polynomial.
    deg: u32,
    /// Mask keeping values below 2^deg.
    mask: u64,
    /// Shift extracting the byte that overflows past the degree when appending.
    shift: u32,
    /// Append table: cancels the overflowing byte and adds its reduced equivalent.
    append_table: [u64; 256],
    /// Remove table: contribution of the outgoing (oldest) window byte.
    remove_table: [u64; 256],
    /// `j * x^deg mod P` — the pure reduction of an overflowing byte.
    r1_table: [u64; 256],
    /// `j * x^(deg+8) mod P` — reduction of a byte overflowing two positions up.
    r2_table: [u64; 256],
    /// `j * x^(8W) mod P` — an outgoing byte's contribution advanced one step.
    remove_shift_table: [u64; 256],
    window: Vec<u8>,
    window_pos: usize,
    window_filled: usize,
    hash: u64,
}

impl RabinHasher {
    /// Creates a new hasher with the given parameters.
    ///
    /// # Panics
    ///
    /// Panics if the polynomial degree is less than 9 (the table method needs at
    /// least one full byte of headroom) or the window size is zero.
    pub fn new(params: RabinParams) -> Self {
        let deg = degree(params.poly);
        assert!(
            (9..=56).contains(&deg),
            "polynomial degree must be between 9 and 56"
        );
        assert!(params.window_size > 0, "window size must be non-zero");

        let shift = deg - 8;
        let mask = (1u64 << deg) - 1;

        // x^deg mod P
        let x_deg_mod = polymod128(1u128 << deg, params.poly);
        let mut append_table = [0u64; 256];
        for (j, entry) in append_table.iter_mut().enumerate() {
            // (j * x^deg) mod P, together with the bits j << deg that the append
            // operation must cancel.
            *entry = polymulmod(j as u64, x_deg_mod, params.poly) | ((j as u64) << deg);
        }

        // The outgoing byte of a full window contributes b * x^(8*(W-1)); precompute
        // x^(8*(W-1)) mod P and multiply per byte value.
        let mut x_out = 1u64;
        let x8 = polymod128(1u128 << 8, params.poly);
        for _ in 0..(params.window_size - 1) {
            x_out = polymulmod(x_out, x8, params.poly);
        }
        let mut remove_table = [0u64; 256];
        for (j, entry) in remove_table.iter_mut().enumerate() {
            *entry = polymulmod(j as u64, x_out, params.poly);
        }

        // Tables for the two-byte-per-step scan: pure reductions of a byte
        // overflowing at x^deg and x^(deg+8), plus the outgoing byte's
        // contribution advanced by one append (x^(8(W-1)) * x^8 = x^(8W)).
        let x_deg8_mod = polymulmod(x_deg_mod, x8, params.poly);
        let x_out_shifted = polymulmod(x_out, x8, params.poly);
        let mut r1_table = [0u64; 256];
        let mut r2_table = [0u64; 256];
        let mut remove_shift_table = [0u64; 256];
        for j in 0..256usize {
            r1_table[j] = polymulmod(j as u64, x_deg_mod, params.poly);
            r2_table[j] = polymulmod(j as u64, x_deg8_mod, params.poly);
            remove_shift_table[j] = polymulmod(j as u64, x_out_shifted, params.poly);
        }

        RabinHasher {
            deg,
            mask,
            shift,
            append_table,
            remove_table,
            r1_table,
            r2_table,
            remove_shift_table,
            window: vec![0u8; params.window_size],
            window_pos: 0,
            window_filled: 0,
            hash: 0,
        }
    }

    /// Resets the hasher to its initial (empty-window) state.
    pub fn reset(&mut self) {
        self.hash = 0;
        self.window_pos = 0;
        self.window_filled = 0;
        self.window.iter_mut().for_each(|b| *b = 0);
    }

    /// Pushes one byte into the window and returns the updated hash value.
    pub fn roll(&mut self, byte: u8) -> u64 {
        if self.window_filled == self.window.len() {
            let outgoing = self.window[self.window_pos];
            self.hash ^= self.remove_table[outgoing as usize];
        } else {
            self.window_filled += 1;
        }
        self.window[self.window_pos] = byte;
        self.window_pos += 1;
        if self.window_pos == self.window.len() {
            self.window_pos = 0;
        }
        self.hash = self.append_byte(self.hash, byte);
        self.hash
    }

    #[inline]
    fn append_byte(&self, hash: u64, byte: u8) -> u64 {
        let top = (hash >> self.shift) as usize & 0xff;
        (((hash << 8) | byte as u64) ^ self.append_table[top]) & self.mask
    }

    /// Streams the rolling hash over `data` from a reset state, calling
    /// `test(p, hash)` for every 1-based prefix length `p >= first_check`, and
    /// returns the first `p` for which `test` returns `true`.
    ///
    /// Bit-identical to rolling every byte of `data` through a freshly reset
    /// hasher and testing the value `roll` returns at each qualifying prefix
    /// length, but the hot loop avoids all the per-byte overhead of
    /// [`roll`](Self::roll):
    ///
    /// * **skip-ahead** — the hash is a function of the last `window_size` bytes
    ///   only, so feeding starts at `first_check - window_size` instead of 0
    ///   (the bytes below the minimum chunk size are never even read);
    /// * **no ring buffer** — the outgoing window byte is read straight from the
    ///   input slice, so there is no window `Vec`, no write-back, and no
    ///   per-byte `% window_len` division;
    /// * **two-byte stride** — the steady-state loop advances two bytes per
    ///   iteration, computing both the intermediate and the two-step hash
    ///   straight from the previous state via independent table lookups
    ///   (GF(2) linearity), so the serial load-to-load append chain of the
    ///   per-byte formulation is cut in half.
    ///
    /// The hasher's own window state is untouched; `scan` only borrows the
    /// precomputed tables.
    pub fn scan<F>(&self, data: &[u8], first_check: usize, mut test: F) -> Option<usize>
    where
        F: FnMut(usize, u64) -> bool,
    {
        let w = self.window.len();
        let n = data.len();
        let first = first_check.max(1);
        if first > n {
            return None;
        }
        let feed_start = first.saturating_sub(w);

        // Window warm-up: append without removal.  Positions below `first` are
        // carried silently; the last warm-up byte can already be a candidate.
        let warm_end = (feed_start + w).min(n);
        let mut hash = 0u64;
        let mut p = feed_start;
        for &b in &data[feed_start..warm_end] {
            hash = self.append_byte(hash, b);
            p += 1;
            if p >= first && test(p, hash) {
                return Some(p);
            }
        }
        if warm_end < feed_start + w {
            return None;
        }

        // Steady state: the window is full, the outgoing byte comes straight from
        // the slice `w` positions back.
        let incoming = &data[warm_end..];
        let outgoing = &data[warm_end - w..n - w];

        if self.deg >= 17 {
            // Two bytes per iteration with *no* serial append chain between
            // them.  Both the intermediate hash `h1` and the two-step hash
            // `h2` are computed directly from the previous state `g` — the
            // per-byte formulation's loop-carried chain (table load whose
            // index depends on the hash just produced) is replaced by one
            // level of independent lookups per two bytes.  Algebra (all
            // GF(2)-linear, so removals and appends distribute):
            //   h1 = append(g, in1)
            //      = (g & low8) << 8 | in1          ^ r1[g >> (deg-8)]
            //   h2 = append(append(g, in1) ^ rm[out2], in2)
            //      = (g & low16) << 16 | in1:in2    ^ r2[g >> (deg-8)]
            //        ^ r1[(g >> (deg-16)) & 0xff]   ^ rm_shift[out2]
            let low8 = (1u64 << (self.deg - 8)) - 1;
            let low16 = (1u64 << (self.deg - 16)) - 1;
            let top = self.deg - 8;
            let mid = self.deg - 16;
            let mut pairs_in = incoming.chunks_exact(2);
            let mut pairs_out = outgoing.chunks_exact(2);
            for (inc, out) in (&mut pairs_in).zip(&mut pairs_out) {
                let g = hash ^ self.remove_table[out[0] as usize];
                let gt = (g >> top) as usize;
                let h1 = (((g & low8) << 8) | inc[0] as u64) ^ self.r1_table[gt];
                let h2 = (((g & low16) << 16) | ((inc[0] as u64) << 8) | inc[1] as u64)
                    ^ self.r2_table[gt]
                    ^ self.r1_table[(g >> mid) as usize & 0xff]
                    ^ self.remove_shift_table[out[1] as usize];
                hash = h2;
                if test(p + 1, h1) {
                    return Some(p + 1);
                }
                if test(p + 2, h2) {
                    return Some(p + 2);
                }
                p += 2;
            }
            for (&new, &old) in pairs_in.remainder().iter().zip(pairs_out.remainder()) {
                hash ^= self.remove_table[old as usize];
                hash = self.append_byte(hash, new);
                p += 1;
                if test(p, hash) {
                    return Some(p);
                }
            }
            return None;
        }

        // Narrow polynomials (deg < 17): plain rolling step.
        for (&new, &old) in incoming.iter().zip(outgoing) {
            hash ^= self.remove_table[old as usize];
            hash = self.append_byte(hash, new);
            p += 1;
            if test(p, hash) {
                return Some(p);
            }
        }
        None
    }
}

impl Default for RabinHasher {
    /// A hasher with the default polynomial and window size.
    fn default() -> Self {
        Self::new(RabinParams::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn fingerprint_of(data: &[u8], params: RabinParams) -> u64 {
        let mut h = RabinHasher::new(params);
        for &b in data {
            h.roll(b);
        }
        h.hash
    }

    #[test]
    fn window_only_depends_on_last_w_bytes() {
        let params = RabinParams {
            window_size: 16,
            ..RabinParams::default()
        };
        let tail: Vec<u8> = (0..16u8)
            .map(|i| i.wrapping_mul(37).wrapping_add(11))
            .collect();

        let mut prefix_a = vec![1u8; 100];
        prefix_a.extend_from_slice(&tail);
        let mut prefix_b = vec![250u8; 7];
        prefix_b.extend_from_slice(&tail);

        assert_eq!(
            fingerprint_of(&prefix_a, params),
            fingerprint_of(&prefix_b, params),
            "hash must be a function of the window contents only"
        );
    }

    #[test]
    fn different_windows_hash_differently() {
        let params = RabinParams::default();
        let a = fingerprint_of(b"abcdefghabcdefghabcdefghabcdefghabcdefghabcdefgh", params);
        let b = fingerprint_of(b"abcdefghabcdefghabcdefghabcdefghabcdefghabcdefgX", params);
        assert_ne!(a, b);
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut h = RabinHasher::default();
        for &b in b"some data".iter() {
            h.roll(b);
        }
        h.reset();
        assert_eq!(h.hash, 0);
        let v1 = {
            for &b in b"replay".iter() {
                h.roll(b);
            }
            h.hash
        };
        let mut fresh = RabinHasher::default();
        for &b in b"replay".iter() {
            fresh.roll(b);
        }
        assert_eq!(v1, fresh.hash);
    }

    #[test]
    fn value_stays_below_degree() {
        let mut h = RabinHasher::default();
        let limit = 1u64 << h.deg;
        for i in 0..10_000u32 {
            let v = h.roll((i % 251) as u8);
            assert!(v < limit);
        }
    }

    #[test]
    fn polymod_reduces_below_poly_degree() {
        let poly = DEFAULT_IRREDUCIBLE_POLY;
        let deg = degree(poly);
        for v in [0u128, 1, 0xdeadbeef, u64::MAX as u128, u128::MAX / 3] {
            assert!(polymod128(v, poly) < (1u64 << deg));
        }
    }

    #[test]
    fn polymul_matches_schoolbook_for_small_inputs() {
        // (x+1)*(x+1) = x^2 + 1 over GF(2)
        assert_eq!(polymul(0b11, 0b11), 0b101);
        // x * x^2 = x^3
        assert_eq!(polymul(0b10, 0b100), 0b1000);
    }

    proptest! {
        #[test]
        fn prop_window_locality(
            prefix_a in proptest::collection::vec(any::<u8>(), 0..200),
            prefix_b in proptest::collection::vec(any::<u8>(), 0..200),
            tail in proptest::collection::vec(any::<u8>(), 48..128),
        ) {
            let params = RabinParams::default();
            let mut a = prefix_a.clone();
            a.extend_from_slice(&tail);
            let mut b = prefix_b.clone();
            b.extend_from_slice(&tail);
            prop_assert_eq!(fingerprint_of(&a, params), fingerprint_of(&b, params));
        }

        #[test]
        fn prop_value_bounded(data in proptest::collection::vec(any::<u8>(), 0..512)) {
            let mut h = RabinHasher::default();
            let limit = 1u64 << h.deg;
            for &byte in &data {
                prop_assert!(h.roll(byte) < limit);
            }
        }

        #[test]
        fn prop_scan_matches_scalar_roll(
            data in proptest::collection::vec(any::<u8>(), 0..600),
            first_check in 0usize..300,
            mask_bits in 1u32..10,
        ) {
            let params = RabinParams { window_size: 48, ..RabinParams::default() };
            let hasher = RabinHasher::new(params);
            let mask = (1u64 << mask_bits) - 1;

            // Scalar reference: roll every byte from a reset state, test every
            // prefix length >= first_check.
            let mut scalar = RabinHasher::new(params);
            let mut expected = None;
            for (i, &b) in data.iter().enumerate() {
                let h = scalar.roll(b);
                if i + 1 >= first_check.max(1) && h & mask == mask {
                    expected = Some(i + 1);
                    break;
                }
            }

            let got = hasher.scan(&data, first_check, |_, h| h & mask == mask);
            prop_assert_eq!(got, expected);
        }

        #[test]
        fn prop_scan_small_window_partial_fill(
            data in proptest::collection::vec(any::<u8>(), 0..80),
            first_check in 0usize..20,
        ) {
            // first_check below the window size exercises the partial-window
            // warm-up path (positions tested before the window is full).
            let params = RabinParams { window_size: 32, ..RabinParams::default() };
            let hasher = RabinHasher::new(params);
            let mask = 0x7u64;

            let mut scalar = RabinHasher::new(params);
            let mut expected = None;
            for (i, &b) in data.iter().enumerate() {
                let h = scalar.roll(b);
                if i + 1 >= first_check.max(1) && h & mask == mask {
                    expected = Some(i + 1);
                    break;
                }
            }

            let got = hasher.scan(&data, first_check, |_, h| h & mask == mask);
            prop_assert_eq!(got, expected);
        }
    }

    #[test]
    fn scan_reports_positions_in_order_and_at_least_first_check() {
        let hasher = RabinHasher::default();
        let data: Vec<u8> = (0..4096u32).map(|i| (i * 31 % 251) as u8).collect();
        let mut seen = Vec::new();
        let got = hasher.scan(&data, 100, |p, _| {
            seen.push(p);
            false
        });
        assert_eq!(got, None);
        assert_eq!(seen.first(), Some(&100));
        assert_eq!(seen.last(), Some(&data.len()));
        assert!(seen.windows(2).all(|w| w[1] == w[0] + 1));
    }

    #[test]
    fn scan_first_check_past_end_returns_none() {
        let hasher = RabinHasher::default();
        let data = vec![7u8; 64];
        assert_eq!(hasher.scan(&data, 65, |_, _| true), None);
        assert_eq!(hasher.scan(&data, 64, |_, _| true), Some(64));
    }
}

//! Boundary bit-identity between the optimized chunkers and their scalar
//! references.
//!
//! The hot-path rewrite (skip-ahead below `min_size`, mask tests instead of
//! modulo, unrolled scanners, no per-call hasher-template clone) must not move
//! a single chunk boundary: dedup ratios, recipe stability and the
//! parallel/serial byte-identity guarantees all depend on boundary decisions
//! being a pure function of the content.  These proptests pit every
//! [`ChunkerParams`] preset against the preserved scalar implementation in
//! [`sigma_chunking::reference`].

use proptest::prelude::*;
use sigma_chunking::{reference, ChunkerParams, TttdParams};

/// Every chunker configuration the workspace exercises, including presets whose
/// `min_size` is below the rolling-hash window (partial-window boundary tests)
/// and degenerate `min == avg == max` sizings.
fn all_presets() -> Vec<ChunkerParams> {
    vec![
        ChunkerParams::paper_default(),
        ChunkerParams::fixed(512),
        ChunkerParams::cdc(1024, 4096, 16 * 1024),
        ChunkerParams::cdc(256, 1024, 4096),
        ChunkerParams::cdc(5, 10, 20),
        ChunkerParams::cdc_with_average(8192),
        ChunkerParams::tttd_default(),
        ChunkerParams::Tttd(TttdParams {
            min_size: 256,
            minor_mean: 512,
            major_mean: 1024,
            max_size: 8192,
        }),
    ]
}

fn xorshift_data(len: usize, seed: u64) -> Vec<u8> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 32) as u8
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prop_unrolled_boundaries_match_scalar_reference(
        seed in any::<u64>(),
        len in 0usize..120_000,
    ) {
        let data = xorshift_data(len, seed);
        for params in all_presets() {
            let optimized = params.build();
            let scalar = reference::build(&params);
            prop_assert_eq!(
                optimized.chunk_boundaries(&data),
                scalar.chunk_boundaries(&data),
                "preset {:?} diverged on len {} seed {}",
                params,
                len,
                seed
            );
        }
    }
}

#[test]
fn zero_entropy_and_structured_data_match() {
    // Pathological inputs: constant bytes (hash never fires), short repeats
    // (hash fires periodically), and data shorter than min/window sizes.
    let mut cases: Vec<Vec<u8>> = vec![
        vec![0u8; 100_000],
        vec![0xFF; 50_000],
        (0..60_000usize).map(|i| (i % 7) as u8).collect(),
        Vec::new(),
        vec![1, 2, 3],
        vec![42u8; 47],
    ];
    let repeating: Vec<u8> = b"abcdefgh".iter().copied().cycle().take(80_000).collect();
    cases.push(repeating);

    for data in &cases {
        for params in all_presets() {
            assert_eq!(
                params.build().chunk_boundaries(data),
                reference::build(&params).chunk_boundaries(data),
                "preset {:?} diverged on structured input of len {}",
                params,
                data.len()
            );
        }
    }
}

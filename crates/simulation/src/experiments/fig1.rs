//! Figure 1: the effect of handprinting on super-chunk resemblance detection.
//!
//! The paper takes the first 8 MB super-chunk of four pairs of files with different
//! degrees of similarity (two Linux kernel versions, two PPT versions, two DOC
//! versions, two HTML versions), chunks them with TTTD (1 K / 2 K / 4 K / 32 K), and
//! compares the *real* resemblance (Jaccard index over all chunk fingerprints) with
//! the resemblance *estimated* from handprints of increasing size.  The estimate
//! approaches the real value as the handprint grows, and even small handprints
//! detect similarity that a single representative fingerprint misses.

use sigma_chunking::{Chunker, TttdChunker};
use sigma_core::{jaccard, Handprint};
use sigma_hashkit::{Digest, Fingerprint, Sha1};
use sigma_metrics::report::TextTable;
use sigma_workloads::payload::{versioned_payloads, VersionedPayloadParams};

/// One file pair of the experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig1Row {
    /// Pair label (e.g. `"linux-kernel"`).
    pub pair: String,
    /// Real resemblance: Jaccard index over the full chunk-fingerprint sets.
    pub real_resemblance: f64,
    /// `(handprint size, estimated resemblance)` series.
    pub estimates: Vec<(usize, f64)>,
}

/// Parameters of the Figure 1 experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig1Params {
    /// Super-chunk size in bytes (the paper uses 8 MB).
    pub super_chunk_size: usize,
    /// Handprint sizes to evaluate.
    pub max_handprint_exponent: u32,
}

impl Default for Fig1Params {
    fn default() -> Self {
        Fig1Params {
            super_chunk_size: 8 << 20,
            max_handprint_exponent: 9, // up to 512 representative fingerprints
        }
    }
}

/// The four file pairs: `(label, fraction of 4 KB regions rewritten)`.
///
/// The mutation rates are chosen so that the resulting Jaccard resemblances span the
/// range of the paper's four pairs (from ≈0.95 for the kernel pair down to ≈0.25 for
/// the HTML pair).
const PAIRS: [(&str, f64); 4] = [
    ("linux-kernel", 0.02),
    ("doc", 0.20),
    ("ppt", 0.40),
    ("html", 0.60),
];

/// Runs the experiment.
pub fn run(params: Fig1Params) -> Vec<Fig1Row> {
    let chunker = TttdChunker::default();
    let handprint_sizes: Vec<usize> = (0..=params.max_handprint_exponent)
        .map(|e| 1usize << e)
        .collect();

    PAIRS
        .iter()
        .enumerate()
        .map(|(i, (label, mutation_rate))| {
            let versions = versioned_payloads(VersionedPayloadParams {
                seed: 0xf161 + i as u64,
                versions: 2,
                version_size: params.super_chunk_size,
                mutation_rate: *mutation_rate,
            });
            let a = fingerprints(&chunker, &versions[0].1);
            let b = fingerprints(&chunker, &versions[1].1);
            let real = jaccard(&a, &b);
            let estimates = handprint_sizes
                .iter()
                .map(|&k| {
                    let ha = Handprint::from_fingerprints(a.iter().copied(), k);
                    let hb = Handprint::from_fingerprints(b.iter().copied(), k);
                    (k, ha.estimate_resemblance(&hb))
                })
                .collect();
            Fig1Row {
                pair: label.to_string(),
                real_resemblance: real,
                estimates,
            }
        })
        .collect()
}

fn fingerprints(chunker: &TttdChunker, data: &[u8]) -> Vec<Fingerprint> {
    chunker
        .split(data)
        .iter()
        .map(|c| Sha1::fingerprint(c.data()))
        .collect()
}

/// Renders the figure as a text table (one column per handprint size).
pub fn render(rows: &[Fig1Row]) -> String {
    let mut headers = vec!["pair".to_string(), "real r".to_string()];
    if let Some(first) = rows.first() {
        for (k, _) in &first.estimates {
            headers.push(format!("k={}", k));
        }
    }
    let mut table = TextTable::new(headers.iter().map(|s| s.as_str()).collect());
    for row in rows {
        let mut cells = vec![row.pair.clone(), format!("{:.3}", row.real_resemblance)];
        cells.extend(row.estimates.iter().map(|(_, e)| format!("{:.3}", e)));
        table.add_row(cells);
    }
    table.render()
}

/// A quick self-check used by tests and the bench harness: estimates must approach
/// the real resemblance as the handprint size grows.
pub fn estimates_converge(rows: &[Fig1Row]) -> bool {
    rows.iter().all(|row| {
        let last = row.estimates.last().map(|&(_, e)| e).unwrap_or(0.0);
        let first = row.estimates.first().map(|&(_, e)| e).unwrap_or(0.0);
        // The largest handprint must be a better (or equal) estimator than k = 1,
        // and must land within 0.25 of the real value.
        (last - row.real_resemblance).abs() <= 0.25
            && (last - row.real_resemblance).abs() <= (first - row.real_resemblance).abs() + 1e-9
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_params() -> Fig1Params {
        Fig1Params {
            super_chunk_size: 1 << 20,
            max_handprint_exponent: 6,
        }
    }

    #[test]
    fn four_pairs_with_decreasing_resemblance() {
        let rows = run(tiny_params());
        assert_eq!(rows.len(), 4);
        for pair in rows.windows(2) {
            assert!(
                pair[0].real_resemblance > pair[1].real_resemblance,
                "{} ({}) should be more similar than {} ({})",
                pair[0].pair,
                pair[0].real_resemblance,
                pair[1].pair,
                pair[1].real_resemblance
            );
        }
        assert!(rows[0].real_resemblance > 0.7);
        assert!(rows[3].real_resemblance < 0.5);
    }

    #[test]
    fn estimates_approach_real_value() {
        let rows = run(tiny_params());
        assert!(estimates_converge(&rows), "{:#?}", rows);
    }

    #[test]
    fn render_contains_all_pairs() {
        let rows = run(Fig1Params {
            super_chunk_size: 256 * 1024,
            max_handprint_exponent: 3,
        });
        let text = render(&rows);
        for (label, _) in PAIRS {
            assert!(text.contains(label));
        }
        assert!(text.contains("k=8"));
    }
}

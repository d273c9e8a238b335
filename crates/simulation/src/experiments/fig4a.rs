//! Figure 4(a): chunking and fingerprinting throughput at the backup client.
//!
//! The paper measures the throughput of Rabin-based CDC chunking, SHA-1
//! fingerprinting and MD5 fingerprinting as a function of the number of concurrent
//! data streams on a 4-core/8-thread client.  Throughput scales with the stream
//! count up to the hardware parallelism, and MD5 is roughly twice as fast as SHA-1
//! (which is why the paper picks SHA-1 only for its collision resistance, not for
//! speed).

use sigma_chunking::{CdcChunker, Chunker};
use sigma_hashkit::{Digest, Md5, Sha1};
use sigma_metrics::report::TextTable;
use sigma_metrics::Stopwatch;
use sigma_workloads::payload::random_bytes;

/// The client-side operations measured by Figure 4(a).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClientOp {
    /// Rabin-based content-defined chunking (4 KB average).
    CdcChunking,
    /// SHA-1 chunk fingerprinting.
    Sha1Fingerprinting,
    /// MD5 chunk fingerprinting.
    Md5Fingerprinting,
}

impl std::fmt::Display for ClientOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ClientOp::CdcChunking => "CDC chunking",
            ClientOp::Sha1Fingerprinting => "SHA-1 fingerprinting",
            ClientOp::Md5Fingerprinting => "MD5 fingerprinting",
        };
        f.write_str(s)
    }
}

/// One measured point.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4aRow {
    /// The operation measured.
    pub op: String,
    /// Number of concurrent data streams (threads).
    pub streams: usize,
    /// Aggregate throughput in MB/s.
    pub mb_per_sec: f64,
}

/// Parameters of the experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4aParams {
    /// Bytes processed per stream.
    pub bytes_per_stream: usize,
    /// Stream counts to evaluate.
    pub stream_counts: Vec<usize>,
}

impl Default for Fig4aParams {
    fn default() -> Self {
        Fig4aParams {
            bytes_per_stream: 16 << 20,
            stream_counts: vec![1, 2, 4, 8, 16],
        }
    }
}

/// Runs the experiment, measuring aggregate MB/s for each operation × stream count.
pub fn run(params: &Fig4aParams) -> Vec<Fig4aRow> {
    let mut rows = Vec::new();
    for &op in &[
        ClientOp::CdcChunking,
        ClientOp::Sha1Fingerprinting,
        ClientOp::Md5Fingerprinting,
    ] {
        for &streams in &params.stream_counts {
            let mb = measure(op, streams, params.bytes_per_stream);
            rows.push(Fig4aRow {
                op: op.to_string(),
                streams,
                mb_per_sec: mb,
            });
        }
    }
    rows
}

/// Measures one operation with `streams` threads, each over its own buffer.
pub fn measure(op: ClientOp, streams: usize, bytes_per_stream: usize) -> f64 {
    let buffers: Vec<Vec<u8>> = (0..streams)
        .map(|s| random_bytes(bytes_per_stream, 0x4a + s as u64))
        .collect();
    let total_bytes = (streams * bytes_per_stream) as u64;
    let stopwatch = Stopwatch::start();
    std::thread::scope(|scope| {
        for buffer in &buffers {
            scope.spawn(move || match op {
                ClientOp::CdcChunking => {
                    let chunker = CdcChunker::with_average_4k();
                    std::hint::black_box(chunker.chunk_boundaries(buffer).len());
                }
                ClientOp::Sha1Fingerprinting => {
                    for chunk in buffer.chunks(4096) {
                        std::hint::black_box(Sha1::fingerprint(chunk));
                    }
                }
                ClientOp::Md5Fingerprinting => {
                    for chunk in buffer.chunks(4096) {
                        std::hint::black_box(Md5::fingerprint(chunk));
                    }
                }
            });
        }
    });
    stopwatch.stop(total_bytes).mb_per_sec()
}

/// Renders the figure as a text table (streams as rows, operations as columns).
pub fn render(rows: &[Fig4aRow]) -> String {
    let mut streams: Vec<usize> = rows.iter().map(|r| r.streams).collect();
    streams.sort_unstable();
    streams.dedup();
    let mut ops: Vec<String> = rows.iter().map(|r| r.op.clone()).collect();
    ops.dedup();

    let mut headers = vec!["streams".to_string()];
    headers.extend(ops.iter().cloned());
    let mut table = TextTable::new(headers.iter().map(|s| s.as_str()).collect());
    for s in streams {
        let mut cells = vec![s.to_string()];
        for op in &ops {
            let value = rows
                .iter()
                .find(|r| r.streams == s && &r.op == op)
                .map(|r| format!("{:.0} MB/s", r.mb_per_sec))
                .unwrap_or_default();
            cells.push(value);
        }
        table.add_row(cells);
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_params() -> Fig4aParams {
        Fig4aParams {
            bytes_per_stream: 1 << 20,
            stream_counts: vec![1, 2],
        }
    }

    #[test]
    fn produces_all_combinations() {
        let rows = run(&tiny_params());
        assert_eq!(rows.len(), 3 * 2);
        assert!(rows.iter().all(|r| r.mb_per_sec > 0.0));
    }

    #[test]
    fn single_stream_measurements_are_positive_for_every_operation() {
        // The paper's throughput ordering (MD5 > SHA-1 ≫ CDC on its OpenSSL-backed
        // prototype) is reported by the optimized `fig4a_client_throughput` bench and
        // discussed in EXPERIMENTS.md; with our self-contained implementations the
        // ordering depends on the optimization level and ISA, so the unit test only
        // checks that every operation produces a sound measurement.
        let bytes = 2 << 20;
        for op in [
            ClientOp::Sha1Fingerprinting,
            ClientOp::Md5Fingerprinting,
            ClientOp::CdcChunking,
        ] {
            let mb = measure(op, 1, bytes);
            assert!(mb > 0.0, "{} produced non-positive throughput", op);
        }
    }

    #[test]
    fn render_lists_stream_counts() {
        let rows = run(&tiny_params());
        let text = render(&rows);
        assert!(text.contains("streams"));
        assert!(text.contains("SHA-1"));
    }
}

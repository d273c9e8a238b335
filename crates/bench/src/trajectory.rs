//! The persisted performance trajectory: a schema-versioned JSON record of the
//! headline throughput numbers, plus the calibration-normalized comparison CI
//! uses to fail on regressions.
//!
//! The vendored serde shim is derive-only, so the report defines its own tiny
//! JSON writer and reader.  The format is stable within a schema version; the
//! reader rejects unknown versions loudly instead of mis-parsing them.
//!
//! # Byte bases
//!
//! A deduplication system has several honest-but-different MB/s figures, and
//! mixing them up flatters or slanders a change by integer factors.  Every
//! metric therefore carries an explicit [`ByteBasis`]:
//!
//! * [`LogicalPreDedup`](ByteBasis::LogicalPreDedup) — bytes the *client*
//!   offered, before deduplication.  The paper's ingest numbers (Figure 4) are
//!   on this basis: a 20× dedup ratio makes post-dedup "throughput" 20× larger
//!   and meaningless for sizing a backup window.
//! * [`PhysicalRecovered`](ByteBasis::PhysicalRecovered) — post-dedup
//!   container bytes a recovered node serves again.  Independent of the
//!   journal's layout, unlike [`JournalBytes`](ByteBasis::JournalBytes) —
//!   write-ahead-log bytes replayed — which only records from before the
//!   metadata-only journal carry.
//! * [`PhysicalMoved`](ByteBasis::PhysicalMoved) — post-dedup container bytes
//!   a rebalance migrated.
//! * [`PhysicalReclaimed`](ByteBasis::PhysicalReclaimed) — post-dedup bytes a
//!   GC sweep returned to free space.
//! * [`LogicalRestored`](ByteBasis::LogicalRestored) — bytes handed back to the
//!   client by a restore.  Backend reads may exceed this (coalesced extents
//!   over-read) or undercut it (cache hits); the logical figure is the one a
//!   recovery-time objective is sized against.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Version of the on-disk JSON schema; bump on any incompatible change.
pub const SCHEMA_VERSION: u64 = 1;

/// What the `bytes` of a metric's MB/s figure actually count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ByteBasis {
    /// Client-offered logical bytes, before deduplication.
    LogicalPreDedup,
    /// Write-ahead-journal bytes replayed by recovery (older records only).
    JournalBytes,
    /// Post-dedup container bytes a recovered node serves again.
    PhysicalRecovered,
    /// Post-dedup container bytes migrated by a rebalance.
    PhysicalMoved,
    /// Post-dedup bytes reclaimed by a GC sweep.
    PhysicalReclaimed,
    /// Client-visible logical bytes handed back by a restore.
    LogicalRestored,
}

impl ByteBasis {
    /// Stable string form used in the JSON file.
    pub fn as_str(self) -> &'static str {
        match self {
            ByteBasis::LogicalPreDedup => "logical-pre-dedup",
            ByteBasis::JournalBytes => "journal-bytes",
            ByteBasis::PhysicalRecovered => "physical-recovered",
            ByteBasis::PhysicalMoved => "physical-moved",
            ByteBasis::PhysicalReclaimed => "physical-reclaimed",
            ByteBasis::LogicalRestored => "logical-restored",
        }
    }

    /// Parses the stable string form.
    pub fn from_str_opt(s: &str) -> Option<ByteBasis> {
        Some(match s {
            "logical-pre-dedup" => ByteBasis::LogicalPreDedup,
            "journal-bytes" => ByteBasis::JournalBytes,
            "physical-recovered" => ByteBasis::PhysicalRecovered,
            "physical-moved" => ByteBasis::PhysicalMoved,
            "physical-reclaimed" => ByteBasis::PhysicalReclaimed,
            "logical-restored" => ByteBasis::LogicalRestored,
            _ => return None,
        })
    }
}

/// One measured throughput figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Stable metric name (`ingest_payload_t1`, `recover_raw`, ...).
    pub name: String,
    /// Measured throughput in MB/s (decimal megabytes, as everywhere else).
    pub mbps: f64,
    /// Bytes the measurement covered (on `byte_basis`).
    pub bytes: u64,
    /// What those bytes count — see the module docs.
    pub byte_basis: ByteBasis,
    /// Whether the CI trajectory gate fails on a regression of this metric.
    pub headline: bool,
}

/// A full benchmark run: calibration plus every measured metric.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Label identifying the run (e.g. `pr7`).
    pub label: String,
    /// `quick` (CI-sized) or `full`.
    pub mode: String,
    /// MB/s of the fixed CPU calibration workload on the measuring machine;
    /// comparisons divide by this so a slower CI runner is not a "regression".
    pub calibration_mbps: f64,
    /// Single-thread ingest speedup of hardware vs portable SHA-1 plus
    /// strided vs reference chunker, measured in this same run (same process,
    /// same cluster configuration, chunker and SHA-1 kernel swapped).
    pub ingest_speedup_vs_reference: f64,
    /// Every measured metric, in run order.
    pub metrics: Vec<Metric>,
}

impl BenchReport {
    /// Looks a metric up by name.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Serializes the report to the schema-versioned JSON file format.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema_version\": {},", SCHEMA_VERSION);
        let _ = writeln!(out, "  \"label\": {},", json_string(&self.label));
        let _ = writeln!(out, "  \"mode\": {},", json_string(&self.mode));
        let _ = writeln!(
            out,
            "  \"calibration_mbps\": {},",
            json_number(self.calibration_mbps)
        );
        let _ = writeln!(
            out,
            "  \"ingest_speedup_vs_reference\": {},",
            json_number(self.ingest_speedup_vs_reference)
        );
        out.push_str("  \"metrics\": [\n");
        for (i, m) in self.metrics.iter().enumerate() {
            out.push_str("    {\n");
            let _ = writeln!(out, "      \"name\": {},", json_string(&m.name));
            let _ = writeln!(out, "      \"mbps\": {},", json_number(m.mbps));
            let _ = writeln!(out, "      \"bytes\": {},", m.bytes);
            let _ = writeln!(
                out,
                "      \"byte_basis\": {},",
                json_string(m.byte_basis.as_str())
            );
            let _ = writeln!(out, "      \"headline\": {}", m.headline);
            out.push_str("    }");
            out.push_str(if i + 1 == self.metrics.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses a report from its JSON form.
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural problem: malformed JSON,
    /// an unknown schema version, or a missing/mistyped field.
    pub fn from_json(text: &str) -> Result<BenchReport, String> {
        let value = parse_json(text)?;
        let obj = value.as_object().ok_or("top level must be an object")?;
        let version = obj
            .get("schema_version")
            .and_then(JsonValue::as_f64)
            .ok_or("missing schema_version")? as u64;
        if version != SCHEMA_VERSION {
            return Err(format!(
                "unsupported schema_version {} (this build reads {})",
                version, SCHEMA_VERSION
            ));
        }
        let str_field = |key: &str| -> Result<String, String> {
            obj.get(key)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or(format!("missing string field {key:?}"))
        };
        let num_field = |key: &str| -> Result<f64, String> {
            obj.get(key)
                .and_then(JsonValue::as_f64)
                .ok_or(format!("missing numeric field {key:?}"))
        };
        let mut metrics = Vec::new();
        for (i, entry) in obj
            .get("metrics")
            .and_then(JsonValue::as_array)
            .ok_or("missing metrics array")?
            .iter()
            .enumerate()
        {
            let m = entry
                .as_object()
                .ok_or(format!("metrics[{i}] must be an object"))?;
            let get_str = |key: &str| -> Result<&str, String> {
                m.get(key)
                    .and_then(JsonValue::as_str)
                    .ok_or(format!("metrics[{i}] missing string {key:?}"))
            };
            let get_num = |key: &str| -> Result<f64, String> {
                m.get(key)
                    .and_then(JsonValue::as_f64)
                    .ok_or(format!("metrics[{i}] missing number {key:?}"))
            };
            let basis = get_str("byte_basis")?;
            metrics.push(Metric {
                name: get_str("name")?.to_string(),
                mbps: get_num("mbps")?,
                bytes: get_num("bytes")? as u64,
                byte_basis: ByteBasis::from_str_opt(basis)
                    .ok_or(format!("metrics[{i}] has unknown byte_basis {basis:?}"))?,
                headline: m
                    .get("headline")
                    .and_then(JsonValue::as_bool)
                    .ok_or(format!("metrics[{i}] missing bool \"headline\""))?,
            });
        }
        Ok(BenchReport {
            label: str_field("label")?,
            mode: str_field("mode")?,
            calibration_mbps: num_field("calibration_mbps")?,
            ingest_speedup_vs_reference: num_field("ingest_speedup_vs_reference")?,
            metrics,
        })
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_number(v: f64) -> String {
    // Finite, shortest-round-trip form; the file never needs NaN/inf.
    if v.is_finite() {
        format!("{}", v)
    } else {
        "0".to_string()
    }
}

// ---- minimal JSON reader ----
//
// Handles exactly the subset the writer above emits (objects, arrays, strings
// with basic escapes, numbers, booleans, null) — enough to read trajectory
// files back without a serde_json dependency.

#[derive(Debug, Clone, PartialEq)]
enum JsonValue {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<JsonValue>),
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    fn as_object(&self) -> Option<&BTreeMap<String, JsonValue>> {
        match self {
            JsonValue::Object(map) => Some(map),
            _ => None,
        }
    }
    fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }
    fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }
    fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }
    fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

fn parse_json(text: &str) -> Result<JsonValue, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => {
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(JsonValue::Object(map));
            }
            loop {
                skip_ws(bytes, pos);
                let key = match parse_value(bytes, pos)? {
                    JsonValue::String(s) => s,
                    _ => return Err(format!("object key at byte {pos} must be a string")),
                };
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                map.insert(key, parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(JsonValue::Object(map));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(JsonValue::Array(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(JsonValue::Array(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => {
            *pos += 1;
            let mut out = String::new();
            loop {
                match bytes.get(*pos) {
                    None => return Err("unterminated string".to_string()),
                    Some(b'"') => {
                        *pos += 1;
                        return Ok(JsonValue::String(out));
                    }
                    Some(b'\\') => {
                        *pos += 1;
                        match bytes.get(*pos) {
                            Some(b'"') => out.push('"'),
                            Some(b'\\') => out.push('\\'),
                            Some(b'/') => out.push('/'),
                            Some(b'n') => out.push('\n'),
                            Some(b't') => out.push('\t'),
                            Some(b'r') => out.push('\r'),
                            Some(b'u') => {
                                let hex = bytes
                                    .get(*pos + 1..*pos + 5)
                                    .ok_or("truncated \\u escape")?;
                                let code = u32::from_str_radix(
                                    std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                    16,
                                )
                                .map_err(|e| e.to_string())?;
                                out.push(char::from_u32(code).ok_or("invalid \\u code point")?);
                                *pos += 4;
                            }
                            _ => return Err(format!("bad escape at byte {pos}")),
                        }
                        *pos += 1;
                    }
                    Some(_) => {
                        // Consume one UTF-8 character (bytes are valid UTF-8:
                        // the input is a &str).
                        let rest =
                            std::str::from_utf8(&bytes[*pos..]).map_err(|e| e.to_string())?;
                        let c = rest.chars().next().expect("non-empty");
                        out.push(c);
                        *pos += c.len_utf8();
                    }
                }
            }
        }
        Some(b't') if bytes[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(JsonValue::Bool(true))
        }
        Some(b'f') if bytes[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(JsonValue::Bool(false))
        }
        Some(b'n') if bytes[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(JsonValue::Null)
        }
        Some(_) => {
            let start = *pos;
            while *pos < bytes.len()
                && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
            text.parse::<f64>()
                .map(JsonValue::Number)
                .map_err(|_| format!("bad number {text:?} at byte {start}"))
        }
    }
}

// ---- calibration-normalized comparison ----

/// One metric's baseline-vs-current comparison row.
#[derive(Debug, Clone, PartialEq)]
pub struct CompareRow {
    /// Metric name.
    pub name: String,
    /// Baseline MB/s (raw, as recorded).
    pub baseline_mbps: f64,
    /// Current MB/s (raw, as measured).
    pub current_mbps: f64,
    /// Calibration-normalized current/baseline ratio: 1.0 = unchanged, 0.8 =
    /// 20% slower *after* accounting for machine speed.
    pub ratio: f64,
    /// Whether this metric is regression-gated.
    pub headline: bool,
    /// True when the gate fires for this row.
    pub regressed: bool,
}

/// Outcome of comparing a current run against a committed baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct CompareOutcome {
    /// Every metric present in both reports, in baseline order.
    pub rows: Vec<CompareRow>,
    /// Names of headline metrics whose normalized ratio fell below
    /// `1 - tolerance`.
    pub regressions: Vec<String>,
}

impl CompareOutcome {
    /// True when no headline metric regressed beyond tolerance.
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }
}

/// Compares `current` against `baseline`, normalizing each side by its own
/// calibration number so that a uniformly slower machine does not read as a
/// regression.  A headline metric regresses when its normalized ratio drops
/// below `1 - tolerance` (e.g. `tolerance = 0.15` fails on >15% slowdowns).
///
/// Metrics appearing in only one report are skipped: the trajectory gate
/// compares the common subset, so adding a new metric never breaks CI runs
/// against an older baseline.
pub fn compare(baseline: &BenchReport, current: &BenchReport, tolerance: f64) -> CompareOutcome {
    let mut rows = Vec::new();
    let mut regressions = Vec::new();
    for base in &baseline.metrics {
        let Some(cur) = current.metric(&base.name) else {
            continue;
        };
        let base_norm = safe_div(base.mbps, baseline.calibration_mbps);
        let cur_norm = safe_div(cur.mbps, current.calibration_mbps);
        let ratio = safe_div(cur_norm, base_norm);
        let gated = base.headline && cur.headline;
        let regressed = gated && ratio < 1.0 - tolerance;
        if regressed {
            regressions.push(base.name.clone());
        }
        rows.push(CompareRow {
            name: base.name.clone(),
            baseline_mbps: base.mbps,
            current_mbps: cur.mbps,
            ratio,
            headline: gated,
            regressed,
        });
    }
    CompareOutcome { rows, regressions }
}

fn safe_div(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report(calibration: f64, ingest: f64) -> BenchReport {
        BenchReport {
            label: "pr7".to_string(),
            mode: "quick".to_string(),
            calibration_mbps: calibration,
            ingest_speedup_vs_reference: 2.0,
            metrics: vec![
                Metric {
                    name: "ingest_payload_t1".to_string(),
                    mbps: ingest,
                    bytes: 1 << 20,
                    byte_basis: ByteBasis::LogicalPreDedup,
                    headline: true,
                },
                Metric {
                    name: "recover_raw".to_string(),
                    mbps: 80.0,
                    bytes: 123_456,
                    byte_basis: ByteBasis::PhysicalRecovered,
                    headline: true,
                },
                Metric {
                    name: "ingest_payload_reference_t1".to_string(),
                    mbps: ingest / 2.0,
                    bytes: 1 << 20,
                    byte_basis: ByteBasis::LogicalPreDedup,
                    headline: false,
                },
            ],
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = sample_report(512.25, 100.125);
        let parsed = BenchReport::from_json(&report.to_json()).unwrap();
        assert_eq!(parsed, report);
    }

    #[test]
    fn unknown_schema_version_is_rejected() {
        let text = sample_report(500.0, 100.0)
            .to_json()
            .replace("\"schema_version\": 1", "\"schema_version\": 999");
        let err = BenchReport::from_json(&text).unwrap_err();
        assert!(err.contains("schema_version"), "got: {err}");
    }

    #[test]
    fn malformed_json_reports_an_error() {
        assert!(BenchReport::from_json("{").is_err());
        assert!(BenchReport::from_json("[]").is_err());
        assert!(BenchReport::from_json("{\"schema_version\": 1}").is_err());
    }

    #[test]
    fn byte_basis_round_trips() {
        for basis in [
            ByteBasis::LogicalPreDedup,
            ByteBasis::JournalBytes,
            ByteBasis::PhysicalRecovered,
            ByteBasis::PhysicalMoved,
            ByteBasis::PhysicalReclaimed,
            ByteBasis::LogicalRestored,
        ] {
            assert_eq!(ByteBasis::from_str_opt(basis.as_str()), Some(basis));
        }
        assert_eq!(ByteBasis::from_str_opt("post-dedup"), None);
    }

    #[test]
    fn identical_reports_pass_comparison() {
        let report = sample_report(500.0, 100.0);
        let outcome = compare(&report, &report, 0.15);
        assert!(outcome.passed());
        assert_eq!(outcome.rows.len(), 3);
        assert!(outcome.rows.iter().all(|r| (r.ratio - 1.0).abs() < 1e-12));
    }

    #[test]
    fn calibration_normalization_forgives_a_uniformly_slower_machine() {
        let baseline = sample_report(500.0, 100.0);
        // Same code on a machine half as fast: calibration and metric both
        // halve, normalized ratio stays 1.0.
        let slower = sample_report(250.0, 50.0);
        let outcome = compare(&baseline, &slower, 0.15);
        assert!(outcome.passed(), "regressions: {:?}", outcome.regressions);
    }

    #[test]
    fn genuine_headline_regression_fails_the_gate() {
        let baseline = sample_report(500.0, 100.0);
        // Calibration unchanged, ingest 30% slower: a real regression.
        let slower = sample_report(500.0, 70.0);
        let outcome = compare(&baseline, &slower, 0.15);
        assert!(!outcome.passed());
        assert_eq!(outcome.regressions, vec!["ingest_payload_t1".to_string()]);
    }

    #[test]
    fn non_headline_metrics_never_gate() {
        let baseline = sample_report(500.0, 100.0);
        let mut current = sample_report(500.0, 100.0);
        // Tank the non-headline reference number only.
        current.metrics[2].mbps = 1.0;
        assert!(compare(&baseline, &current, 0.15).passed());
    }

    #[test]
    fn metrics_missing_from_either_side_are_skipped() {
        let baseline = sample_report(500.0, 100.0);
        let mut current = sample_report(500.0, 100.0);
        current.metrics.remove(1);
        current.metrics.push(Metric {
            name: "brand_new".to_string(),
            mbps: 1.0,
            bytes: 1,
            byte_basis: ByteBasis::PhysicalMoved,
            headline: true,
        });
        let outcome = compare(&baseline, &current, 0.15);
        assert!(outcome.passed());
        assert_eq!(outcome.rows.len(), 2, "only the common subset compares");
    }
}

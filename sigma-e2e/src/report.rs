//! What a run prints: one `workload metric value unit` line per metric, then
//! the result object as the last line of standard output.

use std::fmt::Write;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count behind a percentile or median, where there is one.
    pub samples: Option<usize>,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name,
            value,
            unit,
            samples: None,
        }
    }

    pub fn with_samples(mut self, samples: usize) -> Metric {
        self.samples = Some(samples);
        self
    }
}

pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Printed for the reader, left out of the result and record lines.
    pub info: Vec<Metric>,
}

impl RunResult {
    /// Correct means every request was answered and every restored payload
    /// matched the digest taken when its input was generated.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn human(&self) -> String {
        let mut out = String::new();
        let gated = self.metrics.iter().map(|m| (m, ""));
        let info = self.info.iter().map(|m| (m, "  (info)"));
        for (m, note) in gated.chain(info) {
            let samples = m.samples.map_or(String::new(), |n| format!("  n={n}"));
            writeln!(
                out,
                "{} {} {} {}{samples}{note}",
                self.workload,
                m.name,
                number(m.value),
                m.unit
            )
            .expect("writing to a String");
        }
        let ratio = self.failed as f64 / self.attempted.max(1) as f64;
        writeln!(
            out,
            "{} failed_ratio {} ratio  ({} of {})",
            self.workload,
            number(ratio),
            self.failed,
            self.attempted
        )
        .expect("writing to a String");
        out
    }

    fn metrics_json(&self) -> String {
        let fields: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    number(m.value),
                    m.unit
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    /// The last line of standard output: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted,
            self.failed,
            self.metrics_json()
        )
    }

    /// One line of a record file (`--record`), the input of `compare`.
    pub fn record_line(&self) -> String {
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.workload,
            self.seed,
            u8::from(self.trace),
            self.attempted,
            self.failed,
            self.metrics_json()
        )
    }
}

/// All the digits of a measurement; a value JSON cannot carry becomes null.
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let run = RunResult {
            workload: "unique_1m".into(),
            seed: 3,
            trace: false,
            attempted: 12,
            failed: 0,
            metrics: vec![
                Metric::new("backup_mbps", 118.28088681900746, "MB/s"),
                Metric::new("restore_p50_ms", 3.605657, "ms").with_samples(300),
            ],
            info: vec![Metric::new("backup_p95_ms", 22.5, "ms").with_samples(400)],
        };
        let doc = json::parse(&run.result_line()).unwrap();
        let keys: Vec<_> = doc.as_object().unwrap().keys().cloned().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&json::Json::Bool(true)));
        let m = doc.get("metrics").unwrap().get("backup_mbps").unwrap();
        assert_eq!(m.get("value").unwrap().as_f64(), Some(118.28088681900746));
        assert_eq!(m.get("unit").unwrap().as_str(), Some("MB/s"));
        assert!(run
            .human()
            .contains("unique_1m restore_p50_ms 3.605657 ms  n=300\n"));
        assert!(run
            .human()
            .contains("unique_1m backup_p95_ms 22.5 ms  n=400  (info)"));
        assert!(!run.result_line().contains("backup_p95_ms"));
        assert!(run.human().contains("unique_1m failed_ratio 0 ratio"));
        let record = json::parse(&run.record_line()).unwrap();
        assert_eq!(record.get("workload").unwrap().as_str(), Some("unique_1m"));
        assert_eq!(record.get("trace").unwrap().as_f64(), Some(0.0));
    }
}

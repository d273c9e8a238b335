//! `sigma-e2e compare A.json B.json`: holds two record files against the bounds
//! in `BENCHMARK.json`. The same code judges a commit against itself (A/A) and
//! a change against its parent.

use crate::json::{self, Json};
use crate::stats::{median, spread};
use std::collections::BTreeMap;
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The spread inside A alone exceeds the bound: the runs cannot tell.
    Unresolved,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a_median: f64,
    pub b_median: f64,
    /// B against A as a share of A; positive is worse.
    pub worse_by: f64,
    pub a_spread: Option<f64>,
    pub bound: f64,
    pub verdict: Verdict,
}

/// Values per (workload, metric) from the untraced runs of a record file.
pub type Records = BTreeMap<(String, String), Vec<f64>>;

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))
}

/// Workload names and end-to-end bounds of a `BENCHMARK.json`.
pub fn parse_benchmark(text: &str) -> Result<(Vec<String>, Vec<Bound>), String> {
    let doc = json::parse(text)?;
    let list = |key: &str| {
        doc.get(key)
            .and_then(Json::as_array)
            .ok_or_else(|| format!("BENCHMARK.json: no {key} list"))
    };
    let workloads = list("workloads")?
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
        .collect::<Option<Vec<_>>>()
        .ok_or("BENCHMARK.json: workload without a name")?;
    let bounds = list("end_to_end")?
        .iter()
        .map(|m| {
            Some(Bound {
                name: m.get("name")?.as_str()?.to_string(),
                lower_is_better: m.get("better")?.as_str()? == "lower",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or("BENCHMARK.json: end_to_end entry without name, better or bound")?;
    Ok((workloads, bounds))
}

/// One JSON object per line, as `--record` appends them.
pub fn parse_records(text: &str) -> Result<Records, String> {
    let mut records = Records::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let doc = json::parse(line)?;
        if doc.get("trace").and_then(Json::as_f64) != Some(0.0) {
            continue;
        }
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("record without a workload")?;
        let metrics = doc
            .get("metrics")
            .and_then(Json::as_object)
            .ok_or("record without metrics")?;
        for (name, metric) in metrics {
            if let Some(value) = metric.get("value").and_then(Json::as_f64) {
                records
                    .entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(value);
            }
        }
    }
    Ok(records)
}

pub fn judge(workloads: &[String], bounds: &[Bound], a: &Records, b: &Records) -> Vec<Row> {
    let mut rows = Vec::new();
    for workload in workloads {
        for bound in bounds {
            let key = (workload.clone(), bound.name.clone());
            let (Some(a_values), Some(b_values)) = (a.get(&key), b.get(&key)) else {
                continue;
            };
            let (a_median, b_median) = (median(a_values), median(b_values));
            let change = (b_median - a_median) / a_median.abs();
            let worse_by = if bound.lower_is_better {
                change
            } else {
                -change
            };
            let a_spread = (a_values.len() >= 2).then(|| spread(a_values));
            let verdict = if a_spread.is_some_and(|s| s > bound.bound) {
                Verdict::Unresolved
            } else if worse_by > bound.bound {
                Verdict::Regressed
            } else {
                Verdict::Ok
            };
            rows.push(Row {
                workload: workload.clone(),
                metric: bound.name.clone(),
                a_median,
                b_median,
                worse_by,
                a_spread,
                bound: bound.bound,
                verdict,
            });
        }
    }
    rows
}

/// Prints one row per (workload, metric); `Ok(true)` when nothing regressed.
pub fn run(a: &Path, b: &Path, benchmark: &Path) -> Result<bool, String> {
    let (workloads, bounds) = parse_benchmark(&read(benchmark)?)?;
    let rows = judge(
        &workloads,
        &bounds,
        &parse_records(&read(a)?)?,
        &parse_records(&read(b)?)?,
    );
    if rows.is_empty() {
        return Err("no (workload, metric) pair is in both files".into());
    }
    println!(
        "{:<13} {:<19} {:>12} {:>12} {:>9} {:>9} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "worse by", "A spread", "bound"
    );
    for r in &rows {
        let spread = r
            .a_spread
            .map_or("-".to_string(), |s| format!("{:.1}%", s * 100.0));
        println!(
            "{:<13} {:<19} {:>12.4} {:>12.4} {:>8.1}% {:>9} {:>5.0}%  {}",
            r.workload,
            r.metric,
            r.a_median,
            r.b_median,
            r.worse_by * 100.0,
            spread,
            r.bound * 100.0,
            match r.verdict {
                Verdict::Ok => "ok",
                Verdict::Regressed => "regressed",
                Verdict::Unresolved => "unresolved",
            }
        );
    }
    Ok(rows.iter().all(|r| r.verdict != Verdict::Regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCH: &str = r#"{
        "workloads": [{"name": "w", "why": "x"}],
        "end_to_end": [
            {"name": "mbps", "unit": "MB/s", "better": "higher", "bound": 0.1},
            {"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}
        ]
    }"#;

    fn records(mbps: &[f64], p50: &[f64]) -> Records {
        let lines: Vec<String> = mbps
            .iter()
            .zip(p50)
            .map(|(m, p)| {
                format!(
                    "{{\"workload\": \"w\", \"seed\": 1, \"trace\": 0, \"metrics\": \
                     {{\"mbps\": {{\"value\": {m}, \"unit\": \"MB/s\"}}, \
                     \"p50_ms\": {{\"value\": {p}, \"unit\": \"ms\"}}}}}}"
                )
            })
            .collect();
        parse_records(&lines.join("\n")).unwrap()
    }

    fn verdicts(a: &Records, b: &Records) -> Vec<Verdict> {
        let (workloads, bounds) = parse_benchmark(BENCH).unwrap();
        judge(&workloads, &bounds, a, b)
            .iter()
            .map(|r| r.verdict)
            .collect()
    }

    #[test]
    fn direction_and_bound_decide_the_verdict() {
        let a = records(&[100.0, 101.0, 99.0, 100.0], &[5.0, 5.1, 4.9, 5.0]);
        // Same again: ok.
        assert_eq!(verdicts(&a, &a), [Verdict::Ok, Verdict::Ok]);
        // Throughput down 20 %, latency down 20 %: only the first is worse.
        let slower = records(&[80.0, 80.0], &[4.0, 4.0]);
        assert_eq!(verdicts(&a, &slower), [Verdict::Regressed, Verdict::Ok]);
        // Throughput up, latency up 20 %.
        let later = records(&[120.0, 120.0], &[6.0, 6.0]);
        assert_eq!(verdicts(&a, &later), [Verdict::Ok, Verdict::Regressed]);
        // Within the bound.
        let near = records(&[95.0, 95.0], &[5.3, 5.3]);
        assert_eq!(verdicts(&a, &near), [Verdict::Ok, Verdict::Ok]);
    }

    #[test]
    fn a_wide_spread_inside_a_is_unresolved_not_unchanged() {
        let noisy = records(&[100.0, 140.0, 70.0, 120.0], &[5.0, 5.0, 5.0, 5.0]);
        let b = records(&[60.0], &[5.0]);
        assert_eq!(verdicts(&noisy, &b), [Verdict::Unresolved, Verdict::Ok]);
    }

    #[test]
    fn traced_records_are_left_out() {
        let text = "{\"workload\": \"w\", \"trace\": 1, \"metrics\": {\"mbps\": {\"value\": 1, \"unit\": \"MB/s\"}}}";
        assert!(parse_records(text).unwrap().is_empty());
    }
}

//! `sigma-bench` — one-shot benchmark runner for the persisted performance
//! trajectory.
//!
//! ```text
//! sigma-bench [--quick] [--label NAME] [--out PATH]
//!             [--compare PATH] [--tolerance PCT]
//! ```
//!
//! Measures ingest (payload pipeline + linux-like trace), rebalance,
//! recovery, and GC reclaim throughput, writes the results as a
//! schema-versioned JSON report, and — when `--compare` names a committed
//! baseline — fails (exit 1) if any headline metric regressed more than the
//! tolerance after calibration normalization.
//!
//! A full run (no `--quick`) also executes the CI-sized suite under
//! `quick/`-prefixed metric names, so CI quick runs always compare
//! same-sized measurements against the committed file.

use sigma_bench::runner::{run, RunnerOptions};
use sigma_bench::trajectory::{compare, BenchReport};
use std::process::ExitCode;

struct Cli {
    quick: bool,
    label: String,
    out: Option<String>,
    compare: Option<String>,
    tolerance_pct: f64,
}

const USAGE: &str = "usage: sigma-bench [--quick] [--label NAME] [--out PATH] \
[--compare PATH] [--tolerance PCT]";

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        quick: false,
        label: "pr7".to_string(),
        out: None,
        compare: None,
        tolerance_pct: 15.0,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or(format!("{flag} requires a value\n{USAGE}"))
        };
        match arg.as_str() {
            "--quick" => cli.quick = true,
            "--label" => cli.label = value("--label")?,
            "--out" => cli.out = Some(value("--out")?),
            "--compare" => cli.compare = Some(value("--compare")?),
            "--tolerance" => {
                let raw = value("--tolerance")?;
                cli.tolerance_pct = raw
                    .parse::<f64>()
                    .map_err(|_| format!("--tolerance expects a number, got {raw:?}"))?;
                if !(0.0..=100.0).contains(&cli.tolerance_pct) {
                    return Err(format!(
                        "--tolerance must be between 0 and 100, got {}",
                        cli.tolerance_pct
                    ));
                }
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };

    let report = run(&RunnerOptions {
        quick: cli.quick,
        label: cli.label.clone(),
    });

    println!();
    println!(
        "sigma-bench report ({} mode, label {:?})",
        report.mode, report.label
    );
    println!("calibration: {:.1} MB/s", report.calibration_mbps);
    println!(
        "single-thread ingest vs. reference chunker + portable sha1: {:.2}x",
        report.ingest_speedup_vs_reference
    );
    println!(
        "{:<36} {:>10}  {:<18} gated",
        "metric", "MB/s", "byte basis"
    );
    for m in &report.metrics {
        println!(
            "{:<36} {:>10.1}  {:<18} {}",
            m.name,
            m.mbps,
            m.byte_basis.as_str(),
            if m.headline { "yes" } else { "-" }
        );
    }

    if let Some(path) = &cli.out {
        if let Err(error) = std::fs::write(path, report.to_json()) {
            eprintln!("failed to write {path}: {error}");
            return ExitCode::FAILURE;
        }
        println!("\nwrote {path}");
    }

    if let Some(path) = &cli.compare {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(error) => {
                eprintln!("failed to read baseline {path}: {error}");
                return ExitCode::FAILURE;
            }
        };
        let baseline = match BenchReport::from_json(&text) {
            Ok(baseline) => baseline,
            Err(error) => {
                eprintln!("failed to parse baseline {path}: {error}");
                return ExitCode::FAILURE;
            }
        };
        let outcome = compare(&baseline, &report, cli.tolerance_pct / 100.0);
        println!(
            "\ncomparison vs. {path} (tolerance {:.0}%, calibration-normalized)",
            cli.tolerance_pct
        );
        println!(
            "{:<36} {:>10} {:>10} {:>8}  verdict",
            "metric", "baseline", "current", "ratio"
        );
        for row in &outcome.rows {
            let verdict = if row.regressed {
                "REGRESSED"
            } else if row.headline {
                "ok"
            } else {
                "(not gated)"
            };
            println!(
                "{:<36} {:>10.1} {:>10.1} {:>7.2}x  {}",
                row.name, row.baseline_mbps, row.current_mbps, row.ratio, verdict
            );
        }
        if !outcome.passed() {
            eprintln!(
                "\nFAIL: {} headline metric(s) regressed beyond {:.0}%: {}",
                outcome.regressions.len(),
                cli.tolerance_pct,
                outcome.regressions.join(", ")
            );
            return ExitCode::FAILURE;
        }
        println!(
            "\nPASS: no headline metric regressed beyond {:.0}%",
            cli.tolerance_pct
        );
    }

    ExitCode::SUCCESS
}

//! `sigma-e2e`: the end-to-end and per-layer benchmark of sigma-dedupe.
//!
//! ```text
//! sigma-e2e --seed N [--workload NAME] [--seconds S] [--trace 0|1]
//!           [--out SPANS.jsonl] [--record RUNS.jsonl] [--smoke]
//! sigma-e2e compare A.jsonl B.jsonl [--bench BENCHMARK.json]
//! ```
//!
//! See README.md in this directory for how to read the output.

mod compare;
mod counting;
mod gen;
mod json;
mod layers;
mod report;
mod stats;
mod sut;
mod trace;
mod workloads;

use report::RunResult;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use sut::Res;
use workloads::{Sizes, WORKLOADS};

const DEFAULT_SECONDS: u64 = 10;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
    record: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Res<Args> {
    let mut parsed = Args {
        workload: None,
        seed: 0,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        out: None,
        record: None,
    };
    let mut seed_given = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?),
            "--seed" => {
                parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
                seed_given = true;
            }
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out" => parsed.out = Some(value()?.into()),
            "--record" => parsed.record = Some(value()?.into()),
            "--smoke" => parsed.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !seed_given {
        return Err("--seed is required".into());
    }
    if !(1..=60).contains(&parsed.seconds) {
        return Err("--seconds must be 1 to 60".into());
    }
    if let Some(w) = &parsed.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!("unknown workload {w:?}; one of {WORKLOADS:?}"));
        }
    }
    Ok(parsed)
}

fn end_to_end(workload: &str, args: &Args, sizes: &Sizes, scratch: &Path) -> Res<RunResult> {
    let e = workloads::run_end_to_end(workload, args.seed, sizes, scratch)?;
    Ok(RunResult {
        workload: workload.to_string(),
        seed: args.seed,
        trace: false,
        attempted: e.attempted,
        failed: e.failed,
        metrics: e.metrics,
        info: e.info,
    })
}

fn traced(workload: &str, args: &Args, sizes: &Sizes, scratch: &Path) -> Res<RunResult> {
    let t = layers::run_traced(workload, args.seed, sizes, args.seconds, scratch)?;
    if let Some(out) = &args.out {
        t.tracer
            .write(out)
            .map_err(|e| format!("write {}: {e}", out.display()))?;
    }
    let ratio = |name: &str| {
        t.metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(f64::NAN, |m| m.value)
    };
    if !(0.85..=1.15).contains(&ratio("attributed_ratio")) {
        println!(
            "# FLAG {workload}: attributed_ratio {:.3} is outside 0.85..1.15 — the staged \
             spans do not add up to BackupClient::backup_bytes",
            ratio("attributed_ratio")
        );
    }
    Ok(RunResult {
        workload: workload.to_string(),
        seed: args.seed,
        trace: true,
        attempted: t.attempted,
        failed: t.failed,
        metrics: t.metrics,
        info: Vec::new(),
    })
}

fn run(args: &Args) -> Res<bool> {
    let scratch = sut::scratch_root();
    sut::check_free_space(&scratch)?;
    sut::settle(&scratch)?;
    let sizes = if args.smoke {
        Sizes::smoke()
    } else {
        Sizes::for_seconds(args.seconds)
    };
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let names: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.to_vec(),
    };
    let mut all_correct = true;
    let mut last = String::new();
    for workload in names {
        // mixed_rw is the only workload with a second connection.
        let connections = if workload == "mixed_rw" { 2 } else { 1 };
        println!(
            "# sigma-e2e workload={workload} seed={} seconds={} trace={} nproc={nproc} \
             connections={connections} closed-loop rounds={}",
            args.seed,
            args.seconds,
            u8::from(args.trace),
            sizes.rounds
        );
        let result = if args.trace {
            traced(workload, args, &sizes, &scratch)?
        } else {
            end_to_end(workload, args, &sizes, &scratch)?
        };
        print!("{}", result.human());
        if let Some(path) = &args.record {
            let mut file = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(|e| format!("open {}: {e}", path.display()))?;
            writeln!(file, "{}", result.record_line())
                .map_err(|e| format!("write {}: {e}", path.display()))?;
        }
        all_correct &= result.correct();
        last = result.result_line();
    }
    // Nothing else lives in the scratch root once every workload succeeded.
    let _ = std::fs::remove_dir(&scratch);
    println!("{last}");
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if args.first().map(String::as_str) == Some("compare") {
        match args.as_slice() {
            [_, a, b] => compare::run(Path::new(a), Path::new(b), Path::new("BENCHMARK.json")),
            [_, a, b, flag, bench] if flag == "--bench" => {
                compare::run(Path::new(a), Path::new(b), Path::new(bench))
            }
            _ => Err("usage: sigma-e2e compare A.jsonl B.jsonl [--bench BENCHMARK.json]".into()),
        }
    } else {
        parse_args(&args).and_then(|args| run(&args))
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("sigma-e2e: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Res<Args> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = args(&[
            "--workload",
            "small_16k",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("small_16k"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10, true));
        assert!(args(&["--workload", "nope", "--seed", "1"]).is_err());
        assert!(
            args(&["--workload", "small_16k"]).is_err(),
            "seed is required"
        );
        assert!(args(&["--seed", "1", "--trace", "yes"]).is_err());
        assert!(args(&["--seed", "1", "--seconds", "0"]).is_err());
    }

    /// All four workloads end to end at smoke size — restart included — and
    /// the traced pass of each, with nothing failing.
    #[test]
    fn smoke_runs_every_workload_without_a_failure() {
        let scratch = sut::scratch_root().join(format!("smoke-{}", std::process::id()));
        let a = args(&["--seed", "11", "--smoke"]).unwrap();
        let sizes = Sizes::smoke();
        for workload in WORKLOADS {
            let e2e = end_to_end(workload, &a, &sizes, &scratch).unwrap();
            assert_eq!(e2e.failed, 0, "{workload}");
            assert!(e2e.attempted > 0 && e2e.correct(), "{workload}");
            assert!(
                e2e.metrics
                    .iter()
                    .all(|m| m.value.is_finite() && m.value > 0.0),
                "{workload}: {:?}",
                e2e.metrics
            );
            let t = traced(workload, &a, &sizes, &scratch).unwrap();
            assert_eq!(t.failed, 0, "{workload} traced");
            assert!(t.metrics.iter().all(|m| m.value.is_finite()), "{workload}");
        }
        std::fs::remove_dir_all(&scratch).unwrap();
    }
}

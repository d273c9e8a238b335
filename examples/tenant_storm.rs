//! Multi-tenant heavy-traffic storm: fairness, admission and isolation.
//!
//! A thousand-plus scripted clients across a hundred tenants push
//! generational backups through the full service stack (admission →
//! fair-scheduler → auth → quota → rate-limit) against one shared cluster.  A
//! hot tenant runs 4× everyone else's client count; deficit-round-robin must
//! keep the Jain fairness index near 1.0 anyway.  A quarter of the tenants
//! then expire their oldest generation (delete + GC), interleaved with the
//! rest restore-verifying their files byte for byte, and the run ends with
//! full isolation, partition and accounting checks.  The storm runs on one
//! thread in virtual time: the same settings print the same report.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example tenant_storm
//! ```
//!
//! Environment knobs (all optional):
//!
//! * `STORM_SCALE=ci` — the CI-sized reduction (24 tenants, 104 clients).
//! * `STORM_CRASH=1` — crash one node at a journal boundary mid-churn; the
//!   request that finds it down restarts it and retries.
//! * `SIGMA_FAULT_SEED=<n>` — perturbs payloads and the crash choice, the
//!   same matrix axis the fault-injection CI jobs sweep.

use sigma_dedupe::prelude::*;

fn main() {
    let env_seed: u64 = std::env::var("SIGMA_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let ci_scale = std::env::var("STORM_SCALE").is_ok_and(|s| s == "ci");
    let crash = std::env::var("STORM_CRASH").is_ok_and(|s| s == "1");

    let mut config = if ci_scale {
        TenantStormConfig::ci()
    } else {
        TenantStormConfig::default()
    };
    config.seed ^= env_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    config.crash_during_churn = crash;

    println!("tenant storm: fair scheduling + admission + isolation");
    println!(
        "  traffic    : {} tenants x {} clients (+{} hot-tenant extras) x {} generations, seed {:#x}",
        config.tenants,
        config.clients_per_tenant,
        config.hot_tenant_extra_clients,
        config.generations,
        config.seed,
    );
    println!(
        "  stack      : admission {} reqs / {} MiB, DRR quantum {} KiB, {} KiB/tenant in flight, {} slots",
        config.max_inflight_requests,
        config.max_inflight_bytes >> 20,
        config.quantum_bytes >> 10,
        config.max_tenant_inflight_bytes >> 10,
        config.max_concurrent,
    );
    println!(
        "  churn      : every {}th tenant expires generation 0{}",
        config.churn_every,
        if config.crash_during_churn {
            " (with a node crash)"
        } else {
            ""
        },
    );

    let report = run_tenant_storm(&config);

    let mut table = TextTable::new(vec!["figure", "value"]);
    table.add_row(vec![
        "clients / backups".into(),
        format!("{} / {}", report.clients, report.backups),
    ]);
    table.add_row(vec![
        "admitted / shed / retried".into(),
        format!("{} / {} / {}", report.admitted, report.shed, report.retries),
    ]);
    table.add_row(vec![
        "Jain fairness index".into(),
        format!(
            "{:.4} (first finisher: {})",
            report.fairness_index, report.first_finisher
        ),
    ]);
    table.add_row(vec![
        "hot tenant share / mean".into(),
        format!("{:.3}", report.hot_tenant_share_ratio),
    ]);
    table.add_row(vec![
        "restores intact".into(),
        format!("{} / {}", report.intact_restores, report.expected_restores),
    ]);
    table.add_row(vec![
        "expired unreachable".into(),
        format!("{} / {}", report.expired_unreachable, report.expired_files),
    ]);
    table.add_row(vec![
        "foreign probes isolated".into(),
        format!(
            "{} / {}",
            report.foreign_probes_isolated, report.foreign_probes
        ),
    ]);
    table.add_row(vec![
        "churned tenants / reclaimed".into(),
        format!(
            "{} / {}",
            report.churned_tenants,
            human_bytes(report.reclaimed_bytes)
        ),
    ]);
    table.add_row(vec![
        "crash recoveries".into(),
        report.recoveries.to_string(),
    ]);
    table.add_row(vec![
        "cluster physical vs Σ logical".into(),
        format!(
            "{} vs {}",
            human_bytes(report.cluster_physical_bytes),
            human_bytes(report.sum_tenant_logical_bytes)
        ),
    ]);
    println!();
    println!("{}", table.render());

    // Machine-readable summary lines: CI greps these and asserts on them.
    println!("fairness_index={:.4}", report.fairness_index);
    println!("isolation_holds={}", report.isolation_holds());
    println!("partition_holds={}", report.partition_holds());
    println!("accounting_consistent={}", report.accounting_consistent);
    println!("storm_holds={}", report.holds());

    assert!(
        report.holds(),
        "storm invariants failed: fairness {:.3}, isolation {}, partition {}, accounting {}",
        report.fairness_index,
        report.isolation_holds(),
        report.partition_holds(),
        report.accounting_consistent,
    );
    assert!(
        report.cross_tenant_dedup_observed(),
        "overlap groups should share chunks across tenants"
    );
}

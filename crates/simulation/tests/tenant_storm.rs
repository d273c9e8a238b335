//! The tenant-storm scenarios: fairness, shedding and a mid-churn crash.
//!
//! The storm runs on one thread in virtual time, so each scenario's report,
//! the Jain fairness index included, is a function of its configuration.
//! Run them with `cargo test -p sigma-simulation --test tenant_storm`.

use sigma_simulation::tenant_storm::{run_tenant_storm, TenantStormConfig};

fn tiny() -> TenantStormConfig {
    TenantStormConfig {
        tenants: 8,
        clients_per_tenant: 2,
        hot_tenant_extra_clients: 4,
        generations: 4,
        initial_payload_bytes: 6 * 1024,
        growth_per_generation: 1024,
        overlap_group: 4,
        churn_every: 4,
        // ≈ one request: each tenant keeps a queued backlog until its
        // demand is exhausted, so every DRR round serves every tenant.
        max_tenant_inflight_bytes: 8 << 10,
        ..TenantStormConfig::default()
    }
}

fn shedding() -> TenantStormConfig {
    TenantStormConfig {
        max_inflight_requests: 2,
        churn_every: 0,
        ..tiny()
    }
}

fn crashing() -> TenantStormConfig {
    TenantStormConfig {
        crash_during_churn: true,
        ..tiny()
    }
}

#[test]
fn tiny_storm_is_fair_isolated_and_accounted() {
    let report = run_tenant_storm(&tiny());
    assert_eq!(report.tenants, 8);
    assert_eq!(report.clients, 20);
    assert_eq!(report.backups, 80);
    assert!(
        report.holds(),
        "storm invariants failed: fairness {:.3}, isolation {}, partition {}, accounting {}",
        report.fairness_index,
        report.isolation_holds(),
        report.partition_holds(),
        report.accounting_consistent
    );
    assert!(
        report.cross_tenant_dedup_observed(),
        "overlap groups must share chunks: physical {} vs logical {}",
        report.cluster_physical_bytes,
        report.sum_tenant_logical_bytes
    );
    assert_eq!(report.churned_tenants, 2, "tenants 0 and 4 churn");
    assert!(report.expired_files > 0);
    assert_eq!(
        report.fairness_index, 0.9965908043858841,
        "one configuration, one fairness figure"
    );
}

#[test]
fn storm_sheds_and_retries_under_a_tight_admission_bound() {
    let report = run_tenant_storm(&shedding());
    // With 2 admission slots for 20 clients, whoever is admitted when a slot
    // frees finishes first — fairness is admission order, not scheduling, so
    // this test asserts the shedding mechanics and the safety invariants only.
    assert!(report.isolation_holds(), "isolation must survive shedding");
    assert!(report.partition_holds(), "partition must survive shedding");
    assert!(
        report.accounting_consistent,
        "accounting must survive retries"
    );
    assert!(
        report.shed > 0,
        "20 clients against 2 admission slots must shed"
    );
    assert_eq!(report.retries, report.shed, "every shed request retried");
}

#[test]
fn storm_survives_a_mid_churn_crash() {
    let report = run_tenant_storm(&crashing());
    assert!(
        report.holds(),
        "crash-churn storm failed: fairness {:.3}, isolation {}",
        report.fairness_index,
        report.isolation_holds()
    );
    assert!(report.recoveries >= 1, "the armed crash must fire");
}

#[test]
fn each_storm_scenario_reproduces_its_report() {
    for config in [tiny(), shedding(), crashing()] {
        assert_eq!(run_tenant_storm(&config), run_tenant_storm(&config));
    }
}

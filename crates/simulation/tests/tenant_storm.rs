//! The tenant-storm scenarios: fairness, shedding and a mid-churn crash.
//!
//! Each storm spawns dozens of client threads and asserts a Jain fairness
//! index, a figure of thread scheduling.  They live in this binary of their
//! own so no other test shares their process, and they take turns: two at
//! once would oversubscribe the CPU and turn the index into a coin flip.
//! Run them with `cargo test -p sigma-simulation --test tenant_storm`.

use sigma_core::SigmaConfig;
use sigma_simulation::tenant_storm::{run_tenant_storm, TenantStormConfig};
use std::sync::{Mutex, MutexGuard};

/// One storm at a time.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

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
        // ≈ one request: each tenant keeps a parked backlog until its
        // demand is exhausted, so no DRR turn is ever forfeited to
        // client-wakeup jitter (tenants here have only two clients).
        max_tenant_inflight_bytes: 8 << 10,
        ..TenantStormConfig::default()
    }
}

#[test]
fn tiny_storm_is_fair_isolated_and_accounted() {
    let _turn = serial();
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
}

#[test]
fn storm_sheds_and_retries_under_a_tight_admission_bound() {
    let _turn = serial();
    let report = run_tenant_storm(&TenantStormConfig {
        max_inflight_requests: 2,
        churn_every: 0,
        ..tiny()
    });
    // With 2 admission slots for 20 clients, whoever wins the retry race
    // finishes first — fairness is admission luck, not scheduling, so this
    // test asserts the shedding mechanics and the safety invariants only.
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
    let _turn = serial();
    let report = run_tenant_storm(&TenantStormConfig {
        crash_during_churn: true,
        sigma: SigmaConfig::builder()
            .super_chunk_size(16 * 1024)
            .container_capacity(256 * 1024)
            .durability(true)
            .build()
            .unwrap(),
        ..tiny()
    });
    assert!(
        report.holds(),
        "crash-churn storm failed: fairness {:.3}, isolation {}",
        report.fairness_index,
        report.isolation_holds()
    );
}

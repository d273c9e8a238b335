//! Fair-scheduler throughput and fairness under skewed multi-tenant load.
//!
//! Not a figure of the paper — its evaluation is single-tenant — but the
//! number that gates the service layer once many tenants share one cluster:
//! what deficit-round-robin scheduling costs per request, and whether a hot
//! tenant with several times everyone else's client count can buy itself a
//! larger share of the ingest window.
//!
//! The banner sweeps the hot tenant's extra-client count over a small storm
//! (Jain fairness index, hot-tenant share, shed/retry counts); criterion then
//! measures (a) the DRR grant/park/wake machinery alone against a no-op
//! backend, balanced vs. hot-tenant-skewed, and (b) a small end-to-end storm
//! through admission, the scheduler, auth, quota and rate limiting into a
//! real cluster.  Every storm run,
//! banner and timed alike, must keep tenants isolated, partition the
//! cluster's logical bytes, keep each tenant's accounting consistent and
//! score a Jain index of at least 0.9.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use sigma_service::middleware::{FairScheduler, ServiceResult};
use sigma_service::{Operation, RequestEnvelope, ResponseEnvelope, ServiceBuilder};
use sigma_simulation::tenant_storm::{run_tenant_storm, TenantStormConfig, TenantStormReport};
use std::sync::Arc;
use std::thread;

/// The tests' tiny storm shape: 8 tenants, overlap groups of 4, one tenant in
/// four churning, sized so a full run takes well under a second.
fn small_storm(hot_tenant_extra_clients: usize) -> TenantStormConfig {
    TenantStormConfig {
        tenants: 8,
        clients_per_tenant: 2,
        hot_tenant_extra_clients,
        generations: 3,
        initial_payload_bytes: 6 * 1024,
        growth_per_generation: 1024,
        overlap_group: 4,
        churn_every: 4,
        // One ~8 KiB request in flight per tenant keeps every queue refilled
        // until the tenant's demand runs out.
        max_tenant_inflight_bytes: 8 << 10,
        ..TenantStormConfig::default()
    }
}

/// Runs `config`'s storm and panics unless isolation, the logical-byte
/// partition, per-tenant accounting and the 0.9 fairness bound all hold.
fn checked_storm(config: &TenantStormConfig) -> TenantStormReport {
    let report = run_tenant_storm(config);
    assert!(
        report.holds(),
        "storm invariants failed: fairness {:.3}, isolation {}, partition {}, accounting {}",
        report.fairness_index,
        report.isolation_holds(),
        report.partition_holds(),
        report.accounting_consistent
    );
    report
}

fn report() {
    sigma_bench::banner(
        "tenant fairness",
        "DRR scheduling vs. a hot tenant's client-count advantage",
    );
    let mut table = sigma_metrics::report::TextTable::new(vec![
        "hot extras",
        "clients",
        "Jain index",
        "hot share/mean",
        "admitted",
        "shed",
        "restores intact",
    ]);
    for hot_extra in [0usize, 6, 14] {
        let report = checked_storm(&small_storm(hot_extra));
        table.add_row(vec![
            hot_extra.to_string(),
            report.clients.to_string(),
            format!("{:.4}", report.fairness_index),
            format!("{:.3}", report.hot_tenant_share_ratio),
            report.admitted.to_string(),
            report.shed.to_string(),
            format!("{}/{}", report.intact_restores, report.expected_restores),
        ]);
    }
    sigma_bench::print_table(
        "storm fairness vs. hot-tenant skew (8 tenants x 2 clients, 3 generations)",
        &table.render(),
    );
}

/// Immediate success: the scheduler's grant/park/wake machinery is the only
/// cost left in the stack.
fn noop_backend(req: RequestEnvelope) -> ServiceResult {
    Ok(ResponseEnvelope::ok(req.request_id))
}

/// Pushes `reqs_per_client` requests of `payload` bytes from every client
/// thread through a scheduler-only stack into a no-op backend and returns the
/// wall-clock MB/s of payload granted. With `skewed`, half the clients pile
/// onto one hot tenant instead of one tenant each.
fn drive_scheduler(clients: usize, reqs_per_client: usize, payload: usize, skewed: bool) -> f64 {
    let scheduler = Arc::new(FairScheduler::new(8 << 10, 16 << 10, 4));
    let stack = Arc::new(
        ServiceBuilder::new()
            .fair_scheduler_with(scheduler)
            .build_with_backend(Arc::new(noop_backend)),
    );
    let total = (clients * reqs_per_client * payload) as u64;
    let sw = sigma_metrics::Stopwatch::start();
    let workers: Vec<_> = (0..clients)
        .map(|client| {
            let stack = stack.clone();
            thread::spawn(move || {
                // Skewed: half the clients pile onto tenant 0; balanced: one
                // tenant per client.
                let tenant = if skewed && client % 2 == 0 {
                    "tenant-hot".to_string()
                } else {
                    format!("tenant-{client}")
                };
                for req in 0..reqs_per_client {
                    let envelope = RequestEnvelope::new(
                        (client * reqs_per_client + req) as u64,
                        &tenant,
                        Operation::Backup {
                            file_name: format!("c{client}/r{req}"),
                            generation: 0,
                        },
                    )
                    .with_payload(vec![0x5A; payload]);
                    let response = stack.call(envelope);
                    assert!(response.is_ok(), "no-op backend cannot reject");
                }
            })
        })
        .collect();
    for worker in workers {
        worker.join().expect("scheduler bench client panicked");
    }
    sw.stop(total).mb_per_sec()
}

fn bench(c: &mut Criterion) {
    report();

    let mut group = c.benchmark_group("tenant_fairness");
    group.sample_size(10);

    // Scheduler machinery alone: 8 client threads x 64 requests x 4 KiB
    // against a no-op backend, so grant/park/wake overhead is the cost.
    let (clients, reqs, payload) = (8usize, 64usize, 4 << 10);
    group.throughput(Throughput::Bytes((clients * reqs * payload) as u64));
    for (label, skewed) in [("drr_balanced", false), ("drr_hot_tenant", true)] {
        group.bench_function(label, |b| {
            b.iter(|| drive_scheduler(clients, reqs, payload, skewed));
        });
    }

    // End-to-end: the small storm through the full stack into a real
    // cluster, on one thread in virtual time, so the stack itself is what's
    // timed.  Bytes are the live logical bytes the storm leaves behind (its
    // deterministic dataset), so MB/s tracks the whole scenario.
    let logical = checked_storm(&small_storm(6)).cluster_logical_bytes;
    group.throughput(Throughput::Bytes(logical));
    group.bench_function("storm_full_stack", |b| {
        b.iter(|| checked_storm(&small_storm(6)));
    });

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

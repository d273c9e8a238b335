//! Table 2: workload characteristics of the evaluation datasets.

use criterion::{criterion_group, criterion_main, Criterion};
use sigma_simulation::experiments::table2;
use sigma_workloads::{presets, Scale};

fn report() {
    sigma_bench::banner(
        "Table 2",
        "workload characteristics of the four evaluation datasets",
    );
    let rows = table2::run(Scale::Small);
    sigma_bench::print_table(
        "generated stand-ins at the Small scale (sizes shrink, redundancy structure is preserved)",
        &table2::render(&rows),
    );
}

fn bench_workload_generation(c: &mut Criterion) {
    report();
    c.bench_function("table2/generate_linux_tiny_trace", |b| {
        b.iter(|| presets::linux_dataset(Scale::Tiny))
    });
    let dataset = presets::web_dataset(Scale::Tiny);
    c.bench_function("table2/exact_dedup_ratio_web_tiny", |b| {
        b.iter(|| dataset.exact_dedup_ratio())
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_workload_generation
}
criterion_main!(benches);

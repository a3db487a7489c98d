//! One benchmark per paper table/figure: regenerates each artifact's
//! analysis from a cached smoke-scale fleet run. These benches both time
//! the analysis pipeline and serve as the canonical "regenerate
//! everything" entry point under `cargo bench`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rpclens_bench::{produce, Artifact};
use rpclens_fleet::driver::{run_fleet, FleetConfig, FleetRun, SimScale};
use std::sync::OnceLock;

fn shared_run() -> &'static FleetRun {
    static RUN: OnceLock<FleetRun> = OnceLock::new();
    RUN.get_or_init(|| run_fleet(FleetConfig::at_scale(SimScale::smoke())))
}

fn bench_figures(c: &mut Criterion) {
    let run = shared_run();
    let mut g = c.benchmark_group("figures");
    g.sample_size(10);
    for artifact in Artifact::ALL {
        g.bench_function(artifact.name(), |b| {
            b.iter(|| {
                let (text, checks) = produce(artifact, Some(run));
                black_box((text.len(), checks.items.len()))
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_figures);
criterion_main!(benches);

//! Ablation benchmarks for two design choices of the decision engine:
//! bandwidth-threshold enforcement and link-weight vector length.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use score_bench::bench_world;
use score_core::{CostModel, KernelScratch, LocalView, ScoreConfig, ScoreEngine};
use score_topology::{LinkWeights, VmId};

fn bench_ablations(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablations");
    let (cluster, traffic) = bench_world(256, 6);
    let mut scratch = KernelScratch::new();

    // Bandwidth threshold: dynamic NIC accounting on vs off.
    for (label, threshold) in [("enforced", 1.0f64), ("unbounded", f64::INFINITY)] {
        let engine = ScoreEngine::new(
            CostModel::paper_default(),
            ScoreConfig {
                bandwidth_threshold: threshold,
                ..ScoreConfig::paper_default()
            },
        );
        group.bench_with_input(
            BenchmarkId::new("decision_bandwidth", label),
            &threshold,
            |b, _| {
                b.iter(|| {
                    let view = LocalView::observe(
                        VmId::new(3),
                        cluster.allocation(),
                        &traffic,
                        cluster.topo(),
                    );
                    engine.decide(&view, &cluster, &traffic, &mut scratch)
                })
            },
        );
    }

    // Weight-vector length: 3-level vs 6-level prefix sums.
    for levels in [3u8, 6] {
        let weights = LinkWeights::exponential(levels, std::f64::consts::E).unwrap();
        let model = CostModel::new(weights);
        group.bench_with_input(
            BenchmarkId::new("total_cost_levels", levels),
            &levels,
            |b, _| b.iter(|| model.total_cost(cluster.allocation(), &traffic, cluster.topo())),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_ablations);
criterion_main!(benches);

//! Ablation benchmarks for the design choices called out in DESIGN.md:
//! candidate-probe budget, bandwidth-threshold enforcement, and link-weight
//! vector length.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use score_bench::bench_world;
use score_core::{CostModel, KernelScratch, LocalView, ScoreConfig, ScoreEngine};
use score_topology::{LinkWeights, VmId};

fn bench_ablations(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablations");
    let (cluster, traffic) = bench_world(256, 6);
    let mut scratch = KernelScratch::new();

    // Candidate-probe budget: how much does capping the §V-B5 probes save?
    for budget in [1usize, 4, 16] {
        let engine = ScoreEngine::new(
            CostModel::paper_default(),
            ScoreConfig {
                max_candidates: Some(budget),
                ..ScoreConfig::paper_default()
            },
        );
        group.bench_with_input(
            BenchmarkId::new("decision_with_budget", budget),
            &budget,
            |b, _| {
                b.iter(|| {
                    let view = LocalView::observe(
                        VmId::new(3),
                        cluster.allocation(),
                        &traffic,
                        cluster.topo(),
                    );
                    engine.decide(&view, None, &cluster, &mut scratch)
                })
            },
        );
    }

    // Bandwidth threshold: dynamic NIC accounting on vs off.
    for (label, threshold) in [("enforced", 1.0f64), ("unbounded", f64::INFINITY)] {
        let engine = ScoreEngine::new(
            CostModel::paper_default(),
            ScoreConfig::paper_default().with_bandwidth_threshold(threshold),
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
                    engine.decide(&view, None, &cluster, &mut scratch)
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

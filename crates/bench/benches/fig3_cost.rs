//! Fig. 3 benchmark: the cost-model kernels driving the simulation curves
//! — Eq. (2) totals, Lemma-3 deltas, and single decisions.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use score_bench::bench_world;
use score_core::{CostModel, KernelScratch, LocalView, ScoreEngine};
use score_topology::{ServerId, VmId};

fn bench_cost_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig3_cost");
    for vms in [64u32, 256] {
        let (cluster, traffic) = bench_world(vms, 2);
        let model = CostModel::paper_default();

        group.bench_with_input(BenchmarkId::new("total_cost_eq2", vms), &vms, |b, _| {
            b.iter(|| model.total_cost(cluster.allocation(), &traffic, cluster.topo()))
        });

        group.bench_with_input(BenchmarkId::new("lemma3_delta", vms), &vms, |b, _| {
            b.iter(|| {
                model.migration_delta(
                    VmId::new(0),
                    ServerId::new(7),
                    cluster.allocation(),
                    &traffic,
                    cluster.topo(),
                )
            })
        });

        let engine = ScoreEngine::paper_default();
        let mut scratch = KernelScratch::new();
        group.bench_with_input(BenchmarkId::new("holder_decision", vms), &vms, |b, _| {
            b.iter(|| {
                let view = LocalView::observe(
                    VmId::new(0),
                    cluster.allocation(),
                    &traffic,
                    cluster.topo(),
                );
                engine.decide(&view, None, &cluster, &mut scratch)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_cost_kernels);
criterion_main!(benches);

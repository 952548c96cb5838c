//! Figure 9 bench: the cost of regenerating the experimental sweep —
//! per-point FRTR/PRTR executor runs on both panels (estimated and
//! measured configuration times). Each executor is benched twice: the
//! default entry point (periodicity fast path enabled) against its
//! `_reference` oracle (pure per-call simulation), so the steady-state
//! jump's speedup is tracked directly.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use hprc_ctx::ExecCtx;
use hprc_exp::scenario::figure9_point;
use hprc_fault::FaultPlan;
use hprc_fpga::floorplan::Floorplan;
use hprc_sim::executor::{run_frtr, run_frtr_reference, run_prtr, run_prtr_reference};
use hprc_sim::node::NodeConfig;
use hprc_sim::task::{PrtrCall, TaskCall};

fn calls(node: &NodeConfig, n: usize) -> Vec<PrtrCall> {
    (0..n)
        .map(|i| PrtrCall {
            task: TaskCall::with_task_time("Sobel Filter", node, node.t_prtr_s()),
            hit: false,
            slot: i % node.n_prrs,
        })
        .collect()
}

fn bench_executors(c: &mut Criterion) {
    let node = NodeConfig::xd1_measured(&Floorplan::xd1_dual_prr());
    let mut g = c.benchmark_group("fig9/executor");
    for n in [100usize, 1000] {
        let prtr_calls = calls(&node, n);
        let frtr_calls: Vec<TaskCall> = prtr_calls.iter().map(|c| c.task).collect();
        g.bench_with_input(BenchmarkId::new("frtr", n), &n, |b, _| {
            b.iter(|| {
                run_frtr(
                    black_box(&node),
                    black_box(&frtr_calls),
                    &FaultPlan::disarmed(),
                    &ExecCtx::default(),
                )
                .unwrap()
            })
        });
        g.bench_with_input(BenchmarkId::new("frtr-reference", n), &n, |b, _| {
            b.iter(|| {
                run_frtr_reference(
                    black_box(&node),
                    black_box(&frtr_calls),
                    &FaultPlan::disarmed(),
                    &ExecCtx::default(),
                )
                .unwrap()
            })
        });
        g.bench_with_input(BenchmarkId::new("prtr", n), &n, |b, _| {
            b.iter(|| {
                run_prtr(
                    black_box(&node),
                    black_box(&prtr_calls),
                    &FaultPlan::disarmed(),
                    &ExecCtx::default(),
                )
                .unwrap()
            })
        });
        g.bench_with_input(BenchmarkId::new("prtr-reference", n), &n, |b, _| {
            b.iter(|| {
                run_prtr_reference(
                    black_box(&node),
                    black_box(&prtr_calls),
                    &FaultPlan::disarmed(),
                    &ExecCtx::default(),
                )
                .unwrap()
            })
        });
    }
    g.finish();
}

fn bench_sweep_point(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig9/sweep_point");
    g.sample_size(20);
    for (name, fp) in [
        (
            "estimated",
            NodeConfig::xd1_estimated(&Floorplan::xd1_dual_prr()),
        ),
        (
            "measured",
            NodeConfig::xd1_measured(&Floorplan::xd1_dual_prr()),
        ),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| figure9_point(black_box(&fp), fp.t_prtr_s(), 300, &ExecCtx::default()))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_executors, bench_sweep_point);
criterion_main!(benches);

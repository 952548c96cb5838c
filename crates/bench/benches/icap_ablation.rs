//! E6 bench: ICAP-path variants — how the modeled transfer time and the
//! resulting end-to-end PRTR totals respond to the control-FSM efficiency
//! and the shared-link constraint.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use hprc_ctx::ExecCtx;
use hprc_fault::FaultPlan;
use hprc_fpga::floorplan::Floorplan;
use hprc_sim::executor::run_prtr;
use hprc_sim::icap::IcapPath;
use hprc_sim::node::NodeConfig;
use hprc_sim::task::{PrtrCall, TaskCall};

fn bench_icap_transfer_model(c: &mut Criterion) {
    let mut g = c.benchmark_group("icap/transfer_time_model");
    for (name, path) in [("measured", IcapPath::xd1()), ("ideal", IcapPath::ideal())] {
        g.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| black_box(&path).transfer_time_s(black_box(404_168)))
        });
    }
    g.finish();
}

fn bench_executor_under_variants(c: &mut Criterion) {
    let base = NodeConfig::xd1_measured(&Floorplan::xd1_dual_prr());
    let variants = [
        ("measured_fsm", base),
        (
            "ideal_icap",
            NodeConfig {
                icap: IcapPath::ideal(),
                ..base
            },
        ),
        (
            "shared_link",
            NodeConfig {
                config_waits_for_data_input: true,
                ..base
            },
        ),
    ];
    let mut g = c.benchmark_group("icap/prtr_500_calls");
    g.sample_size(20);
    for (name, node) in variants {
        let calls: Vec<PrtrCall> = (0..500)
            .map(|i| PrtrCall {
                task: TaskCall::with_task_time("Sobel Filter", &node, node.t_prtr_s()),
                hit: false,
                slot: i % node.n_prrs,
            })
            .collect();
        g.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| {
                run_prtr(
                    black_box(&node),
                    black_box(&calls),
                    &FaultPlan::disarmed(),
                    &ExecCtx::default(),
                )
                .unwrap()
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_icap_transfer_model,
    bench_executor_under_variants
);
criterion_main!(benches);

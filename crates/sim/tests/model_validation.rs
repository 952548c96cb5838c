//! Cross-validation of the discrete-event simulator against the analytical
//! model (experiment E5 in DESIGN.md): equations (1)/(2), (3)/(5), and (6)
//! must agree with measured simulator totals, exactly for FRTR and
//! asymptotically (with O(1/n) cold-start error) for PRTR.

use hprc_ctx::ExecCtx;
use hprc_fault::FaultPlan;
use hprc_fpga::floorplan::Floorplan;
use hprc_model::params::{ModelParams, NormalizedTimes};
use hprc_model::{frtr, prtr, speedup};
use hprc_sim::executor::{run_frtr, run_prtr};
use hprc_sim::node::NodeConfig;
use hprc_sim::task::{PrtrCall, TaskCall};

/// Builds the model parameters matching a node + task-time + hit pattern.
fn model_params(node: &NodeConfig, t_task: f64, hit_ratio: f64, n: u64) -> ModelParams {
    let t_frtr = node.t_frtr_s();
    let times = NormalizedTimes {
        x_task: t_task / t_frtr,
        x_control: node.control_overhead_s / t_frtr,
        x_decision: node.decision_latency_s / t_frtr,
        x_prtr: node.t_prtr_s() / t_frtr,
    };
    ModelParams::new(times, hit_ratio, n).unwrap()
}

fn uniform_calls(node: &NodeConfig, t_task: f64, n: usize, hits: &[bool]) -> Vec<PrtrCall> {
    (0..n)
        .map(|i| PrtrCall {
            task: TaskCall::with_task_time(format!("t{}", i % 3), node, t_task),
            hit: hits[i],
            slot: i % node.n_prrs,
        })
        .collect()
}

#[test]
fn frtr_matches_equation_2_exactly_for_any_n() {
    let node = NodeConfig::xd1_measured(&Floorplan::xd1_dual_prr());
    for n in [1usize, 3, 17, 200] {
        let t_task = 0.07;
        let calls: Vec<TaskCall> = (0..n)
            .map(|i| TaskCall::with_task_time(format!("t{i}"), &node, t_task))
            .collect();
        let t_task_actual = calls[0].task_time_s(&node);
        let report = run_frtr(&node, &calls, &FaultPlan::disarmed(), &ExecCtx::default()).unwrap();
        let params = model_params(&node, t_task_actual, 0.0, n as u64);
        let predicted = frtr::total_time_normalized(&params) * node.t_frtr_s();
        let rel = (report.total_s() - predicted).abs() / predicted;
        assert!(
            rel < 1e-9,
            "n={n}: sim {} vs eq(2) {predicted}",
            report.total_s()
        );
    }
}

#[test]
fn prtr_all_miss_converges_to_equation_5() {
    // H = 0 (the paper's measured configuration) across the three regimes.
    let node = NodeConfig::xd1_measured(&Floorplan::xd1_dual_prr());
    let n = 2000;
    for &t_task in &[
        0.2 * node.t_prtr_s(),  // configuration-bound
        node.t_prtr_s(),        // the peak
        10.0 * node.t_prtr_s(), // comparable
        1.2 * node.t_frtr_s(),  // data-intensive
    ] {
        let calls = uniform_calls(&node, t_task, n, &vec![false; n]);
        let t_task_actual = calls[0].task.task_time_s(&node);
        let report = run_prtr(&node, &calls, &FaultPlan::disarmed(), &ExecCtx::default()).unwrap();
        let params = model_params(&node, t_task_actual, 0.0, n as u64);
        let predicted = prtr::total_time_normalized(&params) * node.t_frtr_s();
        let rel = (report.total_s() - predicted).abs() / predicted;
        assert!(
            rel < 0.005,
            "t_task={t_task}: sim {} vs eq(5) {predicted} (rel {rel})",
            report.total_s()
        );
    }
}

#[test]
fn prtr_with_hits_converges_to_equation_5() {
    let node = NodeConfig::xd1_measured(&Floorplan::xd1_dual_prr());
    let n = 2000;
    for &h_target in &[0.25, 0.5, 0.9] {
        // Deterministic, evenly-spread hit pattern (Bresenham) with
        // approximately h_target * n hits.
        let mut hits = vec![false; n];
        let mut acc = 0.0;
        for h in hits.iter_mut() {
            acc += h_target;
            if acc >= 1.0 {
                acc -= 1.0;
                *h = true;
            } else {
                *h = false;
            }
        }
        let actual_h = hits.iter().filter(|&&b| b).count() as f64 / n as f64;
        let t_task = 0.5 * node.t_prtr_s();
        let calls = uniform_calls(&node, t_task, n, &hits);
        let t_task_actual = calls[0].task.task_time_s(&node);
        let report = run_prtr(&node, &calls, &FaultPlan::disarmed(), &ExecCtx::default()).unwrap();
        let params = model_params(&node, t_task_actual, actual_h, n as u64);
        let predicted = prtr::total_time_normalized(&params) * node.t_frtr_s();
        let rel = (report.total_s() - predicted).abs() / predicted;
        assert!(
            rel < 0.01,
            "H={actual_h}: sim {} vs eq(5) {predicted} (rel {rel})",
            report.total_s()
        );
    }
}

#[test]
fn measured_speedup_matches_equation_6() {
    let node = NodeConfig::xd1_measured(&Floorplan::xd1_dual_prr());
    let n = 1000;
    for &t_task in &[0.5 * node.t_prtr_s(), node.t_prtr_s(), 0.3, 2.0] {
        let prtr_calls = uniform_calls(&node, t_task, n, &vec![false; n]);
        let frtr_calls: Vec<TaskCall> = prtr_calls.iter().map(|c| c.task).collect();
        let t_task_actual = frtr_calls[0].task_time_s(&node);
        let s_sim = run_frtr(
            &node,
            &frtr_calls,
            &FaultPlan::disarmed(),
            &ExecCtx::default(),
        )
        .unwrap()
        .total_s()
            / run_prtr(
                &node,
                &prtr_calls,
                &FaultPlan::disarmed(),
                &ExecCtx::default(),
            )
            .unwrap()
            .total_s();
        let params = model_params(&node, t_task_actual, 0.0, n as u64);
        let s_model = speedup::speedup(&params);
        let rel = (s_sim - s_model).abs() / s_model;
        assert!(
            rel < 0.01,
            "t_task={t_task}: sim speedup {s_sim} vs eq(6) {s_model}"
        );
    }
}

#[test]
fn decision_latency_validation() {
    // Nonzero T_decision: the simulator pays one un-overlapped decision
    // plus the per-call max() terms, converging to eq (5).
    let mut node = NodeConfig::xd1_measured(&Floorplan::xd1_dual_prr());
    node.decision_latency_s = 0.002;
    let n = 1000;
    let t_task = node.t_prtr_s();
    let calls = uniform_calls(&node, t_task, n, &vec![false; n]);
    let t_task_actual = calls[0].task.task_time_s(&node);
    let report = run_prtr(&node, &calls, &FaultPlan::disarmed(), &ExecCtx::default()).unwrap();
    let params = model_params(&node, t_task_actual, 0.0, n as u64);
    let predicted = prtr::total_time_normalized(&params) * node.t_frtr_s();
    let rel = (report.total_s() - predicted).abs() / predicted;
    assert!(
        rel < 0.005,
        "sim {} vs {} (rel {rel})",
        report.total_s(),
        predicted
    );
}

#[test]
fn estimated_node_peak_speedup_is_about_7x() {
    // Figure 9(a): estimated configuration times cap PRTR at ~7x.
    let node = NodeConfig::xd1_estimated(&Floorplan::xd1_dual_prr());
    let n = 500;
    let t_task = node.t_prtr_s();
    let prtr_calls = uniform_calls(&node, t_task, n, &vec![false; n]);
    let frtr_calls: Vec<TaskCall> = prtr_calls.iter().map(|c| c.task).collect();
    let s = run_frtr(
        &node,
        &frtr_calls,
        &FaultPlan::disarmed(),
        &ExecCtx::default(),
    )
    .unwrap()
    .total_s()
        / run_prtr(
            &node,
            &prtr_calls,
            &FaultPlan::disarmed(),
            &ExecCtx::default(),
        )
        .unwrap()
        .total_s();
    assert!(s > 6.3 && s < 7.3, "peak speedup = {s}");
}

#[test]
fn measured_node_peak_speedup_is_about_87x() {
    // Figure 9(b): measured configuration times allow up to ~87x.
    let node = NodeConfig::xd1_measured(&Floorplan::xd1_dual_prr());
    let n = 500;
    let t_task = node.t_prtr_s();
    let prtr_calls = uniform_calls(&node, t_task, n, &vec![false; n]);
    let frtr_calls: Vec<TaskCall> = prtr_calls.iter().map(|c| c.task).collect();
    let s = run_frtr(
        &node,
        &frtr_calls,
        &FaultPlan::disarmed(),
        &ExecCtx::default(),
    )
    .unwrap()
    .total_s()
        / run_prtr(
            &node,
            &prtr_calls,
            &FaultPlan::disarmed(),
            &ExecCtx::default(),
        )
        .unwrap()
        .total_s();
    assert!(s > 80.0 && s < 90.0, "peak speedup = {s}");
}

#[test]
fn data_intensive_tasks_cap_at_2x() {
    // The paper's headline bound, measured end to end on the simulator.
    let node = NodeConfig::xd1_estimated(&Floorplan::xd1_dual_prr());
    let n = 300;
    for factor in [1.0, 2.0, 5.0] {
        let t_task = factor * node.t_frtr_s();
        let prtr_calls = uniform_calls(&node, t_task, n, &vec![false; n]);
        let frtr_calls: Vec<TaskCall> = prtr_calls.iter().map(|c| c.task).collect();
        let s = run_frtr(
            &node,
            &frtr_calls,
            &FaultPlan::disarmed(),
            &ExecCtx::default(),
        )
        .unwrap()
        .total_s()
            / run_prtr(
                &node,
                &prtr_calls,
                &FaultPlan::disarmed(),
                &ExecCtx::default(),
            )
            .unwrap()
            .total_s();
        assert!(s <= 2.0 + 0.01, "factor {factor}: speedup = {s}");
        if factor == 1.0 {
            assert!(s > 1.9, "speedup at X_task=1 should approach 2, got {s}");
        }
    }
}

//! Quickstart: evaluate the PRTR-vs-FRTR model at the paper's measured
//! Cray XD1 operating points, then confirm the numbers end to end on the
//! node simulator.
//!
//! Run with: `cargo run --release --example quickstart`

use prtr_bounds::prelude::*;

fn main() {
    // --- 1. Build the platform: XC2VP50 with the dual-PRR layout. -------
    let floorplan = Floorplan::xd1_dual_prr();
    let node = NodeConfig::xd1_measured(&floorplan);
    println!("Device:            {}", floorplan.device.name);
    println!(
        "Full bitstream:    {} bytes -> T_FRTR = {:.2} ms (measured, incl. vendor API)",
        floorplan.device.full_bitstream_bytes(),
        node.t_frtr_s() * 1e3
    );
    println!(
        "PRR bitstream:     {} bytes -> T_PRTR = {:.2} ms (measured, via ICAP)",
        node.prr_bitstream_bytes,
        node.t_prtr_s() * 1e3
    );
    println!("X_PRTR:            {:.4}\n", node.x_prtr());

    // --- 2. Ask the analytical model for the speedup landscape. ---------
    println!("Asymptotic speedup S_inf (equation 7), H = 0:");
    println!("{:>10}  {:>8}", "X_task", "S_inf");
    for factor in [0.1, 0.5, 1.0, 2.0, 10.0, 1.0 / node.x_prtr()] {
        let x_task = factor * node.x_prtr();
        let params = ModelParams::experimental(x_task, node.x_prtr(), 0.0, 1);
        println!("{:>10.4}  {:>8.2}", x_task, asymptotic_speedup(&params));
    }
    let peak = ModelParams::experimental(node.x_prtr(), node.x_prtr(), 0.0, 1);
    println!(
        "\nPeak: S = 1 + 1/X_PRTR = {:.1}x at X_task = X_PRTR (paper: \"up to 87x\").\n",
        asymptotic_speedup(&peak)
    );

    // --- 3. Confirm on the simulator: 200 calls at the peak point. ------
    let n = 200;
    let calls: Vec<PrtrCall> = (0..n)
        .map(|i| PrtrCall {
            task: TaskCall::with_task_time("Sobel Filter", &node, node.t_prtr_s()),
            hit: false, // the paper's no-prefetch experimental setup
            slot: i % node.n_prrs,
        })
        .collect();
    let frtr_calls: Vec<TaskCall> = calls.iter().map(|c| c.task).collect();
    let ctx = ExecCtx::default();
    let frtr = run_frtr(&node, &frtr_calls, &FaultPlan::disarmed(), &ctx).expect("FRTR run");
    let prtr = run_prtr(&node, &calls, &FaultPlan::disarmed(), &ctx).expect("PRTR run");
    println!("Simulator, {n} calls at the peak operating point:");
    println!("  FRTR total: {:>9.2} s", frtr.total_s());
    println!("  PRTR total: {:>9.2} s", prtr.total_s());
    println!(
        "  Speedup:    {:>9.1} x  (model predicts {:.1}x at n = {n})",
        frtr.total_s() / prtr.total_s(),
        {
            let params = ModelParams::experimental(
                node.x_prtr(),
                node.x_prtr(),
                node.control_overhead_s / node.t_frtr_s(),
                n as u64,
            );
            speedup(&params)
        }
    );
}

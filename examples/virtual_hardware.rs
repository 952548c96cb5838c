//! Hardware virtualization: several applications sharing one FPGA under
//! an OS-style runtime — the paper's closing recommendation made
//! runnable. Compares FRTR vs PRTR multiplexing, scheduling disciplines,
//! and prints the PRTR timeline.
//!
//! Run with: `cargo run --release --example virtual_hardware`

use prtr_bounds::prelude::*;
use prtr_bounds::virt::runtime::SchedulerKind;
use prtr_bounds::virt::VirtCall;

fn main() {
    let node = NodeConfig::xd1_measured(&Floorplan::xd1_quad_prr());
    println!(
        "Node: quad-PRR XC2VP50, T_FRTR = {:.2} s, T_PRTR = {:.1} ms, {} PRRs.\n",
        node.t_frtr_s(),
        node.t_prtr_s() * 1e3,
        node.n_prrs
    );

    // Four tenants: two loyal streaming apps, one 3-stage pipeline app,
    // and a latecomer with high priority.
    let mk_loyal = |id: usize, core: &str, calls, t| App::cycling(id, core, &[core], calls, t, 0.0);
    let apps = vec![
        mk_loyal(0, "Median Filter", 30, 0.004),
        mk_loyal(1, "Sobel Filter", 30, 0.004),
        App::cycling(
            2,
            "pipeline",
            &["Smoothing Filter", "Laplacian Filter"],
            30,
            0.004,
            0.0,
        ),
        App {
            priority: 1, // urgent
            ..App::cycling(3, "urgent-late", &["Threshold"], 10, 0.002, 0.05)
        },
    ];

    for (name, cfg) in [
        ("FRTR / FCFS", RuntimeConfig::frtr()),
        ("PRTR / FCFS", RuntimeConfig::prtr_overlapped()),
        (
            "PRTR / priority",
            RuntimeConfig {
                scheduler: SchedulerKind::Priority,
                ..RuntimeConfig::prtr_overlapped()
            },
        ),
    ] {
        let report = run_virtualized(
            &node,
            &apps,
            &cfg,
            &FaultPlan::disarmed(),
            &ExecCtx::default(),
        )
        .unwrap();
        println!("=== {name} ===");
        println!(
            "makespan {:.3} s | {} configs | config port busy {:.0}% | overall H = {:.2}",
            report.makespan_s,
            report.n_config,
            report.config_fraction() * 100.0,
            report.hit_ratio()
        );
        for a in &report.per_app {
            println!(
                "  {}: turnaround {:.3} s ({} calls, {} hits)",
                apps[a.app].name, a.turnaround_s, a.calls, a.hits
            );
        }
        println!();
    }

    // Show the first slice of the PRTR schedule as a Gantt chart.
    let small: Vec<App> = apps
        .iter()
        .map(|a| App {
            calls: a.calls.iter().take(4).cloned().collect::<Vec<VirtCall>>(),
            ..a.clone()
        })
        .collect();
    let report = run_virtualized(
        &node,
        &small,
        &RuntimeConfig::prtr_overlapped(),
        &FaultPlan::disarmed(),
        &ExecCtx::default(),
    )
    .unwrap();
    println!("PRTR schedule, first 4 calls per app (P = partial config, X = exec):");
    println!("{}", report.timeline.render_text(100));
}

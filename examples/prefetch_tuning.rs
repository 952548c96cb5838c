//! Prefetch tuning: the paper left configuration pre-fetching as future
//! work and modeled it through the hit ratio `H`. This example measures
//! `H` for every policy in the library across workloads with different
//! locality, then shows where on the Figure 5 landscape each lands.
//!
//! Run with: `cargo run --release --example prefetch_tuning`

use prtr_bounds::prelude::*;
use prtr_bounds::sched::policies::{Fifo, Lfu, RandomPolicy};
use prtr_bounds::sched::Policy;

fn main() {
    let node = NodeConfig::xd1_measured(&Floorplan::xd1_dual_prr());
    let len = 2_000;
    let workloads: Vec<(&str, TraceSpec)> = vec![
        (
            "video pipeline (3-stage loop)",
            TraceSpec::Looping {
                stages: 3,
                n_tasks: 3,
                noise: 0.0,
                len,
            },
        ),
        (
            "branchy pipeline (10% detours)",
            TraceSpec::Looping {
                stages: 3,
                n_tasks: 7,
                noise: 0.1,
                len,
            },
        ),
        (
            "hot-set workload (zipf 1.2)",
            TraceSpec::Zipf {
                n_tasks: 7,
                alpha: 1.2,
                len,
            },
        ),
        (
            "phase-local workload",
            TraceSpec::Phased {
                n_tasks: 7,
                working_set: 2,
                phase_len: 64,
                len,
            },
        ),
    ];

    println!(
        "Measured hit ratios over {} PRR slots ({len}-call traces):\n",
        node.n_prrs
    );
    println!(
        "{:<32} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "workload", "fifo", "lru", "lfu", "random", "belady", "markov+pf"
    );
    for (name, spec) in &workloads {
        let trace = spec.generate(7);
        let h = |policy: &mut dyn Policy, prefetch: bool| {
            simulate(
                &trace,
                node.n_prrs,
                policy,
                prefetch,
                &FaultPlan::disarmed(),
                &ExecCtx::default(),
            )
            .hit_ratio()
        };
        println!(
            "{:<32} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>8.3}",
            name,
            h(&mut Fifo::new(), false),
            h(&mut Lru::new(), false),
            h(&mut Lfu::new(), false),
            h(&mut RandomPolicy::new(1), false),
            h(&mut Belady::new(), false),
            h(&mut Markov::new(), true),
        );
    }

    // Where does a given H land on the speedup landscape? Evaluate the
    // model at the configuration-bound point T_task = 0.25 * T_PRTR.
    let x_task = 0.25 * node.x_prtr();
    println!("\nModel speedup at X_task = {x_task:.4} (configuration-bound) as H grows:");
    println!("{:>6}  {:>8}", "H", "S_inf");
    for h in [0.0, 0.25, 0.5, 0.75, 0.9, 0.99] {
        let params = ModelParams::new(
            NormalizedTimes {
                x_task,
                x_control: node.control_overhead_s / node.t_frtr_s(),
                x_decision: 0.0,
                x_prtr: node.x_prtr(),
            },
            h,
            1,
        )
        .unwrap();
        println!("{h:>6.2}  {:>8.1}", asymptotic_speedup(&params));
    }
    println!(
        "\nReading: every point of hit ratio a prefetcher earns converts\n\
         directly into speedup in the configuration-bound regime; in the\n\
         task-bound regime (X_task > X_PRTR) prefetching is irrelevant,\n\
         exactly as Figure 5 predicts."
    );
}

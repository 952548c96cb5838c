//! Property-based tests of the virtualization runtime.

use hprc_ctx::ExecCtx;
use hprc_fault::{FaultPlan, FaultSpec, RecoveryPolicy};
use hprc_fpga::floorplan::Floorplan;
use hprc_sim::node::NodeConfig;
use hprc_virt::app::{App, VirtCall};
use hprc_virt::runtime::{run, RuntimeConfig};
use proptest::prelude::*;

fn arb_apps() -> impl Strategy<Value = Vec<App>> {
    let cores = [
        "Median Filter",
        "Sobel Filter",
        "Smoothing Filter",
        "Laplacian Filter",
        "Threshold",
    ];
    proptest::collection::vec(
        (
            proptest::collection::vec((0usize..5, 1u64..50), 1..12),
            0u64..100,
            0u8..=255,
        ),
        1..5,
    )
    .prop_map(move |specs| {
        specs
            .into_iter()
            .enumerate()
            .map(|(id, (calls, arrival_ms, priority))| App {
                id,
                name: format!("app{id}"),
                arrival_s: arrival_ms as f64 * 1e-3,
                priority,
                calls: calls
                    .into_iter()
                    .map(|(core, ms)| VirtCall {
                        module: cores[core].to_string(),
                        t_task_s: ms as f64 * 1e-3,
                    })
                    .collect(),
            })
            .collect()
    })
}

/// The disarmed plan, or an armed one with a uniform rate in
/// `[0, 0.5]` and any seed.
fn arb_plan() -> impl Strategy<Value = FaultPlan> {
    (any::<bool>(), 0.0f64..=0.5, any::<u64>()).prop_map(|(armed, rate, seed)| {
        if armed {
            FaultPlan::new(FaultSpec::uniform(rate), RecoveryPolicy::default(), seed)
        } else {
            FaultPlan::disarmed()
        }
    })
}

fn node() -> NodeConfig {
    NodeConfig::xd1_measured(&Floorplan::xd1_dual_prr())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Under any plan every call is served exactly once (dropped calls
    /// as zero-length records); configurations and drops account for
    /// every miss; makespan bounds hold over the calls that executed.
    #[test]
    fn accounting_invariants(apps in arb_apps(), plan in arb_plan()) {
        for cfg in [
            RuntimeConfig::frtr(),
            RuntimeConfig::prtr_demand(),
            RuntimeConfig::prtr_overlapped(),
        ] {
            let node = node();
            let report = run(&node, &apps, &cfg, &plan, &ExecCtx::default()).unwrap();
            let total_calls: usize = apps.iter().map(|a| a.calls.len()).sum();
            prop_assert_eq!(report.records.len(), total_calls);
            let served: u64 = report.per_app.iter().map(|a| a.calls).sum();
            prop_assert_eq!(served as usize, total_calls);

            // Every miss either configured or was dropped (overlap adds
            // speculative configurations on top).
            let misses: u64 = report
                .records
                .iter()
                .filter(|r| !r.hit)
                .count() as u64;
            prop_assert!(report.dropped_calls <= misses);
            if !cfg.prefetch_next {
                prop_assert_eq!(report.n_config + report.dropped_calls, misses);
            } else {
                prop_assert!(report.n_config + report.dropped_calls >= misses);
            }
            if !plan.armed() {
                prop_assert_eq!(report.dropped_calls, 0);
                prop_assert_eq!(report.availability(), 1.0);
            }

            // Makespan is at least the busiest app's arrival + the pure
            // execution time of its calls that executed. An app's
            // records come in its call order; a dropped call's record
            // has an empty execution window.
            let lower = apps
                .iter()
                .map(|a| {
                    let executed: f64 = report
                        .records
                        .iter()
                        .filter(|r| r.app == a.id)
                        .zip(&a.calls)
                        .filter(|(r, _)| r.exec_end > r.exec_start)
                        .map(|(_, c)| c.t_task_s)
                        .sum();
                    a.arrival_s + executed
                })
                .fold(0.0f64, f64::max);
            prop_assert!(report.makespan_s + 1e-9 >= lower);

            // Turnarounds are positive and bounded by the makespan.
            for (a, s) in apps.iter().zip(&report.per_app) {
                if !a.calls.is_empty() {
                    prop_assert!(s.turnaround_s > 0.0);
                    prop_assert!(a.arrival_s + s.turnaround_s <= report.makespan_s + 1e-9);
                }
            }
        }
    }

    /// The runtime is deterministic: identical inputs and plan give
    /// identical reports.
    #[test]
    fn deterministic(apps in arb_apps(), plan in arb_plan()) {
        let a = run(&node(), &apps, &RuntimeConfig::prtr_overlapped(), &plan, &ExecCtx::default()).unwrap();
        let b = run(&node(), &apps, &RuntimeConfig::prtr_overlapped(), &plan, &ExecCtx::default()).unwrap();
        prop_assert_eq!(a, b);
    }

    /// An armed plan that never fires takes every armed branch and
    /// still returns exactly the disarmed report, on the dual- and
    /// quad-PRR nodes under every configuration.
    #[test]
    fn never_firing_plan_is_inert(apps in arb_apps()) {
        let never = FaultPlan::new(
            FaultSpec { p_api_transfer: 1e-300, ..FaultSpec::default() },
            RecoveryPolicy::default(),
            11,
        );
        for node in [
            NodeConfig::xd1_measured(&Floorplan::xd1_dual_prr()),
            NodeConfig::xd1_measured(&Floorplan::xd1_quad_prr()),
        ] {
            for cfg in [
                RuntimeConfig::frtr(),
                RuntimeConfig::prtr_demand(),
                RuntimeConfig::prtr_overlapped(),
            ] {
                let a = run(&node, &apps, &cfg, &FaultPlan::disarmed(), &ExecCtx::default()).unwrap();
                let b = run(&node, &apps, &cfg, &never, &ExecCtx::default()).unwrap();
                prop_assert_eq!(a, b);
            }
        }
    }

    /// PRTR (demand) never loses to FRTR on these workloads: partial
    /// configurations are 85x cheaper and residency (LRU over >= as many
    /// slots) is a superset.
    #[test]
    fn prtr_no_worse_than_frtr(apps in arb_apps()) {
        let node = node();
        let frtr = run(&node, &apps, &RuntimeConfig::frtr(), &FaultPlan::disarmed(), &ExecCtx::default()).unwrap();
        let prtr = run(&node, &apps, &RuntimeConfig::prtr_demand(), &FaultPlan::disarmed(), &ExecCtx::default()).unwrap();
        prop_assert!(
            prtr.makespan_s <= frtr.makespan_s * 1.0001,
            "prtr {} vs frtr {}",
            prtr.makespan_s,
            frtr.makespan_s
        );
    }

    /// Per-PRR execution windows never overlap (a slot runs one thing at a
    /// time) — checked from the timeline.
    #[test]
    fn slots_are_exclusive(apps in arb_apps()) {
        use hprc_sim::trace::{EventKind, Lane};
        let node = node();
        let report = run(&node, &apps, &RuntimeConfig::prtr_overlapped(), &FaultPlan::disarmed(), &ExecCtx::default()).unwrap();
        for slot in 0..node.n_prrs {
            let mut windows: Vec<(u64, u64)> = report
                .timeline
                .iter()
                .filter(|e| e.lane == Lane::Prr(slot) && e.kind == EventKind::Exec)
                .map(|e| (e.start.0, e.end.0))
                .collect();
            windows.sort_unstable();
            for w in windows.windows(2) {
                prop_assert!(w[0].1 <= w[1].0, "overlap on slot {slot}: {w:?}");
            }
        }
    }

    /// The configuration port serializes: config windows never overlap.
    #[test]
    fn config_port_serializes(apps in arb_apps()) {
        use hprc_sim::trace::Lane;
        let node = node();
        let report = run(&node, &apps, &RuntimeConfig::prtr_overlapped(), &FaultPlan::disarmed(), &ExecCtx::default()).unwrap();
        let mut windows: Vec<(u64, u64)> = report
            .timeline
            .iter()
            .filter(|e| e.lane == Lane::ConfigPort)
            .map(|e| (e.start.0, e.end.0))
            .collect();
        windows.sort_unstable();
        for w in windows.windows(2) {
            prop_assert!(w[0].1 <= w[1].0, "config overlap: {w:?}");
        }
    }
}

//! Property tests of the attribution identity and the Eq (7) bound-gap
//! acceptance criteria.

use hprc_attr::{AttributionReport, Buckets, RunAttribution};
use hprc_ctx::ExecCtx;
use hprc_fault::FaultPlan;
use hprc_fpga::floorplan::Floorplan;
use hprc_model::params::{ModelParams, NormalizedTimes};
use hprc_sim::executor::{run_frtr, run_frtr_reference, run_prtr, run_prtr_reference};
use hprc_sim::node::NodeConfig;
use hprc_sim::task::{PrtrCall, TaskCall};
use hprc_sim::trace::ActivityClass;
use proptest::prelude::*;

fn xd1() -> NodeConfig {
    NodeConfig::xd1_measured(&Floorplan::xd1_dual_prr())
}

/// Randomized PRTR scenarios: per-call (task-time scale, hit, slot).
fn calls_strategy() -> impl Strategy<Value = Vec<(u8, u8, u8)>> {
    proptest::collection::vec((1u8..200, 0u8..2, 0u8..2), 1..25)
}

fn build_calls(node: &NodeConfig, spec: &[(u8, u8, u8)]) -> Vec<PrtrCall> {
    spec.iter()
        .enumerate()
        .map(|(i, &(scale, hit, slot))| PrtrCall {
            // Task times from ~2 ms to ~0.4 s: spans fully-hidden,
            // partially-exposed, and fully-exposed configuration regimes.
            task: TaskCall::with_task_time(format!("t{}", i % 4), node, scale as f64 * 2e-3),
            hit: hit == 1,
            slot: slot as usize % node.n_prrs,
        })
        .collect()
}

/// Sum of a class's merged interval union, nanoseconds.
fn class_busy_ns(tl: &hprc_sim::trace::Timeline, class: ActivityClass) -> u64 {
    tl.class_intervals(class)
        .iter()
        .map(|(s, e)| e.0 - s.0)
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The six buckets partition the span *exactly* (integer
    /// nanoseconds — far stronger than the 1e-9 acceptance bound), for
    /// both executors on randomized scenarios, and the two config
    /// buckets reconstruct the configuration-port busy time.
    #[test]
    fn buckets_partition_span_exactly(spec in calls_strategy()) {
        let node = xd1();
        let calls = build_calls(&node, &spec);
        let frtr_calls: Vec<TaskCall> = calls.iter().map(|c| c.task).collect();
        let ctx = ExecCtx::default();
        let f = run_frtr(&node, &frtr_calls, &FaultPlan::disarmed(), &ctx).unwrap();
        let p = run_prtr(&node, &calls, &FaultPlan::disarmed(), &ctx).unwrap();
        for report in [&f, &p] {
            // checked_from_timeline panics on any violation; assert the
            // identity explicitly as well so the property reads as one.
            let b = Buckets::checked_from_timeline(&report.timeline);
            prop_assert_eq!(b.total_ns(), report.timeline.span_end().0);
            prop_assert_eq!(
                b.total_config_ns(),
                class_busy_ns(&report.timeline, ActivityClass::Config)
            );
        }
    }

    /// Derived observables stay in range and FRTR hides nothing.
    #[test]
    fn observables_well_formed(spec in calls_strategy()) {
        let node = xd1();
        let calls = build_calls(&node, &spec);
        let frtr_calls: Vec<TaskCall> = calls.iter().map(|c| c.task).collect();
        let ctx = ExecCtx::default();
        let f = run_frtr(&node, &frtr_calls, &FaultPlan::disarmed(), &ctx).unwrap();
        let p = run_prtr(&node, &calls, &FaultPlan::disarmed(), &ctx).unwrap();
        let fa = RunAttribution::from_report("frtr", &f);
        let pa = RunAttribution::from_report("prtr", &p);
        // FRTR serializes configuration before execution: zero overlap.
        prop_assert_eq!(fa.hiding_efficiency, Some(0.0));
        prop_assert_eq!(fa.effective_hit_ratio, 0.0);
        if let Some(h) = pa.hiding_efficiency {
            prop_assert!((0.0..=1.0).contains(&h));
        }
        prop_assert!((0.0..=1.0).contains(&pa.effective_hit_ratio));
        let n_miss = spec.iter().filter(|&&(_, hit, _)| hit == 0).count() as u64;
        prop_assert_eq!(pa.n_config, n_miss);
    }

    /// The partition identity survives run-length-encoded timelines:
    /// long periodic workloads make the executors' steady-state fast
    /// path store `Repeat` items instead of per-call events, and the
    /// buckets computed from the compressed timeline must be identical
    /// to the per-call reference executor's.
    #[test]
    fn buckets_identical_on_rle_timelines(
        scale in 1u8..100,
        reps in 30usize..80,
        all_miss in any::<bool>(),
    ) {
        let node = xd1();
        let calls: Vec<PrtrCall> = (0..reps * 3)
            .map(|i| PrtrCall {
                task: TaskCall::with_task_time(
                    format!("t{}", i % 3),
                    &node,
                    scale as f64 * 2e-3,
                ),
                hit: !all_miss && i > 0,
                slot: i % node.n_prrs,
            })
            .collect();
        let frtr_calls: Vec<TaskCall> = calls.iter().map(|c| c.task).collect();
        let ctx = ExecCtx::default();
        let fast = run_prtr(&node, &calls, &FaultPlan::disarmed(), &ctx).unwrap();
        let reference = run_prtr_reference(&node, &calls, &FaultPlan::disarmed(), &ctx).unwrap();
        // The fast path must actually have compressed, or this test
        // exercises nothing.
        prop_assert!(fast.timeline.n_items() < fast.timeline.len() as usize / 2);
        let fb = Buckets::checked_from_timeline(&fast.timeline);
        let rb = Buckets::checked_from_timeline(&reference.timeline);
        prop_assert_eq!(&fb, &rb);
        prop_assert_eq!(fb.total_ns(), fast.timeline.span_end().0);

        let f_fast = run_frtr(&node, &frtr_calls, &FaultPlan::disarmed(), &ctx).unwrap();
        let f_ref = run_frtr_reference(&node, &frtr_calls, &FaultPlan::disarmed(), &ctx).unwrap();
        prop_assert!(f_fast.timeline.n_items() < f_fast.timeline.len() as usize / 2);
        let fb = Buckets::checked_from_timeline(&f_fast.timeline);
        let rb = Buckets::checked_from_timeline(&f_ref.timeline);
        prop_assert_eq!(&fb, &rb);
        prop_assert_eq!(fb.total_ns(), f_fast.timeline.span_end().0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Acceptance check: with `X_decision = X_control = 0` and
    /// `H = 1` the measured speedup matches Eq (7)'s
    /// `(1 + X_task)/X_task` to full f64 precision.
    #[test]
    fn eq7_exact_with_zero_overheads_all_hits(
        scale in 1u8..=250,
        n in 2usize..40,
    ) {
        let mut node = xd1();
        node.control_overhead_s = 0.0;
        node.decision_latency_s = 0.0;
        let calls: Vec<PrtrCall> = (0..n)
            .map(|i| PrtrCall {
                task: TaskCall::with_task_time("t", &node, scale as f64 * 1e-3),
                hit: true,
                slot: i % node.n_prrs,
            })
            .collect();
        let frtr_calls: Vec<TaskCall> = calls.iter().map(|c| c.task).collect();
        let ctx = ExecCtx::default();
        let f = run_frtr(&node, &frtr_calls, &FaultPlan::disarmed(), &ctx).unwrap();
        let p = run_prtr(&node, &calls, &FaultPlan::disarmed(), &ctx).unwrap();

        // Realized (post-quantization) per-call durations, exact in ns.
        let t_ns = (f.calls[0].exec_end - f.calls[0].exec_start).0;
        let f_ns = (f.calls[0].config_end.unwrap() - f.calls[0].config_start.unwrap()).0;
        prop_assert_eq!(f.total.0, n as u64 * (f_ns + t_ns));
        prop_assert_eq!(p.total.0, n as u64 * t_ns);

        let measured = f.total_s() / p.total_s();
        let x_task = t_ns as f64 / f_ns as f64;
        let eq7 = (1.0 + x_task) / x_task;
        let rel = ((measured - eq7) / eq7).abs();
        prop_assert!(rel <= 4.0 * f64::EPSILON, "measured {measured} vs eq7 {eq7}, rel {rel}");

        // And the full report agrees: Eq (7) at these parameters IS the
        // measured speedup, so the bound gap collapses to rounding.
        let params = ModelParams::new(
            NormalizedTimes {
                x_task,
                x_control: 0.0,
                x_decision: 0.0,
                x_prtr: node.t_prtr_s() / node.t_frtr_s(),
            },
            1.0,
            n as u64,
        )
        .unwrap();
        let report = AttributionReport::new("eq7", &params, &f, &p);
        prop_assert!((report.gap.bound_gap / eq7).abs() <= 4.0 * f64::EPSILON);
        // All-hit PRTR performs no configuration at all.
        prop_assert_eq!(report.prtr.n_config, 0);
        prop_assert_eq!(report.prtr.hiding_efficiency, None);
        prop_assert!((report.prtr.effective_hit_ratio - 1.0).abs() < 1e-15);
    }
}

//! Cross-crate observability tests: the instrumented substrates must
//! measure the same `H` the model is fed (satellite of the hprc-obs
//! work), and the exported Chrome traces must be valid, well-ordered
//! trace-event JSON.

use prtr_bounds::exp::experiments::fig9::{peak_timeline, Panel};
use prtr_bounds::exp::scenario::model_params_for;
use prtr_bounds::obs::Registry;
use prtr_bounds::prelude::*;
use prtr_bounds::sched::policies::{AlwaysMiss, Belady};
use prtr_bounds::sched::policy::Policy;
use prtr_bounds::sched::simulate::simulate;

/// The measured hit ratio — read back from the instrumented cache's
/// counters — must be exactly the `H` (equivalently `1 - M`) handed to
/// the analytical model, for both ends of the policy spectrum.
#[test]
fn measured_hit_ratio_matches_model_input() {
    let node = NodeConfig::xd1_measured(&Floorplan::xd1_dual_prr());
    let spec = TraceSpec::Looping {
        stages: 3,
        n_tasks: 3,
        noise: 0.0,
        len: 300,
    };
    let trace = spec.generate(11);

    let cases: Vec<(&str, Box<dyn Policy>)> = vec![
        ("always-miss", Box::new(AlwaysMiss::new())),
        ("belady", Box::new(Belady::new())),
    ];
    for (name, mut policy) in cases {
        let registry = Registry::new();
        let ctx = ExecCtx::default().with_registry(registry.clone());
        let outcome = simulate(
            &trace,
            node.n_prrs,
            policy.as_mut(),
            false,
            &FaultPlan::disarmed(),
            &ctx,
        );
        let snap = registry.snapshot();
        let hits = snap.counters[&format!("sched.{name}.hits")] as f64;
        let calls = snap.counters[&format!("sched.{name}.calls")] as f64;
        let measured_h = hits / calls;
        assert_eq!(
            measured_h,
            outcome.hit_ratio(),
            "{name}: counter-derived H diverges from the outcome's"
        );
        // Feed the measured H into the model exactly as the harness does:
        // its M must be 1 - H bit-for-bit (equation 5's M = 1 - H).
        let params = model_params_for(&node, node.t_prtr_s(), measured_h, trace.len() as u64);
        assert_eq!(params.miss_ratio(), 1.0 - measured_h, "{name}");
        assert_eq!(snap.gauges[&format!("sched.{name}.hit_ratio")], measured_h);
    }
    // Sanity on the spectrum itself: Belady on a loyal looping trace
    // hits after warmup; AlwaysMiss never does.
    // (3 tasks cycling over 2 PRRs: Belady keeps the farthest-reuse out.)
}

/// Golden test for the Chrome trace-event export: the serialized trace
/// must parse as JSON, every event must carry the complete-event fields,
/// events must not overlap within one (pid, tid) lane, and no event may
/// extend past the simulation's end time.
#[test]
fn chrome_trace_is_valid_and_well_ordered() {
    let timeline = peak_timeline(Panel::Measured, 30, &ExecCtx::default());
    let events = timeline.chrome_events(1);
    assert!(!events.is_empty());

    // Valid JSON array of trace-event objects.
    let json = serde_json::to_string(&events).expect("events serialize");
    let parsed = serde_json::from_str(&json).expect("trace parses as JSON");
    let arr = parsed.as_array().expect("trace is a JSON array");
    assert_eq!(arr.len(), events.len());
    for ev in arr {
        assert_eq!(ev["ph"], "X", "complete events only");
        assert!(ev["name"].as_str().is_some_and(|n| !n.is_empty()));
        for field in ["ts", "dur", "pid", "tid"] {
            assert!(ev[field].as_u64().is_some(), "missing {field}: {ev:?}");
        }
    }

    // Non-overlapping per (pid, tid): sort by lane then start.
    let mut evs = events.clone();
    evs.sort_by_key(|e| (e.pid, e.tid, e.ts));
    for pair in evs.windows(2) {
        let (a, b) = (&pair[0], &pair[1]);
        if (a.pid, a.tid) == (b.pid, b.tid) {
            assert!(
                a.ts + a.dur <= b.ts,
                "overlap on tid {}: [{}, {}] then [{}, {}]",
                a.tid,
                a.ts,
                a.ts + a.dur,
                b.ts,
                b.ts + b.dur
            );
        }
    }

    // Nothing extends past the simulation end (floored to µs, as the
    // export floors both endpoints).
    let end_us = timeline.span_end().0 / 1_000;
    for e in &events {
        assert!(e.ts + e.dur <= end_us, "event past sim end: {e:?}");
    }
}

/// The `--trace` export's metrics snapshot round-trips through JSON with
/// the measured quantities the acceptance criteria name: config-port
/// utilization, per-lane busy time, and the measured cache hit ratio.
#[test]
fn metrics_snapshot_serializes_acceptance_quantities() {
    let node = NodeConfig::xd1_measured(&Floorplan::xd1_dual_prr());
    let registry = Registry::new();
    let ctx = ExecCtx::default().with_registry(registry.clone());
    let _ = prtr_bounds::exp::scenario::figure9_point(&node, node.t_prtr_s(), 50, &ctx);
    let snap = registry.snapshot();
    let json = serde_json::to_string_pretty(&snap).expect("snapshot serializes");
    let v = serde_json::from_str(&json).expect("snapshot parses");
    assert!(
        v["gauges"]["sim.prtr.config_port.utilization"]
            .as_f64()
            .unwrap()
            > 0.0
    );
    assert!(v["gauges"]["sim.prtr.lane_busy_s.config"].as_f64().unwrap() > 0.0);
    assert_eq!(v["gauges"]["exp.measured_hit_ratio"].as_f64().unwrap(), 0.0);
    assert_eq!(
        v["counters"]["sched.always-miss.calls"].as_u64().unwrap(),
        50
    );
    assert!(
        v["histograms"]["sim.prtr.call_latency_s"]["count"]
            .as_u64()
            .unwrap()
            > 0
    );
}

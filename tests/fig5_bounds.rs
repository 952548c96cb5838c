//! Figure 5's headline bounds, checked against the data the experiments
//! report (and therefore write to their CSV and JSON artifacts).
//!
//! Figure 9 runs at `H = 0`, where PAPER.md's Fig 5 bounds read: the
//! speedup peaks at `1 + 1/X_PRTR`, and for `X_task ≥ 1` it never
//! exceeds 2. Every simulated sweep point must respect both, within a
//! 0.1% tolerance (ten times tighter than the model-simulator agreement
//! `validate` checks). The same peak bound holds for every ICAP variant
//! of `ext-icap` at its own `X_PRTR`, and at `H ≠ 0` (`ext-prefetch`)
//! no simulated point beats the model's speedup at its measured `H`.

use prtr_bounds::ctx::ExecCtx;
use prtr_bounds::exp::run_experiment;

/// Relative tolerance of a simulated speedup over a closed-form bound.
const TOL: f64 = 1e-3;

#[test]
fn fig9_points_respect_the_fig5_bounds() {
    for id in ["fig9a", "fig9b"] {
        let report = run_experiment(id, &ExecCtx::default()).unwrap();
        let x_prtr = report.json["x_prtr"].as_f64().unwrap();
        let points = report.json["points"].as_array().unwrap();
        assert!(points.len() > 10, "{id}: sweep too short");
        let mut long_tasks = 0;
        for p in points {
            let x_task = p["x_task"].as_f64().unwrap();
            let s = p["speedup_sim"].as_f64().unwrap();
            let peak = 1.0 + 1.0 / x_prtr;
            assert!(
                s <= peak * (1.0 + TOL),
                "{id}: S = {s} at X_task = {x_task} exceeds 1 + 1/X_PRTR = {peak}"
            );
            if x_task >= 1.0 {
                long_tasks += 1;
                assert!(
                    s <= 2.0 * (1.0 + TOL),
                    "{id}: S = {s} at X_task = {x_task} >= 1 exceeds 2"
                );
            }
        }
        assert!(long_tasks > 0, "{id}: the sweep must reach X_task >= 1");
    }
}

#[test]
fn ext_icap_peaks_respect_their_own_fig5_bound() {
    let report = run_experiment("ext-icap", &ExecCtx::default()).unwrap();
    let variants = report.json.as_array().unwrap();
    assert!(variants.len() >= 5, "ext-icap: too few variants");
    for v in variants {
        let name = v["variant"].as_str().unwrap();
        let x_prtr = v["x_prtr"].as_f64().unwrap();
        let s = v["peak_speedup_sim"].as_f64().unwrap();
        let peak = 1.0 + 1.0 / x_prtr;
        assert!(
            s <= peak * (1.0 + TOL),
            "ext-icap {name}: peak S = {s} exceeds 1 + 1/X_PRTR = {peak}"
        );
    }
}

#[test]
fn ext_prefetch_points_stay_under_the_model() {
    let report = run_experiment("ext-prefetch", &ExecCtx::default()).unwrap();
    let points = report.json.as_array().unwrap();
    assert_eq!(points.len(), 5 * 7, "ext-prefetch: policy x workload grid");
    assert!(
        points
            .iter()
            .any(|p| p["hit_ratio"].as_f64().unwrap() > 0.0),
        "ext-prefetch: the grid must reach H > 0"
    );
    for p in points {
        let s = p["speedup_sim"].as_f64().unwrap();
        let model = p["speedup_model"].as_f64().unwrap();
        assert!(
            s <= model * (1.0 + TOL),
            "ext-prefetch {} / {}: S = {s} exceeds the model's {model} at H = {}",
            p["trace"],
            p["policy"],
            p["hit_ratio"]
        );
    }
}
